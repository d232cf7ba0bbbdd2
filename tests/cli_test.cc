// In-process tests of the `los` CLI: argument parsing, generate/stats, the
// full build→query workflow for all three tasks, the monitor demo's closed
// loop for all three tasks, and error paths.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace los::cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/los_cli_" + name;
  }

  int Run(const std::vector<std::string>& args) {
    out_.str("");
    return RunCli(args, out_);
  }

  std::string output() const { return out_.str(); }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream f(path);
    f << content;
  }

  std::ostringstream out_;
};

TEST_F(CliTest, NoCommandPrintsUsageAndFails) {
  EXPECT_EQ(Run({}), 1);
  EXPECT_NE(output().find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(output().find("usage:"), std::string::npos);
  // The command list, in order: each entry opens a two-space-indented line.
  std::istringstream lines(output().substr(0, output().find("options:")));
  std::vector<std::string> commands;
  for (std::string line; std::getline(lines, line);) {
    if (line.size() > 2 && line.rfind("  ", 0) == 0 && line[2] != ' ') {
      commands.push_back(line.substr(2, line.find(' ', 2) - 2));
    }
  }
  EXPECT_EQ(commands, (std::vector<std::string>{"generate", "stats", "build",
                                                "query", "monitor"}));
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(Run({"frobnicate"}), 1);
  EXPECT_NE(output().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenerateRequiresArgs) {
  EXPECT_EQ(Run({"generate"}), 1);
  EXPECT_NE(output().find("error"), std::string::npos);
}

TEST_F(CliTest, GenerateAndStats) {
  std::string path = TempPath("gen.txt");
  ASSERT_EQ(Run({"generate", "--dataset=sd", "--output=" + path,
                 "--scale=0.03"}),
            0);
  EXPECT_NE(output().find("wrote"), std::string::npos);
  ASSERT_EQ(Run({"stats", "--input=" + path}), 0);
  EXPECT_NE(output().find("sets:"), std::string::npos);
  EXPECT_NE(output().find("set sizes:         6..7"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CliTest, GenerateUnknownDatasetFails) {
  EXPECT_EQ(Run({"generate", "--dataset=nope", "--output=/tmp/x"}), 1);
}

TEST_F(CliTest, StatsMissingFileFails) {
  EXPECT_EQ(Run({"stats", "--input=/nonexistent/sets.txt"}), 1);
}

TEST_F(CliTest, BuildRejectsUnknownTask) {
  std::string in = TempPath("tiny.txt");
  WriteFile(in, "a b\nb c\n");
  EXPECT_EQ(Run({"build", "--task=wat", "--input=" + in,
                 "--output=" + TempPath("m.bin")}),
            1);
  std::remove(in.c_str());
}

TEST_F(CliTest, CardinalityWorkflow) {
  std::string in = TempPath("card_in.txt");
  // "a b" occurs in 3 of 4 sets.
  WriteFile(in, "a b c\nd a b\na b e\nc d\n");
  std::string model = TempPath("card.bin");
  ASSERT_EQ(Run({"build", "--task=cardinality", "--input=" + in,
                 "--output=" + model, "--epochs=150",
                 "--learning-rate=0.01"}),
            0)
      << output();
  ASSERT_EQ(Run({"query", "--task=cardinality", "--model=" + model,
                 "--query=a b"}),
            0)
      << output();
  // Expect an estimate near 3 (allowing generous training slack: >= 1).
  EXPECT_NE(output().find("a b -> "), std::string::npos);
  std::remove(in.c_str());
  std::remove(model.c_str());
}

TEST_F(CliTest, IndexWorkflow) {
  std::string in = TempPath("idx_in.txt");
  WriteFile(in, "x y\ny z\nx y z\n");
  std::string model = TempPath("idx.bin");
  ASSERT_EQ(Run({"build", "--task=index", "--input=" + in,
                 "--output=" + model, "--epochs=150", "--hybrid",
                 "--learning-rate=0.01"}),
            0)
      << output();
  ASSERT_EQ(Run({"query", "--task=index", "--model=" + model,
                 "--query=y z", "--query=x z"}),
            0)
      << output();
  EXPECT_NE(output().find("y z -> position 1"), std::string::npos)
      << output();
  EXPECT_NE(output().find("x z -> position 2"), std::string::npos)
      << output();
  std::remove(in.c_str());
  std::remove(model.c_str());
}

TEST_F(CliTest, BloomWorkflow) {
  std::string in = TempPath("bloom_in.txt");
  WriteFile(in, "p q\nq r\np q r s\n");
  std::string model = TempPath("bloom.bin");
  ASSERT_EQ(Run({"build", "--task=bloom", "--input=" + in,
                 "--output=" + model, "--epochs=50"}),
            0)
      << output();
  ASSERT_EQ(Run({"query", "--task=bloom", "--model=" + model,
                 "--query=p q", "--query=unknown_token"}),
            0)
      << output();
  EXPECT_NE(output().find("p q -> maybe present"), std::string::npos)
      << output();
  EXPECT_NE(output().find("unknown_token -> absent"), std::string::npos);
  std::remove(in.c_str());
  std::remove(model.c_str());
}

TEST_F(CliTest, MonitorClosesTheLoopForEveryTask) {
  std::string in = TempPath("monitor_in.txt");
  ASSERT_EQ(Run({"generate", "--dataset=rw-small", "--output=" + in,
                 "--scale=0.1"}),
            0)
      << output();
  for (const char* task : {"cardinality", "index", "bloom"}) {
    SCOPED_TRACE(task);
    ASSERT_EQ(Run({"monitor", std::string("--task=") + task, "--input=" + in}),
              0)
        << output();
    const std::string out = output();
    const size_t phase_b = out.find("phase B drifted:");
    ASSERT_NE(phase_b, std::string::npos) << out;
    const std::string phase_b_line =
        out.substr(phase_b, out.find('\n', phase_b) - phase_b);
    EXPECT_NE(phase_b_line.find("[retrain triggered]"), std::string::npos)
        << out;
    EXPECT_NE(out.find("quality rebuilds completed: 1\n"), std::string::npos)
        << out;
    // The index oracle is grounded on the published generation, so updates
    // not yet published do not count as misses.
    if (std::string(task) == "index") {
      EXPECT_NE(phase_b_line.find("misses 0"), std::string::npos) << out;
    }
  }
  std::remove(in.c_str());
}

TEST_F(CliTest, MetricsFlagDumpsJsonLines) {
  std::string in = TempPath("metrics_in.txt");
  WriteFile(in, "p q\nq r\np q r s\n");
  std::string model = TempPath("metrics.bin");
  ASSERT_EQ(Run({"build", "--task=bloom", "--input=" + in,
                 "--output=" + model, "--epochs=2"}),
            0)
      << output();
  ASSERT_EQ(Run({"query", "--task=bloom", "--model=" + model,
                 "--query=p q", "--metrics"}),
            0)
      << output();
  EXPECT_NE(output().find("{\"metric\":\"bloom.queries\""),
            std::string::npos)
      << output();
  EXPECT_NE(output().find("\"type\":\"histogram\""), std::string::npos);
  std::remove(in.c_str());
  std::remove(model.c_str());
}

TEST_F(CliTest, TraceOutWritesChromeTraceAndSummary) {
  std::string in = TempPath("trace_in.txt");
  WriteFile(in, "p q\nq r\np q r s\n");
  std::string model = TempPath("trace.bin");
  ASSERT_EQ(Run({"build", "--task=bloom", "--input=" + in,
                 "--output=" + model, "--epochs=2"}),
            0)
      << output();
  std::string trace = TempPath("trace.json");
  ASSERT_EQ(Run({"query", "--task=bloom", "--model=" + model,
                 "--query=p q", "--trace-out=" + trace, "--trace-sample=1",
                 "--metrics"}),
            0)
      << output();
  EXPECT_NE(output().find("wrote trace to"), std::string::npos) << output();
  std::ifstream f(trace);
  ASSERT_TRUE(f.good()) << "trace file missing: " << trace;
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  // The query's serving span made it into the Chrome trace...
  EXPECT_NE(buf.str().find("bloom.may_contain"), std::string::npos)
      << buf.str();
  // ...and the per-stage summary rides along with the --metrics dump.
  EXPECT_NE(output().find("trace.bloom.may_contain"), std::string::npos)
      << output();
  std::remove(in.c_str());
  std::remove(model.c_str());
  std::remove(trace.c_str());
}

TEST_F(CliTest, TraceOutUnwritablePathFails) {
  std::string in = TempPath("trace_bad_in.txt");
  WriteFile(in, "a b\nb c\n");
  std::string model = TempPath("trace_bad.bin");
  ASSERT_EQ(Run({"build", "--task=bloom", "--input=" + in,
                 "--output=" + model, "--epochs=2"}),
            0);
  EXPECT_EQ(Run({"query", "--task=bloom", "--model=" + model, "--query=a b",
                 "--trace-out=/nonexistent-dir/trace.json"}),
            1);
  EXPECT_NE(output().find("error"), std::string::npos);
  std::remove(in.c_str());
  std::remove(model.c_str());
}

TEST_F(CliTest, QueryRejectsTaskMismatch) {
  std::string in = TempPath("mm_in.txt");
  WriteFile(in, "a b\nb c\n");
  std::string model = TempPath("mm.bin");
  ASSERT_EQ(Run({"build", "--task=bloom", "--input=" + in,
                 "--output=" + model, "--epochs=2"}),
            0);
  EXPECT_EQ(Run({"query", "--task=index", "--model=" + model,
                 "--query=a b"}),
            1);
  EXPECT_NE(output().find("was built for task"), std::string::npos);
  std::remove(in.c_str());
  std::remove(model.c_str());
}

TEST_F(CliTest, QueryRejectsGarbageModelFile) {
  std::string model = TempPath("garbage.bin");
  WriteFile(model, "this is not a model");
  EXPECT_EQ(Run({"query", "--task=bloom", "--model=" + model,
                 "--query=a"}),
            1);
  std::remove(model.c_str());
}

TEST(ArgParserTest, ParsesCommandAndKv) {
  ArgParser p({"build", "--task=index", "--epochs=5", "--hybrid"});
  EXPECT_EQ(p.command(), "build");
  EXPECT_EQ(p.GetString("task"), "index");
  EXPECT_EQ(p.GetInt("epochs", 0), 5);
  EXPECT_TRUE(p.HasFlag("hybrid"));
  EXPECT_FALSE(p.HasFlag("compressed"));
  EXPECT_EQ(p.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(p.GetDouble("missing", 0.5), 0.5);
}

TEST(ArgParserTest, RepeatedKeysCollected) {
  ArgParser p({"query", "--query=a b", "--query=c"});
  auto all = p.GetAll("query");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "a b");
  EXPECT_EQ(all[1], "c");
}

TEST(ArgParserTest, UnknownKeysDetected) {
  ArgParser p({"build", "--task=index", "--typo=1"});
  auto unknown = p.UnknownKeys({"task"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

}  // namespace
}  // namespace los::cli
