// Unit tests for src/common: Status/Result, RNG + Zipf, serialization,
// thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace los {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status FailingHelper() { return Status::IoError("disk"); }

Status UsesReturnNotOk() {
  LOS_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(UsesReturnNotOk().code(), StatusCode::kIoError);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Uniform(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformRange(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    saw_lo |= v == -2;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfTest, SamplesWithinRange) {
  Rng rng(1);
  ZipfSampler z(100, 1.0);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Sample(&rng), 100u);
}

TEST(ZipfTest, SkewFavorsHead) {
  Rng rng(2);
  ZipfSampler z(1000, 1.2);
  const int n = 50000;
  int head = 0;
  for (int i = 0; i < n; ++i) {
    if (z.Sample(&rng) < 10) ++head;
  }
  // With skew 1.2, the top-10 ranks should dominate.
  EXPECT_GT(head, n / 3);
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  Rng rng(4);
  ZipfSampler z(50, 0.0);
  std::vector<int> counts(50, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 50, n / 50 * 0.25);
}

TEST(ZipfTest, RankOrderingMonotone) {
  Rng rng(6);
  ZipfSampler z(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 200000; ++i) ++counts[z.Sample(&rng)];
  // Rank 0 must beat rank 10 which must beat rank 90 (sampling noise aside).
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(SerializeTest, RoundTripScalars) {
  BinaryWriter w;
  w.WriteU32(7);
  w.WriteU64(1ull << 40);
  w.WriteI64(-5);
  w.WriteF32(1.5f);
  w.WriteF64(-2.25);
  w.WriteString("hello");
  BinaryReader r(w.bytes());
  EXPECT_EQ(*r.ReadU32(), 7u);
  EXPECT_EQ(*r.ReadU64(), 1ull << 40);
  EXPECT_EQ(*r.ReadI64(), -5);
  EXPECT_EQ(*r.ReadF32(), 1.5f);
  EXPECT_EQ(*r.ReadF64(), -2.25);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, RoundTripVector) {
  BinaryWriter w;
  std::vector<float> v{1.0f, 2.0f, 3.5f};
  w.WriteVector(v);
  BinaryReader r(w.bytes());
  auto back = r.ReadVector<float>();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, v);
}

TEST(SerializeTest, TruncatedBufferIsError) {
  BinaryWriter w;
  w.WriteU32(1);
  std::vector<uint8_t> bytes = w.bytes();
  bytes.pop_back();
  BinaryReader r(std::move(bytes));
  EXPECT_FALSE(r.ReadU32().ok());
}

TEST(SerializeTest, TruncatedVectorIsError) {
  BinaryWriter w;
  w.WriteU64(1000);  // claims 1000 elements, provides none
  BinaryReader r(w.bytes());
  EXPECT_FALSE(r.ReadVector<double>().ok());
}

TEST(SerializeTest, FileRoundTrip) {
  BinaryWriter w;
  w.WriteString("persisted");
  std::string path = testing::TempDir() + "/los_serialize_test.bin";
  ASSERT_TRUE(w.WriteToFile(path).ok());
  auto r = BinaryReader::FromFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->ReadString(), "persisted");
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsError) {
  EXPECT_FALSE(BinaryReader::FromFile("/nonexistent/nope.bin").ok());
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(
      1000,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      /*min_chunk=*/10);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, TinyRangeRunsInline) {
  ThreadPool pool(4);
  int count = 0;
  pool.ParallelFor(5, [&](size_t b, size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count, 5);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

// Regression: ParallelFor used to block until pool workers ran every
// chunk, so when no worker could take one (all busy, or a wakeup lost) the
// caller waited forever. The caller now claims chunks itself. Every worker
// is parked inside another ParallelFor's chunk, then the test thread's own
// loop must still finish, covering its range exactly once.
TEST(ThreadPoolTest, ParallelForCompletesWhileEveryWorkerIsBusy) {
  constexpr size_t kWorkers = 2;
  ThreadPool pool(kWorkers);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<size_t> workers_parked{0};
  static thread_local bool t_parker = false;
  // Each parker thread runs a two-chunk loop: it parks in one chunk itself
  // and leaves the other to a worker, which parks there too.
  std::vector<std::thread> parkers;
  for (size_t i = 0; i < kWorkers; ++i) {
    parkers.emplace_back([&] {
      t_parker = true;
      pool.ParallelFor(
          2,
          [&](size_t, size_t) {
            if (!t_parker) workers_parked.fetch_add(1);
            released.wait();
          },
          /*min_chunk=*/1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (workers_parked.load() < kWorkers &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(workers_parked.load(), kWorkers);

  std::vector<std::atomic<int>> hits(1000);
  auto loop = std::async(std::launch::async, [&] {
    pool.ParallelFor(
        hits.size(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        /*min_chunk=*/10);
  });
  const bool finished =
      loop.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();  // unpark, so a failing run still ends
  loop.get();
  for (auto& t : parkers) t.join();
  EXPECT_TRUE(finished) << "ParallelFor waited on busy workers";
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

double benchmark_sink = 0;  // defeats optimization of the timing loop

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  benchmark_sink = x;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds());  // ms >= s numerically
}

}  // namespace
}  // namespace los
