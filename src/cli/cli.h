#ifndef LOS_CLI_CLI_H_
#define LOS_CLI_CLI_H_

#include <ostream>
#include <string>
#include <vector>

namespace los::cli {

/// \brief Entry point of the `los` command-line tool, factored out of
/// main() so tests can drive it in-process.
///
/// Commands:
///   generate --dataset=<rw-small|rw-mid|rw-large|tweets|sd> --output=F
///            [--scale=S] [--seed=N]
///   stats    --input=F
///   build    --task=<cardinality|index|bloom> --input=F --output=M
///            [--compressed] [--hybrid] [--epochs=N] [--max-subset-size=K]
///            [--keep-fraction=P]
///   query    --task=<cardinality|index|bloom> --model=M --input=F
///            --query="a b c" [--query=...]
///   monitor  --task=<cardinality|index|bloom> --input=F [--phase-queries=N]
///            [--updates=N] [--drift-threshold=X] [--epochs=N]
///            three-phase drift -> quality retrain -> recovery demo
///
/// Set files are text: one set per line, whitespace-separated tokens, `#`
/// comments. Model files bundle the dictionary with the trained structure,
/// so `query` accepts the original tokens.
///
/// Returns a process exit code (0 on success); all output goes to `out`.
int RunCli(const std::vector<std::string>& args, std::ostream& out);

/// \brief Minimal --key=value / --flag argument parser used by RunCli.
class ArgParser {
 public:
  explicit ArgParser(const std::vector<std::string>& args);

  /// Value of --key=...; `fallback` if absent.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  /// True if --key was given (with or without a value).
  bool HasFlag(const std::string& key) const;

  /// Repeated --key=... values in order.
  std::vector<std::string> GetAll(const std::string& key) const;

  /// First non-flag argument (the command), empty if none.
  const std::string& command() const { return command_; }

  /// Keys that were provided but never queried — typo detection.
  std::vector<std::string> UnknownKeys(
      const std::vector<std::string>& known) const;

 private:
  std::string command_;
  std::vector<std::pair<std::string, std::string>> kv_;
};

}  // namespace los::cli

#endif  // LOS_CLI_CLI_H_
