// Minimal command-line flag parsing for the bench and example binaries.
//
// Supports --name=value and --name value forms plus boolean switches. Unknown
// flags are an error so typos in sweep scripts fail loudly: every program
// enters through run_main(), which reports a malformed command line with
// the program's usage and a non-zero exit status.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace airfinger::common {

/// A malformed command line: an unknown flag, a missing value, or a value
/// of the wrong type. Carries the parser's usage text for the report.
class UsageError : public PreconditionError {
 public:
  UsageError(const std::string& what, std::string usage)
      : PreconditionError(what), usage_(std::move(usage)) {}
  const std::string& usage() const { return usage_; }

 private:
  std::string usage_;
};

/// The entry point of every command-line program: returns body(argc, argv).
/// A PreconditionError escaping the body is reported on stderr as
/// "<program>: <message>" instead of ending in std::terminate; the exit
/// status is 2 for a UsageError, whose usage text follows the message, and
/// 1 for any other (an input the program cannot use).
int run_main(int argc, char** argv, int (*body)(int, char**));

/// Declarative flag set parsed from argv.
class Cli {
 public:
  /// program_name is used in the --help banner.
  explicit Cli(std::string program_name, std::string description = "");

  /// Registers a flag with a default value and help text. Call before parse.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv. Returns false (after printing usage) when --help was given.
  /// Throws UsageError for unknown flags or missing values.
  bool parse(int argc, const char* const* argv);

  /// Typed accessors. Throw PreconditionError if the flag was never
  /// registered, UsageError if its value does not parse as the type.
  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Usage string listing all registered flags.
  std::string usage() const;

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw UsageError(message, usage());
  }

  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace airfinger::common
