// Tiny declarative command-line parser for the bench/example binaries.
//
// Every harness binary must run with *no* arguments (the reproduction driver
// executes them bare), so all options carry defaults; flags only refine runs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cspls::util {

/// Declarative option set:  describe options once, parse argv, query typed
/// values.  Unknown options raise; `--help` prints the synopsis and sets
/// help_requested().
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  ArgParser& add_flag(std::string name, std::string help);
  ArgParser& add_int(std::string name, std::int64_t default_value,
                     std::string help);
  /// Full-range unsigned option (seeds!): values up to 2^64-1 parse
  /// exactly and negative input is rejected instead of wrapping.
  ArgParser& add_uint64(std::string name, std::uint64_t default_value,
                        std::string help);
  ArgParser& add_string(std::string name, std::string default_value,
                        std::string help);

  /// Parse argv.  Returns false (after printing usage) if --help was given or
  /// on a parse error; callers should exit(0)/exit(2) respectively.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool flag(std::string_view name) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] std::uint64_t get_uint64(std::string_view name) const;
  [[nodiscard]] const std::string& get_string(std::string_view name) const;

  [[nodiscard]] bool help_requested() const noexcept { return help_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kFlag, kInt, kUint64, kString };
  struct Option {
    Kind kind = Kind::kFlag;
    std::string help;
    bool flag_value = false;
    std::int64_t int_value = 0;
    std::uint64_t uint64_value = 0;
    std::string string_value;
  };

  const Option& lookup(std::string_view name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option, std::less<>> options_;
  std::vector<std::string> order_;
  bool help_ = false;
  std::string error_;
};

}  // namespace cspls::util
