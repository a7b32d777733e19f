// Minimal command-line flag parser for examples and bench binaries.
// Supports --name=value, --name value, and boolean --flag forms, typed
// accessors with defaults, and auto-generated --help.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specpf {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers a flag with a default value (all values stored as strings).
  ArgParser& add_flag(const std::string& name, const std::string& default_value,
                      const std::string& help);

  /// Parses argv. Returns false (after printing usage) on --help or on an
  /// unknown/malformed flag.
  bool parse(int argc, const char* const* argv);

  /// Typed accessors. A value that does not parse as a whole — `10x` or
  /// `abc` for an integer, `-5` for an unsigned one, an out-of-range
  /// number, a boolean spelled other than true/false/1/0/yes/no/on/off —
  /// prints `--<flag>: expected <type>, got '<value>'` plus usage to stderr
  /// and exits with status 2. Counts, sizes and seeds use get_uint.
  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Positional arguments left over after flag parsing.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  [[noreturn]] void reject_value(const std::string& name, const char* type,
                                 const std::string& value) const;

  struct Flag {
    std::string default_value;
    std::string help;
    std::string value;
    bool set = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

/// Splits a comma-separated flag value into its non-empty tokens — the
/// shared helper behind every list-valued example flag (policies,
/// governors, scenarios, thread counts, bandwidth sweeps).
std::vector<std::string> split_csv(const std::string& csv);

}  // namespace specpf
