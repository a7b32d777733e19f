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
  /// get_double / get_uint that also reject zero, negatives and (for the
  /// double) non-finite values, for rates, latencies and shard counts.
  double get_positive_double(const std::string& name) const;
  std::uint64_t get_positive_uint(const std::string& name) const;

  /// A comma-separated list flag, every token read whole as T (double or
  /// std::uint64_t) under the same rules as get_double / get_uint, and a
  /// double also finite. An empty token (`1,,2`, a trailing comma, an
  /// empty value) or a bad one prints `--<flag>: expected <type>, got
  /// '<token>'` plus usage and exits with status 2.
  template <typename T>
  std::vector<T> get_list(const std::string& name) const;
  /// get_list<double> that also rejects zero and negative tokens, for
  /// bandwidth and rate sweeps: `--<flag>: expected positive finite
  /// number, got '<token>'` plus usage, exit status 2.
  std::vector<double> get_positive_list(const std::string& name) const;

  /// The edge check for a driver config: a non-empty `error` (the config's
  /// check() message, `<field>: <rule>, got <value>`) is printed with
  /// usage to stderr and exits with status 2, as a bad flag value does.
  void require_valid(const std::string& error) const;

  /// Rejects `path` as `--<flag>: expected writable path, got '<path>'`
  /// plus usage, exit status 2, unless it opens for writing: for exports
  /// written only after a long run. The probe leaves no file where there
  /// was none.
  void require_writable(const std::string& name,
                        const std::string& path) const;

  /// Prints `--<flag>: expected <type>, got '<value>'` plus usage to stderr
  /// and exits with status 2: the typed accessors' rejection, for a value
  /// that parsed but falls outside a domain only the caller knows.
  [[noreturn]] void reject_value(const std::string& name,
                                 const std::string& type,
                                 const std::string& value) const;

  /// Positional arguments left over after flag parsing.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  /// Splits the flag on commas and reads every token whole as T; a token
  /// that fails to parse or that `accept` refuses is rejected as `type`.
  template <typename T, typename Accept>
  std::vector<T> parse_list(const std::string& name, const char* type,
                            Accept accept) const;

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
/// shared helper behind the name-list example flags (policies, governors,
/// scenarios); numeric lists use ArgParser::get_list.
std::vector<std::string> split_csv(const std::string& csv);

}  // namespace specpf
