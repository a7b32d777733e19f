// Command-line flags for the example and report binaries. Every flag is
// declared with a kind, and parse() checks each value given against its
// kind before main reads any: a value is read exactly as typed, or the
// binary exits 2 naming the flag. The typed getters then only convert.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace specpf {

/// What a flag's value must be. `--help` prints each flag's `label`.
struct FlagKind {
  enum class Base : std::uint8_t {
    kBool,            ///< true|false (also 1|0, yes|no, on|off)
    kUint,            ///< non-negative integer
    kPositiveUint,    ///< positive integer
    kNumber,          ///< finite number
    kPositiveNumber,  ///< positive finite number
    kName,            ///< a name `known` accepts
    kInputPath,       ///< a file that opens for reading; "" = off
    kOutputPath,      ///< a file that opens for writing; "" = off
  };
  Base base;
  /// What one value must be, as `--help` and the errors show it.
  std::string label;
  /// A comma-separated list of `base` values. A number list rejects an
  /// empty token; a name list skips one.
  bool list = false;
  /// kName only: whether a token names something.
  std::function<bool(const std::string&)> known = {};
};

namespace flag {
inline const FlagKind kBool{FlagKind::Base::kBool, "boolean"};
inline const FlagKind kUint{FlagKind::Base::kUint, "non-negative integer"};
inline const FlagKind kPositiveUint{FlagKind::Base::kPositiveUint,
                                    "positive integer"};
inline const FlagKind kNumber{FlagKind::Base::kNumber, "finite number"};
inline const FlagKind kPositiveNumber{FlagKind::Base::kPositiveNumber,
                                      "positive finite number"};
inline const FlagKind kInputPath{FlagKind::Base::kInputPath, "readable path"};
inline const FlagKind kOutputPath{FlagKind::Base::kOutputPath,
                                  "writable path"};

/// One name that `known` accepts, shown as `label` ("policy name").
FlagKind name(std::string label,
              std::function<bool(const std::string&)> known);
/// A comma-separated list of `element` values (numbers or names).
FlagKind list(FlagKind element);
}  // namespace flag

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declares --<name> of `kind`. The default must be a value of the kind
  /// (a path kind takes any default; "" means off): one that is not is a
  /// bug and trips SPECPF_EXPECTS.
  ArgParser& add_flag(const std::string& name, FlagKind kind,
                      const std::string& default_value,
                      const std::string& help);

  /// Reads argv as --name=value or --name value; a bool flag also stands
  /// bare, or takes a following true/false word. Every value is checked
  /// against its flag's kind here, a path kind's by opening the file (an
  /// output probe leaves no file where there was none). --help or -h
  /// prints usage to stdout and exits 0. An unknown flag, a missing or bad
  /// value, or a leftover positional prints the error plus usage to stderr
  /// and exits 2; a flag's error begins `--<flag>: `.
  void parse(int argc, const char* const* argv);

  /// The flag's value. parse() has checked it against the flag's kind, so
  /// these only convert; asking a flag for a type its kind is not is a bug.
  /// get_string returns any flag's text as typed.
  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  /// A list flag's tokens as double, std::uint64_t or (names) std::string.
  template <typename T>
  std::vector<T> get_list(const std::string& name) const;

  /// The edge check for a driver config: a non-empty `error` (the config's
  /// check() message, `<field>: <rule>, got <value>`) is printed with
  /// usage to stderr and exits with status 2, as a bad flag value does.
  void require_valid(const std::string& error) const;

  /// (field, flag) pairs: which flag sets each field of a check.
  using FieldFlags =
      std::initializer_list<std::pair<std::string_view, std::string_view>>;

  /// require_valid for a check whose fields flags set: an `error` on a
  /// field listed in `flags` begins `--<flag>: `, so the message names what
  /// was typed.
  void require_valid(const std::string& error, FieldFlags flags) const;

  /// Prints `--<flag>: expected <type>, got '<value>'` plus usage to stderr
  /// and exits with status 2: parse()'s rejection, for a value of the
  /// flag's kind that falls outside a domain only the caller knows.
  [[noreturn]] void reject_value(const std::string& name,
                                 const std::string& type,
                                 const std::string& value) const;

  std::string usage() const;

 private:
  struct Flag {
    FlagKind kind;
    std::string default_value;
    std::string help;
    std::string value;
  };

  /// Prints the concatenated `error` plus usage to stderr and exits 2.
  [[noreturn]] void fail(std::initializer_list<std::string_view> error) const;
  /// The flag, asserted to be of one of `bases` and to be a list or not.
  const Flag& typed(const std::string& name, bool list,
                    std::initializer_list<FlagKind::Base> bases) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace specpf
