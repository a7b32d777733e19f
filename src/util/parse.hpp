// Strict text-to-number parsing, shared by the command-line flag parser
// (util/argparse.hpp) and the `<prefix><number>` name factories
// (make_policy_by_name, make_governor_by_name), so a value is either read
// exactly as typed or rejected — never truncated, wrapped or half-parsed.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace specpf {

/// Whole-string, range-checked parse: false on an empty value, leading
/// whitespace or '+', trailing characters, or a value outside T's range.
/// For an unsigned T a leading '-' is rejected too.
template <typename T>
bool parse_exact(std::string_view text, T* out) {
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, *out);
  return !text.empty() && ec == std::errc() && end == last;
}

/// The number after `prefix` in a `<prefix><number>` name: false unless
/// `name` starts with `prefix` and the rest parses whole as T (for double,
/// a finite one — "nan" and "inf" are not numbers here).
template <typename T>
bool parse_name_suffix(std::string_view name, std::string_view prefix,
                       T* out) {
  if (!name.starts_with(prefix)) return false;
  T value{};
  if (!parse_exact(name.substr(prefix.size()), &value)) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

}  // namespace specpf
