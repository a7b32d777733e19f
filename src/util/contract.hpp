// Contract checking in the spirit of the C++ Core Guidelines GSL
// (Expects/Ensures). Violations throw rather than abort so that tests can
// assert on misuse and long-running sweeps fail loudly but catchably.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace specpf {

/// Thrown when a precondition, postcondition, or invariant is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line) {
  throw ContractViolation(std::string(kind) + " failed: " + expr + " at " +
                          file + ":" + std::to_string(line));
}
}  // namespace detail

/// Throws ContractViolation carrying `error` unless it is empty: how a
/// config's validate() asserts its check() message.
inline void expect_valid(const std::string& error) {
  if (!error.empty()) throw ContractViolation("precondition failed: " + error);
}

/// check()'s message for a field that breaks its rule:
/// "<field>: <rule>, got <value>".
std::string config_error(std::string_view field, std::string_view rule,
                         double value);
std::string config_error(std::string_view field, std::string_view rule,
                         std::uint64_t value);
std::string config_error(std::string_view field, std::string_view rule,
                         std::string_view value);

/// The rule for rates, sizes, bandwidths and durations.
inline bool positive_finite(double x) { return x > 0.0 && std::isfinite(x); }

}  // namespace specpf

#define SPECPF_EXPECTS(cond)                                                \
  do {                                                                      \
    if (!(cond))                                                            \
      ::specpf::detail::contract_fail("precondition", #cond, __FILE__,      \
                                      __LINE__);                            \
  } while (false)

#define SPECPF_ENSURES(cond)                                                \
  do {                                                                      \
    if (!(cond))                                                            \
      ::specpf::detail::contract_fail("postcondition", #cond, __FILE__,     \
                                      __LINE__);                            \
  } while (false)

#define SPECPF_ASSERT(cond)                                                 \
  do {                                                                      \
    if (!(cond))                                                            \
      ::specpf::detail::contract_fail("invariant", #cond, __FILE__,         \
                                      __LINE__);                            \
  } while (false)

// Debug-only invariant check for per-access hot paths (flat-hash probes,
// arena residency scans): full SPECPF_ASSERT semantics in Debug builds,
// compiled out entirely in Release (NDEBUG) so the data-plane inner loops
// carry no branch. The structural audit layer (util/audit.hpp) is the
// Release-capable safety net for the same invariants.
#ifdef NDEBUG
#define SPECPF_DCHECK(cond) \
  do {                      \
  } while (false)
#else
#define SPECPF_DCHECK(cond)                                                 \
  do {                                                                      \
    if (!(cond))                                                            \
      ::specpf::detail::contract_fail("debug invariant", #cond, __FILE__,   \
                                      __LINE__);                            \
  } while (false)
#endif
