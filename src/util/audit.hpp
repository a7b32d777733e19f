// Structural audit layer — deep-invariant walkers for the slab planes.
//
// PRs 1-6 moved every hot structure onto hand-rolled arenas (DES handle
// slabs, CacheArena, ContextArena, FlatHashMap). Slabs never
// return memory to the allocator, so AddressSanitizer is blind to the bug
// classes that matter most here: a stale {slot, generation} handle, a
// recycled successor slot, or a desynced residency entry all read *valid*
// memory and silently corrupt a sweep. The audit layer makes those bugs
// fail loudly instead: every arena-backed structure exposes an
// `audit(AuditReport&)` walker that re-derives its invariants from scratch
// (probe-distance monotonicity, free-list acyclicity, chain <-> index
// agreement, successor-total conservation, cross-structure accounting).
//
// Two ways to run the walkers:
//   * directly, from tests — always compiled, any build type;
//   * automatically, in SPECPF_AUDIT builds (cmake -DSPECPF_AUDIT=ON):
//     StackRuntime sweeps at begin_measurement/finalize and ShardedSim
//     sweeps at epoch barriers (power-of-two sampled), throwing
//     ContractViolation on the first failed sweep.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/contract.hpp"

namespace specpf {

/// True in SPECPF_AUDIT builds: the runtimes run audit sweeps automatically
/// and the DES engine defaults to slab poisoning + generation shadowing.
#if defined(SPECPF_AUDIT_BUILD)
inline constexpr bool kAuditBuild = true;
#else
inline constexpr bool kAuditBuild = false;
#endif

/// Test-only mutator: corruption-injection tests define this struct (it is
/// a friend of every auditable structure) to break invariants on purpose
/// and assert the walkers report them. Never defined in the library.
struct AuditPeer;

/// Collects the outcome of one audit sweep: a count of checks performed and
/// a bounded list of human-readable failures, each prefixed with the scope
/// path of the walker that found it.
class AuditReport {
 public:
  /// Records one invariant check. Returns `ok` so walkers can guard
  /// follow-on checks that would be meaningless (or unsafe) after a
  /// failure, e.g. skip walking a chain whose head is out of range.
  bool check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) fail(what);
    return ok;
  }

  /// Records a failure unconditionally.
  void fail(const std::string& what) {
    if (failures_.size() < kMaxFailures) {
      failures_.push_back(scope_path() + what);
    } else {
      ++suppressed_;
    }
  }

  bool ok() const { return failures_.empty(); }
  std::uint64_t checks() const { return checks_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// One line per failure (plus a suppression note when the cap was hit).
  std::string summary() const {
    if (ok()) return "audit clean (" + std::to_string(checks_) + " checks)";
    std::string out = "audit FAILED (" + std::to_string(failures_.size()) +
                      " of " + std::to_string(checks_) + " checks):";
    for (const std::string& f : failures_) out += "\n  " + f;
    if (suppressed_ > 0) {
      out += "\n  ... " + std::to_string(suppressed_) + " more suppressed";
    }
    return out;
  }

  /// Throws ContractViolation when any check failed; the runtimes call this
  /// after automatic sweeps so corruption stops the run at the barrier
  /// where it was first observable.
  void require() const {
    if (!ok()) throw ContractViolation(summary());
  }

 private:
  friend class AuditScope;
  static constexpr std::size_t kMaxFailures = 64;

  std::string scope_path() const {
    std::string out;
    for (const std::string& s : scopes_) {
      out += s;
      out += ": ";
    }
    return out;
  }

  std::vector<std::string> scopes_;
  std::vector<std::string> failures_;
  std::uint64_t checks_ = 0;
  std::uint64_t suppressed_ = 0;
};

/// RAII scope label: failures recorded while alive are prefixed with
/// "label: ", nesting with outer scopes.
class AuditScope {
 public:
  AuditScope(AuditReport& report, std::string label) : report_(report) {
    report_.scopes_.push_back(std::move(label));
  }
  ~AuditScope() { report_.scopes_.pop_back(); }
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

 private:
  AuditReport& report_;
};

}  // namespace specpf
