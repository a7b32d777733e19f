// Client-side measurement of the quantities the paper's closed forms
// predict: access time t̄, hit ratio h, retrieval time per request R, and
// the demand/prefetch traffic split.
#pragma once

#include <cstdint>

#include "stats/histogram.hpp"
#include "stats/running_stats.hpp"

namespace specpf {

class SimMetrics {
 public:
  /// Access outcomes. `access_time` is the user-perceived latency.
  void record_hit() { record_access(0.0, /*hit=*/true); }
  void record_miss(double access_time) { record_access(access_time, false); }

  /// Hit whose item was still being prefetched: user waits the remainder.
  void record_inflight_hit(double wait) {
    inflight_waits_.add(wait);
    record_access(wait, true);
  }

  std::uint64_t inflight_hits() const { return inflight_waits_.count(); }
  double mean_inflight_wait() const { return inflight_waits_.mean(); }

  /// Retrieval completions (demand + prefetch), with server sojourn.
  void record_demand_retrieval(double sojourn);
  void record_prefetch_retrieval(double sojourn);

  /// A prefetched item was evicted (or the run ended) without ever being
  /// accessed — wasted bandwidth.
  void record_wasted_prefetch() { ++wasted_prefetches_; }

  std::uint64_t requests() const { return requests_; }
  std::uint64_t hits() const { return hits_; }
  double hit_ratio() const;

  /// Mean user-perceived access time t̄ (hits contribute their wait, 0 when
  /// served instantly from cache).
  double mean_access_time() const { return access_times_.mean(); }
  const RunningStats& access_time_stats() const { return access_times_; }

  /// Access-time quantile (p in [0,1]) from a log2-binned histogram of the
  /// same samples the mean sees. Instant cache hits land in the lowest bin,
  /// so p50 of a mostly-hit run reads as ~1e-9 s — effectively zero.
  double access_time_quantile(double p) const {
    return access_hist_.quantile(p);
  }

  /// Mean retrieval time per *user request*: (Σ all sojourns)/requests —
  /// the R of paper eq. (25).
  double retrieval_time_per_request() const;

  std::uint64_t demand_retrievals() const { return demand_sojourns_.count(); }
  std::uint64_t prefetch_retrievals() const {
    return prefetch_sojourns_.count();
  }
  double mean_demand_sojourn() const { return demand_sojourns_.mean(); }
  double mean_prefetch_sojourn() const { return prefetch_sojourns_.mean(); }
  std::uint64_t wasted_prefetches() const { return wasted_prefetches_; }

  /// Retrievals (demand + prefetch) per user request, n̄(R) of eq. (24).
  double retrievals_per_request() const;

  void reset();

  /// Folds another accumulator in (Chan merge on the RunningStats members,
  /// exact sums on the counters). Merging shard metrics in canonical shard
  /// order keeps results bit-deterministic regardless of how many threads
  /// produced them; merging into a default-constructed SimMetrics copies
  /// `other` verbatim, so a 1-shard merge is bit-identical to no merge.
  void merge(const SimMetrics& other);

 private:
  void record_access(double access_time, bool hit);

  RunningStats access_times_;
  /// Log2 bins from ~1 ns to ~12 days: covers instant hits (lowest bin)
  /// through any plausible congested sojourn. Bin counts merge exactly, so
  /// quantiles of merged shard metrics are bit-deterministic like the rest.
  LogHistogram access_hist_{-30, 20};
  RunningStats demand_sojourns_;
  RunningStats prefetch_sojourns_;
  RunningStats inflight_waits_;
  std::uint64_t requests_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t wasted_prefetches_ = 0;
};

}  // namespace specpf
