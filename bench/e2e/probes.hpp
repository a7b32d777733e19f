// Outside-in probes: decorators over the library's public virtual seams
// (TraceSource, PredictorPlane, PrefetchPolicy, PrefetchGovernor) that time
// every call into them with steady_clock and count the work they see. Each
// forwards every virtual unchanged, draws no randomness and touches no
// simulation state, so a replay through them is bit-identical to one
// without them — the traced run asserts exactly that.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/governor.hpp"
#include "policy/policy.hpp"
#include "predict/predictor_plane.hpp"
#include "workload/trace_stream.hpp"

namespace specpf::bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Measured cost of one now_ns() call: the median of several batches, with
/// every reading folded into `sink` so the loop cannot be elided.
inline double timer_cost_ns(std::uint64_t* sink) {
  constexpr int kBatches = 9;
  constexpr int kCalls = 200000;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    std::uint64_t acc = 0;
    for (int i = 0; i < kCalls; ++i) {
      acc += static_cast<std::uint64_t>(now_ns());
    }
    const std::int64_t t1 = now_ns();
    *sink ^= acc;
    per_call.push_back(static_cast<double>(t1 - t0) / kCalls);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[kBatches / 2];
}

/// Host-speed reference: a fixed ALU dependency chain plus a pointer chase
/// through a 16 MiB random cycle, a cache-resident working set like the
/// replays'. On a host shared with other tenants both slow down together
/// (measured correlation -0.6 to -0.8 with the replays' throughput), so
/// timing this next to a repetition lets the benchmark factor the host's
/// current speed out. It calls nothing in the library, so two commits see
/// the same work.
/// Returns the seconds the two loops took (building the cycle is untimed).
inline double host_reference_s(std::uint64_t* sink) {
  constexpr std::uint32_t kEntries = 1u << 22;
  std::vector<std::uint32_t> next(kEntries);
  for (std::uint32_t i = 0; i < kEntries; ++i) next[i] = i;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = kEntries - 1; i > 0; --i) {  // Sattolo: one cycle
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 10000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  std::uint32_t p = static_cast<std::uint32_t>(x) & (kEntries - 1);
  for (int i = 0; i < 500000; ++i) p = next[p];
  const std::int64_t t1 = now_ns();
  *sink ^= x ^ p;
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Sees only reset(): the untraced runs use it to split set-up from replay
/// without putting a clock read on every record.
class SetupProbe final : public TraceSource {
 public:
  explicit SetupProbe(TraceSource& inner) : inner_(&inner) {}

  bool next(TraceRecord* out) override { return inner_->next(out); }
  void reset() override {
    inner_->reset();
    if (++resets_ == 2) second_reset_ns_ = now_ns();
  }
  /// When the consumer rewound for its schedule pass (0 before that).
  std::int64_t second_reset_ns() const { return second_reset_ns_; }

 private:
  TraceSource* inner_;
  int resets_ = 0;
  std::int64_t second_reset_ns_ = 0;
};

/// Everything the timing decorators accumulate (ns totals and counts).
struct LayerTimes {
  std::int64_t next_ns = 0;
  std::int64_t observe_ns = 0;
  std::int64_t predict_ns = 0;
  std::uint64_t predict_calls = 0;
  std::uint64_t candidates = 0;
  std::int64_t select_ns = 0;
  std::uint64_t viable = 0;
  std::uint64_t selected = 0;
  std::int64_t control_ns = 0;
  std::uint64_t admitted = 0;

  /// Decorator time spent inside engine events (everything but decode).
  std::int64_t inner_ns() const {
    return observe_ns + predict_ns + select_ns + control_ns;
  }
};

/// TraceSource decorator that times every call and notes the end of the
/// first (metadata) pass: the exhausting next() after the first reset.
class TimedSource final : public TraceSource {
 public:
  TimedSource(TraceSource& inner, LayerTimes& acc)
      : inner_(&inner), acc_(&acc) {}

  bool next(TraceRecord* out) override {
    const std::int64_t t0 = now_ns();
    const bool more = inner_->next(out);
    const std::int64_t t1 = now_ns();
    acc_->next_ns += t1 - t0;
    if (!more && resets_ == 1 && scan_end_ns_ == 0) {
      scan_end_ns_ = t1;
      scan_next_ns_ = acc_->next_ns;
    }
    return more;
  }
  void reset() override {
    inner_->reset();
    ++resets_;
  }

  std::int64_t scan_end_ns() const { return scan_end_ns_; }
  /// Decode time of the first pass alone.
  std::int64_t scan_next_ns() const { return scan_next_ns_; }

 private:
  TraceSource* inner_;
  LayerTimes* acc_;
  int resets_ = 0;
  std::int64_t scan_end_ns_ = 0;
  std::int64_t scan_next_ns_ = 0;
};

class TimedPredictor final : public PredictorPlane {
 public:
  TimedPredictor(std::unique_ptr<PredictorPlane> inner, LayerTimes& acc)
      : inner_(std::move(inner)), acc_(&acc) {}

  void observe(UserId user, std::uint64_t item) override {
    const std::int64_t t0 = now_ns();
    inner_->observe(user, item);
    acc_->observe_ns += now_ns() - t0;
  }
  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<core::Candidate>& out) const override {
    const std::int64_t t0 = now_ns();
    inner_->predict_into(user, max_candidates, out);
    acc_->predict_ns += now_ns() - t0;
    ++acc_->predict_calls;
    acc_->candidates += out.size();
  }
  std::uint64_t counter_halvings() const override {
    return inner_->counter_halvings();
  }
  std::uint64_t context_count() const override {
    return inner_->context_count();
  }
  void audit(AuditReport& report) const override { inner_->audit(report); }

 private:
  std::unique_ptr<PredictorPlane> inner_;
  LayerTimes* acc_;
};

class TimedPolicy final : public PrefetchPolicy {
 public:
  TimedPolicy(std::unique_ptr<PrefetchPolicy> inner, LayerTimes& acc)
      : inner_(std::move(inner)), acc_(&acc) {}

  std::vector<core::Candidate> select(
      const std::vector<core::Candidate>& predictions,
      const PolicyContext& ctx) override {
    const std::int64_t t0 = now_ns();
    std::vector<core::Candidate> out = inner_->select(predictions, ctx);
    acc_->select_ns += now_ns() - t0;
    acc_->viable += predictions.size();
    acc_->selected += out.size();
    return out;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<PrefetchPolicy> inner_;
  LayerTimes* acc_;
};

/// Times every governor virtual the runtime calls: admission, the depth
/// cap, and the usefulness feedback. set_fleet_signal is not virtual, but
/// only ShardedSim calls it, and sharded runs are not decorated.
class TimedGovernor final : public PrefetchGovernor {
 public:
  TimedGovernor(std::unique_ptr<PrefetchGovernor> inner, LayerTimes& acc)
      : inner_(std::move(inner)), acc_(&acc) {}

  std::string name() const override { return inner_->name(); }
  bool admit(double now, UserId user, const core::Candidate& candidate,
             double size, const LoadSignals& load) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->admit(now, user, candidate, size, load);
    acc_->control_ns += now_ns() - t0;
    acc_->admitted += ok ? 1 : 0;
    return ok;
  }
  std::size_t depth_limit(std::size_t configured) const override {
    const std::int64_t t0 = now_ns();
    const std::size_t depth = inner_->depth_limit(configured);
    acc_->control_ns += now_ns() - t0;
    return depth;
  }
  void on_prefetch_useful() override {
    const std::int64_t t0 = now_ns();
    inner_->on_prefetch_useful();
    acc_->control_ns += now_ns() - t0;
  }
  void on_prefetch_wasted() override {
    const std::int64_t t0 = now_ns();
    inner_->on_prefetch_wasted();
    acc_->control_ns += now_ns() - t0;
  }
  double epoch_signal(const LoadSignals& load) const override {
    return inner_->epoch_signal(load);
  }
  double state_gauge() const override { return inner_->state_gauge(); }
  double aggressiveness() const override { return inner_->aggressiveness(); }

 private:
  std::unique_ptr<PrefetchGovernor> inner_;
  LayerTimes* acc_;
};

}  // namespace specpf::bench
