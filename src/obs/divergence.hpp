// Online divergence detection over the telemetry plane's gauge streams.
//
// The paper's central question — when does speculative prefetching push the
// network past saturation — has a sharp queueing-theoretic counterpart:
// an M/G/1-PS link with offered load ρ ≥ 1 has no stationary regime and its
// queue grows without bound (src/queueing/mg1_ps.hpp, Anselmi & Walton's
// stability regions in PAPERS.md). The DivergenceDetector is the empirical
// side of that statement: it watches the sealed TimeSeriesRecorder rows the
// telemetry plane already samples (link/origin queue depth, slowdown,
// utilization EWMAs) and classifies the run online into
//
//   stable      — load drains; trailing window shows no sustained growth
//   metastable  — elevated plateau that is not draining (ρ ≈ 1 territory:
//                 the queue neither empties nor provably grows)
//   divergent   — sustained growth: positive Theil–Sen trend over the
//                 window, an unbroken non-decreasing run, no drain — the
//                 empirical ρ > 1 signature, with a time-of-onset estimate
//
// Purity contract (same as the rest of src/obs): the detector only *reads*
// recorder rows, draws no randomness, schedules nothing, and allocates
// nothing after configure()/watch() — so a replay with a detector attached
// is bit-identical to one without, unless the caller also enables the
// early-abort hook (sim/trace_replay.hpp, shard/sharded_sim.hpp), which
// terminates provably-divergent sweeps instead of simulating an exploding
// queue to the horizon.
//
// The evaluation entry points run on the driver thread at points the
// runtime already visits (stream-window boundaries unsharded, epoch
// barriers sharded) and are cheap when no new sample rows arrived (one
// integer compare per watched signal).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/audit.hpp"

namespace specpf {

/// Run-stability classification, ordered by severity (worst wins when a
/// detector aggregates several signals or a fleet aggregates shards).
enum class StabilityVerdict : std::uint8_t {
  kStable = 0,
  kMetastable = 1,
  kDivergent = 2,
};

const char* verdict_name(StabilityVerdict verdict) noexcept;

/// Trend-test thresholds. The defaults are tuned for the stack's default
/// telemetry cadence (0.25 s samples) and EWMA-smoothed gauges; the
/// stability-map sweep exposes them as flags.
struct DivergenceConfig {
  /// Trailing rows per trend evaluation (the Theil–Sen window).
  std::size_t window = 32;
  /// Rows a signal needs before any verdict other than kStable.
  std::size_t min_samples = 12;
  /// Theil–Sen slope (signal units per sim-second) above which the window
  /// counts as growing.
  double slope_threshold = 0.05;
  /// Consecutive non-decreasing steps (within dip_tolerance) the trailing
  /// run must hold before growth counts as *sustained*.
  std::size_t min_growth_run = 6;
  /// Relative dip that still counts as "non-decreasing" inside a growth
  /// run — EWMA gauges wiggle; a real drain dips harder than this.
  double dip_tolerance = 0.1;
  /// Elevated-plateau threshold for queue-depth signals (jobs).
  double depth_level = 8.0;
  /// Elevated-plateau threshold for slowdown signals (sojourn/service).
  double slowdown_level = 6.0;
  /// Elevated-plateau threshold for utilization signals (busy fraction).
  double utilization_level = 0.98;
  /// A window whose last value is below drain_ratio * window peak counts
  /// as draining (stable) even when it is still elevated.
  double drain_ratio = 0.5;
  /// Rows with time < settle_time are ignored by every trend test — the
  /// cold-start transient (empty caches, untrained predictor) looks like
  /// sustained growth and would latch spurious divergence. Sweeps set this
  /// to the replay's warmup boundary.
  double settle_time = 0.0;

  /// "" when every field is in range, else "<field>: <rule>, got <value>"
  /// for the first that is not. The stability-map sweep calls it at the
  /// edge and exits 2 on a message.
  std::string check() const;
  /// Throws ContractViolation carrying check()'s message.
  void validate() const;
};

/// Zero-allocation (after setup) online classifier over one or more
/// recorded gauge streams. Each watched signal is a (recorder, gauge
/// column) pair with its own latch state; the detector's verdict is the
/// worst signal's. A divergent verdict latches (with the onset estimate of
/// the first signal that crossed), since an aborted or later-draining run
/// was still provably unstable while it grew; stable/metastable reflect
/// the trailing window, so a flash crowd that drains ends stable.
class DivergenceDetector {
 public:
  /// Setup only (allocates the window scratch). Call once before watch().
  void configure(const DivergenceConfig& config);
  bool configured() const noexcept { return configured_; }
  const DivergenceConfig& config() const noexcept { return config_; }

  /// Setup only: watches column `gauge` of `series` (borrowed; must
  /// outlive the detector). `level` is the elevated-plateau threshold in
  /// the signal's own units; `name` labels the signal in reports.
  void watch(const TimeSeriesRecorder& series, std::size_t gauge,
             std::string name, double level);

  /// Setup only: watches a sealed plane's divergence-relevant gauges
  /// (link/origin depth EWMAs, slowdown EWMAs, utilization EWMAs) by name,
  /// skipping names the plane did not register. `prefix` namespaces the
  /// signal labels in multi-shard fleets ("shard3/link.depth_ewma").
  void watch_plane(const TelemetryPlane& plane, const std::string& prefix = "");

  std::size_t num_signals() const noexcept { return signals_.size(); }

  /// Re-runs the trend tests for every signal with new sample rows and
  /// returns the detector verdict. Pure observation; no allocation. Cheap
  /// (one compare per signal) when no recorder grew since the last call.
  StabilityVerdict evaluate();

  /// Worst current verdict across signals; kDivergent latches.
  StabilityVerdict verdict() const noexcept;
  /// Estimated sim-time the first divergent signal's sustained growth
  /// began; negative when no signal ever diverged.
  double onset_time() const noexcept { return onset_; }
  /// Label of the first signal that crossed into divergence ("" if none).
  const std::string& onset_signal() const noexcept { return onset_signal_; }
  /// Peak value seen across evaluations of signal `i` (diagnostics).
  double peak(std::size_t i) const { return signals_[i].peak; }
  const std::string& signal_name(std::size_t i) const {
    return signals_[i].name;
  }
  StabilityVerdict signal_verdict(std::size_t i) const {
    return signals_[i].diverged ? StabilityVerdict::kDivergent
                                : signals_[i].current;
  }
  std::uint64_t evaluations() const noexcept { return evaluations_; }

  /// Invariants: scratch sized to the config, signal gauge columns in
  /// range, cursor/latch consistency (diverged implies a non-negative
  /// onset, recorder cursors never ahead of their recorder).
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  struct Signal {
    const TimeSeriesRecorder* series = nullptr;
    std::size_t gauge = 0;
    std::string name;
    double level = 0.0;
    /// recorder.recorded() at the last evaluation — the staleness cursor.
    std::uint64_t last_recorded = 0;
    StabilityVerdict current = StabilityVerdict::kStable;
    bool diverged = false;
    double onset = -1.0;
    double peak = 0.0;
  };

  /// Trend tests over the signal's trailing window; updates latch state.
  void evaluate_signal(Signal& signal);
  /// Walks back from the last retained row while steps stay non-decreasing
  /// (within dip tolerance); returns the run's start row.
  std::size_t growth_run_start(const TimeSeriesRecorder& series,
                               std::size_t gauge) const;

  DivergenceConfig config_;
  bool configured_ = false;
  std::vector<Signal> signals_;
  /// Preallocated window scratch: timestamps, values, pairwise slopes.
  std::vector<double> win_t_;
  std::vector<double> win_v_;
  std::vector<double> slopes_;
  double onset_ = -1.0;
  std::string onset_signal_;
  std::uint64_t evaluations_ = 0;
};

}  // namespace specpf
