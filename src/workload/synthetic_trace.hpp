// Synthetic large-population traces for the million-user sweep: a global
// Poisson request process over a configurable user population, where each
// user walks a shared Markov SessionGraph (sessions end with the graph's
// exit probability and restart at a fresh entry page).
//
// The arrival process can be modulated to produce the nonstationary
// scenarios the prefetch control plane exists for — a diurnal sine, a
// flash-crowd trapezoid, or a per-shard hotspot that concentrates traffic
// on one region's users. Nonhomogeneous rates are realised by thinning
// (rejection against the peak rate), which is exact and fully determined
// by the seed; the stationary path draws the exact RNG sequence the
// pre-modulation generator drew, so existing seeds reproduce their traces
// byte-for-byte.
//
// The output is time-ordered by construction, so run_trace_replay can
// append it to the engine's arrival stream as it reads it, and per-user
// sequences stay first-order predictable — what the stack's
// predictors exploit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stream.hpp"

namespace specpf {

/// Time-varying modulation of the aggregate arrival process.
struct ArrivalModulation {
  enum class Kind {
    kStationary,  ///< constant rate (the default; byte-identical generator)
    kDiurnal,     ///< rate(t) = base · (1 + amplitude · sin(2πt/period))
    kFlashCrowd,  ///< trapezoidal surge: ramp to peak_factor·base and back
    kHotspot,     ///< flash crowd concentrated on one shard's users
  };
  Kind kind = Kind::kStationary;

  // kDiurnal
  double amplitude = 0.5;  ///< in [0, 1)
  double period = 3600.0;  ///< seconds per cycle

  // kFlashCrowd / kHotspot window: factor 1 outside, linear ramp over
  // [start, start+rise), peak_factor over [start+rise, start+rise+hold],
  // linear ramp down over (start+rise+hold, start+rise+hold+fall].
  double start = 0.0;
  double rise = 10.0;
  double hold = 60.0;
  double fall = 30.0;
  double peak_factor = 4.0;  ///< >= 1

  // kHotspot: while the window is active, a `hot_weight` fraction of
  // arrivals is drawn from the users with user % hot_modulus ==
  // hot_residue — exactly the population of shard `hot_residue` when the
  // trace is replayed on hot_modulus shards.
  std::uint32_t hot_modulus = 8;
  std::uint32_t hot_residue = 0;
  double hot_weight = 0.8;  ///< in [0, 1]

  /// Rate multiplier at time t (1.0 for kStationary).
  double rate_factor(double t) const;
  /// Supremum of rate_factor over all t — the thinning envelope.
  double max_rate_factor() const;
  /// True while the flash-crowd / hotspot window is active.
  bool window_active(double t) const;

  void validate() const;
};

struct SyntheticTraceConfig {
  std::size_t num_users = 1'000'000;
  std::size_t num_requests = 4'000'000;
  /// Aggregate request rate across the whole population (requests/s); the
  /// base rate that `modulation` scales.
  double request_rate = 10'000.0;
  SessionGraphConfig graph;
  ArrivalModulation modulation;
  std::uint64_t seed = 1;

  void validate() const;
};

/// Generates a time-ordered trace; every user id in [0, num_users) is
/// equally likely per request (modulo the hotspot window), so for
/// num_requests >> num_users nearly the whole population appears.
/// Materializing wrapper over SyntheticTraceStream.
Trace generate_synthetic_trace(const SyntheticTraceConfig& config);

/// The generator as a resumable TraceSource: emits the exact record
/// sequence generate_synthetic_trace would produce for the same config —
/// identical RNG draw order, full-precision double timestamps — one record
/// per next() call, so a billion-request run never materializes the trace.
/// Memory is O(num_users) (the per-user session-position vector), not
/// O(num_requests). reset() re-seeds the RNG and clears the session state;
/// the (immutable) SessionGraph is built once.
class SyntheticTraceStream final : public TraceSource {
 public:
  explicit SyntheticTraceStream(const SyntheticTraceConfig& config);

  bool next(TraceRecord* out) override;
  void reset() override;

  const SyntheticTraceConfig& config() const { return config_; }
  std::uint64_t emitted() const { return emitted_; }

 private:
  /// Between sessions; matches the flat per-user vector of the original
  /// generator so the graph-walk draws line up exactly.
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  SyntheticTraceConfig config_;
  SessionGraph graph_;
  ExponentialDist gap_;
  Rng rng_;
  std::vector<std::uint64_t> page_;
  double t_ = 0.0;
  std::uint64_t emitted_ = 0;
  bool thinning_ = false;
  bool hotspot_ = false;
  double envelope_ = 1.0;
  std::uint64_t hot_count_ = 0;
};

/// Named scenario presets, shared by examples/congestion_sweep and
/// bench/perf_control so scenario shapes cannot drift between them:
/// "stationary", "diurnal" (0.6 amplitude, two cycles), "flash" (4x surge
/// over the middle fifth), "hotspot" (2.5x surge aimed at shard 0 of
/// `shards`). `span` is the expected unmodulated trace duration
/// (num_requests / request_rate). Returns false for unknown names.
bool make_scenario_modulation(const std::string& name, double span,
                              std::size_t shards, ArrivalModulation* out);

}  // namespace specpf
