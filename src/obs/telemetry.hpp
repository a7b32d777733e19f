// Telemetry plane — the observability substrate for the whole stack.
//
// Three preallocated pieces, built in the same style as the slab planes:
//
//   * TelemetryRegistry    — flat gauge slots registered by name at setup.
//                            One registry per shard; the exporters and the
//                            divergence detector read them in shard order.
//   * TimeSeriesRecorder   — samples every registered gauge into a flat
//                            preallocated ring at fixed sim-time intervals
//                            (and at sharded epoch barriers). When full it
//                            downsamples in place (keep-every-2nd, double
//                            the interval) so million-user runs stay
//                            bounded without reallocating.
//   * SpanTracer           — a ring of finished request-lifecycle spans,
//                            each written once, at completion:
//                            demand/prefetch link transits and the waits
//                            blocked on them, tagged with user/item.
//
// Purity contract (same as LinkLoadSensor): telemetry observes only at
// event instants the runtime already visits. It draws no randomness,
// schedules no events, and allocates nothing after seal() — so simulation
// results are bit-identical with telemetry on or off, and the disabled
// path is a single null-pointer test at each hook site.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "des/inline_function.hpp"
#include "util/audit.hpp"
#include "util/contract.hpp"

namespace specpf {

struct TelemetryConfig {
  /// Sim-seconds between gauge samples (the recorder's *initial* cadence;
  /// downsampling doubles it as the ring fills).
  double sample_interval = 0.25;

  void validate() const { SPECPF_EXPECTS(sample_interval > 0.0); }
};

/// Flat named gauges (instantaneous doubles). Registration happens once at
/// setup; the gauge source stores into slots by id at sample instants.
class TelemetryRegistry {
 public:
  using GaugeId = std::uint32_t;

  /// Setup only (allocates). Names must be unique. `unit` annotates a
  /// gauge for exporters ("jobs", "ratio", "items"); empty is allowed but
  /// the stack registers every gauge with one.
  GaugeId register_gauge(std::string name, std::string unit = {});

  void set_gauge(GaugeId id, double value) noexcept { gauges_[id] = value; }
  double gauge(GaugeId id) const { return gauges_[id]; }

  std::size_t gauge_count() const noexcept { return gauges_.size(); }
  const std::string& gauge_name(std::size_t i) const { return gauge_names_[i]; }
  const std::string& gauge_unit(std::size_t i) const { return gauge_units_[i]; }
  /// Gauge index for `name`, or gauge_count() when unregistered (cold
  /// path: detector attachment, exporters).
  std::size_t find_gauge(const std::string& name) const;
  /// The gauge block the recorder snapshots (index = GaugeId).
  const std::vector<double>& gauge_values() const noexcept { return gauges_; }

  /// Invariants: parallel name/slot arrays agree, names unique + nonempty.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  std::vector<double> gauges_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> gauge_units_;
};

/// Fixed-capacity time series over the registry's gauge block. Storage is
/// two flat vectors sized once by configure(); record() never allocates.
/// When the ring fills, keep-every-2nd downsampling halves the sample
/// count and doubles the cadence, so a run of any length lands in at most
/// `capacity` rows at a self-chosen resolution.
class TimeSeriesRecorder {
 public:
  /// Setup only (allocates). `num_gauges` fixes the row width.
  void configure(std::size_t num_gauges, std::size_t capacity,
                 double interval);

  /// Appends one sample row (hot-ish: runs only at sample instants).
  void record(double now, const std::vector<double>& gauges);

  std::size_t size() const noexcept { return count_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t num_gauges() const noexcept { return num_gauges_; }
  double time(std::size_t i) const { return times_[i]; }
  double value(std::size_t i, std::size_t g) const {
    return data_[i * num_gauges_ + g];
  }
  /// Current cadence (initial interval * 2^downsamples).
  double interval() const noexcept { return interval_; }
  std::uint64_t downsamples() const noexcept { return downsamples_; }
  /// Total record() calls (>= size() once downsampling kicked in).
  std::uint64_t recorded() const noexcept { return recorded_; }

  /// Invariants: row accounting, monotone non-decreasing timestamps,
  /// interval consistent with the downsample count.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  void downsample();

  std::vector<double> times_;
  std::vector<double> data_;
  std::size_t num_gauges_ = 0;
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
  double base_interval_ = 0.0;
  double interval_ = 0.0;
  std::uint64_t downsamples_ = 0;
  std::uint64_t recorded_ = 0;
};

/// Request-lifecycle spans in a fixed ring of POD records. Each span is
/// written once, when it finishes, so the ring holds only finished spans;
/// once full, every record() replaces the oldest, so the ring keeps the
/// last `capacity` spans in completion order.
class SpanTracer {
 public:
  enum class SpanKind : std::uint16_t {
    kDemandFetch = 0,   ///< demand transfer on the regional link
    kPrefetchFetch = 1, ///< speculative transfer on the regional link
    kDemandWait = 2,    ///< user blocked on a demand fetch
    kInflightWait = 3,  ///< user blocked on a live prefetch (in-flight hit)
  };
  static const char* kind_name(SpanKind kind) noexcept;
  /// Chrome-trace track a kind renders on (transits vs waits).
  static std::uint32_t kind_track(SpanKind kind) noexcept;

  struct SpanRecord {
    double t_start = 0.0;
    double t_end = 0.0;
    std::uint64_t item = 0;
    std::uint32_t user = 0;
    std::uint16_t kind = 0;
  };

  /// Setup only (allocates the ring).
  explicit SpanTracer(std::size_t capacity) : ring_(capacity) {
    SPECPF_EXPECTS(capacity >= 1);
  }

  /// Hot path: writes one finished span over the oldest slot, no
  /// allocation.
  void record(SpanKind kind, double t0, double t1, std::uint32_t user,
              std::uint64_t item) noexcept {
    ring_[recorded_ % ring_.size()] =
        SpanRecord{t0, t1, item, user, static_cast<std::uint16_t>(kind)};
    ++recorded_;
  }

  /// Total record() calls (more than the ring holds once it wrapped).
  std::uint64_t recorded() const noexcept { return recorded_; }

  /// Visits the retained spans oldest-first (cold path: export).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t capacity = ring_.size();
    const bool wrapped = recorded_ >= capacity;
    const std::size_t filled =
        wrapped ? capacity : static_cast<std::size_t>(recorded_);
    const std::size_t start =
        wrapped ? static_cast<std::size_t>(recorded_ % capacity) : 0;
    for (std::size_t i = 0; i < filled; ++i) {
      fn(ring_[(start + i) % capacity]);
    }
  }

  /// Invariant: every retained span has non-negative duration.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  std::vector<SpanRecord> ring_;
  std::uint64_t recorded_ = 0;
};

/// One shard's telemetry bundle: registry + recorder + tracer plus the
/// sampling cadence. The owner (an example binary or a test) constructs
/// it; the StackRuntime borrows it, registers its gauges, installs a
/// gauge-refresh source, and calls seal(). After seal() the hot path is:
/// maybe_sample() = one double compare; span record = one ring write.
class TelemetryPlane {
 public:
  /// Samples retained per shard. When the ring is full, every second
  /// sample is dropped in place and the interval doubles.
  static constexpr std::size_t kSeriesCapacity = 4096;
  /// Finished spans retained per shard (the most recent ones).
  static constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;

  /// Refreshes gauge slots just before a sample row is taken. Installed by
  /// the runtime (captures only `this`-sized state; never allocates).
  using GaugeSource = InlineFunction<void(TelemetryRegistry&), 48>;

  explicit TelemetryPlane(const TelemetryConfig& config = {},
                          std::uint32_t shard = 0)
      : config_(config), shard_(shard), spans_(kSpanCapacity) {
    config_.validate();
  }

  TelemetryRegistry& registry() noexcept { return registry_; }
  const TelemetryRegistry& registry() const noexcept { return registry_; }
  SpanTracer& spans() noexcept { return spans_; }
  const SpanTracer& spans() const noexcept { return spans_; }
  const TimeSeriesRecorder& series() const noexcept { return series_; }

  void set_gauge_source(GaugeSource source) {
    gauge_source_ = std::move(source);
  }

  /// Freezes registration and sizes the recorder for the registered gauge
  /// block. Must be called exactly once, before the first sample.
  void seal();
  bool sealed() const noexcept { return sealed_; }

  /// Hot path: one compare when no sample is due.
  void maybe_sample(double now) {
    if (now < next_sample_) return;
    sample_now(now);
  }
  /// Takes a sample row unconditionally (epoch barriers, final flush).
  void sample_now(double now);

  std::uint32_t shard() const noexcept { return shard_; }
  const TelemetryConfig& config() const noexcept { return config_; }

  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  TelemetryConfig config_;
  std::uint32_t shard_ = 0;
  bool sealed_ = false;
  double next_sample_ = 0.0;
  TelemetryRegistry registry_;
  TimeSeriesRecorder series_;
  SpanTracer spans_;
  GaugeSource gauge_source_;
};

/// One TelemetryPlane per shard, for the sharded driver. The planes are
/// independent between barriers (each shard's thread touches only its
/// own), matching the runtime's shard-isolation contract.
class TelemetryFleet {
 public:
  TelemetryFleet(const TelemetryConfig& config, std::size_t num_shards);

  std::size_t size() const noexcept { return planes_.size(); }
  TelemetryPlane& shard(std::size_t s) { return *planes_[s]; }
  const TelemetryPlane& shard(std::size_t s) const { return *planes_[s]; }

  void audit(AuditReport& report) const;

 private:
  std::vector<std::unique_ptr<TelemetryPlane>> planes_;
};

}  // namespace specpf
