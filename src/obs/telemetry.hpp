// Telemetry plane — the observability substrate for the whole stack.
//
// Three preallocated pieces, built in the same style as the slab planes:
//
//   * TelemetryRegistry    — flat counter/gauge slots registered by name at
//                            setup (cache-aligned u64 counters, double
//                            gauges). One registry per shard; the
//                            exporters read them in shard order.
//   * TimeSeriesRecorder   — samples every registered gauge into a flat
//                            preallocated ring at fixed sim-time intervals
//                            (and at sharded epoch barriers). When full it
//                            downsamples in place (keep-every-2nd, double
//                            the interval) so million-user runs stay
//                            bounded without reallocating.
//   * SpanTracer           — fixed-size request-lifecycle span records
//                            ({slot, generation} refs, ring storage):
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
  /// Samples retained per shard. When the ring is full, every second
  /// sample is dropped in place and the interval doubles.
  std::size_t series_capacity = 4096;
  /// Span records per shard; 0 disables the span tracer entirely.
  std::size_t span_capacity = 1 << 16;

  void validate() const {
    SPECPF_EXPECTS(sample_interval > 0.0);
    SPECPF_EXPECTS(series_capacity >= 2);
  }
};

/// Flat named counters (monotonic u64) and gauges (instantaneous double).
/// Registration happens once at setup; the hot path touches slots by id
/// only. Counter slots are cache-line sized so two counters never share a
/// line (shards each own a registry, so this is about intra-shard
/// store-forwarding, not false sharing).
class TelemetryRegistry {
 public:
  using CounterId = std::uint32_t;
  using GaugeId = std::uint32_t;

  /// Setup only (allocates). Names must be unique within their kind.
  /// `unit` annotates a gauge for exporters ("jobs", "ratio", "items");
  /// empty is allowed but the stack registers every gauge with one.
  CounterId register_counter(std::string name);
  GaugeId register_gauge(std::string name, std::string unit = {});

  /// Hot path: one indexed add / store into preallocated slots.
  void add(CounterId id, std::uint64_t n = 1) noexcept {
    counters_[id].value += n;
  }
  void set_gauge(GaugeId id, double value) noexcept { gauges_[id] = value; }

  std::uint64_t counter(CounterId id) const { return counters_[id].value; }
  double gauge(GaugeId id) const { return gauges_[id]; }

  std::size_t counter_count() const noexcept { return counters_.size(); }
  std::size_t gauge_count() const noexcept { return gauges_.size(); }
  const std::string& counter_name(std::size_t i) const {
    return counter_names_[i];
  }
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

  struct alignas(64) CounterSlot {
    std::uint64_t value = 0;
  };

  std::vector<CounterSlot> counters_;
  std::vector<double> gauges_;
  std::vector<std::string> counter_names_;
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

/// Request-lifecycle spans in a fixed ring of POD records. open() hands
/// back a {slot, generation} ref (the engine's handle idiom): closing a
/// ref whose slot was since recycled is a counted no-op, never a write
/// into someone else's span.
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
    double t_end = -1.0;  ///< < t_start means still open
    std::uint64_t item = 0;
    std::uint32_t user = 0;
    std::uint16_t kind = 0;
    std::uint16_t generation = 0;

    bool closed() const noexcept { return t_end >= t_start; }
  };

  /// Stale-proof handle to an open span. Default-constructed = null.
  struct SpanRef {
    std::uint32_t slot = kNullSlot;
    std::uint16_t generation = 0;

    bool valid() const noexcept { return slot != kNullSlot; }
  };
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;

  /// Setup only (allocates). Capacity 0 disables the tracer: open()
  /// returns null refs and close() ignores them.
  void configure(std::size_t capacity);

  bool enabled() const noexcept { return capacity_ != 0; }

  /// Hot path: writes one ring record, no allocation.
  SpanRef open(SpanKind kind, double t, std::uint32_t user,
               std::uint64_t item) noexcept;
  /// Hot path: generation-checked close; stale refs are counted no-ops.
  void close(SpanRef ref, double t) noexcept;
  /// Emits an already-finished span (e.g. a wait reconstructed at
  /// completion time from its recorded start instant).
  void complete(SpanKind kind, double t0, double t1, std::uint32_t user,
                std::uint64_t item) noexcept {
    close(open(kind, t0, user, item), t1);
  }

  std::uint64_t opens() const noexcept { return opens_; }
  std::uint64_t closes() const noexcept { return closes_; }
  /// Opens whose slot was recycled before they closed (ring overflow).
  std::uint64_t overwritten() const noexcept { return overwritten_; }
  /// close() calls that arrived after their slot was recycled.
  std::uint64_t stale_closes() const noexcept { return stale_closes_; }

  /// Visits retained *closed* spans oldest-first (cold path: export).
  template <typename Fn>
  void for_each_closed(Fn&& fn) const {
    if (capacity_ == 0) return;
    const std::size_t filled =
        next_ < capacity_ ? static_cast<std::size_t>(next_) : capacity_;
    const std::size_t start =
        next_ < capacity_ ? 0 : static_cast<std::size_t>(next_ % capacity_);
    for (std::size_t i = 0; i < filled; ++i) {
      const SpanRecord& rec = ring_[(start + i) % capacity_];
      if (rec.closed()) fn(rec);
    }
  }

  /// Invariants: span balance (opens = closes + overwrites + still-open
  /// records in the ring), closed spans have non-negative duration.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  std::vector<SpanRecord> ring_;
  std::size_t capacity_ = 0;
  std::uint64_t next_ = 0;  ///< total opens; slot = next_ % capacity
  std::uint64_t opens_ = 0;
  std::uint64_t closes_ = 0;
  std::uint64_t overwritten_ = 0;
  std::uint64_t stale_closes_ = 0;
};

/// One shard's telemetry bundle: registry + recorder + tracer plus the
/// sampling cadence. The owner (an example binary or a test) constructs
/// it; the StackRuntime borrows it, registers its counters/gauges, installs
/// a gauge-refresh source, and calls seal(). After seal() the hot path is:
/// maybe_sample() = one double compare; counter add = one indexed add;
/// span open/close = one ring write.
class TelemetryPlane {
 public:
  /// Refreshes gauge slots just before a sample row is taken. Installed by
  /// the runtime (captures only `this`-sized state; never allocates).
  using GaugeSource = InlineFunction<void(TelemetryRegistry&), 48>;

  explicit TelemetryPlane(const TelemetryConfig& config = {},
                          std::uint32_t shard = 0)
      : config_(config), shard_(shard) {
    config_.validate();
    spans_.configure(config_.span_capacity);
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
