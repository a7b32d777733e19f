#include "obs/telemetry.hpp"

#include <algorithm>
#include <string>

namespace specpf {

// --- TelemetryRegistry ------------------------------------------------------

TelemetryRegistry::GaugeId TelemetryRegistry::register_gauge(
    std::string name, std::string unit) {
  SPECPF_EXPECTS(!name.empty());
  SPECPF_EXPECTS(find_gauge(name) == gauge_names_.size());
  gauge_names_.push_back(std::move(name));
  gauge_units_.push_back(std::move(unit));
  gauges_.push_back(0.0);
  return static_cast<GaugeId>(gauges_.size() - 1);
}

std::size_t TelemetryRegistry::find_gauge(const std::string& name) const {
  // Linear lookup: a registry holds a dozen gauges and every caller is
  // setup or export.
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) return i;
  }
  return gauge_names_.size();
}

void TelemetryRegistry::audit(AuditReport& report) const {
  const AuditScope scope(report, "TelemetryRegistry");
  report.check(gauges_.size() == gauge_names_.size(),
               "gauge slots (" + std::to_string(gauges_.size()) +
                   ") and names (" + std::to_string(gauge_names_.size()) +
                   ") desynced");
  report.check(gauge_units_.size() == gauge_names_.size(),
               "gauge units (" + std::to_string(gauge_units_.size()) +
                   ") and names (" + std::to_string(gauge_names_.size()) +
                   ") desynced");
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    report.check(!gauge_names_[i].empty(),
                 "gauge " + std::to_string(i) + " has an empty name");
    report.check(find_gauge(gauge_names_[i]) == i,
                 "duplicate gauge name '" + gauge_names_[i] + "'");
  }
}

// --- TimeSeriesRecorder -----------------------------------------------------

void TimeSeriesRecorder::configure(std::size_t num_gauges,
                                   std::size_t capacity, double interval) {
  SPECPF_EXPECTS(capacity >= 2);
  SPECPF_EXPECTS(interval > 0.0);
  num_gauges_ = num_gauges;
  capacity_ = capacity;
  count_ = 0;
  base_interval_ = interval;
  interval_ = interval;
  downsamples_ = 0;
  recorded_ = 0;
  times_.assign(capacity, 0.0);
  data_.assign(capacity * num_gauges, 0.0);
}

void TimeSeriesRecorder::downsample() {
  // Keep even-indexed rows in place: sample 0 stays the series anchor and
  // the retained rows keep their original timestamps, so the series stays
  // monotone and exactly reproducible from the record() call sequence.
  const std::size_t kept = (count_ + 1) / 2;
  for (std::size_t i = 1; i < kept; ++i) {
    times_[i] = times_[2 * i];
    for (std::size_t g = 0; g < num_gauges_; ++g) {
      data_[i * num_gauges_ + g] = data_[2 * i * num_gauges_ + g];
    }
  }
  count_ = kept;
  interval_ *= 2.0;
  ++downsamples_;
}

void TimeSeriesRecorder::record(double now, const std::vector<double>& gauges) {
  SPECPF_EXPECTS(capacity_ != 0);  // configure() first
  SPECPF_EXPECTS(gauges.size() == num_gauges_);
  if (count_ == capacity_) downsample();
  times_[count_] = now;
  for (std::size_t g = 0; g < num_gauges_; ++g) {
    data_[count_ * num_gauges_ + g] = gauges[g];
  }
  ++count_;
  ++recorded_;
}

void TimeSeriesRecorder::audit(AuditReport& report) const {
  const AuditScope scope(report, "TimeSeriesRecorder");
  report.check(count_ <= capacity_,
               "row count " + std::to_string(count_) + " exceeds capacity " +
                   std::to_string(capacity_));
  report.check(times_.size() == capacity_ &&
                   data_.size() == capacity_ * num_gauges_,
               "storage not sized to capacity");
  report.check(recorded_ >= count_,
               "recorded total " + std::to_string(recorded_) +
                   " below retained row count " + std::to_string(count_));
  for (std::size_t i = 1; i < count_; ++i) {
    if (!report.check(times_[i - 1] <= times_[i],
                      "sample timestamps not monotone at row " +
                          std::to_string(i))) {
      break;
    }
  }
  // interval_ must be base * 2^downsamples (exact: doubling is exact in
  // floating point until far past any plausible downsample count).
  double expect = base_interval_;
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(downsamples_, 64);
       ++i) {
    expect *= 2.0;
  }
  report.check(downsamples_ > 64 || interval_ == expect,
               "cadence drifted from base_interval * 2^downsamples");
}

// --- SpanTracer -------------------------------------------------------------

const char* SpanTracer::kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kDemandFetch: return "demand_fetch";
    case SpanKind::kPrefetchFetch: return "prefetch_fetch";
    case SpanKind::kDemandWait: return "demand_wait";
    case SpanKind::kInflightWait: return "inflight_wait";
  }
  return "span";
}

std::uint32_t SpanTracer::kind_track(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kDemandFetch:
    case SpanKind::kPrefetchFetch:
      return 1;  // "link" track: transits on the regional link
    case SpanKind::kDemandWait:
    case SpanKind::kInflightWait:
      return 2;  // "waits" track: user-perceived blocking
  }
  return 0;
}

void SpanTracer::audit(AuditReport& report) const {
  const AuditScope scope(report, "SpanTracer");
  std::size_t negative = 0;
  for_each([&](const SpanRecord& rec) {
    if (rec.t_end < rec.t_start) ++negative;
  });
  report.check(negative == 0, std::to_string(negative) +
                                  " retained spans have negative duration");
}

// --- TelemetryPlane ---------------------------------------------------------

void TelemetryPlane::seal() {
  SPECPF_EXPECTS(!sealed_);
  series_.configure(registry_.gauge_count(), kSeriesCapacity,
                    config_.sample_interval);
  sealed_ = true;
}

void TelemetryPlane::sample_now(double now) {
  SPECPF_EXPECTS(sealed_);
  if (gauge_source_) gauge_source_(registry_);
  series_.record(now, registry_.gauge_values());
  next_sample_ = now + series_.interval();
}

void TelemetryPlane::audit(AuditReport& report) const {
  const AuditScope scope(report, "TelemetryPlane shard " +
                                     std::to_string(shard_));
  registry_.audit(report);
  spans_.audit(report);
  if (sealed_) {
    report.check(series_.num_gauges() == registry_.gauge_count(),
                 "recorder row width desynced from registered gauges");
    series_.audit(report);
  }
}

// --- TelemetryFleet ---------------------------------------------------------

TelemetryFleet::TelemetryFleet(const TelemetryConfig& config,
                               std::size_t num_shards) {
  SPECPF_EXPECTS(num_shards >= 1);
  planes_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    planes_.push_back(
        std::make_unique<TelemetryPlane>(config, static_cast<std::uint32_t>(s)));
  }
}

void TelemetryFleet::audit(AuditReport& report) const {
  for (const auto& plane : planes_) plane->audit(report);
}

}  // namespace specpf
