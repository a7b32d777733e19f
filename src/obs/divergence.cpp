#include "obs/divergence.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace specpf {

const char* verdict_name(StabilityVerdict verdict) noexcept {
  switch (verdict) {
    case StabilityVerdict::kStable: return "stable";
    case StabilityVerdict::kMetastable: return "metastable";
    case StabilityVerdict::kDivergent: return "divergent";
  }
  return "stable";
}

std::string DivergenceConfig::check() const {
  if (window < 4) return config_error("window", "must be >= 4", window);
  if (min_samples < 4) {
    return config_error("min_samples", "must be >= 4", min_samples);
  }
  if (!(slope_threshold > 0.0)) {
    return config_error("slope_threshold", "must be > 0", slope_threshold);
  }
  if (min_growth_run < 2) {
    return config_error("min_growth_run", "must be >= 2", min_growth_run);
  }
  if (!(dip_tolerance >= 0.0 && dip_tolerance < 1.0)) {
    return config_error("dip_tolerance", "must be in [0, 1)", dip_tolerance);
  }
  if (!(depth_level > 0.0)) {
    return config_error("depth_level", "must be > 0", depth_level);
  }
  if (!(slowdown_level > 0.0)) {
    return config_error("slowdown_level", "must be > 0", slowdown_level);
  }
  if (!(utilization_level > 0.0)) {
    return config_error("utilization_level", "must be > 0",
                        utilization_level);
  }
  if (!(drain_ratio > 0.0 && drain_ratio <= 1.0)) {
    return config_error("drain_ratio", "must be in (0, 1]", drain_ratio);
  }
  if (!(settle_time >= 0.0)) {
    return config_error("settle_time", "must be >= 0", settle_time);
  }
  return {};
}

void DivergenceConfig::validate() const { expect_valid(check()); }

void DivergenceDetector::configure(const DivergenceConfig& config) {
  SPECPF_EXPECTS(!configured_);
  config.validate();
  config_ = config;
  win_t_.assign(config_.window, 0.0);
  win_v_.assign(config_.window, 0.0);
  // Pairwise-slope scratch for the Theil–Sen median; sized once here so
  // evaluate() never allocates (clear() keeps the capacity).
  slopes_.reserve(config_.window * (config_.window - 1) / 2);
  configured_ = true;
}

void DivergenceDetector::watch(const TimeSeriesRecorder& series,
                               std::size_t gauge, std::string name,
                               double level) {
  SPECPF_EXPECTS(configured_);
  SPECPF_EXPECTS(gauge < series.num_gauges());
  SPECPF_EXPECTS(level > 0.0);
  Signal signal;
  signal.series = &series;
  signal.gauge = gauge;
  signal.name = std::move(name);
  signal.level = level;
  signals_.push_back(std::move(signal));
}

void DivergenceDetector::watch_plane(const TelemetryPlane& plane,
                                     const std::string& prefix) {
  SPECPF_EXPECTS(plane.sealed());
  // The EWMA gauges, not the raw instantaneous ones: trend tests want the
  // smoothed signal the sensors already maintain. Planes register subsets
  // (userless shards carry only origin gauges), so absent names are fine.
  struct Candidate {
    const char* name;
    double DivergenceConfig::* level;
  };
  static constexpr Candidate kCandidates[] = {
      {"link.depth_ewma", &DivergenceConfig::depth_level},
      {"link.slowdown_ewma", &DivergenceConfig::slowdown_level},
      {"link.util_ewma", &DivergenceConfig::utilization_level},
      {"origin.depth_ewma", &DivergenceConfig::depth_level},
      {"origin.slowdown_ewma", &DivergenceConfig::slowdown_level},
      {"origin.util_ewma", &DivergenceConfig::utilization_level},
  };
  const TelemetryRegistry& reg = plane.registry();
  for (const Candidate& c : kCandidates) {
    const std::size_t g = reg.find_gauge(c.name);
    if (g == reg.gauge_count()) continue;
    watch(plane.series(), g, prefix + c.name, config_.*(c.level));
  }
}

std::size_t DivergenceDetector::growth_run_start(
    const TimeSeriesRecorder& series, std::size_t gauge) const {
  // Walk back from the newest row while each step stays non-decreasing
  // within the dip tolerance — the start of the current sustained-growth
  // run, which is the onset estimate once the run proves divergent.
  std::size_t k = series.size() - 1;
  while (k > 0) {
    if (series.time(k - 1) < config_.settle_time) break;  // pre-settle row
    const double prev = series.value(k - 1, gauge);
    const double cur = series.value(k, gauge);
    if (cur < prev - (config_.dip_tolerance * std::abs(prev) + 1e-9)) break;
    --k;
  }
  return k;
}

void DivergenceDetector::evaluate_signal(Signal& signal) {
  const TimeSeriesRecorder& series = *signal.series;
  if (series.recorded() == signal.last_recorded) return;  // no new rows
  signal.last_recorded = series.recorded();
  // Rows inside the settle window don't count: the cold-start transient is
  // growth by construction, not divergence. Retained rows are time-ordered,
  // so the settled suffix is contiguous at the tail.
  std::size_t n = series.size();
  std::size_t settled_first = 0;
  if (config_.settle_time > 0.0) {
    while (settled_first < n &&
           series.time(settled_first) < config_.settle_time) {
      ++settled_first;
    }
    n -= settled_first;
  }
  if (n < config_.min_samples) {
    signal.current = StabilityVerdict::kStable;
    return;
  }

  // Trailing window copy (preallocated scratch; downsampling mutates rows
  // in place, so values are snapshotted per evaluation).
  const std::size_t w = std::min(config_.window, n);
  const std::size_t first = settled_first + (n - w);
  double window_peak = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    win_t_[i] = series.time(first + i);
    win_v_[i] = series.value(first + i, signal.gauge);
    window_peak = std::max(window_peak, win_v_[i]);
  }
  const double last = win_v_[w - 1];
  signal.peak = std::max(signal.peak, window_peak);

  // Theil–Sen slope: median of pairwise slopes over the window — robust to
  // the occasional sampling spike a least-squares fit would chase.
  slopes_.clear();
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = i + 1; j < w; ++j) {
      const double dt = win_t_[j] - win_t_[i];
      if (dt > 0.0) slopes_.push_back((win_v_[j] - win_v_[i]) / dt);
    }
  }
  double slope = 0.0;
  if (!slopes_.empty()) {
    const std::size_t mid = (slopes_.size() - 1) / 2;
    std::nth_element(slopes_.begin(),
                     slopes_.begin() + static_cast<std::ptrdiff_t>(mid),
                     slopes_.end());
    slope = slopes_[mid];
  }

  // Sustained-growth run: consecutive non-decreasing trailing steps (dip
  // tolerance absorbs EWMA wiggle). Walk only far enough to decide — the
  // full-series walk happens once, at divergence latch, for the onset.
  std::size_t run_steps = 0;
  double run_floor = last;
  for (std::size_t k = w - 1; k > 0; --k) {
    const double prev = win_v_[k - 1];
    const double cur = win_v_[k];
    if (cur < prev - (config_.dip_tolerance * std::abs(prev) + 1e-9)) break;
    ++run_steps;
    run_floor = prev;
    if (run_steps >= config_.min_growth_run) break;
  }
  const bool sustained =
      run_steps >= config_.min_growth_run && last > run_floor;

  const bool elevated = last >= signal.level;
  const bool draining =
      window_peak > 0.0 && last <= config_.drain_ratio * window_peak;
  const bool growing = slope > config_.slope_threshold && sustained;

  if (elevated && growing && !draining) {
    signal.current = StabilityVerdict::kDivergent;
    signal.diverged = true;
    signal.onset = series.time(growth_run_start(series, signal.gauge));
    if (onset_ < 0.0 || signal.onset < onset_) {
      onset_ = signal.onset;
      onset_signal_ = signal.name;
    }
  } else if (elevated && !draining) {
    signal.current = StabilityVerdict::kMetastable;
  } else {
    signal.current = StabilityVerdict::kStable;
  }
}

StabilityVerdict DivergenceDetector::evaluate() {
  SPECPF_EXPECTS(configured_);
  ++evaluations_;
  for (Signal& signal : signals_) {
    // A divergent latch is final — skip the trend tests (and their
    // window walk) for signals that already proved unstable.
    if (!signal.diverged) evaluate_signal(signal);
  }
  return verdict();
}

StabilityVerdict DivergenceDetector::verdict() const noexcept {
  StabilityVerdict worst = StabilityVerdict::kStable;
  for (const Signal& signal : signals_) {
    const StabilityVerdict v = signal.diverged ? StabilityVerdict::kDivergent
                                               : signal.current;
    if (static_cast<int>(v) > static_cast<int>(worst)) worst = v;
  }
  return worst;
}

void DivergenceDetector::audit(AuditReport& report) const {
  const AuditScope scope(report, "DivergenceDetector");
  if (!configured_) {
    report.check(signals_.empty(), "signals watched before configure()");
    return;
  }
  report.check(win_t_.size() == config_.window &&
                   win_v_.size() == config_.window,
               "window scratch not sized to config.window");
  report.check(slopes_.capacity() >=
                   config_.window * (config_.window - 1) / 2,
               "slope scratch capacity below the pairwise-slope count");
  bool any_diverged = false;
  for (std::size_t i = 0; i < signals_.size(); ++i) {
    const Signal& s = signals_[i];
    const std::string tag = "signal " + std::to_string(i);
    if (!report.check(s.series != nullptr, tag + " has no recorder")) continue;
    report.check(s.gauge < s.series->num_gauges(),
                 tag + " gauge column " + std::to_string(s.gauge) +
                     " out of range");
    report.check(s.last_recorded <= s.series->recorded(),
                 tag + " staleness cursor ahead of its recorder");
    report.check(!s.name.empty(), tag + " has an empty label");
    report.check(s.level > 0.0, tag + " has a non-positive level");
    report.check(!s.diverged || s.onset >= 0.0,
                 tag + " diverged without an onset estimate");
    any_diverged = any_diverged || s.diverged;
  }
  report.check((onset_ >= 0.0) == any_diverged,
               "detector onset latch desynced from signal latches");
  report.check(onset_ < 0.0 || !onset_signal_.empty(),
               "onset recorded without a triggering signal label");
}

}  // namespace specpf
