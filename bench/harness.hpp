// Shared harness of the BENCH_*.json recorders (emit_bench_json and the
// plain-chrono perf_* binaries): one timer, one optimizer barrier, one
// snapshot writer, so every snapshot reports its numbers the same way.
//
// A Timing is the median, min and max seconds per call over kReps samples.
// Each leg first runs once untimed: that warms caches and lazy set-up, and
// sets how many calls one sample spans, so that a sample lasts at least
// kMinSampleSeconds and a microsecond body is not timer noise. Legs timed
// together are interleaved sample by sample, so drift on a shared host
// lands on every leg alike and the ratios between them stay fair.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/proxy_sim.hpp"

namespace specpf::bench {

constexpr int kReps = 5;
constexpr double kMinSampleSeconds = 0.1;

/// Seconds per call: the median, fastest and slowest of kReps samples.
struct Timing {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Makes `value` count as read, so the work that produced it cannot be
/// dropped by the optimizer.
template <typename T>
inline void sink(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Makes every store so far count as read and every later load re-read
/// memory: called once per iteration, it keeps a loop of stores from being
/// folded into one.
inline void clobber() { asm volatile("" : : : "memory"); }

/// Times every leg, interleaved; one Timing per leg, in order.
inline std::vector<Timing> time_legs(
    const std::vector<std::function<void()>>& legs) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<std::size_t> calls(legs.size());
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const auto t0 = Clock::now();
    legs[i]();
    const double warm = std::max(seconds_since(t0), 1e-9);
    calls[i] = static_cast<std::size_t>(std::ceil(kMinSampleSeconds / warm));
  }
  std::vector<std::vector<double>> samples(legs.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const auto t0 = Clock::now();
      for (std::size_t c = 0; c < calls[i]; ++c) legs[i]();
      samples[i].push_back(seconds_since(t0) / static_cast<double>(calls[i]));
    }
  }
  std::vector<Timing> out;
  for (auto& s : samples) {
    std::sort(s.begin(), s.end());
    out.push_back({s[s.size() / 2], s.front(), s.back()});
  }
  return out;
}

/// time_legs for a single leg.
inline Timing time_call(const std::function<void()>& body) {
  return time_legs({body}).front();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Spread over the samples of a timed value; NaN for a count or a
  /// single reading, which the snapshot then carries without min/max.
  double min = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();
};

/// `work` per second of one call (events/s, ops/s, ...).
inline Metric rate(std::string name, double work, const Timing& t,
                   std::string unit) {
  return {std::move(name), work / t.median, std::move(unit), work / t.max,
          work / t.min};
}

/// One call's duration in `unit`, `scale` units per second.
inline Metric duration(std::string name, double scale, const Timing& t,
                       std::string unit) {
  return {std::move(name), scale * t.median, std::move(unit), scale * t.min,
          scale * t.max};
}

/// num/den as a ratio of medians, bounded by the most extreme pair of
/// samples.
inline Metric ratio(std::string name, const Timing& num, const Timing& den) {
  return {std::move(name), num.median / den.median, "x", num.min / den.max,
          num.max / den.min};
}

/// Bit-identity of two replay results: the determinism contracts the
/// recorders re-check before they report a number.
inline bool same_result(const ProxySimResult& a, const ProxySimResult& b) {
  return a.mean_access_time == b.mean_access_time &&
         a.hit_ratio == b.hit_ratio &&
         a.server_utilization == b.server_utilization &&
         a.requests == b.requests && a.demand_jobs == b.demand_jobs &&
         a.prefetch_jobs == b.prefetch_jobs &&
         a.inflight_hits == b.inflight_hits &&
         a.hprime_estimate == b.hprime_estimate &&
         a.throttled_prefetches == b.throttled_prefetches &&
         a.peak_queue_depth == b.peak_queue_depth &&
         a.peak_slowdown == b.peak_slowdown;
}

/// The output path, the one optional argument of a recorder that takes no
/// flags. A second argument or a `-`-prefixed one prints the usage line and
/// exits 2.
inline const char* output_path(int argc, char** argv, const char* program,
                               const char* fallback) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: %s [output.json]\n", program);
    std::exit(2);
  }
  return argc == 2 ? argv[1] : fallback;
}

/// Writes `metrics` to `path` as a BENCH snapshot — schema 1, one
/// {"name", "value", "unit"} object per metric plus "min"/"max" on timed
/// ones, the format tools/bench_diff reads — and prints them as a table.
/// False, after a message, when the file cannot be written.
inline bool write_snapshot(const char* path,
                           const std::vector<Metric>& metrics) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return false;
  }
  std::fprintf(out, "{\n  \"schema\": 1,\n  \"repetitions\": %d,\n", kReps);
  std::fprintf(out, "  \"benchmarks\": [\n");
  int width = 0;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    width = std::max(width, static_cast<int>(m.name.size()));
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"",
                 m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isnan(m.min)) {
      std::fprintf(out, ", \"min\": %.6g, \"max\": %.6g", m.min, m.max);
    }
    std::fprintf(out, "}%s\n", i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::printf("wrote %s (timings: median [min, max] of %d samples)\n", path,
              kReps);
  for (const Metric& m : metrics) {
    std::printf("  %-*s %14.4g %-10s", width, m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isnan(m.min)) std::printf(" [%.4g, %.4g]", m.min, m.max);
    std::printf("\n");
  }
  return true;
}

}  // namespace specpf::bench
