#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "policy/policies.hpp"

namespace specpf::bench {

namespace {

std::size_t scaled(std::size_t n, double scale) {
  const double value = std::round(static_cast<double>(n) * scale);
  return std::max<std::size_t>(1, static_cast<std::size_t>(value));
}

// The site model every workload except ppm-deep browses: the canonical
// replay graph of examples/million_user_sweep (skewed links, short
// sessions), so per-user sequences are first-order predictable.
SyntheticTraceConfig canonical_trace(std::uint64_t seed) {
  SyntheticTraceConfig t;
  t.request_rate = 10000.0;
  t.graph.num_pages = 400;
  t.graph.out_degree = 3;
  t.graph.exit_probability = 0.25;
  t.graph.link_skew = 1.6;
  t.seed = seed;
  return t;
}

}  // namespace

ShardedReplayConfig Workload::sharded_config() const {
  ShardedReplayConfig c;
  c.stack = replay;
  c.num_shards = shards;
  c.num_threads = 1;
  c.backbone_bandwidth = backbone_bandwidth;
  return c;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double scale) {
  Workload w;
  if (name == "steady") {
    w.trace = canonical_trace(seed);
    w.trace.num_users = scaled(50000, scale);
    w.trace.num_requests = scaled(500000, scale);
    w.supply = Supply::kStream;
    w.replay.bandwidth = 20000.0;
    w.replay.cache_capacity = 8;
    w.replay.cache_kind = CacheKind::kLru;
    w.replay.predictor_kind = PredictorKind::kMarkov;
    w.replay.max_prefetch_per_request = 4;
    w.policy = "threshold-a";
  } else if (name == "ppm-deep") {
    w.trace.num_users = scaled(50000, scale);
    w.trace.num_requests = scaled(300000, scale);
    w.trace.request_rate = 10000.0;
    w.trace.graph.num_pages = 4000;
    w.trace.graph.out_degree = 6;
    w.trace.seed = seed;
    w.supply = Supply::kRam;
    w.replay.bandwidth = 64000.0;
    w.replay.cache_capacity = 32;
    w.replay.cache_kind = CacheKind::kLfu;
    w.replay.predictor_kind = PredictorKind::kPpm;
    w.replay.max_prefetch_per_request = 8;
    w.replay.governor = "conf-0.35";
    w.policy = "fixed-0.05";
  } else if (name == "flash") {
    w.trace = canonical_trace(seed);
    w.trace.num_users = scaled(30000, scale);
    w.trace.num_requests = scaled(400000, scale);
    w.trace.request_rate = 4000.0;
    const double span = static_cast<double>(w.trace.num_requests) /
                        w.trace.request_rate;
    if (!make_scenario_modulation("flash", span, 1, &w.trace.modulation)) {
      throw std::logic_error("flash scenario preset missing");
    }
    w.supply = Supply::kStream;
    w.replay.bandwidth = 44000.0;
    w.replay.cache_capacity = 8;
    w.replay.cache_kind = CacheKind::kLru;
    w.replay.predictor_kind = PredictorKind::kMarkov;
    w.replay.max_prefetch_per_request = 4;
    w.replay.enable_load_sensor = true;
    w.telemetry = true;
    w.policy = "fixed-0.05";
  } else if (name == "fleet-shard8") {
    w.trace = canonical_trace(seed);
    w.trace.num_users = scaled(1000000, scale);
    w.trace.num_requests = scaled(1000000, scale);
    w.supply = Supply::kFile;
    w.replay.bandwidth = 4000.0;
    w.replay.cache_capacity = 16;
    w.replay.cache_kind = CacheKind::kClock;
    w.replay.predictor_kind = PredictorKind::kMarkov;
    w.replay.max_prefetch_per_request = 4;
    w.replay.governor = "aimd-3";
    w.policy = "threshold-a";
    w.shards = 8;
    w.backbone_bandwidth = 8000.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.name = name;
  w.replay.seed = seed;
  return w;
}

std::string describe(const Workload& w) {
  static const char* kSupply[] = {"stream", "ram", "file"};
  const SyntheticTraceConfig& t = w.trace;
  const TraceReplayConfig& r = w.replay;
  char buf[2048];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"name\": \"%s\", \"supply\": \"%s\", \"users\": %zu, "
      "\"requests\": %zu, \"rate\": %.17g, \"pages\": %zu, "
      "\"out_degree\": %zu, \"exit_probability\": %.17g, "
      "\"link_skew\": %.17g, \"entry_skew\": %.17g, \"modulation\": %d, "
      "\"peak_factor\": %.17g, \"trace_seed\": %llu, \"predictor\": \"%s\", "
      "\"cache\": \"%s\", \"cache_capacity\": %zu, \"depth\": %zu, "
      "\"policy\": \"%s\", \"governor\": \"%s\", \"load_sensor\": %s, "
      "\"telemetry\": %s, \"bandwidth\": %.17g, \"warmup_fraction\": %.17g, "
      "\"stream_window\": %zu, \"shards\": %zu, \"threads\": 1, "
      "\"backbone_bandwidth\": %.17g, \"backbone_latency\": %.17g}",
      w.name.c_str(), kSupply[static_cast<int>(w.supply)], t.num_users,
      t.num_requests, t.request_rate, t.graph.num_pages, t.graph.out_degree,
      t.graph.exit_probability, t.graph.link_skew, t.graph.entry_skew,
      static_cast<int>(t.modulation.kind), t.modulation.peak_factor,
      static_cast<unsigned long long>(t.seed),
      predictor_kind_name(r.predictor_kind), cache_kind_name(r.cache_kind),
      r.cache_capacity, r.max_prefetch_per_request, w.policy.c_str(),
      r.governor.c_str(), r.enable_load_sensor ? "true" : "false",
      w.telemetry ? "true" : "false", r.bandwidth, r.warmup_fraction,
      r.stream_window, w.shards, w.backbone_bandwidth,
      w.sharded_config().backbone_latency);
  if (n < 0 || static_cast<std::size_t>(n) >= sizeof buf) {
    throw std::logic_error("workload description does not fit its buffer");
  }
  return buf;
}

namespace {

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/// Generator settings only (the replay settings do not shape the input).
std::uint64_t trace_key(const SyntheticTraceConfig& t) {
  const ArrivalModulation& m = t.modulation;
  char buf[1024];
  const int n = std::snprintf(
      buf, sizeof buf, "%zu %zu %.17g %zu %zu %.17g %.17g %.17g %d %.17g "
      "%.17g %.17g %.17g %.17g %.17g %.17g %u %u %.17g %llu",
      t.num_users, t.num_requests, t.request_rate, t.graph.num_pages,
      t.graph.out_degree, t.graph.link_skew, t.graph.exit_probability,
      t.graph.entry_skew, static_cast<int>(m.kind), m.amplitude, m.period,
      m.start, m.rise, m.hold, m.fall, m.peak_factor, m.hot_modulus,
      m.hot_residue, m.hot_weight, static_cast<unsigned long long>(t.seed));
  if (n < 0 || static_cast<std::size_t>(n) >= sizeof buf) {
    throw std::logic_error("trace key does not fit its buffer");
  }
  return fnv(kFnvBasis, buf, static_cast<std::size_t>(n));
}

bool valid_input(const std::string& path, std::uint64_t records) {
  try {
    const TraceFile file(path);
    return file.record_count() == records;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::string input_path(const Workload& w, const std::string& dir) {
  char name[64];
  std::snprintf(name, sizeof name, "%016llx.spt",
                static_cast<unsigned long long>(trace_key(w.trace)));
  return dir + "/" + name;
}

void prepare_input(const Workload& w, const std::string& dir) {
  if (w.supply == Supply::kStream) return;
  const std::string path = input_path(w, dir);
  if (valid_input(path, w.trace.num_requests)) return;
  std::filesystem::create_directories(dir);
  // Write under a temporary name and rename, so an interrupted generation
  // never leaves a truncated file under the real key.
  const std::string tmp = path + ".tmp";
  SyntheticTraceStream stream(w.trace);
  write_trace_file(tmp, stream);
  std::filesystem::rename(tmp, path);
  if (!valid_input(path, w.trace.num_requests)) {
    throw std::runtime_error("generated input " + path + " failed to verify");
  }
}

Inputs::Inputs(const Workload& w, const std::string& dir) {
  switch (w.supply) {
    case Supply::kStream:
      source_ = std::make_unique<SyntheticTraceStream>(w.trace);
      records_ = w.trace.num_requests;
      break;
    case Supply::kRam: {
      path_ = input_path(w, dir);
      const TraceFile file(path_);
      ram_ = std::make_unique<Trace>(file.read_all());
      source_ = std::make_unique<TraceVectorSource>(*ram_);
      records_ = ram_->size();
      break;
    }
    case Supply::kFile: {
      path_ = input_path(w, dir);
      const TraceFile file(path_);
      records_ = file.record_count();
      break;
    }
  }
  if (records_ != w.trace.num_requests) {
    throw std::runtime_error("input for " + w.name + " holds " +
                             std::to_string(records_) + " records, expected " +
                             std::to_string(w.trace.num_requests));
  }
}

PolicyFactory policy_factory(const Workload& w) {
  return [name = w.policy] { return make_policy_by_name(name); };
}

namespace {

struct Hasher {
  std::uint64_t h = kFnvBasis;
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = fnv(h, &bits, sizeof bits);
  }
  void add(std::uint64_t v) { h = fnv(h, &v, sizeof v); }
  void add(const std::string& s) { h = fnv(h, s.data(), s.size()); }
};

void hash_result(Hasher& h, const ProxySimResult& r) {
  h.add(r.policy);
  for (const double v :
       {r.mean_access_time, r.access_time_std_error, r.access_time_p50,
        r.access_time_p95, r.access_time_p99, r.hit_ratio,
        r.server_utilization, r.retrieval_time_per_request,
        r.retrievals_per_request, r.hprime_estimate,
        r.prefetch_useful_fraction, r.mean_inflight_wait,
        r.mean_demand_sojourn, r.peak_queue_depth, r.peak_slowdown}) {
    h.add(v);
  }
  for (const std::uint64_t v :
       {r.requests, r.demand_jobs, r.prefetch_jobs,
        r.wasted_prefetch_evictions, r.inflight_hits,
        r.throttled_prefetches}) {
    h.add(v);
  }
}

}  // namespace

std::uint64_t digest(const ProxySimResult& r) {
  Hasher h;
  hash_result(h, r);
  return h.h;
}

std::uint64_t digest(const ShardedReplayResult& r) {
  Hasher h;
  hash_result(h, r.merged);
  for (const ProxySimResult& s : r.per_shard) hash_result(h, s);
  for (const ShardLoadStats& s : r.shard_load) {
    h.add(s.events_executed);
    h.add(s.mailbox_sent);
    h.add(s.mailbox_received);
  }
  const BackboneStats& b = r.backbone;
  for (const std::uint64_t v : {b.demand_jobs, b.prefetch_jobs, b.completed,
                                r.epochs, r.cross_shard_events}) {
    h.add(v);
  }
  for (const double v : {b.mean_sojourn, b.utilization, b.total_service_demand,
                         b.peak_queue_depth, b.peak_slowdown}) {
    h.add(v);
  }
  return h.h;
}

}  // namespace specpf::bench
