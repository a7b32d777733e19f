#include "isolated.hpp"

#include <algorithm>
#include <memory>

#include "cache/cache_plane.hpp"
#include "des/simulator.hpp"
#include "net/ps_server.hpp"
#include "probes.hpp"
#include "util/flat_hash.hpp"
#include "util/mem.hpp"

namespace specpf::bench {

namespace {

struct Access {
  std::uint32_t user;
  std::uint64_t item;
};

/// The workload's records as (dense user, item) pairs, users numbered in
/// first-appearance order, as run_trace_replay and ShardedSim number them.
std::vector<Access> access_stream(const Workload& w, Inputs& in,
                                  std::size_t* users) {
  std::unique_ptr<TraceFile> file;
  std::unique_ptr<TraceCursor> cursor;
  TraceSource* source = nullptr;
  if (w.supply == Supply::kFile) {
    file = std::make_unique<TraceFile>(in.path());
    cursor = std::make_unique<TraceCursor>(*file);
    source = cursor.get();
  } else {
    source = &in.source();
  }
  std::vector<Access> stream;
  stream.reserve(in.records());
  FlatHashMap<std::uint32_t> dense;
  source->reset();
  TraceRecord r;
  while (source->next(&r)) {
    bool inserted = false;
    std::uint32_t& id = dense.get_or_insert(r.user, &inserted);
    if (inserted) id = static_cast<std::uint32_t>(dense.size() - 1);
    stream.push_back({id, r.item});
  }
  *users = dense.size();
  return stream;
}

}  // namespace

CacheIsolated cache_isolated(const Workload& w, Inputs& in) {
  std::size_t users = 0;
  const std::vector<Access> stream = access_stream(w, in, &users);

  CacheIsolated out;
  const std::size_t rss_before = read_memory_usage().resident_bytes;
  CachePlaneConfig config;
  config.num_users = users;
  config.capacity = w.replay.cache_capacity;
  config.seed = w.replay.seed;
  const std::unique_ptr<CachePlane> plane =
      make_cache_plane(w.replay.cache_kind, config, false);
  const std::int64_t t0 = now_ns();
  for (const Access& a : stream) {
    const AccessOutcome outcome = plane->access(a.user, a.item);
    if (outcome == AccessOutcome::kMiss) plane->admit_demand(a.user, a.item);
    out.sink = out.sink * 3 + static_cast<std::uint64_t>(outcome);
  }
  const std::int64_t t1 = now_ns();
  const std::size_t rss_after = read_memory_usage().resident_bytes;
  out.access_ns =
      static_cast<double>(t1 - t0) / static_cast<double>(stream.size());
  out.bytes_per_user = (static_cast<double>(rss_after) -
                        static_cast<double>(rss_before)) /
                       static_cast<double>(users);
  return out;
}

PsIsolated ps_isolated(const std::vector<double>& submissions,
                       double bandwidth, double item_size) {
  PsIsolated out;
  Simulator sim;
  PsServer server(sim, bandwidth);
  std::uint64_t* completed = &out.completed;
  const std::int64_t t0 = now_ns();
  for (const double t : submissions) {
    sim.schedule_at(t, [&server, item_size, completed] {
      server.submit(item_size,
                    [completed](const TransferResult&) { ++*completed; });
    });
  }
  sim.run();
  const std::int64_t t1 = now_ns();
  out.ns_per_job = static_cast<double>(t1 - t0) /
                   static_cast<double>(std::max<std::size_t>(
                       1, submissions.size()));
  return out;
}

}  // namespace specpf::bench
