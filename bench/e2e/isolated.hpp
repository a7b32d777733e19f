// Isolated replays of the two layers StackRuntime seals inside itself:
// the client cache plane and the processor-sharing link. Each is driven
// with input taken from the workload so its cost reflects the same access
// pattern or queue depth the full replay produced.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace specpf::bench {

struct CacheIsolated {
  double access_ns = 0.0;       ///< per access(), admit_demand included
  double bytes_per_user = 0.0;  ///< VmRSS growth of the plane / users
  std::uint64_t sink = 0;       ///< folds every outcome in
};

/// make_cache_plane(kind, capacity, users) driven with the workload's
/// (dense user, item) stream: access() per record, admit_demand on a miss.
/// Run it in a fresh process so the RSS growth is the plane's alone.
CacheIsolated cache_isolated(const Workload& w, Inputs& in);

struct PsIsolated {
  double ns_per_job = 0.0;
  std::uint64_t completed = 0;
};

/// Replays link submission instants into a fresh Simulator + PsServer with
/// no-op completion callbacks: the link's own cost at the queue depths the
/// full replay produced.
PsIsolated ps_isolated(const std::vector<double>& submissions,
                       double bandwidth, double item_size);

}  // namespace specpf::bench
