// The user -> shard split of the sharded runtime, materialized: the oracle
// the shard and trace-file tests check streamed per-shard walks against.
#pragma once

#include <cstddef>
#include <vector>

#include "workload/trace.hpp"

namespace specpf {

/// Splits `trace` into `num_shards` sub-traces by user (shard of user u is
/// u % num_shards), preserving record order within each shard. Shard 0 of
/// a 1-way partition is the whole trace.
std::vector<Trace> partition_by_user(const Trace& trace,
                                     std::size_t num_shards);

}  // namespace specpf
