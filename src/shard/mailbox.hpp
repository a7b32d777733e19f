// Cross-shard mailboxes for the conservative epoch protocol.
//
// During an epoch each shard appends outbound records to its own outbox
// rows — strictly thread-local writes, so shards never contend. At the
// barrier the driver drains every (source, destination) row in canonical
// order (destination-major, then source 0..S-1), which fixes the insertion
// sequence numbers the destination engine assigns and makes the whole run
// bit-deterministic regardless of how many worker threads executed the
// epoch.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.hpp"

namespace specpf {

/// One cross-shard event: a retrieval observed at `send_time` on the source
/// shard for an item homed elsewhere. Delivered to the home shard at
/// send_time + backbone latency (>= the next epoch boundary, by the
/// lookahead argument).
struct RemoteFetch {
  double send_time = 0.0;
  ItemId item = 0;
  bool is_prefetch = false;
};

/// Per-source-shard outbox: one row per destination shard.
class ShardMailbox {
 public:
  explicit ShardMailbox(std::size_t num_shards) : rows_(num_shards) {}

  void push(std::size_t destination, RemoteFetch fetch) {
    rows_[destination].push_back(fetch);
  }

  std::vector<RemoteFetch>& row(std::size_t destination) {
    return rows_[destination];
  }
  const std::vector<RemoteFetch>& row(std::size_t destination) const {
    return rows_[destination];
  }

  bool empty() const {
    for (const auto& row : rows_) {
      if (!row.empty()) return false;
    }
    return true;
  }

 private:
  std::vector<std::vector<RemoteFetch>> rows_;
};

}  // namespace specpf
