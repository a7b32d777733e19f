// CacheArena — one slab for a million user caches.
//
// The pre-arena cache layer (kept as a test oracle in tests/reference/)
// gave every user a heap-allocated TaggedCache plus a virtual Cache built on
// std::list/std::unordered_map nodes: at the million-user scale of the
// ROADMAP sweeps, that per-user node soup dominated RSS and constructor
// time. The arena replaces all of it with shared flat storage for the whole
// fleet:
//
//   * one contiguous slab of packed entry nodes (u32 index links, 32-bit
//     item, tag and policy metadata folded into the node, free-list reuse),
//   * intrusive doubly-linked LRU/FIFO chains and flat LFU frequency
//     buckets threaded through that slab,
//   * per-user frames for CLOCK and random replacement at every capacity,
//     as a u32 item column plus a one-byte flag column (5 bytes a frame):
//     a four-frame head each user owns, plus one overflow block of
//     capacity − 4 frames from a chunked pool, taken only by a user who
//     outgrows its head and never freed or moved,
//   * residency resolved by ONE flat hash index keyed (user << 32) | item
//     for the entire fleet (a FlatHashMap<std::uint32_t>, whose parallel
//     key, value and metadata arrays cost 13 bytes per slot), grown with
//     the resident population rather than reserved up front,
//   * per-user state collapsed to a small value-type view (head/tail
//     index + size — tens of bytes instead of a constellation of heap
//     nodes).
//
// Each policy arena reproduces its legacy counterpart's eviction decisions
// bit-for-bit (same victims, same tags, same RNG draws for the random
// policy); tests/cache_plane_test.cpp and the frozen stack digests pin that
// equivalence. The arena deliberately has no erase(): the §4 tagged
// protocol never removes entries, and dropping erase keeps CLOCK's
// occupied frames a dense prefix (so the legacy "first unoccupied frame"
// scan collapses to a counter).
//
// Capacities up to kInlineResidencyCapacity skip the slab and the index
// altogether: each user owns a fixed block of packed entries (CLOCK and
// random: its head and overflow block) and residency is a scan of it.
// Every per-user block and pool chunk is allocated unwritten, so a user's
// pages are touched only when the user first fills them.
//
// Eviction policy is a compile-time template parameter of the plane built
// on top of these arenas (cache/cache_plane.hpp), dispatched once per run.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/hit_ratio_estimator.hpp"
#include "util/audit.hpp"
#include "util/contract.hpp"
#include "util/flat_hash.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace specpf::arena {

using core::EntryTag;

/// Index of a node/frame/slot inside an arena slab.
using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kNull = 0xFFFFFFFFu;

/// Fleet-wide residency key. Same packing contract as the stack's
/// in-flight map: items must fit in 32 bits. Debug-only check: this runs
/// on every residency probe, and the audit walkers re-verify the packing
/// in Release.
inline std::uint64_t residency_key(std::uint32_t user, ItemId item) {
  SPECPF_DCHECK((item >> 32) == 0);
  return (static_cast<std::uint64_t>(user) << 32) | item;
}

/// Largest per-user capacity the arenas hold: capacities and per-user
/// sizes are stored as u32.
inline constexpr std::size_t kMaxCapacity = 0xFFFFFFFFu;

/// `capacity` narrowed to the arenas' u32 field, after checking it lies in
/// [1, kMaxCapacity]: an API caller gets a ContractViolation, not a
/// silently truncated cache.
inline std::uint32_t checked_capacity(std::size_t capacity) {
  SPECPF_EXPECTS(capacity >= 1 && capacity <= kMaxCapacity);
  return static_cast<std::uint32_t>(capacity);
}

/// Capacities up to this use the small-cache arenas: per-user fixed blocks
/// with inline residency (a linear scan of at most 32 packed entries — up
/// to four cache lines of 8-byte list nodes, six of 12-byte LFU nodes,
/// or CLOCK's and random's 16-byte item head plus at most 112 bytes of
/// their overflow block),
/// no hash index at all. Larger capacities use the slab + fleet hash index
/// arenas. Both variants of every policy are bit-identical to the legacy
/// caches; the dispatch happens once per run in make_cache_plane next to
/// the policy dispatch.
inline constexpr std::size_t kInlineResidencyCapacity = 32;

/// Slot index of the small-cache blocks: their slots, links, head, tail and
/// size. A block holds at most kInlineResidencyCapacity slots, so one byte
/// names every slot, with kNullSlot as the null link.
using SlotIndex = std::uint8_t;
inline constexpr SlotIndex kNullSlot = 0xFF;
static_assert(kInlineResidencyCapacity < kNullSlot);

/// Fill byte of never-written per-user block storage in SPECPF_AUDIT
/// builds (the engine poisons freed slots with the same byte).
inline constexpr unsigned char kUnwrittenByte = 0xDD;

/// Node or column storage for the per-user-block arenas, allocated but not
/// written. Each slot is written whole before it is linked or counted
/// live, and no slot at or past a user's size is ever read, so a block's
/// pages stay untouched until its user fills them. Audit builds fill the
/// storage with kUnwrittenByte so a read of a never-written slot yields
/// poisoned items, links and flags.
template <typename Node>
std::unique_ptr<Node[]> unwritten_block(std::size_t n) {
  static_assert(std::is_trivially_default_constructible_v<Node>);
  auto block = std::make_unique_for_overwrite<Node[]>(n);
  if constexpr (kAuditBuild) {
    std::memset(static_cast<void*>(block.get()), kUnwrittenByte,
                n * sizeof(Node));
  }
  return block;
}

// ---------------------------------------------------------------------------
// Intrusive-list arenas (LRU, FIFO)
// ---------------------------------------------------------------------------

/// Shared skeleton of the list-ordered policies: a slab of 16-byte nodes
/// with intrusive prev/next links, a free list, per-user chain views, and
/// the fleet residency map.
class ListArenaBase {
 public:
  ListArenaBase(std::size_t num_users, std::size_t capacity,
                std::uint64_t /*seed*/)
      : capacity_(checked_capacity(capacity)), users_(num_users) {}

  bool contains(std::uint32_t user, ItemId item) const {
    return map_.contains(residency_key(user, item));
  }

  bool set_tag(std::uint32_t user, ItemId item, EntryTag tag) {
    const NodeIndex* idx = map_.find(residency_key(user, item));
    if (idx == nullptr) return false;
    nodes_[*idx].tag = tag;
    return true;
  }

  std::uint32_t size(std::uint32_t user) const { return users_[user].size; }

  /// Bytes held: the node slab's capacity, the per-user views and the
  /// fleet residency index.
  std::uint64_t held_bytes() const {
    return std::uint64_t{nodes_.capacity()} * sizeof(Node) +
           std::uint64_t{users_.size()} * sizeof(UserCacheView) +
           map_.held_bytes();
  }

  /// Deep-invariant walk (util/audit.hpp): per-user chain integrity
  /// (links, acyclicity, size agreement), chain <-> residency-index
  /// agreement, free-list acyclicity, and slab conservation (every node is
  /// free or chained exactly once).
  void audit(AuditReport& report) const {
    AuditScope scope(report, "ListArena");
    // 0 = unseen, 1 = on the free list, 2 = chained under some user.
    std::vector<std::uint8_t> state(nodes_.size(), 0);
    std::size_t free_count = 0;
    for (NodeIndex n = free_; n != kNull; n = nodes_[n].next) {
      if (!report.check(n < nodes_.size(),
                        "free list points past the slab (node " +
                            std::to_string(n) + ")")) {
        break;
      }
      if (!report.check(state[n] == 0, "free list revisits node " +
                                           std::to_string(n) + " (cycle)")) {
        break;
      }
      state[n] = 1;
      ++free_count;
    }
    std::uint64_t chained = 0;
    for (std::uint32_t user = 0; user < users_.size(); ++user) {
      const UserCacheView& u = users_[user];
      report.check(u.size <= capacity_, "user " + std::to_string(user) +
                                            " exceeds capacity");
      NodeIndex prev = kNull;
      NodeIndex n = u.head;
      std::uint32_t steps = 0;
      while (n != kNull) {
        if (!report.check(steps < u.size,
                          "user " + std::to_string(user) +
                              " chain is longer than its recorded size (" +
                              std::to_string(u.size) + ")")) {
          break;
        }
        if (!report.check(n < nodes_.size(), "user " + std::to_string(user) +
                                                 " chain points past the "
                                                 "slab")) {
          break;
        }
        if (!report.check(state[n] == 0,
                          "node " + std::to_string(n) +
                              " appears in two chains or on the free list")) {
          break;
        }
        state[n] = 2;
        const Node& node = nodes_[n];
        report.check(node.prev == prev,
                     "node " + std::to_string(n) + " has a broken prev link");
        const NodeIndex* idx = map_.find(residency_key(user, node.item));
        report.check(idx != nullptr && *idx == n,
                     "user " + std::to_string(user) + " item " +
                         std::to_string(node.item) +
                         " is chained but missing or desynced in the "
                         "residency index");
        prev = n;
        n = node.next;
        ++steps;
      }
      report.check(steps == u.size,
                   "user " + std::to_string(user) + " chain walk found " +
                       std::to_string(steps) + " nodes, size() says " +
                       std::to_string(u.size));
      report.check(u.tail == prev, "user " + std::to_string(user) +
                                       " tail disagrees with the chain walk");
      chained += steps;
    }
    report.check(chained == map_.size(),
                 "residency index holds " + std::to_string(map_.size()) +
                     " entries but " + std::to_string(chained) +
                     " nodes are chained");
    report.check(free_count + chained == nodes_.size(),
                 "slab conservation: " + std::to_string(free_count) +
                     " free + " + std::to_string(chained) + " chained != " +
                     std::to_string(nodes_.size()) + " slab nodes");
    map_.audit(report);
  }

 protected:
  friend struct specpf::AuditPeer;  // corruption-injection tests only

  struct Node {
    std::uint32_t item = 0;
    NodeIndex prev = kNull;
    NodeIndex next = kNull;
    EntryTag tag = EntryTag::kUntagged;
  };

  /// Per-user chain view: the whole per-user cache state.
  struct UserCacheView {
    NodeIndex head = kNull;  // LRU: most recent; FIFO: oldest
    NodeIndex tail = kNull;  // LRU: victim end; FIFO: newest
    std::uint32_t size = 0;
  };

  NodeIndex alloc_node(ItemId item, EntryTag tag) {
    NodeIndex n;
    if (free_ != kNull) {
      n = free_;
      free_ = nodes_[n].next;
    } else {
      SPECPF_DCHECK(nodes_.size() < kNull);
      n = static_cast<NodeIndex>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[n] = Node{static_cast<std::uint32_t>(item), kNull, kNull, tag};
    return n;
  }

  void free_node(NodeIndex n) {
    nodes_[n].next = free_;
    free_ = n;
  }

  void unlink(UserCacheView& u, NodeIndex n) {
    Node& node = nodes_[n];
    if (node.prev != kNull) nodes_[node.prev].next = node.next;
    if (node.next != kNull) nodes_[node.next].prev = node.prev;
    if (u.head == n) u.head = node.next;
    if (u.tail == n) u.tail = node.prev;
    node.prev = node.next = kNull;
  }

  void push_front(UserCacheView& u, NodeIndex n) {
    nodes_[n].prev = kNull;
    nodes_[n].next = u.head;
    if (u.head != kNull) nodes_[u.head].prev = n;
    u.head = n;
    if (u.tail == kNull) u.tail = n;
  }

  void push_back(UserCacheView& u, NodeIndex n) {
    nodes_[n].next = kNull;
    nodes_[n].prev = u.tail;
    if (u.tail != kNull) nodes_[u.tail].next = n;
    u.tail = n;
    if (u.head == kNull) u.head = n;
  }

  std::uint32_t capacity_;
  FlatHashMap<std::uint32_t> map_;
  std::vector<Node> nodes_;
  NodeIndex free_ = kNull;
  std::vector<UserCacheView> users_;
};

/// LRU over the shared slab: lookups and re-inserts splice the node to the
/// chain head; the victim is the chain tail.
class LruArena : public ListArenaBase {
 public:
  using ListArenaBase::ListArenaBase;

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const NodeIndex* idx = map_.find(residency_key(user, item));
    if (idx == nullptr) return std::nullopt;
    move_to_front(users_[user], *idx);
    return nodes_[*idx].tag;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    UserCacheView& u = users_[user];
    if (const NodeIndex* idx = map_.find(residency_key(user, item))) {
      nodes_[*idx].tag = tag;
      move_to_front(u, *idx);
      return;
    }
    if (u.size >= capacity_) {
      const NodeIndex victim = u.tail;
      const std::uint32_t vitem = nodes_[victim].item;
      const EntryTag vtag = nodes_[victim].tag;
      unlink(u, victim);
      free_node(victim);
      map_.erase(residency_key(user, vitem));
      --u.size;
      on_evict(static_cast<ItemId>(vitem), vtag);
    }
    const NodeIndex n = alloc_node(item, tag);
    push_front(u, n);
    map_[residency_key(user, item)] = n;
    ++u.size;
  }

 private:
  void move_to_front(UserCacheView& u, NodeIndex n) {
    if (u.head == n) return;
    unlink(u, n);
    push_front(u, n);
  }
};

/// FIFO over the shared slab: eviction order fixed at insertion (chain head
/// is the oldest entry); lookups and tag refreshes never move a node.
class FifoArena : public ListArenaBase {
 public:
  using ListArenaBase::ListArenaBase;

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const NodeIndex* idx = map_.find(residency_key(user, item));
    if (idx == nullptr) return std::nullopt;
    return nodes_[*idx].tag;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    UserCacheView& u = users_[user];
    if (const NodeIndex* idx = map_.find(residency_key(user, item))) {
      nodes_[*idx].tag = tag;  // refresh tag only; FIFO position unchanged
      return;
    }
    if (u.size >= capacity_) {
      const NodeIndex victim = u.head;
      const std::uint32_t vitem = nodes_[victim].item;
      const EntryTag vtag = nodes_[victim].tag;
      unlink(u, victim);
      free_node(victim);
      map_.erase(residency_key(user, vitem));
      --u.size;
      on_evict(static_cast<ItemId>(vitem), vtag);
    }
    const NodeIndex n = alloc_node(item, tag);
    push_back(u, n);
    map_[residency_key(user, item)] = n;
    ++u.size;
  }
};

// ---------------------------------------------------------------------------
// LFU arena: flat frequency buckets threaded through two slabs
// ---------------------------------------------------------------------------

/// O(1) LFU (frequency-bucket list, after Ketan Shah et al.) with both the
/// entry nodes and the bucket nodes drawn from shared slabs. Ties within a
/// frequency bucket break LRU, exactly like the legacy LfuCache.
class LfuArena {
 public:
  LfuArena(std::size_t num_users, std::size_t capacity, std::uint64_t /*seed*/)
      : capacity_(checked_capacity(capacity)), users_(num_users) {}

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const NodeIndex* idx = map_.find(residency_key(user, item));
    if (idx == nullptr) return std::nullopt;
    const EntryTag tag = nodes_[*idx].tag;
    bump(user, *idx);
    return tag;
  }

  bool contains(std::uint32_t user, ItemId item) const {
    return map_.contains(residency_key(user, item));
  }

  bool set_tag(std::uint32_t user, ItemId item, EntryTag tag) {
    const NodeIndex* idx = map_.find(residency_key(user, item));
    if (idx == nullptr) return false;
    nodes_[*idx].tag = tag;
    return true;
  }

  std::uint32_t size(std::uint32_t user) const { return users_[user].size; }

  /// Bytes held: both slabs' capacities, the per-user views and the fleet
  /// residency index.
  std::uint64_t held_bytes() const {
    return std::uint64_t{nodes_.capacity()} * sizeof(LfuNode) +
           std::uint64_t{buckets_.capacity()} * sizeof(Bucket) +
           std::uint64_t{users_.size()} * sizeof(UserLfuView) +
           map_.held_bytes();
  }

  /// Access count of a resident item (0 if absent); exposed for tests.
  /// Counts saturate only past 2^32 touches of one item by one user —
  /// unreachable in any sweep we run (the legacy cache stores 64 bits).
  std::uint32_t frequency(std::uint32_t user, ItemId item) const {
    const NodeIndex* idx = map_.find(residency_key(user, item));
    return idx == nullptr ? 0 : buckets_[nodes_[*idx].bucket].freq;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    if (const NodeIndex* idx = map_.find(residency_key(user, item))) {
      nodes_[*idx].tag = tag;
      bump(user, *idx);
      return;
    }
    UserLfuView& u = users_[user];
    if (u.size >= capacity_) evict_one(user, on_evict);
    // New items start in the frequency-1 bucket.
    NodeIndex b = u.buckets;
    if (b == kNull || buckets_[b].freq != 1) {
      b = alloc_bucket(1);
      buckets_[b].next = u.buckets;
      if (u.buckets != kNull) buckets_[u.buckets].prev = b;
      u.buckets = b;
    }
    const NodeIndex n = alloc_node(item, tag, b);
    push_node_front(b, n);
    map_[residency_key(user, item)] = n;
    ++u.size;
  }

  /// Deep-invariant walker: free-list acyclicity on both slabs, per-user
  /// bucket chains strictly ascending in frequency, node <-> bucket
  /// back-pointers, chain <-> residency-index agreement, and two-slab
  /// conservation (free + chained == allocated on each slab).
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "LfuArena");
    // 0 = unseen, 1 = on a free list, 2 = reachable from a user chain.
    std::vector<std::uint8_t> node_state(nodes_.size(), 0);
    std::vector<std::uint8_t> bucket_state(buckets_.size(), 0);
    std::size_t free_node_count = 0;
    for (NodeIndex n = free_nodes_; n != kNull; n = nodes_[n].next) {
      if (!report.check(n < nodes_.size(), "free node out of range")) break;
      if (!report.check(node_state[n] == 0,
                        "node free list revisits slot " + std::to_string(n) +
                            " (cycle or double free)")) {
        break;
      }
      node_state[n] = 1;
      ++free_node_count;
    }
    std::size_t free_bucket_count = 0;
    for (NodeIndex b = free_buckets_; b != kNull; b = buckets_[b].next) {
      if (!report.check(b < buckets_.size(), "free bucket out of range")) {
        break;
      }
      if (!report.check(bucket_state[b] == 0,
                        "bucket free list revisits slot " + std::to_string(b) +
                            " (cycle or double free)")) {
        break;
      }
      bucket_state[b] = 1;
      ++free_bucket_count;
    }
    std::size_t chained_nodes = 0;
    std::size_t live_buckets = 0;
    for (std::uint32_t user = 0; user < users_.size(); ++user) {
      const UserLfuView& u = users_[user];
      const std::string who = "user " + std::to_string(user);
      std::uint32_t user_nodes = 0;
      std::uint32_t prev_freq = 0;
      NodeIndex prev_b = kNull;
      for (NodeIndex b = u.buckets; b != kNull; b = buckets_[b].next) {
        if (!report.check(b < buckets_.size(),
                          who + ": bucket index out of range")) {
          break;
        }
        if (!report.check(bucket_state[b] == 0,
                          who + ": bucket " + std::to_string(b) +
                              " freed or reached twice (cycle)")) {
          break;
        }
        bucket_state[b] = 2;
        ++live_buckets;
        const Bucket& bucket = buckets_[b];
        report.check(bucket.prev == prev_b,
                     who + ": bucket back-link broken at " + std::to_string(b));
        report.check(bucket.freq > prev_freq,
                     who + ": bucket frequencies not strictly ascending at " +
                         std::to_string(b));
        NodeIndex prev_n = kNull;
        for (NodeIndex n = bucket.head; n != kNull; n = nodes_[n].next) {
          if (!report.check(n < nodes_.size(),
                            who + ": node index out of range")) {
            break;
          }
          if (!report.check(node_state[n] == 0,
                            who + ": node " + std::to_string(n) +
                                " freed or reached twice (cycle)")) {
            break;
          }
          node_state[n] = 2;
          const LfuNode& node = nodes_[n];
          report.check(node.prev == prev_n,
                       who + ": node back-link broken at " + std::to_string(n));
          report.check(node.bucket == b,
                       who + ": node " + std::to_string(n) +
                           " bucket back-pointer desynced");
          const NodeIndex* r = map_.find(residency_key(user, node.item));
          if (report.check(r != nullptr, who + ": chained item " +
                                             std::to_string(node.item) +
                                             " missing from residency index")) {
            report.check(*r == n, who + ": residency index points at a "
                                        "different node for item " +
                                      std::to_string(node.item));
          }
          prev_n = n;
          ++user_nodes;
        }
        report.check(bucket.head != kNull,
                     who + ": empty bucket " + std::to_string(b) +
                         " left in chain");
        report.check(bucket.tail == prev_n,
                     who + ": bucket tail desynced at " + std::to_string(b));
        prev_freq = buckets_[b].freq;
        prev_b = b;
      }
      report.check(user_nodes == u.size,
                   who + ": chain length != recorded size");
      chained_nodes += user_nodes;
    }
    report.check(chained_nodes == map_.size(),
                 "residency index size != total chained nodes");
    report.check(free_node_count + chained_nodes == nodes_.size(),
                 "node slab conservation broken (free + chained != allocated)");
    report.check(free_bucket_count + live_buckets == buckets_.size(),
                 "bucket slab conservation broken (free + live != allocated)");
    map_.audit(report);
  }

 private:
  friend struct specpf::AuditPeer;  // corruption-injection tests only

  struct LfuNode {
    std::uint32_t item = 0;
    NodeIndex prev = kNull;  // within the bucket; front = most recent
    NodeIndex next = kNull;
    NodeIndex bucket = kNull;
    EntryTag tag = EntryTag::kUntagged;
  };
  struct Bucket {
    std::uint32_t freq = 0;
    NodeIndex prev = kNull;  // bucket chain, ascending frequency
    NodeIndex next = kNull;
    NodeIndex head = kNull;  // front = most recently touched at this freq
    NodeIndex tail = kNull;
  };
  /// Per-user view: lowest-frequency bucket plus the resident count.
  struct UserLfuView {
    NodeIndex buckets = kNull;
    std::uint32_t size = 0;
  };

  NodeIndex alloc_node(ItemId item, EntryTag tag, NodeIndex bucket) {
    NodeIndex n;
    if (free_nodes_ != kNull) {
      n = free_nodes_;
      free_nodes_ = nodes_[n].next;
    } else {
      SPECPF_DCHECK(nodes_.size() < kNull);
      n = static_cast<NodeIndex>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[n] =
        LfuNode{static_cast<std::uint32_t>(item), kNull, kNull, bucket, tag};
    return n;
  }

  void free_lfu_node(NodeIndex n) {
    nodes_[n].next = free_nodes_;
    free_nodes_ = n;
  }

  NodeIndex alloc_bucket(std::uint32_t freq) {
    NodeIndex b;
    if (free_buckets_ != kNull) {
      b = free_buckets_;
      free_buckets_ = buckets_[b].next;
    } else {
      SPECPF_DCHECK(buckets_.size() < kNull);
      b = static_cast<NodeIndex>(buckets_.size());
      buckets_.emplace_back();
    }
    buckets_[b] = Bucket{freq, kNull, kNull, kNull, kNull};
    return b;
  }

  void free_bucket(NodeIndex b) {
    buckets_[b].next = free_buckets_;
    free_buckets_ = b;
  }

  void push_node_front(NodeIndex b, NodeIndex n) {
    Bucket& bucket = buckets_[b];
    nodes_[n].prev = kNull;
    nodes_[n].next = bucket.head;
    if (bucket.head != kNull) nodes_[bucket.head].prev = n;
    bucket.head = n;
    if (bucket.tail == kNull) bucket.tail = n;
    nodes_[n].bucket = b;
  }

  void unlink_node(NodeIndex b, NodeIndex n) {
    Bucket& bucket = buckets_[b];
    LfuNode& node = nodes_[n];
    if (node.prev != kNull) nodes_[node.prev].next = node.next;
    if (node.next != kNull) nodes_[node.next].prev = node.prev;
    if (bucket.head == n) bucket.head = node.next;
    if (bucket.tail == n) bucket.tail = node.prev;
    node.prev = node.next = kNull;
  }

  void remove_bucket(UserLfuView& u, NodeIndex b) {
    Bucket& bucket = buckets_[b];
    if (bucket.prev != kNull) buckets_[bucket.prev].next = bucket.next;
    if (bucket.next != kNull) buckets_[bucket.next].prev = bucket.prev;
    if (u.buckets == b) u.buckets = bucket.next;
    free_bucket(b);
  }

  void bump(std::uint32_t user, NodeIndex n) {
    const NodeIndex b = nodes_[n].bucket;
    const std::uint32_t next_freq = buckets_[b].freq + 1;
    NodeIndex next = buckets_[b].next;
    if (next == kNull || buckets_[next].freq != next_freq) {
      // Splice a fresh bucket between b and its successor.
      const NodeIndex nb = alloc_bucket(next_freq);
      const NodeIndex after = buckets_[b].next;  // re-read: alloc may move
      buckets_[nb].prev = b;
      buckets_[nb].next = after;
      buckets_[b].next = nb;
      if (after != kNull) buckets_[after].prev = nb;
      next = nb;
    }
    unlink_node(b, n);
    if (buckets_[b].head == kNull) remove_bucket(users_[user], b);
    push_node_front(next, n);
  }

  template <typename OnEvict>
  void evict_one(std::uint32_t user, OnEvict&& on_evict) {
    UserLfuView& u = users_[user];
    SPECPF_DCHECK(u.buckets != kNull);
    const NodeIndex lowest = u.buckets;
    const NodeIndex victim = buckets_[lowest].tail;  // LRU within the bucket
    SPECPF_DCHECK(victim != kNull);
    const std::uint32_t vitem = nodes_[victim].item;
    const EntryTag vtag = nodes_[victim].tag;
    unlink_node(lowest, victim);
    if (buckets_[lowest].head == kNull) remove_bucket(u, lowest);
    free_lfu_node(victim);
    map_.erase(residency_key(user, vitem));
    --u.size;
    on_evict(static_cast<ItemId>(vitem), vtag);
  }

  std::uint32_t capacity_;
  FlatHashMap<std::uint32_t> map_;
  std::vector<LfuNode> nodes_;
  std::vector<Bucket> buckets_;
  NodeIndex free_nodes_ = kNull;
  NodeIndex free_buckets_ = kNull;
  std::vector<UserLfuView> users_;
};

// ---------------------------------------------------------------------------
// Fixed-block arenas (CLOCK, random): a four-frame head per user, plus one
// overflow block for each user who outgrows it
// ---------------------------------------------------------------------------

/// Flag-column bits of the fixed-block arenas: the §4 tag (EntryTag's own
/// value) and CLOCK's reference bit. A live frame's flag byte holds no
/// other bit, so the audit builds' kUnwrittenByte marks a never-written
/// frame.
inline constexpr std::uint8_t kTagBit = 0x01;
inline constexpr std::uint8_t kRefBit = 0x02;
static_assert(static_cast<std::uint8_t>(EntryTag::kTagged) == kTagBit &&
              static_cast<std::uint8_t>(EntryTag::kUntagged) == 0);

/// Bytes of one frame: its item and its flag byte.
inline constexpr std::uint64_t kFrameBytes =
    sizeof(std::uint32_t) + sizeof(std::uint8_t);

inline EntryTag tag_of(std::uint8_t flags) {
  return static_cast<EntryTag>(flags & kTagBit);
}

/// Frames of `num_users` blocks of `capacity`, after checking that every
/// frame index fits a NodeIndex.
inline std::size_t frame_count(std::size_t num_users, std::size_t capacity) {
  SPECPF_EXPECTS(num_users * capacity < kNull);
  return num_users * capacity;
}

/// Frames each user of a fixed-block arena owns from construction: one
/// 16-byte run of items. A session of the canonical trace averages four
/// pages, so most users never hold more.
inline constexpr std::uint32_t kHeadFrames = 4;

/// Frame storage of the fixed-block arenas: a u32 item column and a u8
/// flag column, 5 bytes a frame. Frame i of a user lives in the user's head
/// (min(capacity, kHeadFrames) frames, owned from construction) when
/// i < kHeadFrames, else at offset i − kHeadFrames of the user's overflow
/// block: capacity − kHeadFrames frames, taken from a chunked pool when the
/// user first needs frame kHeadFrames. Blocks are never freed (the §4
/// protocol has no erase), moved or copied, so frame addresses are stable
/// and a population that fills every block holds exactly
/// num_users × capacity frames. The head columns and every pool chunk are
/// allocated unwritten.
///
/// A NodeIndex names frame i of a user as user·head + i in the head and
/// num_users·head + handle·(capacity − head) + (i − head) in the pool:
/// dense, below num_users × capacity, and fixed once handed out, so the
/// fleet index of the indexed arenas can hold it.
class FrameBlocks {
 public:
  /// Pointers to one frame's item and flag byte.
  struct Frame {
    std::uint32_t* item;
    std::uint8_t* flags;
  };

  FrameBlocks(std::size_t num_users, std::uint32_t capacity)
      : head_(std::min(capacity, kHeadFrames)),
        overflow_(capacity - head_),
        head_frames_(head_frame_count(num_users, capacity)),
        chunk_shift_(chunk_shift(num_users, overflow_)),
        chunk_frames_((NodeIndex{1} << chunk_shift_) * overflow_),
        head_items_(unwritten_block<std::uint32_t>(head_frames_)),
        head_flags_(unwritten_block<std::uint8_t>(head_frames_)) {}

  /// Frames of each user's head: min(capacity, kHeadFrames).
  std::uint32_t head() const { return head_; }

  /// Overflow blocks handed out so far.
  std::uint32_t blocks() const { return blocks_; }

  /// Frames held: every head, plus the overflow blocks handed out so far.
  std::uint64_t held_frames() const {
    return std::uint64_t{head_frames_} + std::uint64_t{blocks_} * overflow_;
  }

  /// Gives `overflow` (a user's handle, kNull while it has none) a fresh
  /// block when `frame` is past the head.
  void ensure_frame(std::uint32_t& overflow, std::uint32_t frame) {
    if (frame < head_ || overflow != kNull) return;
    overflow = blocks_++;
    if ((overflow & ((1u << chunk_shift_) - 1)) == 0) {
      item_chunks_.push_back(unwritten_block<std::uint32_t>(chunk_frames_));
      flag_chunks_.push_back(unwritten_block<std::uint8_t>(chunk_frames_));
    }
  }

  /// Frame i of the user whose overflow handle is `overflow`.
  Frame frame(std::uint32_t user, std::uint32_t overflow, std::uint32_t i) {
    return locate(user, overflow, i);
  }

  /// Flag byte of the frame a NodeIndex names.
  std::uint8_t& flags_at(NodeIndex index) {
    if (index < head_frames_) return head_flags_[index];
    const NodeIndex at = index - head_frames_;
    return flag_chunks_[at / chunk_frames_][at % chunk_frames_];
  }

  /// NodeIndex of frame i of the user whose overflow handle is `overflow`.
  NodeIndex index(std::uint32_t user, std::uint32_t overflow,
                  std::uint32_t i) const {
    if (i < head_) return user * head_ + i;
    return head_frames_ + overflow * overflow_ + (i - head_);
  }

  /// Frame of `item` among a user's first `live` frames (head first, then
  /// the overflow block), or kNull.
  std::uint32_t find(std::uint32_t user, std::uint32_t overflow,
                     std::uint32_t live, std::uint32_t item) const {
    const std::uint32_t* head = &head_items_[std::size_t{user} * head_];
    const std::uint32_t in_head = std::min(live, head_);
    for (std::uint32_t i = 0; i < in_head; ++i) {
      if (head[i] == item) return i;
    }
    if (live <= head_) return kNull;
    const std::uint32_t* block = locate(user, overflow, head_).item;
    for (std::uint32_t i = 0; i < live - head_; ++i) {
      if (block[i] == item) return head_ + i;
    }
    return kNull;
  }

  /// Calls fn(i, item, flags) for a user's first `live` frames.
  template <typename Fn>
  void for_each_frame(std::uint32_t user, std::uint32_t overflow,
                      std::uint32_t live, Fn&& fn) const {
    for (std::uint32_t i = 0; i < live; ++i) {
      const Frame f = locate(user, overflow, i);
      fn(i, *f.item, *f.flags);
    }
  }

 private:
  /// Pool chunks near this many frames, so that a chunk is a few hundred
  /// kilobytes at the capacities the sweeps run.
  static constexpr std::size_t kChunkFrames = std::size_t{1} << 16;

  static NodeIndex head_frame_count(std::size_t num_users,
                                    std::uint32_t capacity) {
    frame_count(num_users, capacity);  // every frame must have a NodeIndex
    return static_cast<NodeIndex>(num_users *
                                  std::min(capacity, kHeadFrames));
  }

  /// log2 of the blocks in one pool chunk: a power of two near
  /// kChunkFrames frames, and no more blocks than there are users.
  static std::uint32_t chunk_shift(std::size_t num_users,
                                   std::uint32_t overflow) {
    if (overflow == 0) return 0;
    const std::size_t by_frames =
        std::bit_floor(std::max<std::size_t>(1, kChunkFrames / overflow));
    return static_cast<std::uint32_t>(std::countr_zero(
        std::min(by_frames, std::bit_ceil(std::max<std::size_t>(
                                1, num_users)))));
  }

  Frame locate(std::uint32_t user, std::uint32_t overflow,
               std::uint32_t i) const {
    if (i < head_) {
      const std::size_t at = std::size_t{user} * head_ + i;
      return {&head_items_[at], &head_flags_[at]};
    }
    const std::size_t chunk = overflow >> chunk_shift_;
    const std::size_t at =
        std::size_t{overflow & ((1u << chunk_shift_) - 1)} * overflow_ +
        (i - head_);
    return {&item_chunks_[chunk][at], &flag_chunks_[chunk][at]};
  }

  std::uint32_t head_;
  std::uint32_t overflow_;  // frames of one overflow block
  NodeIndex head_frames_;   // num_users · head_
  std::uint32_t chunk_shift_;
  NodeIndex chunk_frames_;  // frames of one pool chunk
  std::uint32_t blocks_ = 0;
  std::unique_ptr<std::uint32_t[]> head_items_;  // user u: [u·head_, +head_)
  std::unique_ptr<std::uint8_t[]> head_flags_;
  std::vector<std::unique_ptr<std::uint32_t[]>> item_chunks_;
  std::vector<std::unique_ptr<std::uint8_t[]>> flag_chunks_;
};

/// A fixed-block arena's per-user counts: u16 in inline-residency mode
/// (capacity ≤ kInlineResidencyCapacity), u32 above it.
template <bool kInlineResidency>
using FrameCount =
    std::conditional_t<kInlineResidency, std::uint16_t, std::uint32_t>;

/// What CLOCK and random share: the frame blocks, residency (an inline scan
/// of the user's frames up to kInlineResidencyCapacity, the fleet hash index
/// above) and the audit walk. `View` is the per-user state; it has a u32
/// `overflow` handle (kNull while the user has no block) and a `live`
/// count. Without erase, a user's occupied frames are the dense prefix
/// below `live`, so no frame needs an occupied bit.
template <bool kInlineResidency, typename View>
class FrameBlockArena {
 public:
  bool contains(std::uint32_t user, ItemId item) const {
    if constexpr (kInlineResidency) {
      const View& u = users_[user];
      return frames_.find(user, u.overflow, u.live, item32(item)) != kNull;
    } else {
      return map_.contains(residency_key(user, item));
    }
  }

  std::uint32_t size(std::uint32_t user) const { return users_[user].live; }

  /// Frames held: every user's head plus the overflow blocks handed out.
  std::uint64_t held_frames() const { return frames_.held_frames(); }

  /// Bytes held: the frames held (5 bytes each), the per-user views and,
  /// in indexed mode, the fleet residency index.
  std::uint64_t held_bytes() const {
    return held_frames() * kFrameBytes +
           std::uint64_t{users_.size()} * sizeof(View) + map_.held_bytes();
  }

 protected:
  friend struct specpf::AuditPeer;  // corruption-injection tests only

  FrameBlockArena(std::size_t num_users, std::size_t capacity)
      : capacity_(checked_capacity(capacity)),
        frames_(num_users, capacity_),
        users_(num_users) {}

  static std::uint32_t item32(ItemId item) {
    SPECPF_DCHECK((item >> 32) == 0);
    return static_cast<std::uint32_t>(item);
  }

  /// Flag byte of `item`'s frame, or nullptr when it is not resident.
  std::uint8_t* find_flags(std::uint32_t user, ItemId item) {
    if constexpr (kInlineResidency) {
      const View& u = users_[user];
      const std::uint32_t i =
          frames_.find(user, u.overflow, u.live, item32(item));
      return i == kNull ? nullptr : frames_.frame(user, u.overflow, i).flags;
    } else {
      const NodeIndex* idx = map_.find(residency_key(user, item));
      return idx == nullptr ? nullptr : &frames_.flags_at(*idx);
    }
  }

  /// Writes `item` with `flags` into frame i of `user`, taking the user's
  /// overflow block first if frame i is its first past the head.
  void write(std::uint32_t user, std::uint32_t i, ItemId item,
             std::uint8_t flags) {
    View& u = users_[user];
    frames_.ensure_frame(u.overflow, i);
    const FrameBlocks::Frame f = frames_.frame(user, u.overflow, i);
    *f.item = item32(item);
    *f.flags = flags;
    if constexpr (!kInlineResidency) {
      map_[residency_key(user, item)] = frames_.index(user, u.overflow, i);
    }
  }

  /// Deep-invariant walk: live counts within capacity; each overflow handle
  /// in range, owned by one user, and held exactly by the users past their
  /// head; every allocated block owned; every live frame's flag byte within
  /// `flag_bits` (so a read of a never-written frame shows in SPECPF_AUDIT
  /// builds); and (in indexed mode) every live frame agreeing with the
  /// fleet residency index.
  void audit_frames(AuditReport& report, std::uint8_t flag_bits,
                    const std::string& bits_name,
                    const std::string& noun) const {
    const std::uint32_t head = frames_.head();
    const std::uint32_t blocks = frames_.blocks();
    std::vector<std::uint32_t> owner(blocks, kNull);
    std::uint32_t owned = 0;
    std::uint64_t live_total = 0;
    for (std::uint32_t user = 0; user < users_.size(); ++user) {
      const View& u = users_[user];
      const std::string who = "user " + std::to_string(user);
      const std::uint32_t h = u.overflow;
      report.check(u.live <= capacity_, who + " exceeds capacity");
      std::uint32_t live = std::min<std::uint32_t>(u.live, capacity_);
      bool block_ok = false;
      if (h != kNull) {
        ++owned;
        block_ok = report.check(h < blocks, who + ": overflow handle " +
                                                std::to_string(h) +
                                                " out of range (" +
                                                std::to_string(blocks) +
                                                " blocks)");
        if (block_ok) {
          report.check(owner[h] == kNull,
                       who + ": overflow block " + std::to_string(h) +
                           " is also user " + std::to_string(owner[h]) + "'s");
          if (owner[h] == kNull) owner[h] = user;
        }
        report.check(u.live > head, who + " holds " + std::to_string(u.live) +
                                        " entries, within its head, but owns "
                                        "overflow block " +
                                        std::to_string(h));
      } else {
        report.check(u.live <= head, who + " holds " + std::to_string(u.live) +
                                         " entries but no overflow block");
      }
      if (!block_ok) live = std::min(live, head);  // no frame past the head
      frames_.for_each_frame(
          user, h, live,
          [&](std::uint32_t i, std::uint32_t item, std::uint8_t flags) {
            report.check((flags & ~flag_bits) == 0,
                         who + ": " + noun + " " + std::to_string(i) +
                             " has flag bits outside " + bits_name + " (" +
                             std::to_string(flags) + ")");
            if constexpr (!kInlineResidency) {
              const NodeIndex* idx = map_.find(residency_key(user, item));
              report.check(idx != nullptr && *idx == frames_.index(user, h, i),
                           who + ": live " + noun + " " + std::to_string(i) +
                               " missing or desynced in the residency index");
            }
          });
      live_total += live;
    }
    report.check(owned == blocks,
                 "overflow pool holds " + std::to_string(blocks) +
                     " blocks but " + std::to_string(owned) +
                     " users own one");
    if constexpr (!kInlineResidency) {
      report.check(live_total == map_.size(),
                   "residency index size != total live " + noun + "s");
      map_.audit(report);
    }
  }

  std::uint32_t capacity_;
  FlatHashMap<std::uint32_t> map_;  // empty in inline-residency mode
  FrameBlocks frames_;
  std::vector<View> users_;
};

/// Per-user state of CLOCK: overflow handle, hand and live count (8 bytes
/// in inline-residency mode, 12 above it).
template <bool kInlineResidency>
struct UserClockView {
  std::uint32_t overflow = kNull;
  FrameCount<kInlineResidency> hand = 0;
  FrameCount<kInlineResidency> live = 0;
};

/// CLOCK (second chance) over FrameBlocks, with the tag and reference bits
/// in the flag column. While a user fills up, its next frame is the first
/// unoccupied one (the counter); once full, the hand sweep over frames
/// 0 … capacity − 1 is identical to the legacy ClockCache's.
template <bool kInlineResidency>
class ClockArenaT
    : public FrameBlockArena<kInlineResidency,
                             UserClockView<kInlineResidency>> {
  friend struct specpf::AuditPeer;  // corruption-injection tests only

  using Base =
      FrameBlockArena<kInlineResidency, UserClockView<kInlineResidency>>;
  using Base::capacity_;
  using Base::frames_;
  using Base::map_;
  using Base::users_;

 public:
  ClockArenaT(std::size_t num_users, std::size_t capacity,
              std::uint64_t /*seed*/)
      : Base(num_users, capacity) {}

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    std::uint8_t* flags = this->find_flags(user, item);
    if (flags == nullptr) return std::nullopt;
    *flags |= kRefBit;
    return tag_of(*flags);
  }

  bool set_tag(std::uint32_t user, ItemId item, EntryTag tag) {
    std::uint8_t* flags = this->find_flags(user, item);
    if (flags == nullptr) return false;
    *flags = (*flags & kRefBit) | static_cast<std::uint8_t>(tag);
    return true;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    if (std::uint8_t* flags = this->find_flags(user, item)) {
      *flags = static_cast<std::uint8_t>(tag) | kRefBit;
      return;
    }
    auto& u = users_[user];
    std::uint32_t frame;
    if (u.live < capacity_) {
      frame = u.live;  // dense prefix: the first unoccupied frame
    } else {
      // Sweep, clearing reference bits, until an unreferenced frame —
      // terminates within two passes.
      for (;;) {
        const std::uint32_t cur = u.hand;
        std::uint8_t& flags = *frames_.frame(user, u.overflow, cur).flags;
        u.hand = static_cast<decltype(u.hand)>((cur + 1) % capacity_);
        if ((flags & kRefBit) == 0) {
          frame = cur;
          break;
        }
        flags &= static_cast<std::uint8_t>(~kRefBit);
      }
      const FrameBlocks::Frame victim = frames_.frame(user, u.overflow, frame);
      if constexpr (!kInlineResidency) {
        map_.erase(residency_key(user, *victim.item));
      }
      --u.live;
      on_evict(static_cast<ItemId>(*victim.item), tag_of(*victim.flags));
    }
    this->write(user, frame, item, static_cast<std::uint8_t>(tag) | kRefBit);
    ++u.live;
  }

  /// Deep-invariant walker: FrameBlockArena's walk, with hands in range
  /// and every live flag byte within tag|ref.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "ClockArena");
    for (std::uint32_t user = 0; user < users_.size(); ++user) {
      report.check(users_[user].hand < capacity_,
                   "user " + std::to_string(user) + " hand out of range");
    }
    this->audit_frames(report, kTagBit | kRefBit, "tag|ref", "frame");
  }
};

using ClockArena = ClockArenaT<false>;
using SmallClockArena = ClockArenaT<true>;

/// Per-user state of random: overflow handle and live count.
template <bool kInlineResidency>
struct UserRandomView {
  std::uint32_t overflow = kNull;
  FrameCount<kInlineResidency> live = 0;
};

/// Random replacement over FrameBlocks, with the tag in the flag column
/// and swap-with-last removal, and each user's own Xoshiro stream seeded
/// exactly like the legacy plane (root.substream(100 + user)), so victim
/// draws are bit-identical to a fleet of legacy RandomCaches.
template <bool kInlineResidency>
class RandomArenaT
    : public FrameBlockArena<kInlineResidency,
                             UserRandomView<kInlineResidency>> {
  friend struct specpf::AuditPeer;  // corruption-injection tests only

  using Base =
      FrameBlockArena<kInlineResidency, UserRandomView<kInlineResidency>>;
  using Base::capacity_;
  using Base::frames_;
  using Base::map_;
  using Base::users_;

 public:
  RandomArenaT(std::size_t num_users, std::size_t capacity, std::uint64_t seed)
      : Base(num_users, capacity) {
    const Rng root(seed);
    rngs_.reserve(num_users);
    for (std::size_t u = 0; u < num_users; ++u) {
      rngs_.emplace_back(root.substream(100 + u).next_u64());
    }
  }

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const std::uint8_t* flags = this->find_flags(user, item);
    if (flags == nullptr) return std::nullopt;
    return tag_of(*flags);
  }

  bool set_tag(std::uint32_t user, ItemId item, EntryTag tag) {
    std::uint8_t* flags = this->find_flags(user, item);
    if (flags == nullptr) return false;
    *flags = static_cast<std::uint8_t>(tag);
    return true;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    if (std::uint8_t* flags = this->find_flags(user, item)) {
      *flags = static_cast<std::uint8_t>(tag);
      return;
    }
    auto& u = users_[user];
    if (u.live >= capacity_) {
      const auto pos =
          static_cast<std::uint32_t>(rngs_[user].next_below(u.live));
      const std::uint32_t last = u.live - 1;
      const FrameBlocks::Frame victim = frames_.frame(user, u.overflow, pos);
      const std::uint32_t victim_item = *victim.item;
      const EntryTag victim_tag = tag_of(*victim.flags);
      if constexpr (!kInlineResidency) {
        map_.erase(residency_key(user, victim_item));
      }
      if (pos != last) {  // swap-with-last removal
        const FrameBlocks::Frame moved = frames_.frame(user, u.overflow, last);
        *victim.item = *moved.item;
        *victim.flags = *moved.flags;
        if constexpr (!kInlineResidency) {
          map_[residency_key(user, *victim.item)] =
              frames_.index(user, u.overflow, pos);
        }
      }
      --u.live;
      on_evict(static_cast<ItemId>(victim_item), victim_tag);
    }
    this->write(user, u.live, item, static_cast<std::uint8_t>(tag));
    ++u.live;
  }

  /// Bytes held: FrameBlockArena's, plus each user's RNG stream.
  std::uint64_t held_bytes() const {
    return Base::held_bytes() + std::uint64_t{rngs_.size()} * sizeof(Rng);
  }

  /// Deep-invariant walker: FrameBlockArena's walk, with one RNG stream
  /// per user and every live flag byte within the tag bit.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "RandomArena");
    report.check(rngs_.size() == users_.size(),
                 "RNG stream count != user count");
    this->audit_frames(report, kTagBit, "the tag", "slot");
  }

 private:
  std::vector<Rng> rngs_;
};

using RandomArena = RandomArenaT<false>;
using SmallRandomArena = RandomArenaT<true>;

// ---------------------------------------------------------------------------
// Small-cache arenas: per-user fixed blocks, inline residency, no hash index
// ---------------------------------------------------------------------------

/// LRU/FIFO for capacities ≤ kInlineResidencyCapacity: each user owns a
/// fixed block of `capacity` packed 8-byte nodes with one-byte local links
/// (a capacity-8 block is 64 bytes, one cache line's worth). Residency is a scan of the
/// block's occupied prefix (the §4 protocol never erases, and eviction
/// reuses the victim's slot in place, so occupied slots always form a
/// prefix) — at most four cache lines, and zero index bytes per entry.
class SmallListArenaBase {
 public:
  SmallListArenaBase(std::size_t num_users, std::size_t capacity,
                     std::uint64_t /*seed*/)
      : capacity_(static_cast<SlotIndex>(capacity)),
        nodes_(unwritten_block<Node>(num_users * capacity)),
        users_(num_users) {
    SPECPF_EXPECTS(capacity >= 1);
    SPECPF_EXPECTS(capacity <= kInlineResidencyCapacity);
  }

  bool contains(std::uint32_t user, ItemId item) const {
    return find_slot(user, item) != kNullSlot;
  }

  bool set_tag(std::uint32_t user, ItemId item, EntryTag tag) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return false;
    node(user, slot).tag = tag;
    return true;
  }

  std::uint32_t size(std::uint32_t user) const { return users_[user].size; }

  /// Bytes held: every user's block of nodes plus the per-user views.
  std::uint64_t held_bytes() const {
    return std::uint64_t{users_.size()} *
           (std::uint64_t{capacity_} * sizeof(Node) + sizeof(UserCacheView));
  }

  /// Deep-invariant walker: each user's chain covers exactly the occupied
  /// prefix [0, size) of its block, with intact back-links and no cycles.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "SmallListArena");
    for (std::uint32_t user = 0; user < users_.size(); ++user) {
      const UserCacheView& u = users_[user];
      const std::string who = "user " + std::to_string(user);
      report.check(u.size <= capacity_, who + " exceeds capacity");
      const SlotIndex live = std::min(u.size, capacity_);
      std::uint32_t seen = 0;  // bitmap: capacity_ <= 32 slots
      SlotIndex prev = kNullSlot;
      SlotIndex slot = u.head;
      SlotIndex steps = 0;
      while (slot != kNullSlot) {
        if (!report.check(slot < live,
                          who + ": chain slot " + std::to_string(slot) +
                              " outside the occupied prefix")) {
          break;
        }
        if (!report.check((seen & (1u << slot)) == 0,
                          who + ": chain revisits slot " +
                              std::to_string(slot) + " (cycle)")) {
          break;
        }
        seen |= 1u << slot;
        const Node& n = node(user, slot);
        report.check(n.prev == prev,
                     who + ": broken prev link at slot " +
                         std::to_string(slot) + " (points at " +
                         std::to_string(n.prev) + ")");
        prev = slot;
        slot = n.next;
        ++steps;
      }
      report.check(steps == u.size,
                   who + ": chain walk found " + std::to_string(steps) +
                       " nodes, size() says " + std::to_string(u.size));
      report.check(u.tail == prev, who + ": tail disagrees with chain walk");
    }
  }

 protected:
  friend struct specpf::AuditPeer;  // corruption-injection tests only

  struct Node {  // 8 bytes; no initializers: see unwritten_block
    std::uint32_t item;
    SlotIndex prev;  // local slot index within the block
    SlotIndex next;
    EntryTag tag;
  };
  static_assert(sizeof(Node) == 8);

  /// Per-user chain view over the block.
  struct UserCacheView {
    SlotIndex head = kNullSlot;
    SlotIndex tail = kNullSlot;
    SlotIndex size = 0;
  };
  static_assert(sizeof(UserCacheView) == 3);

  std::size_t base(std::uint32_t user) const {
    return static_cast<std::size_t>(user) * capacity_;
  }
  Node& node(std::uint32_t user, SlotIndex slot) {
    return nodes_[base(user) + slot];
  }
  const Node& node(std::uint32_t user, SlotIndex slot) const {
    return nodes_[base(user) + slot];
  }

  SlotIndex find_slot(std::uint32_t user, ItemId item) const {
    SPECPF_DCHECK((item >> 32) == 0);
    const auto item32 = static_cast<std::uint32_t>(item);
    const Node* block = &nodes_[base(user)];
    const SlotIndex live = users_[user].size;
    for (SlotIndex i = 0; i < live; ++i) {
      if (block[i].item == item32) return i;
    }
    return kNullSlot;
  }

  void unlink(std::uint32_t user, UserCacheView& u, SlotIndex slot) {
    Node& n = node(user, slot);
    if (n.prev != kNullSlot) node(user, n.prev).next = n.next;
    if (n.next != kNullSlot) node(user, n.next).prev = n.prev;
    if (u.head == slot) u.head = n.next;
    if (u.tail == slot) u.tail = n.prev;
    n.prev = n.next = kNullSlot;
  }

  void push_front(std::uint32_t user, UserCacheView& u, SlotIndex slot) {
    Node& n = node(user, slot);
    n.prev = kNullSlot;
    n.next = u.head;
    if (u.head != kNullSlot) node(user, u.head).prev = slot;
    u.head = slot;
    if (u.tail == kNullSlot) u.tail = slot;
  }

  void push_back(std::uint32_t user, UserCacheView& u, SlotIndex slot) {
    Node& n = node(user, slot);
    n.next = kNullSlot;
    n.prev = u.tail;
    if (u.tail != kNullSlot) node(user, u.tail).next = slot;
    u.tail = slot;
    if (u.head == kNullSlot) u.head = slot;
  }

  SlotIndex capacity_;
  std::unique_ptr<Node[]> nodes_;  // user u: [u * capacity_, +capacity_)
  std::vector<UserCacheView> users_;
};

class SmallLruArena : public SmallListArenaBase {
 public:
  using SmallListArenaBase::SmallListArenaBase;

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return std::nullopt;
    move_to_front(user, slot);
    return node(user, slot).tag;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    UserCacheView& u = users_[user];
    if (const SlotIndex slot = find_slot(user, item); slot != kNullSlot) {
      node(user, slot).tag = tag;
      move_to_front(user, slot);
      return;
    }
    SlotIndex slot;
    if (u.size >= capacity_) {
      slot = u.tail;  // victim's slot is reused in place
      const Node victim = node(user, slot);
      unlink(user, u, slot);
      --u.size;
      on_evict(static_cast<ItemId>(victim.item), victim.tag);
    } else {
      slot = u.size;  // occupied prefix grows
    }
    node(user, slot) = Node{static_cast<std::uint32_t>(item), kNullSlot,
                            kNullSlot, tag};
    push_front(user, u, slot);
    ++u.size;
  }

 private:
  void move_to_front(std::uint32_t user, SlotIndex slot) {
    UserCacheView& u = users_[user];
    if (u.head == slot) return;
    unlink(user, u, slot);
    push_front(user, u, slot);
  }
};

class SmallFifoArena : public SmallListArenaBase {
 public:
  using SmallListArenaBase::SmallListArenaBase;

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return std::nullopt;
    return node(user, slot).tag;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    UserCacheView& u = users_[user];
    if (const SlotIndex slot = find_slot(user, item); slot != kNullSlot) {
      node(user, slot).tag = tag;  // tag refresh only; position unchanged
      return;
    }
    SlotIndex slot;
    if (u.size >= capacity_) {
      slot = u.head;  // oldest entry; its slot is reused in place
      const Node victim = node(user, slot);
      unlink(user, u, slot);
      --u.size;
      on_evict(static_cast<ItemId>(victim.item), victim.tag);
    } else {
      slot = u.size;
    }
    node(user, slot) = Node{static_cast<std::uint32_t>(item), kNullSlot,
                            kNullSlot, tag};
    push_back(user, u, slot);
    ++u.size;
  }
};

/// LFU for capacities ≤ kInlineResidencyCapacity: per-user block of packed
/// 12-byte nodes carrying their frequency and one-byte links, threaded into
/// ONE chain kept in flattened bucket order — ascending frequency,
/// most-recently-bumped first within a frequency. That ordering makes the
/// legacy bucket structure's operations pure chain operations:
///   * new item (freq 1)  -> push_front (front of the freq-1 bucket),
///   * bump f -> f+1      -> reinsert before the first node with freq > f
///                           (the front of the f+1 bucket),
///   * victim             -> last node of the head's equal-frequency run
///                           (LRU within the lowest bucket).
/// Every walk is block-local (≤ 32 nodes in 6 cache lines).
class SmallLfuArena {
 public:
  SmallLfuArena(std::size_t num_users, std::size_t capacity,
                std::uint64_t /*seed*/)
      : capacity_(static_cast<SlotIndex>(capacity)),
        nodes_(unwritten_block<Node>(num_users * capacity)),
        users_(num_users) {
    SPECPF_EXPECTS(capacity >= 1);
    SPECPF_EXPECTS(capacity <= kInlineResidencyCapacity);
  }

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return std::nullopt;
    const EntryTag tag = node(user, slot).tag;
    bump(user, slot);
    return tag;
  }

  bool contains(std::uint32_t user, ItemId item) const {
    return find_slot(user, item) != kNullSlot;
  }

  bool set_tag(std::uint32_t user, ItemId item, EntryTag tag) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return false;
    node(user, slot).tag = tag;
    return true;
  }

  std::uint32_t size(std::uint32_t user) const { return users_[user].size; }

  /// Bytes held: every user's block of nodes plus the per-user views.
  std::uint64_t held_bytes() const {
    return std::uint64_t{users_.size()} *
           (std::uint64_t{capacity_} * sizeof(Node) + sizeof(UserLfuView));
  }

  /// Access count of a resident item (0 if absent); exposed for tests.
  std::uint32_t frequency(std::uint32_t user, ItemId item) const {
    const SlotIndex slot = find_slot(user, item);
    return slot == kNullSlot ? 0 : node(user, slot).freq;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    UserLfuView& u = users_[user];
    if (const SlotIndex slot = find_slot(user, item); slot != kNullSlot) {
      node(user, slot).tag = tag;
      bump(user, slot);
      return;
    }
    SlotIndex slot;
    if (u.size >= capacity_) {
      slot = victim_slot(user);
      const Node victim = node(user, slot);
      unlink(user, u, slot);
      --u.size;
      on_evict(static_cast<ItemId>(victim.item), victim.tag);
    } else {
      slot = u.size;
    }
    node(user, slot) = Node{static_cast<std::uint32_t>(item), 1, kNullSlot,
                            kNullSlot, tag};
    push_front(user, u, slot);  // front of the freq-1 bucket
    ++u.size;
  }

  /// Deep-invariant walker: each user's chain covers exactly the occupied
  /// prefix [0, size) of its block with intact back-links and no cycles,
  /// and frequencies run non-decreasing from head to tail with every
  /// resident entry touched at least once (flattened bucket order).
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "SmallLfuArena");
    for (std::uint32_t user = 0; user < users_.size(); ++user) {
      const UserLfuView& u = users_[user];
      const std::string who = "user " + std::to_string(user);
      report.check(u.size <= capacity_, who + " exceeds capacity");
      const SlotIndex live = std::min(u.size, capacity_);
      std::uint32_t seen = 0;  // bitmap: capacity_ <= 32 slots
      std::uint32_t prev_freq = 1;
      SlotIndex prev = kNullSlot;
      SlotIndex slot = u.head;
      SlotIndex steps = 0;
      while (slot != kNullSlot) {
        if (!report.check(slot < live,
                          who + ": chain slot " + std::to_string(slot) +
                              " outside the occupied prefix")) {
          break;
        }
        if (!report.check((seen & (1u << slot)) == 0,
                          who + ": chain revisits slot " +
                              std::to_string(slot) + " (cycle)")) {
          break;
        }
        seen |= 1u << slot;
        const Node& n = node(user, slot);
        report.check(n.prev == prev,
                     who + ": broken prev link at slot " +
                         std::to_string(slot) + " (points at " +
                         std::to_string(n.prev) + ")");
        report.check(n.freq >= prev_freq,
                     who + ": frequencies not in flattened bucket order at "
                           "slot " +
                         std::to_string(slot));
        prev_freq = n.freq;
        prev = slot;
        slot = n.next;
        ++steps;
      }
      report.check(steps == u.size,
                   who + ": chain walk found " + std::to_string(steps) +
                       " nodes, size() says " + std::to_string(u.size));
      report.check(u.tail == prev, who + ": tail disagrees with chain walk");
    }
  }

 private:
  friend struct specpf::AuditPeer;  // corruption-injection tests only

  struct Node {  // 12 bytes; no initializers: see unwritten_block
    std::uint32_t item;
    std::uint32_t freq;
    SlotIndex prev;
    SlotIndex next;
    EntryTag tag;
  };
  static_assert(sizeof(Node) == 12);
  struct UserLfuView {
    SlotIndex head = kNullSlot;  // lowest freq, most recent within it
    SlotIndex tail = kNullSlot;
    SlotIndex size = 0;
  };
  static_assert(sizeof(UserLfuView) == 3);

  std::size_t base(std::uint32_t user) const {
    return static_cast<std::size_t>(user) * capacity_;
  }
  Node& node(std::uint32_t user, SlotIndex slot) {
    return nodes_[base(user) + slot];
  }
  const Node& node(std::uint32_t user, SlotIndex slot) const {
    return nodes_[base(user) + slot];
  }

  SlotIndex find_slot(std::uint32_t user, ItemId item) const {
    SPECPF_DCHECK((item >> 32) == 0);
    const auto item32 = static_cast<std::uint32_t>(item);
    const Node* block = &nodes_[base(user)];
    const SlotIndex live = users_[user].size;
    for (SlotIndex i = 0; i < live; ++i) {
      if (block[i].item == item32) return i;
    }
    return kNullSlot;
  }

  /// Last node of the head's equal-frequency run: LRU within the lowest
  /// frequency bucket.
  SlotIndex victim_slot(std::uint32_t user) const {
    const UserLfuView& u = users_[user];
    SPECPF_DCHECK(u.head != kNullSlot);
    SlotIndex cur = u.head;
    const std::uint32_t freq = node(user, cur).freq;
    while (node(user, cur).next != kNullSlot &&
           node(user, node(user, cur).next).freq == freq) {
      cur = node(user, cur).next;
    }
    return cur;
  }

  void unlink(std::uint32_t user, UserLfuView& u, SlotIndex slot) {
    Node& n = node(user, slot);
    if (n.prev != kNullSlot) node(user, n.prev).next = n.next;
    if (n.next != kNullSlot) node(user, n.next).prev = n.prev;
    if (u.head == slot) u.head = n.next;
    if (u.tail == slot) u.tail = n.prev;
    n.prev = n.next = kNullSlot;
  }

  void push_front(std::uint32_t user, UserLfuView& u, SlotIndex slot) {
    Node& n = node(user, slot);
    n.prev = kNullSlot;
    n.next = u.head;
    if (u.head != kNullSlot) node(user, u.head).prev = slot;
    u.head = slot;
    if (u.tail == kNullSlot) u.tail = slot;
  }

  /// Moves `slot` from frequency f to f + 1, keeping the chain in
  /// flattened bucket order: reinsert before the first node with
  /// freq > f (i.e. at the front of the f+1 bucket).
  void bump(std::uint32_t user, SlotIndex slot) {
    UserLfuView& u = users_[user];
    const std::uint32_t freq = node(user, slot).freq;
    unlink(user, u, slot);
    node(user, slot).freq = freq + 1;
    SlotIndex after = u.head;
    while (after != kNullSlot && node(user, after).freq <= freq) {
      after = node(user, after).next;
    }
    if (after == kNullSlot) {
      // Highest frequency: append at the tail.
      Node& n = node(user, slot);
      n.next = kNullSlot;
      n.prev = u.tail;
      if (u.tail != kNullSlot) node(user, u.tail).next = slot;
      u.tail = slot;
      if (u.head == kNullSlot) u.head = slot;
      return;
    }
    Node& n = node(user, slot);
    Node& succ = node(user, after);
    n.next = after;
    n.prev = succ.prev;
    if (succ.prev != kNullSlot) node(user, succ.prev).next = slot;
    succ.prev = slot;
    if (u.head == after) u.head = slot;
  }

  SlotIndex capacity_;
  std::unique_ptr<Node[]> nodes_;  // user u: [u * capacity_, +capacity_)
  std::vector<UserLfuView> users_;
};

}  // namespace specpf::arena
