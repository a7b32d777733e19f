// Per-client cache interface of the pre-arena caches kept here as test
// oracles. Capacity is counted in items, matching the paper's n̄(C) (the
// analysis never needs byte capacities; byte-capacity variants can wrap
// these policies).
//
// Every entry carries an EntryTag so the §4 hit-ratio estimation protocol
// (tagged/untagged) composes with any eviction policy.
#pragma once

#include <cstdint>
#include <optional>

#include "core/hit_ratio_estimator.hpp"
#include "des/inline_function.hpp"
#include "util/ids.hpp"

namespace specpf {

using core::EntryTag;

/// Statistics every cache keeps.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  double hit_ratio() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

class Cache {
 public:
  /// Invoked with (item, tag) whenever an entry is evicted to make room.
  /// Inline-storage (no heap per hook): captures up to 24 bytes — a couple
  /// of pointers — which covers every hook in the tree; larger captures are
  /// a compile error, not a silent allocation.
  using EvictionHook = InlineFunction<void(ItemId, EntryTag), 24>;

  virtual ~Cache() = default;

  /// Looks `item` up. A hit updates policy metadata (recency/frequency/...)
  /// and returns the entry's tag; a miss returns nullopt. Counted in stats.
  virtual std::optional<EntryTag> lookup(ItemId item) = 0;

  /// True iff the item is resident; does NOT touch policy metadata or stats.
  virtual bool contains(ItemId item) const = 0;

  /// Inserts `item` with `tag`, evicting per policy if full. Re-inserting a
  /// resident item updates its tag (and metadata per policy).
  virtual void insert(ItemId item, EntryTag tag) = 0;

  /// Rewrites the tag of a resident item. Returns false if absent.
  virtual bool set_tag(ItemId item, EntryTag tag) = 0;

  /// Removes an item. Returns false if absent. Not counted as an eviction.
  virtual bool erase(ItemId item) = 0;

  /// Current number of resident items.
  virtual std::size_t size() const = 0;

  /// Maximum number of resident items.
  virtual std::size_t capacity() const = 0;

  virtual void set_eviction_hook(EvictionHook hook) = 0;

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

 protected:
  CacheStats stats_;
};

}  // namespace specpf
