// Value-based cache: evicts the resident item with the lowest externally
// assigned value (e.g. estimated access probability). This is the cache
// that *realises Model A's assumption* — "prefetched items always eject
// those that have zero probability of being accessed" — whenever items
// with zero value are present; more generally it is the greedy
// min-value-eviction policy that the paper's Model AB discussion (§6)
// implies ("inevitably we can always find an item to evict whose access
// probability is less than h'/n̄(C)").
//
// Implementation: hash map + ordered multiset of (value, item) for an
// O(log n) eviction victim; value updates are O(log n). It backs the
// paper's victim-value table (bench/table_victim_value_sweep) and is never
// on the stack's request path, so node-based containers are fine here.
#pragma once

#include <map>
#include <set>
#include <unordered_map>

#include "cache/cache.hpp"

namespace specpf {

class ValueCache final : public Cache {
 public:
  explicit ValueCache(std::size_t capacity);

  std::optional<EntryTag> lookup(ItemId item) override;
  bool contains(ItemId item) const override;

  /// Inserts with value 0 (unknown); prefer insert_valued().
  void insert(ItemId item, EntryTag tag) override;

  /// Inserts with an explicit value; evicts the current minimum-value
  /// entry if full. If the new item's value is *below* the would-be
  /// victim's, the insertion is refused (cache admission control) — the
  /// greedy-optimal behaviour for probability-valued items.
  /// Returns true when the item is resident afterwards.
  bool insert_valued(ItemId item, EntryTag tag, double value);

  /// Updates a resident item's value. Returns false if absent.
  bool set_value(ItemId item, double value);

  /// Value of a resident item (nullopt if absent).
  std::optional<double> value_of(ItemId item) const;

  /// The value of the current eviction victim (nullopt when empty).
  std::optional<double> min_value() const;

  bool set_tag(ItemId item, EntryTag tag) override;
  bool erase(ItemId item) override;
  std::size_t size() const override { return entries_.size(); }
  std::size_t capacity() const override { return capacity_; }
  void set_eviction_hook(EvictionHook hook) override { hook_ = std::move(hook); }

 private:
  struct Entry {
    EntryTag tag;
    double value;
  };

  void evict_min();

  std::size_t capacity_;
  // Victim-value table only, never on the request path.
  std::unordered_map<ItemId, Entry> entries_;  // lint:allow(std::unordered_map)
  std::set<std::pair<double, ItemId>> by_value_;  // ascending value
  EvictionHook hook_;
};

}  // namespace specpf
