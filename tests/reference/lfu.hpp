// Least-frequently-used cache with O(1) operations (frequency-bucket list,
// after Ketan Shah et al.). Ties within a frequency bucket break LRU.
// Pre-arena reference implementation, kept byte-identical as an oracle
// for the differential tests; never linked into specpf.
#pragma once

#include <list>
#include <unordered_map>

#include "cache/cache.hpp"

namespace specpf {

class LfuCache final : public Cache {
 public:
  explicit LfuCache(std::size_t capacity);

  std::optional<EntryTag> lookup(ItemId item) override;
  bool contains(ItemId item) const override;
  void insert(ItemId item, EntryTag tag) override;
  bool set_tag(ItemId item, EntryTag tag) override;
  bool erase(ItemId item) override;
  std::size_t size() const override { return map_.size(); }
  std::size_t capacity() const override { return capacity_; }
  void set_eviction_hook(EvictionHook hook) override { hook_ = std::move(hook); }

  /// Access count of a resident item (0 if absent); exposed for tests.
  std::uint64_t frequency(ItemId item) const;

 private:
  struct Node {
    ItemId item;
    EntryTag tag;
  };
  struct Bucket {
    std::uint64_t freq;
    std::list<Node> nodes;  // front = most recently touched at this freq
  };
  using BucketIt = std::list<Bucket>::iterator;
  struct Locator {
    BucketIt bucket;
    std::list<Node>::iterator node;
  };

  void bump(ItemId item, Locator& loc);
  void evict_one();

  std::size_t capacity_;
  std::list<Bucket> buckets_;  // ascending frequency
  std::unordered_map<ItemId, Locator> map_;
  EvictionHook hook_;
};

}  // namespace specpf
