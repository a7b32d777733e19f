// First-in-first-out cache: eviction order fixed at insertion, lookups do
// not refresh position.
// Pre-arena reference implementation, kept byte-identical as an oracle
// for the differential tests; never linked into specpf.
#pragma once

#include <list>
#include <unordered_map>

#include "reference/cache.hpp"

namespace specpf {

class FifoCache final : public Cache {
 public:
  explicit FifoCache(std::size_t capacity);

  std::optional<EntryTag> lookup(ItemId item) override;
  bool contains(ItemId item) const override;
  void insert(ItemId item, EntryTag tag) override;
  bool set_tag(ItemId item, EntryTag tag) override;
  bool erase(ItemId item) override;
  std::size_t size() const override { return map_.size(); }
  std::size_t capacity() const override { return capacity_; }
  void set_eviction_hook(EvictionHook hook) override { hook_ = std::move(hook); }

 private:
  struct Node {
    ItemId item;
    EntryTag tag;
  };

  void evict_one();

  std::size_t capacity_;
  std::list<Node> order_;  // front = oldest
  std::unordered_map<ItemId, std::list<Node>::iterator> map_;
  EvictionHook hook_;
};

}  // namespace specpf
