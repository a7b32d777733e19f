// Random-replacement cache: evicts a uniformly random resident item.
// The memoryless baseline for eviction-policy ablations.
// Pre-arena reference implementation, kept byte-identical as an oracle
// for the differential tests; never linked into specpf.
#pragma once

#include <unordered_map>
#include <vector>

#include "reference/cache.hpp"
#include "util/rng.hpp"

namespace specpf {

class RandomCache final : public Cache {
 public:
  RandomCache(std::size_t capacity, std::uint64_t seed);

  std::optional<EntryTag> lookup(ItemId item) override;
  bool contains(ItemId item) const override;
  void insert(ItemId item, EntryTag tag) override;
  bool set_tag(ItemId item, EntryTag tag) override;
  bool erase(ItemId item) override;
  std::size_t size() const override { return slots_.size(); }
  std::size_t capacity() const override { return capacity_; }
  void set_eviction_hook(EvictionHook hook) override { hook_ = std::move(hook); }

 private:
  struct Slot {
    ItemId item;
    EntryTag tag;
  };

  void evict_one();

  std::size_t capacity_;
  std::vector<Slot> slots_;  // dense; swap-with-last removal
  std::unordered_map<ItemId, std::size_t> index_;
  Rng rng_;
  EvictionHook hook_;
};

}  // namespace specpf
