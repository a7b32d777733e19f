// CLOCK (second-chance) cache: circular scan over reference bits —
// the classic low-overhead LRU approximation.
// Pre-arena reference implementation, kept byte-identical as an oracle
// for the differential tests; never linked into specpf.
#pragma once

#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"

namespace specpf {

class ClockCache final : public Cache {
 public:
  explicit ClockCache(std::size_t capacity);

  std::optional<EntryTag> lookup(ItemId item) override;
  bool contains(ItemId item) const override;
  void insert(ItemId item, EntryTag tag) override;
  bool set_tag(ItemId item, EntryTag tag) override;
  bool erase(ItemId item) override;
  std::size_t size() const override { return live_; }
  std::size_t capacity() const override { return frames_.size(); }
  void set_eviction_hook(EvictionHook hook) override { hook_ = std::move(hook); }

 private:
  struct Frame {
    ItemId item = 0;
    EntryTag tag = EntryTag::kUntagged;
    bool referenced = false;
    bool occupied = false;
  };

  std::size_t find_victim_frame();

  std::vector<Frame> frames_;
  std::unordered_map<ItemId, std::size_t> map_;
  std::size_t hand_ = 0;
  std::size_t live_ = 0;
  EvictionHook hook_;
};

}  // namespace specpf
