#include "reference/random_cache.hpp"

#include "util/contract.hpp"

namespace specpf {

RandomCache::RandomCache(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  SPECPF_EXPECTS(capacity >= 1);
}

std::optional<EntryTag> RandomCache::lookup(ItemId item) {
  ++stats_.lookups;
  auto it = index_.find(item);
  if (it == index_.end()) return std::nullopt;
  ++stats_.hits;
  return slots_[it->second].tag;
}

bool RandomCache::contains(ItemId item) const {
  return index_.count(item) != 0;
}

void RandomCache::insert(ItemId item, EntryTag tag) {
  ++stats_.insertions;
  auto it = index_.find(item);
  if (it != index_.end()) {
    slots_[it->second].tag = tag;
    return;
  }
  if (slots_.size() >= capacity_) evict_one();
  slots_.push_back(Slot{item, tag});
  index_[item] = slots_.size() - 1;
}

bool RandomCache::set_tag(ItemId item, EntryTag tag) {
  auto it = index_.find(item);
  if (it == index_.end()) return false;
  slots_[it->second].tag = tag;
  return true;
}

bool RandomCache::erase(ItemId item) {
  auto it = index_.find(item);
  if (it == index_.end()) return false;
  const std::size_t pos = it->second;
  index_.erase(it);
  if (pos != slots_.size() - 1) {
    slots_[pos] = slots_.back();
    index_[slots_[pos].item] = pos;
  }
  slots_.pop_back();
  return true;
}

void RandomCache::evict_one() {
  SPECPF_ASSERT(!slots_.empty());
  const std::size_t pos = rng_.next_below(slots_.size());
  const Slot victim = slots_[pos];
  erase(victim.item);
  ++stats_.evictions;
  if (hook_) hook_(victim.item, victim.tag);
}

}  // namespace specpf
