#include "reference/fifo.hpp"

#include "util/contract.hpp"

namespace specpf {

FifoCache::FifoCache(std::size_t capacity) : capacity_(capacity) {
  SPECPF_EXPECTS(capacity >= 1);
}

std::optional<EntryTag> FifoCache::lookup(ItemId item) {
  ++stats_.lookups;
  auto it = map_.find(item);
  if (it == map_.end()) return std::nullopt;
  ++stats_.hits;
  return it->second->tag;
}

bool FifoCache::contains(ItemId item) const { return map_.count(item) != 0; }

void FifoCache::insert(ItemId item, EntryTag tag) {
  ++stats_.insertions;
  auto it = map_.find(item);
  if (it != map_.end()) {
    it->second->tag = tag;  // refresh tag only; FIFO position unchanged
    return;
  }
  if (map_.size() >= capacity_) evict_one();
  order_.push_back(Node{item, tag});
  map_[item] = std::prev(order_.end());
}

bool FifoCache::set_tag(ItemId item, EntryTag tag) {
  auto it = map_.find(item);
  if (it == map_.end()) return false;
  it->second->tag = tag;
  return true;
}

bool FifoCache::erase(ItemId item) {
  auto it = map_.find(item);
  if (it == map_.end()) return false;
  order_.erase(it->second);
  map_.erase(it);
  return true;
}

void FifoCache::evict_one() {
  SPECPF_ASSERT(!order_.empty());
  const Node victim = order_.front();
  order_.pop_front();
  map_.erase(victim.item);
  ++stats_.evictions;
  if (hook_) hook_(victim.item, victim.tag);
}

}  // namespace specpf
