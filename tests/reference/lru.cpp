#include "reference/lru.hpp"

#include "util/contract.hpp"

namespace specpf {

LruCache::LruCache(std::size_t capacity) : capacity_(capacity) {
  SPECPF_EXPECTS(capacity >= 1);
}

std::optional<EntryTag> LruCache::lookup(ItemId item) {
  ++stats_.lookups;
  auto it = map_.find(item);
  if (it == map_.end()) return std::nullopt;
  ++stats_.hits;
  order_.splice(order_.begin(), order_, it->second);
  return it->second->tag;
}

bool LruCache::contains(ItemId item) const { return map_.count(item) != 0; }

void LruCache::insert(ItemId item, EntryTag tag) {
  ++stats_.insertions;
  auto it = map_.find(item);
  if (it != map_.end()) {
    it->second->tag = tag;
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  if (map_.size() >= capacity_) evict_one();
  order_.push_front(Node{item, tag});
  map_[item] = order_.begin();
}

bool LruCache::set_tag(ItemId item, EntryTag tag) {
  auto it = map_.find(item);
  if (it == map_.end()) return false;
  it->second->tag = tag;
  return true;
}

bool LruCache::erase(ItemId item) {
  auto it = map_.find(item);
  if (it == map_.end()) return false;
  order_.erase(it->second);
  map_.erase(it);
  return true;
}

void LruCache::evict_one() {
  SPECPF_ASSERT(!order_.empty());
  const Node victim = order_.back();
  order_.pop_back();
  map_.erase(victim.item);
  ++stats_.evictions;
  if (hook_) hook_(victim.item, victim.tag);
}

}  // namespace specpf
