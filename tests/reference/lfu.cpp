#include "reference/lfu.hpp"

#include "util/contract.hpp"

namespace specpf {

LfuCache::LfuCache(std::size_t capacity) : capacity_(capacity) {
  SPECPF_EXPECTS(capacity >= 1);
}

std::optional<EntryTag> LfuCache::lookup(ItemId item) {
  ++stats_.lookups;
  auto it = map_.find(item);
  if (it == map_.end()) return std::nullopt;
  ++stats_.hits;
  const EntryTag tag = it->second.node->tag;
  bump(item, it->second);
  return tag;
}

bool LfuCache::contains(ItemId item) const { return map_.count(item) != 0; }

void LfuCache::insert(ItemId item, EntryTag tag) {
  ++stats_.insertions;
  auto it = map_.find(item);
  if (it != map_.end()) {
    it->second.node->tag = tag;
    bump(item, it->second);
    return;
  }
  if (map_.size() >= capacity_) evict_one();
  // New items start in the frequency-1 bucket.
  if (buckets_.empty() || buckets_.front().freq != 1) {
    buckets_.push_front(Bucket{1, {}});
  }
  BucketIt bucket = buckets_.begin();
  bucket->nodes.push_front(Node{item, tag});
  map_[item] = Locator{bucket, bucket->nodes.begin()};
}

bool LfuCache::set_tag(ItemId item, EntryTag tag) {
  auto it = map_.find(item);
  if (it == map_.end()) return false;
  it->second.node->tag = tag;
  return true;
}

bool LfuCache::erase(ItemId item) {
  auto it = map_.find(item);
  if (it == map_.end()) return false;
  BucketIt bucket = it->second.bucket;
  bucket->nodes.erase(it->second.node);
  if (bucket->nodes.empty()) buckets_.erase(bucket);
  map_.erase(it);
  return true;
}

std::uint64_t LfuCache::frequency(ItemId item) const {
  auto it = map_.find(item);
  return it == map_.end() ? 0 : it->second.bucket->freq;
}

void LfuCache::bump(ItemId item, Locator& loc) {
  BucketIt bucket = loc.bucket;
  const std::uint64_t next_freq = bucket->freq + 1;
  BucketIt next = std::next(bucket);
  if (next == buckets_.end() || next->freq != next_freq) {
    next = buckets_.insert(next, Bucket{next_freq, {}});
  }
  const Node node = *loc.node;
  bucket->nodes.erase(loc.node);
  if (bucket->nodes.empty()) buckets_.erase(bucket);
  next->nodes.push_front(node);
  map_[item] = Locator{next, next->nodes.begin()};
}

void LfuCache::evict_one() {
  SPECPF_ASSERT(!buckets_.empty());
  Bucket& lowest = buckets_.front();
  SPECPF_ASSERT(!lowest.nodes.empty());
  const Node victim = lowest.nodes.back();  // LRU within the bucket
  lowest.nodes.pop_back();
  if (lowest.nodes.empty()) buckets_.pop_front();
  map_.erase(victim.item);
  ++stats_.evictions;
  if (hook_) hook_(victim.item, victim.tag);
}

}  // namespace specpf
