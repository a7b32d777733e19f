#include "reference/clock_cache.hpp"

#include "util/contract.hpp"

namespace specpf {

ClockCache::ClockCache(std::size_t capacity) : frames_(capacity) {
  SPECPF_EXPECTS(capacity >= 1);
}

std::optional<EntryTag> ClockCache::lookup(ItemId item) {
  ++stats_.lookups;
  auto it = map_.find(item);
  if (it == map_.end()) return std::nullopt;
  ++stats_.hits;
  frames_[it->second].referenced = true;
  return frames_[it->second].tag;
}

bool ClockCache::contains(ItemId item) const { return map_.count(item) != 0; }

void ClockCache::insert(ItemId item, EntryTag tag) {
  ++stats_.insertions;
  auto it = map_.find(item);
  if (it != map_.end()) {
    frames_[it->second].tag = tag;
    frames_[it->second].referenced = true;
    return;
  }
  const std::size_t frame = find_victim_frame();
  Frame& f = frames_[frame];
  if (f.occupied) {
    map_.erase(f.item);
    ++stats_.evictions;
    --live_;
    if (hook_) hook_(f.item, f.tag);
  }
  f = Frame{item, tag, /*referenced=*/true, /*occupied=*/true};
  map_[item] = frame;
  ++live_;
}

bool ClockCache::set_tag(ItemId item, EntryTag tag) {
  auto it = map_.find(item);
  if (it == map_.end()) return false;
  frames_[it->second].tag = tag;
  return true;
}

bool ClockCache::erase(ItemId item) {
  auto it = map_.find(item);
  if (it == map_.end()) return false;
  frames_[it->second].occupied = false;
  frames_[it->second].referenced = false;
  map_.erase(it);
  --live_;
  return true;
}

std::size_t ClockCache::find_victim_frame() {
  // Prefer an empty frame; otherwise sweep, clearing reference bits, until a
  // frame with referenced == false is found (terminates within two sweeps).
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    if (!frames_[i].occupied) return i;
  }
  while (true) {
    Frame& f = frames_[hand_];
    const std::size_t frame = hand_;
    hand_ = (hand_ + 1) % frames_.size();
    if (!f.referenced) return frame;
    f.referenced = false;
  }
}

}  // namespace specpf
