#include "des/simulator.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "util/contract.hpp"

namespace specpf {

namespace {
constexpr std::size_t kHeapArity = 4;
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = node_at(slot).next_free;
    if (slot < poisoned_.size()) poisoned_[slot] = 0;  // live again
    return slot;
  }
  SPECPF_ASSERT(slab_.size() < kMaxSlots);
  return slab_.emplace_back();
}

void Simulator::release_slot(std::uint32_t slot) {
  Node& node = node_at(slot);
  node.next_free = free_head_;
  free_head_ = slot;
  if (audit_mode_) {
    if (poisoned_.size() < slab_.size()) poisoned_.resize(slab_.size(), 0);
    node.action.poison_storage(kPoisonByte);  // empty: only buf_ touched
    poisoned_[slot] = 1;
  }
}

void Simulator::enable_audit_mode() { audit_mode_ = true; }

void Simulator::audit(AuditReport& report) const {
  const AuditScope scope(report, "Simulator");
  // 0 = unseen, 1 = on the free list, 2 = named by a pending entry.
  std::vector<std::uint8_t> state(slab_.size(), 0);
  std::size_t free_count = 0;
  for (std::uint32_t slot = free_head_; slot != kNoSlot;
       slot = node_at(slot).next_free) {
    if (!report.check(slot < slab_.size(),
                      "free list points past the slab (slot " +
                          std::to_string(slot) + ")")) {
      break;
    }
    if (!report.check(state[slot] == 0, "free list revisits slot " +
                                            std::to_string(slot) +
                                            " (cycle)")) {
      break;
    }
    state[slot] = 1;
    ++free_count;
    const Node& node = node_at(slot);
    report.check(!node.action,
                 "freed slot " + std::to_string(slot) + " still armed");
    if (slot < poisoned_.size() && poisoned_[slot]) {
      report.check(node.action.storage_is(kPoisonByte),
                   "freed slot " + std::to_string(slot) +
                       " poison overwritten (write through a freed "
                       "node?)");
    }
  }
  // Heap entries: valid unique slots, armed, times no earlier than the
  // clock.
  for (std::size_t i = kHeapBase; i < heap_.size(); ++i) {
    const HeapEntry& entry = heap_[i];
    const std::uint32_t slot = entry.slot();
    if (!report.check(slot < slab_.size(), "heap entry names slot " +
                                               std::to_string(slot) +
                                               " past the slab")) {
      continue;
    }
    if (!report.check(state[slot] == 0,
                      "heap entry slot " + std::to_string(slot) +
                          " is on the free list or pending twice")) {
      continue;
    }
    state[slot] = 2;
    report.check(static_cast<bool>(node_at(slot).action),
                 "heap slot " + std::to_string(slot) +
                     " is disarmed (lost action)");
    report.check(entry.time >= now_, "heap entry at slot " +
                                         std::to_string(slot) +
                                         " is scheduled in the past");
  }
  for (std::size_t j = kHeapBase + 1; j < heap_.size(); ++j) {
    const std::size_t parent = (j + 8) / kHeapArity;
    report.check(!heap_[j].before(heap_[parent]),
                 "4-ary heap property violated at index " +
                     std::to_string(j));
  }
  // Slab conservation: every slot is free or queued, never both/neither.
  // Timers live in their own slab and are not counted here.
  report.check(free_count + queued_nodes() == slab_.size(),
               "slab conservation: " + std::to_string(free_count) +
                   " free + " + std::to_string(queued_nodes()) +
                   " queued != " + std::to_string(slab_.size()) + " slots");
  audit_timers(report);
  audit_arrivals(report);
  audit_seqs(report);
}

void Simulator::audit_timers(AuditReport& report) const {
  // The timer free list: in bounds, acyclic, over released timers only.
  std::vector<std::uint8_t> released(timers_.size(), 0);
  for (std::uint32_t i = timer_free_head_; i != TimerId::kInvalid;
       i = timers_[i].next_free) {
    if (!report.check(i < timers_.size(),
                      "timer free list points past the timer slab (timer " +
                          std::to_string(i) + ")") ||
        !report.check(released[i] == 0, "timer free list revisits timer " +
                                            std::to_string(i) + " (cycle)")) {
      break;
    }
    released[i] = 1;
  }
  std::uint32_t earliest = TimerId::kInvalid;
  std::size_t armed = 0;
  for (std::uint32_t i = 0; i < timers_.size(); ++i) {
    const Timer& timer = timers_[i];
    const std::string name = "timer " + std::to_string(i);
    report.check(static_cast<bool>(timer.action) == (released[i] == 0),
                 name + (released[i] ? " is released but still bound"
                                     : " is unbound but not released"));
    if (!timer.armed) continue;
    ++armed;
    report.check(!released[i], name + " is armed after release");
    report.check(timer.key.slot() == i,
                 name + " key names timer " + std::to_string(timer.key.slot()));
    report.check(timer.key.time >= now_, name + " is armed in the past");
    if (earliest == TimerId::kInvalid ||
        timer.key.before(timers_[earliest].key)) {
      earliest = i;
    }
  }
  report.check(armed == armed_timers_,
               std::to_string(armed) + " timers armed but armed_timers_ says " +
                   std::to_string(armed_timers_));
  const bool cache_ok =
      earliest == timer_top_ &&
      (earliest == TimerId::kInvalid ||
       (timer_top_key_.time == timers_[earliest].key.time &&
        timer_top_key_.tie == timers_[earliest].key.tie));
  report.check(cache_ok, "cached earliest timer disagrees with a rescan");
}

void Simulator::audit_arrivals(AuditReport& report) const {
  report.check(arrivals_.empty() || static_cast<bool>(arrival_action_),
               "arrivals pending with no bound handler");
  for (std::size_t k = 0; k < arrivals_.size(); ++k) {
    const HeapEntry& key = arrivals_[k].key;
    const std::string name = "arrival " + std::to_string(k);
    report.check(key.time >= now_, name + " is in the past");
    if (k > 0) {
      report.check(arrivals_[k - 1].key.before(key),
                   name + " is out of (time, seq) order");
    }
  }
}

void Simulator::audit_seqs(AuditReport& report) const {
  // Every pending key's seq with the kind of entry that holds it.
  std::vector<std::pair<std::uint64_t, const char*>> seqs;
  seqs.reserve(pending());
  for (std::size_t i = kHeapBase; i < heap_.size(); ++i) {
    seqs.emplace_back(heap_[i].tie >> kSlotBits, "queued node");
  }
  for (std::uint32_t i = 0; i < timers_.size(); ++i) {
    if (timers_[i].armed) {
      seqs.emplace_back(timers_[i].key.tie >> kSlotBits, "armed timer");
    }
  }
  for (std::size_t k = 0; k < arrivals_.size(); ++k) {
    seqs.emplace_back(arrivals_[k].key.tie >> kSlotBits, "arrival");
  }
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i].first != seqs[i - 1].first) continue;
    report.check(false, std::string(seqs[i].second) + " shares its seq " +
                            std::to_string(seqs[i].first) + " with a " +
                            seqs[i - 1].second);
  }
}

// Physical indexing (see kHeapBase): children of i are 4i-8 .. 4i-5, parent
// of j is (j+8)/4, so every child group starts on a 64-byte boundary.
void Simulator::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  std::size_t hole = pos;
  while (hole > kHeapBase) {
    const std::size_t parent = (hole + 8) / kHeapArity;
    if (!entry.before(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Simulator::sift_down(std::size_t hole, HeapEntry value) {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = kHeapArity * hole - 8;
    if (first_child >= size) break;
    // Pull the next level's candidate range (the grandchildren, 16 entries =
    // 4 aligned cache lines) into cache while this level's comparisons run;
    // deep sifts are memory-latency-bound, not comparison-bound.
    const std::size_t grandchild = kHeapArity * first_child - 8;
    if (grandchild < size) {
      const char* base = reinterpret_cast<const char*>(&heap_[grandchild]);
      __builtin_prefetch(base);
      __builtin_prefetch(base + 64);
      __builtin_prefetch(base + 128);
      __builtin_prefetch(base + 192);
    }
    std::size_t best = first_child;
    const std::size_t end = std::min(first_child + kHeapArity, size);
    for (std::size_t child = first_child + 1; child < end; ++child) {
      if (heap_[child].before(heap_[best])) best = child;
    }
    if (!heap_[best].before(value)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = value;
}

void Simulator::heap_remove_top() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.size() > kHeapBase) sift_down(kHeapBase, last);
}

// Reassigns pending seqs 0..n-1 preserving relative order, armed timers and
// arrivals included. A monotone remap leaves every comparison's outcome
// unchanged, so neither the heap nor the arrival FIFO needs a rebuild. Runs
// once per ~1.1e12 scheduled events.
void Simulator::renumber_seqs() {
  std::vector<HeapEntry*> order;
  order.reserve(pending());
  for (std::size_t i = kHeapBase; i < heap_.size(); ++i) {
    order.push_back(&heap_[i]);
  }
  for (std::uint32_t i = 0; i < timers_.size(); ++i) {
    if (timers_[i].armed) order.push_back(&timers_[i].key);
  }
  for (std::size_t k = 0; k < arrivals_.size(); ++k) {
    order.push_back(&arrivals_[k].key);
  }
  std::sort(order.begin(), order.end(),
            [](const HeapEntry* a, const HeapEntry* b) {
              return a->tie < b->tie;
            });
  std::uint64_t seq = 0;
  for (HeapEntry* entry : order) {
    entry->tie = (seq++ << kSlotBits) | entry->slot();
  }
  next_seq_ = seq;
  rescan_timers();  // refresh the cached key's seq
}

void Simulator::schedule_at(double when, Action action) {
  SPECPF_EXPECTS(when >= now_);
  SPECPF_EXPECTS(static_cast<bool>(action));
  if (next_seq_ == kMaxSeq) renumber_seqs();
  const std::uint32_t slot = acquire_slot();
  node_at(slot).action = std::move(action);
  heap_.push_back(HeapEntry{when, (next_seq_++ << kSlotBits) | slot});
  sift_up(heap_.size() - 1);
}

void Simulator::schedule_in(double delay, Action action) {
  SPECPF_EXPECTS(delay >= 0.0);
  schedule_at(now_ + delay, std::move(action));
}

TimerId Simulator::add_timer(Action action) {
  SPECPF_EXPECTS(static_cast<bool>(action));
  std::uint32_t index = timer_free_head_;
  if (index != TimerId::kInvalid) {
    timer_free_head_ = timers_[index].next_free;
  } else {
    SPECPF_ASSERT(timers_.size() < kMaxSlots);
    index = timers_.emplace_back();
  }
  timers_[index].action = std::move(action);
  return TimerId(index);
}

void Simulator::arm_timer(TimerId id, double when) {
  SPECPF_EXPECTS(when >= now_);
  if (next_seq_ == kMaxSeq) renumber_seqs();
  Timer& timer = timer_at(id);
  timer.key = HeapEntry{when, (next_seq_++ << kSlotBits) | id.index_};
  if (!timer.armed) {
    timer.armed = true;
    ++armed_timers_;
  }
  if (timer_top_ == TimerId::kInvalid || timer.key.before(timer_top_key_)) {
    timer_top_ = id.index_;
    timer_top_key_ = timer.key;
  } else if (timer_top_ == id.index_) {
    rescan_timers();  // the earliest timer moved later
  }
}

void Simulator::disarm_timer(TimerId id) {
  Timer& timer = timer_at(id);
  if (!timer.armed) return;
  timer.armed = false;
  --armed_timers_;
  if (timer_top_ == id.index_) rescan_timers();
}

void Simulator::release_timer(TimerId id) {
  disarm_timer(id);
  Timer& timer = timer_at(id);
  timer.action.reset();
  timer.next_free = timer_free_head_;
  timer_free_head_ = id.index_;
}

void Simulator::rescan_timers() {
  timer_top_ = TimerId::kInvalid;
  if (armed_timers_ == 0) return;  // a lone link's timer just fired
  for (std::uint32_t i = 0; i < timers_.size(); ++i) {
    const Timer& timer = timers_[i];
    if (timer.armed && (timer_top_ == TimerId::kInvalid ||
                        timer.key.before(timer_top_key_))) {
      timer_top_ = i;
      timer_top_key_ = timer.key;
    }
  }
}

void Simulator::bind_arrivals(ArrivalAction action) {
  SPECPF_EXPECTS(static_cast<bool>(action));
  SPECPF_EXPECTS(!arrival_action_);
  arrival_action_ = std::move(action);
}

void Simulator::push_arrival(double when, std::uint64_t a, std::uint64_t b) {
  SPECPF_DCHECK(static_cast<bool>(arrival_action_));
  SPECPF_EXPECTS(when >= now_);
  SPECPF_EXPECTS(arrivals_.empty() ||
                 when >= arrivals_[arrivals_.size() - 1].key.time);
  if (next_seq_ == kMaxSeq) renumber_seqs();
  arrivals_.push_back(ArrivalEntry{HeapEntry{when, next_seq_++ << kSlotBits},
                                   a, b});
}

bool Simulator::run_next(double limit) {
  HeapEntry top;
  Tier tier;
  if (!peek_top(&top, &tier) || top.time > limit) return false;
  if (tier == Tier::kHeap) {
    const std::uint32_t slot = top.slot();
    Node& node = node_at(slot);
    // Start fetching the node's cache line now; the pop below overlaps the
    // miss so the action is already local when it is moved out.
    __builtin_prefetch(&node, /*rw=*/1);
    heap_remove_top();
    Action action = std::move(node.action);
    release_slot(slot);  // slot reusable by whatever `action` schedules
    now_ = top.time;
    ++executed_;
    action();
    return true;
  }
  if (tier == Tier::kTimer) {
    Timer& timer = timers_[timer_top_];
    timer.armed = false;
    --armed_timers_;
    rescan_timers();
    now_ = top.time;
    ++executed_;
    timer.action();  // in place: the action may re-arm its own timer
    return true;
  }
  const ArrivalEntry entry = arrivals_.front();
  arrivals_.pop_front();
  now_ = top.time;
  ++executed_;
  arrival_action_(entry.a, entry.b);  // may push further arrivals
  return true;
}

bool Simulator::peek_top(HeapEntry* top, Tier* tier) const {
  bool have = false;
  if (heap_.size() > kHeapBase) {
    *top = heap_[kHeapBase];
    *tier = Tier::kHeap;
    have = true;
  }
  if (timer_top_ != TimerId::kInvalid &&
      (!have || timer_top_key_.before(*top))) {
    *top = timer_top_key_;
    *tier = Tier::kTimer;
    have = true;
  }
  if (!arrivals_.empty() && (!have || arrivals_.front().key.before(*top))) {
    *top = arrivals_.front().key;
    *tier = Tier::kArrival;
    have = true;
  }
  return have;
}

double Simulator::next_event_time() const {
  HeapEntry top;
  Tier tier;
  if (!peek_top(&top, &tier)) {
    return std::numeric_limits<double>::infinity();
  }
  return top.time;
}

bool Simulator::step() {
  return run_next(std::numeric_limits<double>::infinity());
}

void Simulator::run_until(double end_time) {
  SPECPF_EXPECTS(end_time >= now_);
  while (run_next(end_time)) {
  }
  now_ = end_time;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace specpf
