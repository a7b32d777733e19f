// Deterministic discrete-event simulation core — zero-allocation engine.
//
// Events are closures ordered by (time, insertion sequence); the sequence
// tie-break makes runs bit-reproducible regardless of how many events share a
// timestamp.
//
// Engine layout:
//   * Actions are InlineFunction — small-buffer-optimized closures stored
//     inline in the event node; scheduling never heap-allocates.
//   * Event nodes live in a slab (one cache line each) and are named only by
//     their slot. A scheduled event cannot be withdrawn, so no handle leaves
//     the engine; executed slots are recycled through a free list.
//   * The ready queue is an indexed 4-ary min-heap of {time, seq, slot}
//     entries — shallower than a binary heap and comparisons never touch the
//     slab, so sifts stay in a few cache lines. schedule_at sifts each entry
//     up on push. Every heap entry is pending, so the top is always the
//     heap's next event.
//   * Re-armable timers are a second tier beside the heap. A timer binds its
//     action once (add_timer) and then only moves: arm_timer rewrites its
//     (time, seq) key in place, so a link whose next completion shifts at
//     every arrival and departure costs no slab node and no closure move per
//     shift. Timers sit in their own chunked slab (stable addresses, so an
//     action may add a timer while one fires), and the earliest armed key is
//     cached. There is one timer per link, so refreshing the cache is a scan
//     over one or two entries. Every arm takes the next insertion seq,
//     exactly as withdrawing the old event and scheduling a new one would,
//     so firing order, now() and events_executed() are those of that model.
//   * The arrival stream is the third tier: one void(uint64_t, uint64_t)
//     handler bound once (bind_arrivals) and a FIFO of 32-byte
//     {time, seq, a, b} entries that push_arrival appends in nondecreasing
//     time. An open-loop source whose instants are known in order (trace
//     arrivals) needs no closure, no slab node and no reordering per
//     entry. Each push takes the next insertion seq, exactly as
//     schedule_at of the handler call would, so the two order alike. The
//     FIFO's front is its earliest entry.
//   * The pop is a three-way min of the heap top, the cached timer key and
//     the arrival FIFO's front.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/inline_function.hpp"
#include "util/audit.hpp"
#include "util/cache_aligned.hpp"
#include "util/chunked_slab.hpp"
#include "util/contract.hpp"
#include "util/flat_ring.hpp"

namespace specpf {

/// Handle to a re-armable timer (Simulator::add_timer). It stays valid
/// until release_timer; the owner keeps it for the timer's whole life.
class TimerId {
 public:
  TimerId() = default;

 private:
  friend class Simulator;
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  explicit TimerId(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = kInvalid;
};

class Simulator {
 public:
  using Action = InlineFunction<void(), 48>;
  /// The arrival handler, called with the two payload words of each entry.
  using ArrivalAction = InlineFunction<void(std::uint64_t, std::uint64_t), 48>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (seconds).
  double now() const noexcept { return now_; }

  /// Schedules `action` (non-empty) at absolute time `when` (>= now).
  void schedule_at(double when, Action action);

  /// Schedules `action` after a non-negative delay.
  void schedule_in(double delay, Action action);

  /// Binds `action` (non-empty) to a new timer, initially disarmed. The
  /// action stays bound across fires until release_timer.
  TimerId add_timer(Action action);

  /// (Re)arms the timer to fire once at absolute time `when` (>= now),
  /// replacing any earlier arming. The arm takes the next insertion seq,
  /// so it orders exactly as a fresh schedule_at would. A firing timer is
  /// disarmed before its action runs, so the action may re-arm it.
  void arm_timer(TimerId id, double when);

  /// Disarms the timer; no-op when it is not armed.
  void disarm_timer(TimerId id);

  /// Disarms the timer, destroys its action and recycles its storage; `id`
  /// is dead afterwards. Must not be called from the timer's own action.
  void release_timer(TimerId id);

  /// Binds `action` (non-empty) as the engine's arrival handler. Called
  /// once, before the first push_arrival.
  void bind_arrivals(ArrivalAction action);

  /// Appends an arrival that calls the bound handler with (a, b) at
  /// absolute time `when`. `when` must be >= now() and >= the time of the
  /// last pending arrival. The push takes the next insertion seq, so it
  /// orders exactly as schedule_at of the same call would.
  void push_arrival(double when, std::uint64_t a, std::uint64_t b);

  /// Executes the next event. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains or the clock passes `end_time`. Events at
  /// exactly `end_time` are executed.
  void run_until(double end_time);

  /// Runs until the queue drains.
  void run();

  /// Timestamp of the earliest pending event across the three tiers, or
  /// +infinity when nothing is pending. This is the epoch hook the sharded
  /// driver uses to size conservative synchronization windows (epoch =
  /// earliest event + lookahead) and to fast-forward through idle gaps.
  double next_event_time() const;

  /// Number of events executed so far (heap events, timer fires and
  /// arrivals).
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Events currently pending: queued heap events, armed timers and
  /// arrivals.
  std::size_t pending() const noexcept {
    return queued_nodes() + armed_timers_ + arrivals_.size();
  }

  /// Turns on freed-slot poisoning (0xDD fill of the action storage) for
  /// subsequent slot traffic. On by default in SPECPF_AUDIT builds; tests
  /// call this to exercise the poison check in any build. Slots freed
  /// before the call are left unpoisoned — audit() only checks slots freed
  /// while the mode was on.
  void enable_audit_mode();

  /// Deep-invariant walker (util/audit.hpp): free-list acyclicity and
  /// bounds, freed slots disarmed with their poison intact (catches a
  /// write through a freed node), heap entries naming valid unique slots
  /// with armed actions, the 4-ary heap property, pending times >= now(),
  /// and slab conservation (free + queued nodes == slab size; timers and
  /// arrivals are not nodes). The timer tier: armed times
  /// >= now(), the cached earliest timer equal to a rescan, the armed
  /// count, and the timer free list acyclic over unbound timers. The
  /// arrival FIFO: strictly increasing in (time, seq), times >= now(), and
  /// a bound handler while it holds entries. Across tiers, no two pending
  /// keys (queued node, armed timer, arrival) share a seq.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // One cache line per node: the inline action plus the free-list link. A
  // node is "armed" exactly when its action is non-empty (schedule_at
  // rejects empty actions), so no separate flag is needed.
  struct alignas(kCacheLineBytes) Node {
    Action action;
    std::uint32_t next_free = kNoSlot;
  };
  static_assert(sizeof(Node) == kCacheLineBytes,
                "a slab node must stay exactly one cache line: the pop path "
                "prefetches a single line and release_slot touches the tail "
                "fields");
  // Heap entries carry the full ordering key so comparisons never touch the
  // slab: `tie` packs (seq << kSlotBits) | slot. Seq dominates the compare;
  // the slot bits only ever break a tie between entries with equal seq,
  // which cannot happen.
  struct HeapEntry {
    double time;
    std::uint64_t tie;
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(tie & (kMaxSlots - 1));
    }
    bool before(const HeapEntry& other) const {
      if (time != other.time) return time < other.time;
      return tie < other.tie;
    }
  };

  // A re-armable timer. `key` is the armed (time, seq) with the timer's
  // index in the slot bits, so it compares against heap entries directly;
  // it is meaningful only while `armed`. The action is empty exactly when
  // the timer is released (on the timer free list).
  struct Timer {
    Action action;
    HeapEntry key{};
    bool armed = false;
    std::uint32_t next_free = TimerId::kInvalid;
  };
  // One pending arrival: `key` carries (time, seq) with zero slot bits, so
  // it compares against heap entries directly.
  struct ArrivalEntry {
    HeapEntry key;
    std::uint64_t a;
    std::uint64_t b;
  };
  static_assert(sizeof(ArrivalEntry) == 32,
                "an arrival is the 16-byte key plus two payload words");
  // Which tier the earliest pending entry came from.
  enum class Tier : std::uint8_t { kHeap, kTimer, kArrival };

  static constexpr std::size_t kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = 1ull << kSlotBits;  // concurrent
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  // The heap root lives at physical index 3 so that every 4-entry child
  // group (children of i are at 4i-8 .. 4i-5; parent of j is (j+8)/4) starts
  // on a 64-byte boundary: one cache line per sift level instead of two.
  static constexpr std::size_t kHeapBase = 3;

  /// Freed-slot fill byte in audit mode: all-0xDD action storage marks a
  /// slot nobody should be writing through.
  static constexpr unsigned char kPoisonByte = 0xDD;

  Node& node_at(std::uint32_t slot) { return slab_[slot]; }
  const Node& node_at(std::uint32_t slot) const { return slab_[slot]; }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::size_t pos);
  void heap_remove_top();
  void sift_down(std::size_t hole, HeapEntry value);
  void renumber_seqs();
  /// Heap entries: the slab nodes in use.
  std::size_t queued_nodes() const noexcept {
    return heap_.size() - kHeapBase;
  }
  Timer& timer_at(TimerId id) {
    SPECPF_DCHECK(id.index_ < timers_.size() &&
                  static_cast<bool>(timers_[id.index_].action));
    return timers_[id.index_];
  }
  /// Recomputes the cached earliest armed timer.
  void rescan_timers();
  void audit_timers(AuditReport& report) const;
  void audit_arrivals(AuditReport& report) const;
  /// Every pending key's seq is unique across the heap, the armed timers
  /// and the arrivals.
  void audit_seqs(AuditReport& report) const;
  /// Finds the earliest pending entry across the three tiers. Returns false
  /// when nothing is pending; otherwise fills `top` and the tier it came
  /// from. Shared by run_next and next_event_time so the epoch driver's
  /// view of "next event" can never diverge from what pops.
  bool peek_top(HeapEntry* top, Tier* tier) const;
  /// Executes the earliest runnable event with time <= limit. Returns false
  /// if the heap drains or only later events remain.
  bool run_next(double limit);

  // 4096 nodes per chunk. Growing the slab never moves nodes, so there is
  // no per-node relocation cost and references stay valid across schedule
  // calls.
  ChunkedSlab<Node, 12> slab_;
  // Physical layout: [0, kHeapBase) are never-read dummies; the root is at
  // kHeapBase. 64-byte-aligned storage keeps child groups line-aligned.
  std::vector<HeapEntry, CacheAlignedAllocator<HeapEntry>> heap_ =
      std::vector<HeapEntry, CacheAlignedAllocator<HeapEntry>>(kHeapBase);
  // Second tier: re-armable timers, 16 per chunk (an engine holds one per
  // link). Chunks never move, so a timer can be added while another fires.
  ChunkedSlab<Timer, 4> timers_;
  std::uint32_t timer_free_head_ = TimerId::kInvalid;
  // The earliest armed timer (kInvalid when none is armed) and a copy of
  // its key, so the pop path compares against it without a slab lookup.
  std::uint32_t timer_top_ = TimerId::kInvalid;
  HeapEntry timer_top_key_{};
  std::size_t armed_timers_ = 0;
  // Third tier: the arrival handler and its FIFO. The handler runs from
  // a copy of the popped entry, so it may push further arrivals.
  ArrivalAction arrival_action_;
  FlatRing<ArrivalEntry> arrivals_;
  std::uint32_t free_head_ = kNoSlot;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Audit-mode state (see enable_audit_mode): poison freed action storage
  // so audit() can catch a write through a freed node. The flag vector
  // grows lazily on the first release with the mode on.
  bool audit_mode_ = kAuditBuild;
  std::vector<std::uint8_t> poisoned_;  // freed with poison applied
};

}  // namespace specpf
