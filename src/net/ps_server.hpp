// Egalitarian processor-sharing server (paper §2.1's round-robin queue in
// the quantum→0 limit).
//
// Virtual-time bookkeeping: V(t) is the cumulative per-job service
// delivered since the server became busy; V advances at rate
// bandwidth/n(t) while n(t) jobs are active. A job arriving at virtual time
// V_a with size S completes when V reaches V_a + S, so jobs finish in order
// of finish value (V_a + S, ties by arrival), and only the earliest
// completion needs an event; arrivals and departures move it, and the link
// re-arms one engine timer (Simulator::arm_timer) to do so. No O(n)
// remaining-work rescans.
//
// Queue layout — two tiers over a job slab, ordered by (finish_v, id):
//   * Jobs (finish value, id, size, submit time, inline callback) live in a
//     chunked slab (util/chunked_slab.hpp, as the engine's nodes do) with
//     a free list. Chunks have stable addresses, so growing the slab never
//     copies a job.
//   * The run is a ring of slots in increasing (finish_v, id) order. A job
//     that sorts no earlier than the run's back is appended in O(1).
//   * Any other job goes to a 4-ary min-heap of {finish_v, id, slot} keys.
//   The next job to finish is the smaller head of the two tiers. Every heap
//   key is below the run's back, so the run is never empty while the heap
//   holds keys.
//
// Why the run carries almost everything: V never decreases, so jobs of one
// size arrive with nondecreasing finish values. Every transfer the stack
// runtime and the backbone's origin links submit is one item of
// `item_size`, so their links are FIFOs in disguise and each job costs O(1).
// Mixed sizes (the abstract sim, exponential-size benches) fall back to the
// heap for the out-of-order ones. Equal finish values complete in submit
// order; tests/ps_digests.inc pins that tie order bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/server.hpp"
#include "util/audit.hpp"
#include "util/chunked_slab.hpp"
#include "util/flat_ring.hpp"

namespace specpf {

class PsServer final : public Server {
 public:
  PsServer(Simulator& sim, double bandwidth);
  ~PsServer() override;

  std::uint64_t submit(double size, Callback on_complete) override;
  std::size_t active_jobs() const override {
    return run_.size() + heap_.size();
  }

  /// Deep-invariant walker (util/audit.hpp): the run increasing in
  /// (finish_v, id) and above every heap key, the 4-ary heap property, key
  /// slots valid and unique and off the free list, slab conservation (free
  /// + run + heap == slots), active_jobs() agreeing with the base class's
  /// live count, and no key below the virtual clock.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  // A queued job. `id` is the submit order, which breaks finish-value ties.
  struct Job {
    double finish_v = 0.0;
    std::uint64_t id = 0;
    double size = 0.0;
    double submit_time = 0.0;
    Callback on_complete;
  };
  // Heap entries carry the whole ordering key so sifts never touch the slab.
  struct Key {
    double finish_v;
    std::uint64_t id;
    std::uint32_t slot;
    bool before(const Key& other) const {
      if (finish_v != other.finish_v) return finish_v < other.finish_v;
      return id < other.id;
    }
  };

  Job& job_at(std::uint32_t slot) { return slab_[slot]; }
  const Job& job_at(std::uint32_t slot) const { return slab_[slot]; }
  std::uint32_t acquire_slot();

  Key key_of(std::uint32_t slot) const {
    const Job& job = job_at(slot);
    return Key{job.finish_v, job.id, slot};
  }
  /// Queues a filled-in slot on the run when it sorts after the run's back,
  /// otherwise on the heap.
  void enqueue(std::uint32_t slot);
  /// Whether the next job to finish is the heap's top rather than the run's
  /// head; the queue must be non-empty.
  bool heap_first() const;
  void heap_sift_up(std::size_t pos);
  void heap_sift_down(std::size_t hole, Key value);

  /// Advances the virtual clock to wall-clock time `now`.
  void sync_virtual_time(double now);

  /// Re-arms the completion timer for the job with least finish virtual
  /// time, or disarms it when the link is idle.
  void schedule_next_completion();

  void complete_front();

  // 1024 jobs (88 KiB) per chunk. A run holds only a few links, and
  // 256-job chunks lowered peak RSS on none of the replay workloads.
  ChunkedSlab<Job, 10> slab_;
  std::vector<std::uint32_t> free_slots_;  // LIFO: reuse the warmest slot
  // The run: slots in finish order. Four bytes an entry keep the ring's
  // slack small at depth; the keys themselves sit in the jobs.
  FlatRing<std::uint32_t> run_;
  std::vector<Key> heap_;  // root at 0; children of i are 4i+1 .. 4i+4
  double virtual_time_ = 0.0;
  double last_sync_ = 0.0;
  TimerId completion_timer_;  // fires complete_front()
  std::uint64_t next_job_id_ = 1;
};

}  // namespace specpf
