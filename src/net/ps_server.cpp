#include "net/ps_server.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/cache_aligned.hpp"
#include "util/contract.hpp"

namespace specpf {

namespace {
constexpr std::size_t kHeapArity = 4;
}  // namespace

PsServer::PsServer(Simulator& sim, double bandwidth)
    : Server(sim, bandwidth),
      last_sync_(sim.now()),
      completion_timer_(sim.add_timer([this] { complete_front(); })) {}

PsServer::~PsServer() { sim_.release_timer(completion_timer_); }

std::uint32_t PsServer::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  return slab_.emplace_back();
}

void PsServer::enqueue(std::uint32_t slot) {
  const Key key = key_of(slot);
  // The run is empty only when the heap is too, so an empty run takes the
  // job.
  if (run_.empty() || !key.before(key_of(run_[run_.size() - 1]))) {
    run_.push_back(slot);
    return;
  }
  heap_.push_back(key);
  heap_sift_up(heap_.size() - 1);
}

bool PsServer::heap_first() const {
  SPECPF_ASSERT(!run_.empty());
  return !heap_.empty() && heap_.front().before(key_of(run_[0]));
}

void PsServer::heap_sift_up(std::size_t pos) {
  const Key key = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    if (!key.before(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = key;
}

void PsServer::heap_sift_down(std::size_t hole, Key value) {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = kHeapArity * hole + 1;
    if (first_child >= size) break;
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

void PsServer::sync_virtual_time(double now) {
  if (active_jobs() != 0) {
    const double rate = bandwidth_ / static_cast<double>(active_jobs());
    virtual_time_ += rate * (now - last_sync_);
  }
  last_sync_ = now;
}

std::uint64_t PsServer::submit(double size, Callback on_complete) {
  SPECPF_EXPECTS(size > 0.0);
  sync_virtual_time(sim_.now());
  const std::uint64_t id = next_job_id_++;
  const std::uint32_t slot = acquire_slot();
  Job& job = job_at(slot);
  job.finish_v = virtual_time_ + size;
  job.id = id;
  job.size = size;
  job.submit_time = sim_.now();
  job.on_complete = std::move(on_complete);
  enqueue(slot);
  record_arrival();
  schedule_next_completion();
  return id;
}

void PsServer::schedule_next_completion() {
  if (active_jobs() == 0) {
    sim_.disarm_timer(completion_timer_);
    return;
  }
  const double finish_v =
      heap_first() ? heap_.front().finish_v : job_at(run_[0]).finish_v;
  const double remaining_v = finish_v - virtual_time_;
  SPECPF_ASSERT(remaining_v >= -1e-9);
  const double rate = bandwidth_ / static_cast<double>(active_jobs());
  const double delay = remaining_v > 0.0 ? remaining_v / rate : 0.0;
  sim_.arm_timer(completion_timer_, sim_.now() + delay);
}

void PsServer::complete_front() {
  SPECPF_ASSERT(active_jobs() != 0);
  sync_virtual_time(sim_.now());
  std::uint32_t slot;
  if (heap_first()) {
    slot = heap_.front().slot;
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) heap_sift_down(0, last);
  } else {
    slot = run_[0];
    run_.pop_front();
    // Deep FIFO drains are bound by slab misses. The new head's finish
    // value is read below; the job behind it becomes the head at the next
    // completion, so fetch every cache line it spans (two or three) now.
    if (run_.size() > 1) {
      const auto next = reinterpret_cast<std::uintptr_t>(&job_at(run_[1]));
      for (std::uintptr_t line = next & ~(kCacheLineBytes - 1);
           line < next + sizeof(Job); line += kCacheLineBytes) {
        __builtin_prefetch(reinterpret_cast<const void*>(line));
      }
    }
  }
  Job& job = job_at(slot);
  Callback on_complete = std::move(job.on_complete);
  // Snap the virtual clock to the exact finish value to prevent drift from
  // accumulating across millions of completions.
  virtual_time_ = job.finish_v;

  TransferResult result;
  result.job_id = job.id;
  result.size = job.size;
  result.submit_time = job.submit_time;
  result.finish_time = sim_.now();
  free_slots_.push_back(slot);
  record_completion(result);
  schedule_next_completion();
  if (on_complete) on_complete(result);
}

void PsServer::audit(AuditReport& report) const {
  const AuditScope scope(report, "PsServer");
  // 0 = unseen, 1 = on the free list, 2 = named by a queued key.
  std::vector<std::uint8_t> state(slab_.size(), 0);
  for (const std::uint32_t slot : free_slots_) {
    if (!report.check(slot < slab_.size(), "free list names slot " +
                                             std::to_string(slot) +
                                             " past the slab")) {
      continue;
    }
    report.check(state[slot] == 0,
                 "free list names slot " + std::to_string(slot) + " twice");
    state[slot] = 1;
  }
  auto check_key = [&](const Key& key, const char* tier) {
    if (report.check(key.slot < slab_.size(),
                     std::string(tier) + " key names slot " +
                         std::to_string(key.slot) + " past the slab")) {
      report.check(state[key.slot] == 0,
                   std::string(tier) + " key slot " +
                       std::to_string(key.slot) +
                       " is on the free list or queued twice");
      state[key.slot] = 2;
    }
    report.check(key.finish_v >= virtual_time_ - 1e-9,
                 std::string(tier) + " key for job " + std::to_string(key.id) +
                     " finishes below the virtual clock");
  };
  std::vector<Key> run_keys;
  for (std::size_t i = 0; i < run_.size(); ++i) {
    const std::uint32_t slot = run_[i];
    if (!report.check(slot < slab_.size(), "run names slot " +
                                             std::to_string(slot) +
                                             " past the slab")) {
      continue;
    }
    run_keys.push_back(key_of(slot));
    check_key(run_keys.back(), "run");
    if (run_keys.size() > 1) {
      report.check(run_keys[run_keys.size() - 2].before(run_keys.back()),
                   "run not increasing in (finish_v, id) at position " +
                       std::to_string(i));
    }
  }
  for (std::size_t j = 0; j < heap_.size(); ++j) {
    check_key(heap_[j], "heap");
    if (heap_[j].slot < slab_.size()) {
      const Job& job = job_at(heap_[j].slot);
      report.check(job.finish_v == heap_[j].finish_v && job.id == heap_[j].id,
                   "heap key for job " + std::to_string(heap_[j].id) +
                       " disagrees with its slab entry");
    }
    if (j > 0) {
      report.check(!heap_[j].before(heap_[(j - 1) / kHeapArity]),
                   "4-ary heap property violated at index " +
                       std::to_string(j));
    }
    report.check(!run_keys.empty() && heap_[j].before(run_keys.back()),
                 "heap key for job " + std::to_string(heap_[j].id) +
                     " is not below the run's back");
  }
  report.check(free_slots_.size() + run_.size() + heap_.size() == slab_.size(),
               "slab conservation: " + std::to_string(free_slots_.size()) +
                   " free + " + std::to_string(run_.size()) + " run + " +
                   std::to_string(heap_.size()) +
                   " heap != " + std::to_string(slab_.size()) + " slots");
  report.check(active_jobs() == live_jobs(),
               "active_jobs() is " + std::to_string(active_jobs()) +
                   " but the server recorded " + std::to_string(live_jobs()) +
                   " live jobs");
}

}  // namespace specpf
