// First-come-first-served serve-to-completion server. The ablation contrast
// to PsServer: under FCFS the mean sojourn depends on the service-time
// second moment (Pollaczek–Khinchine), so heavy-tailed item sizes hurt FCFS
// far more than PS — one reason the paper's PS model suits shared links.
#pragma once

#include <cstdint>

#include "net/server.hpp"
#include "util/flat_ring.hpp"

namespace specpf {

class FifoServer final : public Server {
 public:
  FifoServer(Simulator& sim, double bandwidth);
  ~FifoServer() override;

  std::uint64_t submit(double size, Callback on_complete) override;
  std::size_t active_jobs() const override {
    return queue_.size() + (in_service_ ? 1 : 0);
  }

 private:
  // Callbacks are inline (move-only InlineFunction), so queued jobs move
  // through the ring without per-job heap traffic.
  struct Job {
    std::uint64_t id;
    double size;
    double submit_time;
    Callback on_complete;
  };

  void start_next();
  void finish_current();

  FlatRing<Job> queue_;
  bool in_service_ = false;
  Job current_{};
  TimerId finish_timer_;  // fires finish_current(), armed while in service
  std::uint64_t next_job_id_ = 1;
};

}  // namespace specpf
