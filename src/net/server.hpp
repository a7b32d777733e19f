// Shared-network abstraction: the "entire network accessed through the
// proxy" of paper §2.1, realised as an event-driven single server through
// which every demand fetch and prefetch must pass.
//
// Two service disciplines:
//   * PsServer   — egalitarian processor sharing (the paper's M/G/1-RR/PS
//                  model): with n jobs active, each transfers at b/n.
//   * FifoServer — serve-to-completion FCFS, the contrast case for the
//                  discipline ablation.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "des/inline_function.hpp"
#include "des/simulator.hpp"
#include "stats/running_stats.hpp"
#include "stats/time_weighted.hpp"

namespace specpf {

/// What a completed transfer looked like; passed to the completion callback.
struct TransferResult {
  std::uint64_t job_id = 0;
  double size = 0.0;          ///< units transferred
  double submit_time = 0.0;   ///< when the job entered the server
  double finish_time = 0.0;   ///< when the last byte arrived
  double sojourn() const { return finish_time - submit_time; }
};

/// Aggregate server-side measurements over the observation window.
struct ServerStats {
  std::uint64_t completed = 0;
  double mean_sojourn = 0.0;       ///< average per-job time in system
  double mean_jobs_in_system = 0.0;  ///< time-averaged N
  double utilization = 0.0;        ///< busy-time fraction
  double total_service_demand = 0.0;  ///< Σ size/b over completed jobs
};

/// Merges snapshots of parallel links (one per shard): completions and
/// service demand add, mean_sojourn is completion-weighted, utilization
/// averages across links, mean_jobs_in_system sums (total concurrent jobs
/// fleet-wide). A single-element merge returns that element verbatim so
/// 1-shard results stay bit-identical to the unsharded path.
ServerStats merge_server_stats(const std::vector<ServerStats>& links);

class Server {
 public:
  // Inline (non-allocating) completion callback; captures up to 48 bytes.
  using Callback = InlineFunction<void(const TransferResult&), 48>;

  explicit Server(Simulator& sim, double bandwidth);
  virtual ~Server() = default;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits a transfer of `size` units; `on_complete` fires (via the event
  /// queue) when it finishes. Returns the job id.
  virtual std::uint64_t submit(double size, Callback on_complete) = 0;

  /// Jobs currently in the system.
  virtual std::size_t active_jobs() const = 0;

  /// Resets measurement accumulators (warmup truncation) without touching
  /// in-flight jobs.
  void reset_stats();

  /// Snapshot of statistics up to the current simulation time.
  ServerStats stats() const;

  double bandwidth() const noexcept { return bandwidth_; }
  Simulator& sim() noexcept { return sim_; }

 protected:
  void record_arrival();
  void record_completion(const TransferResult& result);
  /// Jobs recorded as arrived and not yet completed (what audit walkers
  /// check a discipline's own queue against).
  std::size_t live_jobs() const noexcept { return live_jobs_; }

  Simulator& sim_;
  double bandwidth_;

 private:
  RunningStats sojourns_;
  TimeWeighted jobs_in_system_;
  TimeWeighted busy_;
  double stats_origin_ = 0.0;
  double service_demand_sum_ = 0.0;
  std::size_t live_jobs_ = 0;
};

}  // namespace specpf
