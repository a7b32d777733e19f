// Sharded multi-server simulation: S regions, each owning an independent
// slab Simulator + StackRuntime data plane, synchronized with conservative
// epoch barriers and exchanging cross-shard traffic through mailboxes.
// This is the one driver: run_trace_replay is ShardedSim at S = 1, and
// run_proxy_sim is ShardedSim at S = 1 over a session source.
//
// Topology. Users are partitioned across shards (shard of user u is
// u % S); items have a home shard (item % S). Every user request is served
// by the regional proxy stack exactly as in the unsharded runtime; any
// retrieval whose item is homed elsewhere additionally contributes a
// backbone job on the home region's origin uplink (net/backbone.hpp),
// delivered after the cross-region latency.
//
// Synchronization. Conservative epochs with lookahead L = the minimum
// cross-shard delay: backbone_latency at S > 1, unbounded at S = 1 (one
// shard has no cross-shard traffic). Every epoch runs each shard to
// t_min + L, where t_min is the earliest pending event or unfed record
// fleet-wide, so no shard can receive a cross-shard event timestamped
// inside the window it already executed. No epoch feeds more than
// stack.stream_window records: when that cap binds, the epoch ends at the
// next unfed record's arrival instead. At S = 1 every epoch is therefore
// one stream window, and once every record is fed the shard drains with
// run(). Records enter each shard engine as entries of one typed arrival
// stream (Simulator::push_arrival), in trace order. Mailboxes are drained at
// the barrier in canonical order (destination-major, source 0..S-1) and
// scheduled into the destination engine's heap.
//
// Divergence abort. With stack.abort_on_divergence armed, a divergent
// verdict at a barrier while records remain stops the feed and snapshots
// every shard's horizon stats right there. The work already scheduled then
// drains with no further barrier rows or verdicts, and the detector is
// evaluated once post-drain. Once the last record is fed the run always
// reaches its horizon.
//
// Determinism. Results are bit-identical regardless of worker thread
// count: each shard's RNG stream is counter-derived from the root seed,
// shards only touch their own state between barriers, and every merge
// (mailboxes, SimMetrics via RunningStats::merge, ServerStats, backbone
// stats) happens in canonical shard order on the driver thread. Shard 0
// inherits the root seed, so a 1-shard run is run_trace_replay with the
// same config.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/backbone.hpp"
#include "sim/trace_replay.hpp"
#include "util/ids.hpp"

namespace specpf {

class ThreadPool;

struct ShardedReplayConfig {
  /// Per-shard stack configuration (bandwidth is per regional link; the
  /// seed is the root seed shard streams derive from).
  TraceReplayConfig stack;
  std::size_t num_shards = 1;
  /// Worker threads driving shards between barriers; 0 means
  /// hardware_concurrency, 1 runs the epoch loop serially.
  std::size_t num_threads = 1;
  /// Minimum cross-shard delivery latency — also the epoch lookahead.
  double backbone_latency = 0.05;
  /// Bandwidth of each region's origin uplink.
  double backbone_bandwidth = 1000.0;
  /// Per-shard telemetry (borrowed; must outlive the run; size must equal
  /// num_shards). Shard s records into plane s between barriers; at S > 1
  /// the driver adds origin-uplink gauges and forces a sample row at every
  /// epoch barrier, so a fleet of one exports exactly like a single plane.
  /// Pure observation — results are bit-identical with this null or
  /// installed. `stack.telemetry`, a single plane, is the alternative at
  /// S = 1 only: one plane cannot serve S independent engines.
  ///
  /// `stack.divergence` attaches to every shard's sealed plane (under a
  /// "shard<s>/" signal-name prefix at S > 1, so the fleet verdict is the
  /// worst shard's) and is evaluated on the driver thread at every epoch
  /// barrier plus once after the loop drains.
  class TelemetryFleet* telemetry = nullptr;

  /// stack.check(), then the fleet's own fields and the plane/fleet rules.
  std::string check() const;
  /// Throws ContractViolation carrying check()'s message.
  void validate() const;
};

/// Per-shard load/traffic breakdown (whole run, not just the measurement
/// window): where the events ran and which shards the mailbox traffic
/// actually moved between — the skew view `--per-shard-stats` prints.
struct ShardLoadStats {
  std::uint64_t events_executed = 0;  ///< engine events this shard ran
  std::uint64_t mailbox_sent = 0;     ///< remote fetches this shard emitted
  std::uint64_t mailbox_received = 0; ///< remote fetches homed here
};

struct ShardedReplayResult {
  /// Fleet-wide result, merged in canonical shard order.
  ProxySimResult merged;
  /// Cross-shard traffic at the measurement horizon (all zero when S = 1).
  BackboneStats backbone;
  /// Per-shard results, index = shard id.
  std::vector<ProxySimResult> per_shard;
  /// Per-shard event counts and mailbox volumes, index = shard id.
  std::vector<ShardLoadStats> shard_load;
  std::size_t num_shards = 1;
  std::uint64_t epochs = 0;
  std::uint64_t cross_shard_events = 0;
};

/// Creates one fresh policy instance per shard (policies may carry state,
/// so shards cannot share one).
using PolicyFactory =  // invoked once per shard at setup
    std::function<std::unique_ptr<PrefetchPolicy>()>;  // lint:allow(std::function)

class ShardedSim {
 public:
  /// Builds the per-shard engines over an in-RAM trace (time-ordered,
  /// borrowed for the lifetime of the object). Wraps the trace in a
  /// TraceVectorSource and streams it like any other source.
  ShardedSim(const Trace& trace, const ShardedReplayConfig& config,
             const PolicyFactory& make_policy);

  /// Streaming form: `source` (time-ordered, borrowed for the lifetime of
  /// the object) is scanned once up front for per-shard metadata (record
  /// counts, time spans, user densification), then records are fed to the
  /// shard engines epoch-by-epoch during run() — engine occupancy tracks
  /// the epoch window, not the trace length, so billion-request sources
  /// replay at bounded RSS. A source with no records simulates nothing and
  /// returns the all-zero result under the policy's name. The oracle
  /// predictor reads source.graph() and is refused (ContractViolation
  /// naming predictor_kind) when the source has none.
  ShardedSim(TraceSource& source, const ShardedReplayConfig& config,
             const PolicyFactory& make_policy);

  /// S = 1 form whose shard borrows the caller's policy (which must
  /// outlive the object) — run_trace_replay's entry point.
  ShardedSim(TraceSource& source, const ShardedReplayConfig& config,
             PrefetchPolicy& policy);

  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  /// Runs the epoch loop to completion and merges results. Call once.
  ShardedReplayResult run();

  static std::uint32_t shard_of_user(std::uint32_t user, std::size_t shards) {
    return static_cast<std::uint32_t>(user % shards);
  }
  static std::uint32_t home_shard(ItemId item, std::size_t shards) {
    return static_cast<std::uint32_t>(item % shards);
  }

 private:
  struct Shard;

  /// Shared constructor body: metadata scan + per-shard engine build.
  /// Shards take `borrowed_policy` when it is set, else `make_policy()`.
  void init(TraceSource& source, const PolicyFactory* make_policy,
            PrefetchPolicy* borrowed_policy);
  /// Shard owning raw user id `user`.
  Shard& shard_of(std::uint32_t user);
  /// Feeds pending records with arrival time ≤ epoch_end into their shard
  /// engines' arrival streams (global trace order), at most
  /// stack.stream_window of them, interleaving the fleet-wide warmup events
  /// at the warmup boundary record and the horizon snapshots after the last
  /// record. Returns where the epoch ends: epoch_end, or the next unfed
  /// record's arrival when the cap bound first.
  double feed_records(double epoch_end);
  /// Schedules begin_measurement / origin stat resets on every shard at
  /// the global warmup instant (canonical shard order).
  void schedule_warmup_events();
  /// Schedules the per-shard measurement-horizon snapshots at end_time_.
  void schedule_horizons();
  /// Runs every shard to `epoch_end` (serially or on the pool); an
  /// unbounded epoch (S = 1, feed done) drains with run().
  void run_epoch(double epoch_end);
  /// Drains all mailboxes into destination engines, canonical order.
  void exchange_mailboxes();
  /// Control-plane barrier step: averages the per-shard governors'
  /// congestion signals (canonical shard order, driver thread) and pushes
  /// the fleet mean back into every governor. No-op when S = 1 or the run
  /// is ungoverned, so those paths stay bit-identical to the unsharded /
  /// pre-control-plane runtime.
  void exchange_setpoints();
  /// Earliest pending event across the fleet (+inf when drained).
  double fleet_next_event_time();
  /// Telemetry barrier step: refreshes every shard's origin-uplink gauges
  /// and forces a sample row at the epoch boundary (driver thread,
  /// canonical order). No-op at S = 1 or without a telemetry fleet.
  void sample_telemetry(double now);
  /// SPECPF_AUDIT epoch-barrier sweep: audits every shard's engine slab and
  /// stack slice on the driver thread, throwing ContractViolation (with the
  /// failing shard named) on the first corrupt structure. Sampled at
  /// power-of-two epochs plus once after the loop drains.
  void audit_fleet() const;

  ShardedReplayConfig config_;
  std::string policy_name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  std::uint64_t epochs_ = 0;
  std::uint64_t cross_shard_events_ = 0;
  bool ran_ = false;

  /// Record supply (borrowed; the Trace ctor routes through owned_source_).
  TraceSource* source_ = nullptr;
  std::unique_ptr<TraceVectorSource> owned_source_;
  std::uint64_t total_records_ = 0;
  std::size_t warmup_records_ = 0;
  double t0_ = 0.0;        ///< raw time of the first record
  double end_time_ = 0.0;  ///< measurement horizon (shifted)
  /// Feeder cursor: the next unscheduled record and its global index.
  TraceRecord pending_record_;
  std::uint64_t fed_index_ = 0;
  bool have_pending_ = false;
};

/// Convenience wrapper: construct, run, return.
ShardedReplayResult run_sharded_replay(const Trace& trace,
                                       const ShardedReplayConfig& config,
                                       const PolicyFactory& make_policy);

/// Streaming form of the wrapper (see ShardedSim's TraceSource ctor).
ShardedReplayResult run_sharded_replay(TraceSource& source,
                                       const ShardedReplayConfig& config,
                                       const PolicyFactory& make_policy);

}  // namespace specpf
