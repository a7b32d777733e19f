// The four end-to-end replay workloads and the input plumbing they share:
// configuration from (name, seed, scale), the on-disk input cache, the
// request supply each repetition replays, and the result digest that
// proves two repetitions (or two code paths) simulated the same thing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "shard/sharded_sim.hpp"
#include "sim/trace_replay.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace_file.hpp"

namespace specpf::bench {

/// How a workload's records reach the program under test.
enum class Supply {
  kStream,  ///< SyntheticTraceStream fed straight in, never materialized
  kRam,     ///< cached .spt decoded into an in-RAM Trace before timing
  kFile,    ///< cached .spt opened and replayed through the mmap TraceCursor
};

struct Workload {
  std::string name;
  SyntheticTraceConfig trace;
  Supply supply = Supply::kStream;
  TraceReplayConfig replay;
  std::string policy;      ///< make_policy_by_name spelling
  bool telemetry = false;  ///< TelemetryPlane + disarmed DivergenceDetector
  std::size_t shards = 1;  ///< > 1 runs ShardedSim (one worker thread)
  double backbone_bandwidth = 1000.0;

  bool sharded() const { return shards > 1; }
  ShardedReplayConfig sharded_config() const;
};

/// Builds workload `name` ("steady", "ppm-deep", "flash" or
/// "fleet-shard8"). `scale` multiplies users and requests: 1 is the
/// calibrated size, smoke runs use less. Throws std::invalid_argument on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double scale);

/// One JSON object echoing every setting that shapes the workload.
std::string describe(const Workload& w);

/// Path of the cached .spt of a file-backed workload, keyed by the full
/// generator configuration so a changed setting never reuses stale input.
std::string input_path(const Workload& w, const std::string& dir);

/// Generates the cached input unless a file that opens as a valid trace
/// with the expected record count is already there. No-op for streamed
/// workloads.
void prepare_input(const Workload& w, const std::string& dir);

/// The request supply of one repetition, built before any timed call. For
/// kFile the timed call opens the file itself (its set-up includes the
/// open), so only kStream and kRam hold a ready source here.
class Inputs {
 public:
  Inputs(const Workload& w, const std::string& dir);
  TraceSource& source() { return *source_; }
  const std::string& path() const { return path_; }
  std::uint64_t records() const { return records_; }

 private:
  std::string path_;
  std::unique_ptr<Trace> ram_;
  std::unique_ptr<TraceSource> source_;
  std::uint64_t records_ = 0;
};

/// Policy factory for ShardedSim (one fresh policy per shard).
PolicyFactory policy_factory(const Workload& w);

/// FNV-1a over every field of a result, doubles by bit pattern.
std::uint64_t digest(const ProxySimResult& r);
std::uint64_t digest(const ShardedReplayResult& r);

}  // namespace specpf::bench
