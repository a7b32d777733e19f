// The generative proxy workload as a TraceSource: N clients, each browsing
// a shared Markov SessionGraph in Poisson-started sessions, merged into one
// time-ordered record stream that ShardedSim replays like any trace.
#pragma once

#include <cstdint>
#include <vector>

#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"
#include "workload/trace_stream.hpp"

namespace specpf {

struct Request {
  double time = 0.0;
  std::uint64_t item = 0;
};

/// One client's requests: Poisson *session* arrivals; within a session,
/// pages follow the SessionGraph with exponential think times. Produces
/// correlated, predictable request sequences (what prefetch predictors
/// exploit). The graph is borrowed and must outlive the stream.
class SessionStream {
 public:
  SessionStream(const SessionGraph& graph, double session_rate,
                double think_time_mean, Rng rng);

  /// Produces the next request; times are non-decreasing.
  Request next();

 private:
  const SessionGraph* graph_;
  ExponentialDist session_gap_;
  ExponentialDist think_;
  Rng rng_;
  double now_ = 0.0;
  bool in_session_ = false;
  std::uint64_t page_ = 0;
};

/// `num_users` SessionStreams merged by (time, user) through a min-heap of
/// one pending request per user. Emits every request at or before
/// `end_time`. Seeding: the graph draws from substream 0 of `seed`, user u
/// from substream 200 + u. reset() re-seeds every stream, so each pass
/// replays the identical sequence. The source owns the graph the oracle
/// predictor reads (graph()), so it is neither copied nor moved.
class SessionTraceSource final : public TraceSource {
 public:
  SessionTraceSource(const SessionGraphConfig& graph, std::size_t num_users,
                     double session_rate, double think_time_mean,
                     std::uint64_t seed, double end_time);

  SessionTraceSource(const SessionTraceSource&) = delete;
  SessionTraceSource& operator=(const SessionTraceSource&) = delete;

  bool next(TraceRecord* out) override;
  void reset() override;
  const SessionGraph* graph() const override { return &graph_; }

 private:
  /// Replaces the heap's top with `record` and restores the heap order.
  void replace_top(TraceRecord record);

  Rng root_;
  SessionGraph graph_;
  std::size_t num_users_;
  double session_rate_;
  double think_time_mean_;
  double end_time_;
  std::vector<SessionStream> streams_;
  /// One pending request per user still inside the window, as a min-heap
  /// on (time, user).
  std::vector<TraceRecord> heap_;
};

}  // namespace specpf
