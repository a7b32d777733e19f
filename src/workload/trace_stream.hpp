// TraceSource — the streaming request-supply abstraction behind the
// out-of-core trace pipeline. A source yields time-ordered TraceRecords one
// at a time and can be rewound; nothing about the interface requires the
// whole trace to exist in memory, which is what lets the one driver
// (shard/sharded_sim) run billion-request traces at bounded RSS.
//
// Implementations:
//   * TraceVectorSource      — borrows an in-RAM Trace (the legacy path);
//   * TraceCursor            — zero-copy decoder over an mmap'd binary
//                              trace file (workload/trace_file.hpp);
//   * SyntheticTraceStream   — the large-population generator, emitting
//                              records without materializing them
//                              (workload/synthetic_trace.hpp);
//   * SessionTraceSource     — the proxy sim's per-client session
//                              processes merged in time order; the only
//                              source with a generating graph
//                              (workload/session_source.hpp).
//
// Consumers make two passes over a source (reset() between them): a
// metadata pass (record count, time span, per-shard user densification)
// and the schedule pass. Both are sequential scans, so every
// implementation is cheap to rewind: the vector source resets an index,
// the cursor re-enters chunk 0, and the generators re-seed their RNGs.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "workload/trace.hpp"

namespace specpf {

class SessionGraph;

class TraceSource {
 public:
  virtual ~TraceSource();

  /// Yields the next record, in non-decreasing time order. Returns false
  /// when the stream is exhausted (and leaves *out untouched).
  virtual bool next(TraceRecord* out) = 0;

  /// Rewinds the stream to the first record. A reset source must replay
  /// the exact same record sequence (streams are deterministic).
  virtual void reset() = 0;

  /// The graph that generated the records, for the oracle predictor; null
  /// for every source that has none (recorded traces, files).
  virtual const SessionGraph* graph() const { return nullptr; }
};

/// Borrowing adapter over an in-RAM Trace (which must outlive the source).
class TraceVectorSource final : public TraceSource {
 public:
  explicit TraceVectorSource(const Trace& trace) : trace_(&trace) {}

  bool next(TraceRecord* out) override {
    if (index_ == trace_->size()) return false;
    *out = trace_->records()[index_++];
    return true;
  }

  void reset() override { index_ = 0; }

 private:
  const Trace* trace_;
  std::size_t index_ = 0;
};

/// Drains `source` (after reset()) as CSV with header "time,user,item", the
/// format Trace::load_csv reads. Timestamps are written with max_digits10
/// precision so a save/load round trip reproduces the doubles exactly. An
/// in-RAM Trace is written through a TraceVectorSource.
void save_csv(std::ostream& os, TraceSource& source);

/// save_csv into a new file at `path`. Throws std::runtime_error when the
/// file cannot be opened or written.
void save_csv_file(const std::string& path, TraceSource& source);

}  // namespace specpf
