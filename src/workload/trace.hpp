// Access traces: recording, replay, CSV loading, and summary statistics.
// Lets experiments be re-run on identical request sequences (paired
// comparisons between policies) and lets users feed real traces in.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace specpf {

struct TraceRecord {
  double time = 0.0;        ///< request arrival time (s)
  std::uint32_t user = 0;   ///< issuing client
  std::uint64_t item = 0;   ///< requested item
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<TraceRecord> records);

  void append(TraceRecord record);
  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// True when records are sorted by time (required for replay).
  bool is_time_ordered() const;

  /// Summary statistics.
  std::size_t unique_items() const;
  std::size_t unique_users() const;
  double duration() const;  ///< last time − first time (0 if < 2 records)
  double mean_request_rate() const;  ///< size / duration

  /// Parses the CSV that save_csv (workload/trace_stream.hpp) writes.
  /// Throws std::runtime_error with the offending line number on a
  /// malformed record, a negative id, a non-finite timestamp, trailing
  /// garbage after the item column, or a timestamp that moves backwards
  /// (replay requires time order; sort externally before loading if the
  /// source is unordered).
  static Trace load_csv(std::istream& is);
  static Trace load_csv_file(const std::string& path);

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace specpf
