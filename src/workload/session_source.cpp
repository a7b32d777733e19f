#include "workload/session_source.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace specpf {

SessionStream::SessionStream(const SessionGraph& graph, double session_rate,
                             double think_time_mean, Rng rng)
    : graph_(&graph),
      session_gap_(1.0 / session_rate),
      think_(think_time_mean),
      rng_(rng) {
  SPECPF_EXPECTS(session_rate > 0.0);
  SPECPF_EXPECTS(think_time_mean > 0.0);
}

Request SessionStream::next() {
  if (in_session_) {
    now_ += think_.sample(rng_);
    std::uint64_t next_page = 0;
    if (graph_->sample_next(page_, rng_, &next_page)) {
      page_ = next_page;
      return Request{now_, page_};
    }
    in_session_ = false;  // session over; the next one starts after a gap
  }
  now_ += session_gap_.sample(rng_);
  page_ = graph_->sample_entry(rng_);
  in_session_ = true;
  return Request{now_, page_};
}

namespace {

/// Merge order: the earliest (time, user) first.
bool before(const TraceRecord& a, const TraceRecord& b) {
  return a.time < b.time || (a.time == b.time && a.user < b.user);
}

}  // namespace

SessionTraceSource::SessionTraceSource(const SessionGraphConfig& graph,
                                       std::size_t num_users,
                                       double session_rate,
                                       double think_time_mean,
                                       std::uint64_t seed, double end_time)
    : root_(seed),
      graph_(graph, root_.substream(0).next_u64()),
      num_users_(num_users),
      session_rate_(session_rate),
      think_time_mean_(think_time_mean),
      end_time_(end_time) {
  streams_.reserve(num_users_);
  heap_.reserve(num_users_);
  reset();
}

void SessionTraceSource::replace_top(TraceRecord record) {
  // One pass down from the root instead of a pop_heap + push_heap pair.
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], record)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = record;
}

bool SessionTraceSource::next(TraceRecord* out) {
  if (heap_.empty()) return false;
  *out = heap_.front();
  const Request req = streams_[out->user].next();
  if (req.time <= end_time_) {
    replace_top({req.time, out->user, req.item});
  } else {
    // This user's next request falls past the window: the user leaves.
    const TraceRecord last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) replace_top(last);
  }
  return true;
}

void SessionTraceSource::reset() {
  streams_.clear();
  heap_.clear();
  for (std::size_t u = 0; u < num_users_; ++u) {
    streams_.emplace_back(graph_, session_rate_, think_time_mean_,
                          root_.substream(200 + u));
    const Request req = streams_.back().next();
    if (req.time <= end_time_) {
      heap_.push_back({req.time, static_cast<std::uint32_t>(u), req.item});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const TraceRecord& a, const TraceRecord& b) {
                   return before(b, a);
                 });
}

}  // namespace specpf
