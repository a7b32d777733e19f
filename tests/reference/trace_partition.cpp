#include "reference/trace_partition.hpp"

#include <utility>

#include "util/contract.hpp"

namespace specpf {

std::vector<Trace> partition_by_user(const Trace& trace,
                                     std::size_t num_shards) {
  SPECPF_EXPECTS(num_shards >= 1);
  std::vector<std::vector<TraceRecord>> parts(num_shards);
  for (const auto& r : trace.records()) {
    parts[r.user % num_shards].push_back(r);
  }
  std::vector<Trace> out;
  out.reserve(num_shards);
  for (auto& part : parts) out.emplace_back(std::move(part));
  return out;
}

}  // namespace specpf
