#include "reference/oracle.hpp"

#include <algorithm>

namespace specpf {

OraclePredictor::OraclePredictor(const SessionGraph& graph) : graph_(graph) {}

void OraclePredictor::observe(UserId user, std::uint64_t item) {
  current_page_[user] = item;
}

std::vector<Candidate> OraclePredictor::predict(
    UserId user, std::size_t max_candidates) const {
  const std::uint64_t* page = current_page_.find(user);
  if (!page) return {};
  std::vector<Candidate> out;
  for (const auto& link : graph_.next_distribution(*page)) {
    out.push_back(Candidate{link.target, link.probability});
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.probability != b.probability) return a.probability > b.probability;
    return a.item < b.item;
  });
  if (out.size() > max_candidates) out.resize(max_candidates);
  return out;
}

}  // namespace specpf
