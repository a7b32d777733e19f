#include "reference/markov.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace specpf {

MarkovPredictor::MarkovPredictor(double laplace) : laplace_(laplace) {
  SPECPF_EXPECTS(laplace >= 0.0);
}

void MarkovPredictor::observe(UserId user, std::uint64_t item) {
  ++observations_;
  if (const std::uint64_t* last = last_.find(user)) {
    NodeCounts& node = counts_[*last];
    ++node.successors[item];
    ++node.total;
  }
  last_[user] = item;
}

std::vector<Candidate> MarkovPredictor::predict(
    UserId user, std::size_t max_candidates) const {
  const std::uint64_t* last = last_.find(user);
  if (!last) return {};
  const NodeCounts* node = counts_.find(*last);
  if (!node || node->total == 0) return {};

  const double denom =
      static_cast<double>(node->total) +
      laplace_ * static_cast<double>(node->successors.size());
  std::vector<Candidate> out;
  out.reserve(node->successors.size());
  for (const auto& [item, count] : node->successors) {
    out.push_back(
        Candidate{item, (static_cast<double>(count) + laplace_) / denom});
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.probability != b.probability) return a.probability > b.probability;
    return a.item < b.item;  // deterministic tie order
  });
  if (out.size() > max_candidates) out.resize(max_candidates);
  return out;
}

double MarkovPredictor::transition_probability(std::uint64_t current,
                                               std::uint64_t next) const {
  const NodeCounts* node = counts_.find(current);
  if (!node || node->total == 0) return 0.0;
  const std::uint64_t* count = node->successors.find(next);
  if (!count) return 0.0;
  return static_cast<double>(*count) / static_cast<double>(node->total);
}

}  // namespace specpf
