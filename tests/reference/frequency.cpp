#include "reference/frequency.hpp"

#include <algorithm>

namespace specpf {

void FrequencyPredictor::observe(UserId /*user*/, std::uint64_t item) {
  ++counts_[item];
  ++total_;
}

std::vector<Candidate> FrequencyPredictor::predict(
    UserId /*user*/, std::size_t max_candidates) const {
  if (total_ == 0) return {};
  std::vector<Candidate> out;
  out.reserve(counts_.size());
  for (const auto& [item, count] : counts_) {
    out.push_back(Candidate{
        item, static_cast<double>(count) / static_cast<double>(total_)});
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.probability != b.probability) return a.probability > b.probability;
    return a.item < b.item;
  });
  if (out.size() > max_candidates) out.resize(max_candidates);
  return out;
}

}  // namespace specpf
