// Global-frequency predictor: P(item) = global request share, ignoring
// context entirely. The weakest meaningful baseline — exactly the IRM
// stationary distribution when the workload really is IRM.
#pragma once

#include "reference/predictor.hpp"
#include "util/flat_hash.hpp"

namespace specpf {

class FrequencyPredictor final : public Predictor {
 public:
  FrequencyPredictor() = default;

  void observe(UserId user, std::uint64_t item) override;
  std::vector<Candidate> predict(UserId user,
                                 std::size_t max_candidates) const override;

  std::uint64_t total() const { return total_; }

 private:
  FlatHashMap<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace specpf
