// Oracle predictor: reads the *true* conditional next-access distribution
// straight from the generating SessionGraph. Used to reproduce the paper's
// idealised setting — "assume all the prefetched files have the same
// probability p of being accessed" — with zero estimation error, isolating
// policy behaviour from predictor quality.
#pragma once

#include "reference/predictor.hpp"
#include "util/flat_hash.hpp"
#include "workload/session_graph.hpp"

namespace specpf {

class OraclePredictor final : public Predictor {
 public:
  explicit OraclePredictor(const SessionGraph& graph);

  void observe(UserId user, std::uint64_t item) override;
  std::vector<Candidate> predict(UserId user,
                                 std::size_t max_candidates) const override;

 private:
  const SessionGraph& graph_;
  FlatHashMap<std::uint64_t> current_page_;
};

}  // namespace specpf
