// First-order Markov predictor: P(next=j | current=i) estimated from
// transition counts. The simplest member of the Vitter–Krishnan family of
// Markov access models.
#pragma once

#include "reference/predictor.hpp"
#include "util/flat_hash.hpp"

namespace specpf {

class MarkovPredictor final : public Predictor {
 public:
  void observe(UserId user, std::uint64_t item) override;
  std::vector<Candidate> predict(UserId user,
                                 std::size_t max_candidates) const override;

  /// ML estimate of P(next | current); 0 when the pair is unseen.
  double transition_probability(std::uint64_t current,
                                std::uint64_t next) const;

  std::uint64_t observations() const { return observations_; }

 private:
  struct NodeCounts {
    FlatHashMap<std::uint64_t> successors;
    std::uint64_t total = 0;
  };

  FlatHashMap<NodeCounts> counts_;
  /// Most recent item per user; presence in the table *is* the "has a last
  /// item" bit (one probe where the old parallel last_item_/has_last_
  /// unordered_maps cost two).
  FlatHashMap<std::uint64_t> last_;
  std::uint64_t observations_ = 0;
};

}  // namespace specpf
