// Padmanabhan–Mogul server-side dependency graph [7]: a link from item A to
// item B is labelled with the probability that B is requested within a
// lookahead window of w accesses after A (by the same user). Unlike the
// Markov model it credits follow-ups that are not immediate successors.
// Pre-arena reference implementation, kept byte-identical as an oracle
// for the differential tests; never linked into specpf.
#pragma once

#include <deque>

#include "reference/predictor.hpp"
#include "util/flat_hash.hpp"

namespace specpf {

class DependencyGraphPredictor final : public Predictor {
 public:
  /// `lookahead` = window size w in accesses (w=1 degenerates to Markov).
  explicit DependencyGraphPredictor(std::size_t lookahead = 4);

  void observe(UserId user, std::uint64_t item) override;
  std::vector<Candidate> predict(UserId user,
                                 std::size_t max_candidates) const override;

  /// P(B within w of A) estimate; 0 when unseen.
  double dependency_probability(std::uint64_t a, std::uint64_t b) const;

 private:
  struct NodeCounts {
    FlatHashMap<std::uint64_t> followers;
    std::uint64_t occurrences = 0;
  };

  std::size_t lookahead_;
  FlatHashMap<NodeCounts> graph_;
  FlatHashMap<std::deque<std::uint64_t>> window_;
};

}  // namespace specpf
