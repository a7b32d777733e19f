// Markov session graph: link-structured browsing in the style the paper's
// related work models (Padmanabhan–Mogul dependency graphs, the ETEL
// newspaper's patterned access paths).
//
// Pages are nodes; each node has out-links with transition probabilities
// plus an exit probability. A session starts at an entry page drawn from an
// entry distribution and follows links until exit. Because the generator is
// an explicit first-order Markov chain, the *true* conditional access
// probabilities are known — the oracle predictor reads them directly, which
// lets experiments separate policy quality from predictor quality.
#pragma once

#include <cstdint>
#include <vector>

#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace specpf {

struct SessionGraphConfig {
  std::size_t num_pages = 200;
  std::size_t out_degree = 4;       ///< links per page
  double link_skew = 1.0;           ///< Zipf skew across a page's links
  double exit_probability = 0.15;   ///< chance each step ends the session
  double entry_skew = 0.8;          ///< Zipf skew of the entry distribution
};

class SessionGraph {
 public:
  SessionGraph(const SessionGraphConfig& config, std::uint64_t seed);

  struct Link {
    std::uint64_t target;
    double probability;  ///< conditional on following *some* link
  };

  std::size_t num_pages() const { return links_.size(); }
  double exit_probability() const { return exit_probability_; }

  /// Out-links of `page`, probabilities summing to 1.
  const std::vector<Link>& links(std::uint64_t page) const;

  /// True next-access distribution given the user is at `page`:
  /// P(next = target) = (1 - exit) * link probability. Does not include the
  /// exit event (probabilities sum to 1 - exit_probability).
  std::vector<Link> next_distribution(std::uint64_t page) const;

  /// Draws an entry page for a new session.
  std::uint64_t sample_entry(Rng& rng) const;

  /// Draws the next page from `page`; returns false when the session exits.
  bool sample_next(std::uint64_t page, Rng& rng, std::uint64_t* next) const;

 private:
  std::vector<std::vector<Link>> links_;
  double exit_probability_;
  ZipfDist entry_dist_;
};

}  // namespace specpf
