#include "workload/session_graph.hpp"

#include <algorithm>

#include "util/contract.hpp"
#include "util/math.hpp"

namespace specpf {

SessionGraph::SessionGraph(const SessionGraphConfig& config,
                           std::uint64_t seed)
    : exit_probability_(config.exit_probability),
      entry_dist_(config.num_pages, config.entry_skew) {
  SPECPF_EXPECTS(config.num_pages >= 2);
  SPECPF_EXPECTS(config.out_degree >= 1);
  SPECPF_EXPECTS(config.exit_probability > 0.0 &&
                 config.exit_probability <= 1.0);

  Rng rng(seed);
  const std::size_t degree =
      std::min(config.out_degree, config.num_pages - 1);
  // Zipf weights across a page's link slots: first link most likely.
  const double harmonic = generalized_harmonic(degree, config.link_skew);

  links_.resize(config.num_pages);
  for (std::uint64_t page = 0; page < config.num_pages; ++page) {
    auto& out = links_[page];
    out.reserve(degree);
    // Distinct random targets != page.
    while (out.size() < degree) {
      const std::uint64_t target = rng.next_below(config.num_pages);
      if (target == page) continue;
      const bool dup = std::any_of(out.begin(), out.end(), [&](const Link& l) {
        return l.target == target;
      });
      if (dup) continue;
      const double rank = static_cast<double>(out.size() + 1);
      out.push_back(
          Link{target, std::pow(rank, -config.link_skew) / harmonic});
    }
  }
}

const std::vector<SessionGraph::Link>& SessionGraph::links(
    std::uint64_t page) const {
  SPECPF_EXPECTS(page < links_.size());
  return links_[page];
}

std::vector<SessionGraph::Link> SessionGraph::next_distribution(
    std::uint64_t page) const {
  std::vector<Link> out = links(page);
  for (auto& link : out) link.probability *= (1.0 - exit_probability_);
  return out;
}

std::uint64_t SessionGraph::sample_entry(Rng& rng) const {
  return entry_dist_.sample(rng);
}

bool SessionGraph::sample_next(std::uint64_t page, Rng& rng,
                               std::uint64_t* next) const {
  SPECPF_EXPECTS(next != nullptr);
  if (rng.bernoulli(exit_probability_)) return false;
  const auto& out = links(page);
  double u = rng.next_double();
  for (const Link& link : out) {
    if (u < link.probability) {
      *next = link.target;
      return true;
    }
    u -= link.probability;
  }
  *next = out.back().target;  // numerical remainder
  return true;
}

}  // namespace specpf
