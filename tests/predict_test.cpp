// Access predictors through the plane factory: what each model learns.
// Single transition probabilities are read through a probe user whose only
// observation is the context item, so probing never adds a transition.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "predict/predictor_plane.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"

namespace specpf {
namespace {

std::unique_ptr<PredictorPlane> make_plane(PredictorKind kind,
                                           std::size_t num_users = 8) {
  PredictorPlaneConfig cfg;
  cfg.num_users = num_users;
  return make_predictor_plane(kind, cfg);
}

/// Probability `plane` assigns to `to` right after `probe` (a user with no
/// other history) accesses `from`; 0 when `to` is not predicted.
double probe_probability(PredictorPlane& plane, UserId probe,
                         std::uint64_t from, std::uint64_t to) {
  plane.observe(probe, from);
  for (const auto& c : plane.predict(probe, 1000)) {
    if (c.item == to) return c.probability;
  }
  return 0.0;
}

TEST(MarkovPredictor, EmptyModelPredictsNothing) {
  auto m = make_plane(PredictorKind::kMarkov);
  EXPECT_TRUE(m->predict(0, 10).empty());
  m->observe(0, 1);
  EXPECT_TRUE(m->predict(0, 10).empty());  // no successor of 1 seen yet
}

TEST(MarkovPredictor, LearnsDeterministicChain) {
  auto m = make_plane(PredictorKind::kMarkov);
  for (int rep = 0; rep < 5; ++rep) {
    m->observe(0, 1);
    m->observe(0, 2);
    m->observe(0, 3);
  }
  m->observe(0, 1);
  const auto pred = m->predict(0, 10);
  ASSERT_FALSE(pred.empty());
  EXPECT_EQ(pred[0].item, 2u);
  EXPECT_NEAR(pred[0].probability, 1.0, 1e-12);
}

TEST(MarkovPredictor, EstimatesTransitionMatrix) {
  // Two-state chain: 0 -> 1 w.p. 0.7, 0 -> 2 w.p. 0.3.
  auto m = make_plane(PredictorKind::kMarkov);
  Rng rng(3);
  std::uint64_t prev = 0;
  m->observe(0, prev);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t next =
        prev == 0 ? (rng.bernoulli(0.7) ? 1 : 2) : 0;
    m->observe(0, next);
    prev = next;
  }
  EXPECT_NEAR(probe_probability(*m, 1, 0, 1), 0.7, 0.02);
  EXPECT_NEAR(probe_probability(*m, 2, 0, 2), 0.3, 0.02);
  EXPECT_NEAR(probe_probability(*m, 3, 1, 0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(probe_probability(*m, 4, 42, 0), 0.0);
}

TEST(MarkovPredictor, PerUserContexts) {
  auto m = make_plane(PredictorKind::kMarkov);
  m->observe(1, 10);
  m->observe(1, 11);
  m->observe(2, 10);
  m->observe(2, 99);
  m->observe(1, 10);
  m->observe(2, 10);
  // User 1's last item is 10, and from 10 user transitions to 11 or 99.
  const auto pred = m->predict(1, 10);
  ASSERT_EQ(pred.size(), 2u);
  // Counts are global (shared model), probabilities 0.5/0.5.
  EXPECT_NEAR(pred[0].probability, 0.5, 1e-12);
}

TEST(MarkovPredictor, RespectsMaxCandidates) {
  auto m = make_plane(PredictorKind::kMarkov);
  for (std::uint64_t succ = 1; succ <= 20; ++succ) {
    m->observe(0, 0);
    m->observe(0, succ);
  }
  m->observe(0, 0);
  EXPECT_EQ(m->predict(0, 5).size(), 5u);
}

TEST(PpmPredictor, UsesLongContextWhenAvailable) {
  PredictorPlaneConfig cfg;
  cfg.ppm_order = 2;
  auto ppm = make_predictor_plane(PredictorKind::kPpm, cfg);
  // Sequence alternates contexts: (1,2)->3 and (4,2)->5.
  for (int rep = 0; rep < 10; ++rep) {
    ppm->observe(0, 1);
    ppm->observe(0, 2);
    ppm->observe(0, 3);
    ppm->observe(0, 4);
    ppm->observe(0, 2);
    ppm->observe(0, 5);
  }
  ppm->observe(0, 1);
  ppm->observe(0, 2);
  const auto pred = ppm->predict(0, 10);
  ASSERT_FALSE(pred.empty());
  // Order-2 context (1,2) strongly predicts 3; order-1 context (2) is
  // ambiguous between 3 and 5. The blend must rank 3 first.
  EXPECT_EQ(pred[0].item, 3u);
  EXPECT_GT(pred[0].probability, 0.5);
}

TEST(PpmPredictor, FallsBackToShorterContext) {
  auto ppm = make_plane(PredictorKind::kPpm, 2);  // default order 3
  for (int rep = 0; rep < 5; ++rep) {
    ppm->observe(0, 7);
    ppm->observe(0, 8);
  }
  // New user context: only order-1 history (7) is informative.
  ppm->observe(1, 7);
  const auto pred = ppm->predict(1, 10);
  ASSERT_FALSE(pred.empty());
  EXPECT_EQ(pred[0].item, 8u);
}

TEST(PpmPredictor, ProbabilitiesAreSubStochastic) {
  auto ppm = make_plane(PredictorKind::kPpm, 1);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) ppm->observe(0, rng.next_below(10));
  const auto pred = ppm->predict(0, 100);
  double total = 0.0;
  for (const auto& c : pred) {
    EXPECT_GE(c.probability, 0.0);
    EXPECT_LE(c.probability, 1.0);
    total += c.probability;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
}

std::unique_ptr<PredictorPlane> make_depgraph(std::size_t lookahead) {
  PredictorPlaneConfig cfg;
  cfg.num_users = 4;
  cfg.depgraph_lookahead = lookahead;
  return make_predictor_plane(PredictorKind::kDependencyGraph, cfg);
}

TEST(DependencyGraph, CreditsFollowUpsWithinWindow) {
  auto dep = make_depgraph(3);
  // Pattern: A(1) then B(2) two steps later, every time.
  for (int rep = 0; rep < 10; ++rep) {
    dep->observe(0, 1);
    dep->observe(0, 7);
    dep->observe(0, 2);
  }
  // The probe's own access of 1 counts as an 11th occurrence: 10/11.
  EXPECT_NEAR(probe_probability(*dep, 1, 1, 2), 1.0, 0.11);
  EXPECT_GT(probe_probability(*dep, 2, 1, 7), 0.8);
}

TEST(DependencyGraph, WindowOneIsMarkovLike) {
  auto dep = make_depgraph(1);
  for (int rep = 0; rep < 10; ++rep) {
    dep->observe(0, 1);
    dep->observe(0, 2);
  }
  EXPECT_GT(probe_probability(*dep, 1, 1, 2), 0.8);
  EXPECT_DOUBLE_EQ(probe_probability(*dep, 2, 2, 2), 0.0);
}

TEST(DependencyGraph, PredictRanksByProbability) {
  auto dep = make_depgraph(2);
  for (int rep = 0; rep < 20; ++rep) {
    dep->observe(0, 1);
    dep->observe(0, rep % 4 == 0 ? 9 : 2);  // 2 follows 1 three times of four
  }
  dep->observe(0, 1);
  const auto pred = dep->predict(0, 10);
  ASSERT_GE(pred.size(), 2u);
  EXPECT_EQ(pred[0].item, 2u);
}

TEST(FrequencyPredictor, MatchesGlobalShares) {
  auto freq = make_plane(PredictorKind::kFrequency);
  for (int i = 0; i < 60; ++i) freq->observe(0, 1);
  for (int i = 0; i < 30; ++i) freq->observe(1, 2);
  for (int i = 0; i < 10; ++i) freq->observe(0, 3);
  const auto pred = freq->predict(5, 10);
  ASSERT_EQ(pred.size(), 3u);
  EXPECT_EQ(pred[0].item, 1u);
  EXPECT_NEAR(pred[0].probability, 0.6, 1e-12);
  EXPECT_NEAR(pred[1].probability, 0.3, 1e-12);
}

std::unique_ptr<PredictorPlane> make_oracle(const SessionGraph& graph) {
  PredictorPlaneConfig cfg;
  cfg.num_users = 2;
  cfg.graph = &graph;
  return make_predictor_plane(PredictorKind::kOracle, cfg);
}

TEST(OraclePredictor, ReturnsTrueGraphConditionals) {
  SessionGraphConfig cfg;
  cfg.num_pages = 30;
  cfg.out_degree = 3;
  cfg.exit_probability = 0.2;
  SessionGraph graph(cfg, 7);
  auto oracle = make_oracle(graph);
  EXPECT_TRUE(oracle->predict(0, 10).empty());  // no observation yet
  oracle->observe(0, 5);
  const auto pred = oracle->predict(0, 10);
  const auto truth = graph.next_distribution(5);
  ASSERT_EQ(pred.size(), truth.size());
  std::map<std::uint64_t, double> truth_map;
  for (const auto& link : truth) truth_map[link.target] = link.probability;
  for (const auto& c : pred) {
    EXPECT_NEAR(c.probability, truth_map.at(c.item), 1e-12);
  }
}

TEST(OraclePredictor, TracksEachUserSeparately) {
  SessionGraphConfig cfg;
  cfg.num_pages = 30;
  SessionGraph graph(cfg, 9);
  auto oracle = make_oracle(graph);
  oracle->observe(0, 3);
  oracle->observe(1, 8);
  const auto pred0 = oracle->predict(0, 1);
  const auto pred1 = oracle->predict(1, 1);
  ASSERT_FALSE(pred0.empty());
  ASSERT_FALSE(pred1.empty());
  EXPECT_EQ(pred0[0].item, graph.next_distribution(3)[0].target);
}

}  // namespace
}  // namespace specpf
