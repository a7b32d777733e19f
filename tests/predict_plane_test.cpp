// Differential + unit tests for the slab-backed SoA predictor plane
// (predict/predictor_plane.hpp, predict/context_arena.hpp):
//  1. ContextArena bookkeeping matches a reference map-of-maps under random
//     load, and the quantized-counter edge cases (saturation, halving) do
//     the exact ceil(c/2) aging the header promises.
//  2. HistoryRing preserves order across wraparound.
//  3. Fuzz differential: every arena plane predicts bit-identically to its
//     pre-arena virtual Predictor table (tests/reference/) across orders x
//     user counts x candidate limits — exact double equality, not
//     approximate. A cycling limit drives RankedPrefix stride growth.
//  4. Past counter saturation, where the reference tables no longer apply,
//     Markov and frequency still predict exactly the brute-force ranking
//     of a twin ContextArena fed the same observations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "predict/context_arena.hpp"
#include "predict/predictor_plane.hpp"
#include "reference/legacy_planes.hpp"
#include "util/audit.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"

namespace specpf {
namespace {

using core::Candidate;

TEST(ContextArena, CountsMatchReferenceMap) {
  ContextArena arena;
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>> reference;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t ctx_key = rng.next_u64() % 17;
    const std::uint64_t item = rng.next_u64() % 40;
    arena.add(arena.intern(ctx_key), arena.intern_item(item));
    ++reference[ctx_key][item];
  }
  ASSERT_EQ(arena.context_count(), reference.size());
  for (const auto& [ctx_key, successors] : reference) {
    const ContextArena::CtxId ctx = arena.find(ctx_key);
    ASSERT_NE(ctx, ContextArena::kNoCtx);
    EXPECT_EQ(arena.distinct(ctx), successors.size());
    std::uint64_t want_total = 0;
    for (const auto& [item, count] : successors) want_total += count;
    EXPECT_EQ(arena.total(ctx), want_total);
    std::map<std::uint64_t, std::uint64_t> got;
    arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      got[item] = c;
    });
    EXPECT_EQ(got, successors);
  }
  EXPECT_EQ(arena.halvings(), 0u);  // counts stayed far below saturation
}

TEST(ContextArena, FindOnUnknownKeyIsNoCtx) {
  ContextArena arena;
  EXPECT_EQ(arena.find(123), ContextArena::kNoCtx);
  const ContextArena::CtxId ctx = arena.intern(123);
  EXPECT_EQ(arena.find(123), ctx);
  EXPECT_EQ(arena.total(ctx), 0u);
  EXPECT_EQ(arena.distinct(ctx), 0u);
}

TEST(ContextArena, SaturationHalvesEveryCounterRoundingUp) {
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.intern(7);
  const std::uint32_t a = arena.intern_item(100);
  const std::uint32_t b = arena.intern_item(200);
  for (int i = 0; i < 3; ++i) arena.add(ctx, b);
  for (std::uint32_t i = 0; i < ContextArena::kCounterMax; ++i) {
    arena.add(ctx, a);
  }
  EXPECT_EQ(arena.halvings(), 0u);
  EXPECT_EQ(arena.total(ctx), std::uint64_t{ContextArena::kCounterMax} + 3);

  // The add that would overflow `a` ages the whole context first:
  // a: 65535 -> 32768 (then the pending increment lands: 32769),
  // b: 3 -> 2, and the total is recomputed from the aged counts.
  EXPECT_EQ(arena.add(ctx, a), 32769u);
  EXPECT_EQ(arena.halvings(), 1u);
  std::map<std::uint64_t, std::uint64_t> got;
  arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
    got[item] = c;
  });
  EXPECT_EQ(got[100], 32769u);
  EXPECT_EQ(got[200], 2u);
  EXPECT_EQ(arena.total(ctx), 32771u);
  EXPECT_EQ(arena.distinct(ctx), 2u);  // no successor is ever forgotten
}

TEST(ContextArena, HalvingNeverZeroesACount) {
  // A count of 1 halves to ceil(1/2) = 1, so even rare successors survive
  // arbitrarily many agings.
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.intern(1);
  const std::uint32_t rare = arena.intern_item(999);
  const std::uint32_t hot = arena.intern_item(111);
  arena.add(ctx, rare);
  // Two full saturation cycles on the hot item.
  for (int cycle = 0; cycle < 2; ++cycle) {
    while (arena.halvings() == static_cast<std::uint64_t>(cycle)) {
      arena.add(ctx, hot);
    }
  }
  EXPECT_EQ(arena.halvings(), 2u);
  std::uint64_t rare_count = 0;
  arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
    if (item == 999) rare_count = c;
    EXPECT_GE(c, 1u);
  });
  EXPECT_EQ(rare_count, 1u);
}

TEST(ContextArena, SlabGrowthStress) {
  // Enough volume to force several growth doublings of every slab and
  // index; the arena must stay exactly consistent with the reference.
  ContextArena arena;
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>> reference;
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t ctx_key = rng.next_u64() % 4096;
    const std::uint64_t item = rng.next_u64() % 2048;
    arena.add(arena.intern(ctx_key), arena.intern_item(item));
    ++reference[ctx_key][item];
  }
  ASSERT_EQ(arena.context_count(), reference.size());
  EXPECT_EQ(arena.item_count(), 2048u);
  std::size_t total_successors = 0;
  for (const auto& [ctx_key, successors] : reference) {
    const ContextArena::CtxId ctx = arena.find(ctx_key);
    ASSERT_NE(ctx, ContextArena::kNoCtx);
    total_successors += successors.size();
    std::map<std::uint64_t, std::uint64_t> got;
    arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      got[item] = c;
    });
    EXPECT_EQ(got, successors);
  }
  EXPECT_EQ(arena.successor_count(), total_successors);
}

TEST(HistoryRing, PreservesOrderAcrossWraparound) {
  HistoryRing ring(2, 4);
  EXPECT_EQ(ring.size(0), 0u);
  for (std::uint64_t v = 1; v <= 6; ++v) ring.push(0, v * 10);
  ring.push(1, 7);  // the other user's ring is independent
  ASSERT_EQ(ring.size(0), 4u);
  EXPECT_EQ(ring.at(0, 0), 30u);  // oldest surviving entry
  EXPECT_EQ(ring.at(0, 1), 40u);
  EXPECT_EQ(ring.at(0, 2), 50u);
  EXPECT_EQ(ring.at(0, 3), 60u);
  EXPECT_EQ(ring.newest(0), 60u);
  ASSERT_EQ(ring.size(1), 1u);
  EXPECT_EQ(ring.newest(1), 7u);
}

// --- plane vs legacy fuzz differential --------------------------------------

void expect_same_candidates(const std::vector<Candidate>& got,
                            const std::vector<Candidate>& want,
                            const char* what, std::size_t event) {
  ASSERT_EQ(got.size(), want.size()) << what << " event " << event;
  for (std::size_t c = 0; c < got.size(); ++c) {
    ASSERT_EQ(got[c].item, want[c].item)
        << what << " event " << event << " rank " << c;
    ASSERT_EQ(got[c].probability, want[c].probability)
        << what << " event " << event << " rank " << c;
  }
}

/// Drives the same random stream through both backends, comparing
/// predict_into output exactly (same items, bit-identical probabilities)
/// after every observation. Event i asks for limits[i % limits.size()]
/// candidates, so a cycling list grows a plane's ranked prefix mid-run.
void expect_bit_identical(PredictorKind kind, const PredictorPlaneConfig& cfg,
                          const std::vector<std::size_t>& limits,
                          std::uint64_t seed, std::size_t events,
                          std::uint64_t item_space) {
  auto plane = make_predictor_plane(kind, cfg);
  auto legacy = make_legacy_predictor_plane(kind, cfg);
  Rng rng(seed);
  std::vector<Candidate> got, want;
  for (std::size_t i = 0; i < events; ++i) {
    const UserId user = static_cast<UserId>(rng.next_u64() % cfg.num_users);
    const std::uint64_t item = rng.next_u64() % item_space;
    const std::size_t limit = limits[i % limits.size()];
    plane->observe(user, item);
    legacy->observe(user, item);
    plane->predict_into(user, limit, got);
    legacy->predict_into(user, limit, want);
    expect_same_candidates(got, want, predictor_kind_name(kind), i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The differential only holds below counter saturation — assert the fuzz
  // volume never crossed it, so a future tweak can't quietly void the test.
  EXPECT_EQ(plane->counter_halvings(), 0u);
  AuditReport report;
  plane->audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PredictPlaneDifferential, FrequencyMatchesLegacy) {
  for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}, std::size_t{64}}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 3;
    expect_bit_identical(PredictorKind::kFrequency, cfg, {limit}, 21, 4000, 50);
  }
}

TEST(PredictPlaneDifferential, MarkovMatchesLegacy) {
  for (const std::size_t users : {std::size_t{1}, std::size_t{5}}) {
    for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}, std::size_t{64}}) {
      PredictorPlaneConfig cfg;
      cfg.num_users = users;
      expect_bit_identical(PredictorKind::kMarkov, cfg, {limit}, 22, 4000, 40);
    }
  }
}

TEST(PredictPlaneDifferential, MarkovLaplaceMatchesLegacy) {
  // Up to the largest accepted α, where every probability sits within
  // ~1e-5 of 1/distinct, count order must still be probability order.
  for (const double laplace : {0.5, kMaxMarkovLaplace}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 4;
    cfg.markov_laplace = laplace;
    expect_bit_identical(PredictorKind::kMarkov, cfg, {8}, 23, 4000, 40);
    expect_bit_identical(PredictorKind::kMarkov, cfg, {1, 4, 2, 8, 64}, 34,
                         4000, 40);
  }
}

TEST(PredictPlaneDifferential, CyclingLimitGrowsRankedPrefixExactly) {
  // Limits that rise, fall and rise again: every growth rebuilds the
  // prefixes mid-stream, and the smaller limits must read a prefix of the
  // larger stride. Frequency has one context of up to 50 successors;
  // Markov's 40 contexts fill up gradually, so growth keeps recurring.
  const std::vector<std::size_t> cycle = {1, 4, 2, 8, 64};
  PredictorPlaneConfig cfg;
  cfg.num_users = 3;
  expect_bit_identical(PredictorKind::kFrequency, cfg, cycle, 31, 4000, 50);
  for (const std::size_t users : {std::size_t{1}, std::size_t{5}}) {
    cfg.num_users = users;
    expect_bit_identical(PredictorKind::kMarkov, cfg, cycle, 32, 4000, 40);
  }
}

TEST(PredictPlane, MarkovLaplaceAboveBoundIsRejected) {
  PredictorPlaneConfig cfg;
  cfg.markov_laplace = std::nextafter(kMaxMarkovLaplace, 1e300);
  EXPECT_THROW(make_predictor_plane(PredictorKind::kMarkov, cfg),
               ContractViolation);
  cfg.markov_laplace = INFINITY;
  EXPECT_THROW(make_predictor_plane(PredictorKind::kMarkov, cfg),
               ContractViolation);
  cfg.markov_laplace = NAN;
  EXPECT_THROW(make_predictor_plane(PredictorKind::kMarkov, cfg),
               ContractViolation);
}

TEST(PredictPlaneDifferential, PpmMatchesLegacyAcrossOrders) {
  for (const std::size_t order : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    for (const std::size_t users : {std::size_t{1}, std::size_t{5}}) {
      for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}, std::size_t{64}}) {
        PredictorPlaneConfig cfg;
        cfg.num_users = users;
        cfg.ppm_order = order;
        expect_bit_identical(PredictorKind::kPpm, cfg, {limit},
                             100 + order, 3000, 30);
      }
    }
  }
}

TEST(PredictPlaneDifferential, DependencyGraphMatchesLegacy) {
  for (const std::size_t lookahead : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
    for (const std::size_t limit : {std::size_t{1}, std::size_t{8},
                                    std::size_t{64}}) {
      PredictorPlaneConfig cfg;
      cfg.num_users = 5;
      cfg.depgraph_lookahead = lookahead;
      expect_bit_identical(PredictorKind::kDependencyGraph, cfg, {limit},
                           200 + lookahead, 3000, 30);
    }
  }
}

TEST(PredictPlaneDifferential, OracleMatchesLegacy) {
  SessionGraphConfig gcfg;
  gcfg.num_pages = 64;
  gcfg.out_degree = 4;
  const SessionGraph graph(gcfg, 17);
  for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 4;
    cfg.graph = &graph;
    expect_bit_identical(PredictorKind::kOracle, cfg, {limit}, 24, 2000, 64);
  }
}

TEST(PredictPlane, MarkovSurvivesCounterSaturation) {
  // Past 65535 repetitions of one transition the plane diverges from the
  // (unbounded-counter) legacy table by design; it must keep producing the
  // same *distribution* with bounded counters.
  PredictorPlaneConfig cfg;
  cfg.num_users = 1;
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg);
  plane->observe(0, 1);
  for (int i = 0; i < 70000; ++i) {
    plane->observe(0, 2);
    plane->observe(0, 1);
  }
  EXPECT_GE(plane->counter_halvings(), 1u);
  const auto after = plane->predict(0, 8);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].item, 2u);
  EXPECT_EQ(after[0].probability, 1.0);
}

// --- past saturation: brute force over a twin arena -------------------------

/// Mirrors a Markov or frequency plane's table in a test-side ContextArena
/// fed the same adds (the arena is deterministic, so it halves at the same
/// moments) and ranks a context by sorting its whole chain: the ground
/// truth once counts have aged, where the reference tables never halve.
class TwinArena {
 public:
  TwinArena(PredictorKind kind, std::size_t users, double laplace)
      : kind_(kind), laplace_(laplace), last_(users, kNone) {}

  void observe(UserId user, std::uint64_t item) {
    if (kind_ == PredictorKind::kFrequency) {
      arena_.add(arena_.intern(0), arena_.intern_item(item));
    } else if (last_[user] != kNone) {
      arena_.add(arena_.intern(last_[user]), arena_.intern_item(item));
    }
    last_[user] = item;
  }

  std::vector<Candidate> predict(UserId user, std::size_t k) const {
    std::vector<Candidate> out;
    const std::uint64_t key =
        kind_ == PredictorKind::kFrequency ? 0 : last_[user];
    const ContextArena::CtxId ctx = arena_.find(key);
    if (key == kNone || ctx == ContextArena::kNoCtx) return out;
    const double denom =
        static_cast<double>(arena_.total(ctx)) +
        laplace_ * static_cast<double>(arena_.distinct(ctx));
    arena_.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      out.push_back(
          Candidate{item, (static_cast<double>(c) + laplace_) / denom});
    });
    std::sort(out.begin(), out.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return a.item < b.item;
              });
    if (out.size() > k) out.resize(k);
    return out;
  }

  std::uint64_t halvings() const { return arena_.halvings(); }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  PredictorKind kind_;
  double laplace_;
  ContextArena arena_;
  std::vector<std::uint64_t> last_;
};

/// Feeds `stream` to a plane and its twin, comparing predict_into against
/// the brute-force ranking after every observation; returns the halvings.
std::uint64_t expect_matches_twin(
    PredictorKind kind, std::size_t users, double laplace,
    const std::vector<std::pair<UserId, std::uint64_t>>& stream,
    const std::vector<std::size_t>& limits) {
  PredictorPlaneConfig cfg;
  cfg.num_users = users;
  cfg.markov_laplace = laplace;
  auto plane = make_predictor_plane(kind, cfg);
  TwinArena twin(kind, users, laplace);
  std::vector<Candidate> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto [user, item] = stream[i];
    plane->observe(user, item);
    twin.observe(user, item);
    const std::size_t limit = limits[i % limits.size()];
    plane->predict_into(user, limit, got);
    expect_same_candidates(got, twin.predict(user, limit),
                           predictor_kind_name(kind), i);
    if (::testing::Test::HasFatalFailure()) return 0;
  }
  EXPECT_EQ(plane->counter_halvings(), twin.halvings());
  AuditReport report;
  plane->audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  return plane->counter_halvings();
}

TEST(PredictPlaneSaturation, HalvingTieReordersTopKExactly) {
  // Item 50 seen 4 times ranks ahead of item 10 seen 3 times, so a top-2
  // is [hot, 50]. Halving ages them to ceil(4/2) = ceil(3/2) = 2, and the
  // tie now breaks by item: the top-2 must become [hot, 10] — an item
  // that was outside the ranked prefix before the halving.
  for (const PredictorKind kind :
       {PredictorKind::kMarkov, PredictorKind::kFrequency}) {
    // Markov: user 0 returns to context 1 before each successor.
    std::vector<std::pair<UserId, std::uint64_t>> stream;
    auto follow = [&](std::uint64_t item) {
      if (kind == PredictorKind::kMarkov) stream.push_back({0, 1});
      stream.push_back({0, item});
    };
    for (int i = 0; i < 4; ++i) follow(50);
    for (int i = 0; i < 3; ++i) follow(10);
    for (std::uint32_t i = 0; i <= ContextArena::kCounterMax; ++i) follow(7);
    EXPECT_GE(expect_matches_twin(kind, 1, 0.0, stream, {2}), 1u)
        << predictor_kind_name(kind);

    PredictorPlaneConfig cfg;
    auto plane = make_predictor_plane(kind, cfg);
    for (const auto& [user, item] : stream) plane->observe(user, item);
    if (kind == PredictorKind::kMarkov) plane->observe(0, 1);
    const auto top = plane->predict(0, 2);
    ASSERT_EQ(top.size(), 2u) << predictor_kind_name(kind);
    EXPECT_EQ(top[0].item, 7u);
    EXPECT_EQ(top[1].item, 10u) << predictor_kind_name(kind);
  }
}

TEST(PredictPlaneSaturation, SkewedStreamMatchesBruteForceAcrossHalvings) {
  // Nine in ten steps walk the 1 -> 2 -> 1 cycle, so those transitions
  // (and items 1 and 2 in the global context) saturate repeatedly; the
  // rest spread over 14 items, whose mid-sized counts collide when aged.
  for (const PredictorKind kind :
       {PredictorKind::kMarkov, PredictorKind::kFrequency}) {
    for (const double laplace : {0.0, 0.5}) {
      if (kind == PredictorKind::kFrequency && laplace != 0.0) continue;
      Rng rng(41);
      std::vector<std::uint64_t> cursor = {1, 2};
      std::vector<std::pair<UserId, std::uint64_t>> stream;
      for (int i = 0; i < 320000; ++i) {
        const UserId user = static_cast<UserId>(rng.next_u64() % 2);
        std::uint64_t item = rng.next_u64() % 14;
        if (rng.next_u64() % 10 != 0) item = cursor[user] = 3 - cursor[user];
        stream.push_back({user, item});
      }
      EXPECT_GE(expect_matches_twin(kind, 2, laplace, stream, {1, 4, 2, 8}),
                2u)
          << predictor_kind_name(kind);
    }
  }
}

TEST(PredictPlane, PredictIntoReplacesStaleScratchContents) {
  PredictorPlaneConfig cfg;
  cfg.num_users = 1;
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg);
  std::vector<Candidate> scratch(5, Candidate{999, 0.123});
  plane->predict_into(0, 8, scratch);  // nothing observed: must clear
  EXPECT_TRUE(scratch.empty());
  plane->observe(0, 1);
  plane->observe(0, 2);
  plane->observe(0, 1);  // back on item 1, whose lone successor is 2
  plane->predict_into(0, 8, scratch);
  ASSERT_EQ(scratch.size(), 1u);
  EXPECT_EQ(scratch[0].item, 2u);
}

TEST(PredictorFactory, NamesRoundTrip) {
  for (int k = 0; k < kNumPredictorKinds; ++k) {
    const auto kind = static_cast<PredictorKind>(k);
    PredictorKind parsed;
    ASSERT_TRUE(parse_predictor_kind(predictor_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PredictorKind parsed;
  EXPECT_FALSE(parse_predictor_kind("nonsense", &parsed));
}

}  // namespace
}  // namespace specpf
