#include "reference/legacy_planes.hpp"

#include <vector>

#include "reference/clock_cache.hpp"
#include "reference/dependency_graph.hpp"
#include "reference/fifo.hpp"
#include "reference/frequency.hpp"
#include "reference/lfu.hpp"
#include "reference/lru.hpp"
#include "reference/markov.hpp"
#include "reference/oracle.hpp"
#include "reference/ppm.hpp"
#include "reference/predictor.hpp"
#include "reference/random_cache.hpp"
#include "reference/tagged_cache.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace specpf {

namespace {

/// Builds a standalone (legacy, node-based) cache of the given kind.
/// `seed` is only consumed by the random policy.
std::unique_ptr<Cache> make_cache(CacheKind kind, std::size_t capacity,
                                  std::uint64_t seed) {
  switch (kind) {
    case CacheKind::kLru:
      return std::make_unique<LruCache>(capacity);
    case CacheKind::kLfu:
      return std::make_unique<LfuCache>(capacity);
    case CacheKind::kFifo:
      return std::make_unique<FifoCache>(capacity);
    case CacheKind::kClock:
      return std::make_unique<ClockCache>(capacity);
    case CacheKind::kRandom:
      return std::make_unique<RandomCache>(capacity, seed);
  }
  SPECPF_ASSERT(false && "unknown cache kind");
  return nullptr;
}

/// The legacy backend: one heap TaggedCache (wrapping a virtual Cache) per
/// user, constructed exactly as the pre-arena StackRuntime did — the
/// differential baseline.
class LegacyCachePlane final : public CachePlane {
 public:
  LegacyCachePlane(CacheKind kind, const CachePlaneConfig& config) {
    SPECPF_EXPECTS(config.num_users >= 1);
    Rng root(config.seed);
    caches_.reserve(config.num_users);
    for (std::size_t u = 0; u < config.num_users; ++u) {
      auto inner = make_cache(kind, config.capacity,
                              root.substream(100 + u).next_u64());
      inner->set_eviction_hook(
          [this, user = static_cast<std::uint32_t>(u)](ItemId item,
                                                       core::EntryTag tag) {
            if (observer_) observer_(user, item, tag);
          });
      caches_.push_back(std::make_unique<TaggedCache>(std::move(inner)));
    }
  }

  AccessOutcome access(std::uint32_t user, ItemId item) override {
    return caches_[user]->access(item);
  }
  void admit_demand(std::uint32_t user, ItemId item) override {
    caches_[user]->admit_demand(item);
  }
  void admit_prefetch(std::uint32_t user, ItemId item) override {
    caches_[user]->admit_prefetch(item);
  }
  void admit_prefetch_accessed(std::uint32_t user, ItemId item) override {
    caches_[user]->admit_prefetch_accessed(item);
  }
  bool contains(std::uint32_t user, ItemId item) const override {
    return caches_[user]->inner().contains(item);
  }
  std::size_t size(std::uint32_t user) const override {
    return caches_[user]->inner().size();
  }

  double estimate(std::uint32_t user,
                  core::InteractionModel model) const override {
    return model == core::InteractionModel::kModelA
               ? caches_[user]->estimate_model_a()
               : caches_[user]->estimate_model_b();
  }

  CachePlaneTotals totals(core::InteractionModel model) const override {
    CachePlaneTotals out;
    for (std::uint32_t u = 0; u < caches_.size(); ++u) {
      out.hprime_sum += estimate(u, model);
      out.prefetch_inserts += caches_[u]->prefetch_inserts();
      out.prefetch_first_uses += caches_[u]->prefetch_first_uses();
    }
    return out;
  }

  /// Not counted: the entries live in per-user heap nodes whose sizes the
  /// standard library decides.
  std::uint64_t held_bytes() const override { return 0; }

  std::uint64_t prefetch_inserts(std::uint32_t user) const override {
    return caches_[user]->prefetch_inserts();
  }
  std::uint64_t prefetch_first_uses(std::uint32_t user) const override {
    return caches_[user]->prefetch_first_uses();
  }

  void set_eviction_observer(EvictionObserver observer) override {
    observer_ = std::move(observer);
  }

  void audit(AuditReport& report) const override {
    // The legacy entries live in std::list/std::unordered_map nodes that
    // ASan already watches; only the §4 counters are worth re-deriving.
    const AuditScope scope(report, "LegacyCachePlane");
    for (std::uint32_t u = 0; u < caches_.size(); ++u) {
      report.check(
          caches_[u]->prefetch_first_uses() <= caches_[u]->prefetch_inserts(),
          "user " + std::to_string(u) +
              ": prefetch first uses > prefetch inserts");
    }
  }

 private:
  std::vector<std::unique_ptr<TaggedCache>> caches_;
  EvictionObserver observer_;
};

/// The original virtual Predictor tables behind the plane interface — the
/// pinned reference backend for differential tests and the perf baseline.
class LegacyPredictorPlane final : public PredictorPlane {
 public:
  explicit LegacyPredictorPlane(std::unique_ptr<Predictor> predictor)
      : predictor_(std::move(predictor)) {}

  void observe(UserId user, std::uint64_t item) override {
    predictor_->observe(user, item);
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    predictor_->predict_into(user, max_candidates, out);
  }

 private:
  std::unique_ptr<Predictor> predictor_;
};

std::unique_ptr<Predictor> make_legacy_predictor(
    PredictorKind kind, const PredictorPlaneConfig& config) {
  switch (kind) {
    case PredictorKind::kMarkov:
      return std::make_unique<MarkovPredictor>();
    case PredictorKind::kPpm:
      return std::make_unique<PpmPredictor>(config.ppm_order);
    case PredictorKind::kDependencyGraph:
      return std::make_unique<DependencyGraphPredictor>(
          config.depgraph_lookahead);
    case PredictorKind::kFrequency:
      return std::make_unique<FrequencyPredictor>();
    case PredictorKind::kOracle:
      SPECPF_EXPECTS(config.graph != nullptr);
      return std::make_unique<OraclePredictor>(*config.graph);
  }
  SPECPF_ASSERT(false && "unreachable");
  return nullptr;
}

}  // namespace

std::unique_ptr<CachePlane> make_legacy_cache_plane(
    CacheKind kind, const CachePlaneConfig& config) {
  return std::make_unique<LegacyCachePlane>(kind, config);
}

std::unique_ptr<PredictorPlane> make_legacy_predictor_plane(
    PredictorKind kind, const PredictorPlaneConfig& config) {
  SPECPF_EXPECTS(config.num_users >= 1);
  return std::make_unique<LegacyPredictorPlane>(
      make_legacy_predictor(kind, config));
}

}  // namespace specpf
