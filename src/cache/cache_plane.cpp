#include "cache/cache_plane.hpp"

#include "util/contract.hpp"
#include "util/math.hpp"

namespace specpf {

namespace {

/// §4 protocol state of one user — everything besides the entries
/// themselves, with the counters packed to 32 bits (16 bytes/user; one user
/// cannot plausibly issue 4 billion requests in a run). Arithmetic mirrors
/// core::HitRatioEstimator / tagged_model_b_estimate expression for
/// expression; tests/cache_plane_test.cpp pins it bit-identical.
struct TaggedUserState {
  std::uint32_t naccess = 0;
  std::uint32_t nhit = 0;
  std::uint32_t prefetch_inserts = 0;
  std::uint32_t prefetch_first_uses = 0;

  double estimate_model_a() const {
    return safe_div(static_cast<double>(nhit), static_cast<double>(naccess),
                    0.0);
  }

  double estimate(core::InteractionModel model, double resident_items) const {
    if (model == core::InteractionModel::kModelA) return estimate_model_a();
    const double nf = safe_div(static_cast<double>(prefetch_inserts),
                               static_cast<double>(naccess), 0.0);
    if (resident_items <= nf) return estimate_model_a();  // tiny cache
    return estimate_model_a() * resident_items / (resident_items - nf);
  }
};

/// The arena backend: policy entries in shared slabs, protocol state in one
/// flat vector. Policy is a compile-time parameter; every method below is
/// fully monomorphic after the make_cache_plane dispatch.
template <typename Policy>
class ArenaCachePlane final : public CachePlane {
 public:
  explicit ArenaCachePlane(const CachePlaneConfig& config)
      : policy_(config.num_users, config.capacity, config.seed),
        users_(config.num_users) {
    SPECPF_EXPECTS(config.num_users >= 1);
  }

  AccessOutcome access(std::uint32_t user, ItemId item) override {
    TaggedUserState& st = users_[user];
    const auto tag = policy_.lookup(user, item);
    if (!tag.has_value()) {
      ++st.naccess;  // on_cache_miss
      return AccessOutcome::kMiss;
    }
    ++st.naccess;  // on_cache_hit: tagged hits count, untagged become tagged
    if (*tag == core::EntryTag::kTagged) {
      ++st.nhit;
      return AccessOutcome::kHitTagged;
    }
    policy_.set_tag(user, item, core::EntryTag::kTagged);
    ++st.prefetch_first_uses;
    return AccessOutcome::kHitUntagged;
  }

  void admit_demand(std::uint32_t user, ItemId item) override {
    insert(user, item, core::HitRatioEstimator::demand_insert_tag());
  }

  void admit_prefetch(std::uint32_t user, ItemId item) override {
    // Re-prefetching a resident item must not downgrade its tag (§4).
    if (policy_.contains(user, item)) return;
    ++users_[user].prefetch_inserts;
    insert(user, item, core::HitRatioEstimator::prefetch_insert_tag());
  }

  void admit_prefetch_accessed(std::uint32_t user, ItemId item) override {
    ++users_[user].prefetch_inserts;
    ++users_[user].prefetch_first_uses;
    insert(user, item, core::HitRatioEstimator::demand_insert_tag());
  }

  bool contains(std::uint32_t user, ItemId item) const override {
    return policy_.contains(user, item);
  }

  std::size_t size(std::uint32_t user) const override {
    return policy_.size(user);
  }

  double estimate(std::uint32_t user,
                  core::InteractionModel model) const override {
    return users_[user].estimate(model,
                                 static_cast<double>(policy_.size(user)));
  }

  CachePlaneTotals totals(core::InteractionModel model) const override {
    CachePlaneTotals out;
    for (std::uint32_t u = 0; u < users_.size(); ++u) {
      out.hprime_sum += estimate(u, model);
      out.prefetch_inserts += users_[u].prefetch_inserts;
      out.prefetch_first_uses += users_[u].prefetch_first_uses;
    }
    return out;
  }

  std::uint64_t prefetch_inserts(std::uint32_t user) const override {
    return users_[user].prefetch_inserts;
  }
  std::uint64_t prefetch_first_uses(std::uint32_t user) const override {
    return users_[user].prefetch_first_uses;
  }

  void set_eviction_observer(EvictionObserver observer) override {
    observer_ = std::move(observer);
  }

  void audit(AuditReport& report) const override {
    const AuditScope scope(report, "ArenaCachePlane");
    for (std::uint32_t u = 0; u < users_.size(); ++u) {
      const TaggedUserState& st = users_[u];
      report.check(st.nhit <= st.naccess,
                   "user " + std::to_string(u) + ": nhit > naccess");
      report.check(st.prefetch_first_uses <= st.prefetch_inserts,
                   "user " + std::to_string(u) +
                       ": prefetch first uses > prefetch inserts");
    }
    policy_.audit(report);
  }

 private:
  void insert(std::uint32_t user, ItemId item, core::EntryTag tag) {
    policy_.insert(user, item, tag,
                   [this, user](ItemId victim, core::EntryTag victim_tag) {
                     if (observer_) observer_(user, victim, victim_tag);
                   });
  }

  Policy policy_;
  std::vector<TaggedUserState> users_;
  EvictionObserver observer_;
};

}  // namespace

std::unique_ptr<CachePlane> make_cache_plane(CacheKind kind,
                                             const CachePlaneConfig& config,
                                             bool use_legacy) {
  SPECPF_EXPECTS(!use_legacy);
  // The once-per-run dispatch: policy × residency mode. Small capacities
  // take the per-user-block arenas (inline residency scan, no hash index
  // bytes at all); larger ones the shared-slab arenas over the fleet-wide
  // hash index. The two modes make identical eviction decisions.
  const bool small = config.capacity <= arena::kInlineResidencyCapacity;
  switch (kind) {
    case CacheKind::kLru:
      return small
                 ? std::unique_ptr<CachePlane>(
                       std::make_unique<ArenaCachePlane<arena::SmallLruArena>>(
                           config))
                 : std::make_unique<ArenaCachePlane<arena::LruArena>>(config);
    case CacheKind::kLfu:
      return small
                 ? std::unique_ptr<CachePlane>(
                       std::make_unique<ArenaCachePlane<arena::SmallLfuArena>>(
                           config))
                 : std::make_unique<ArenaCachePlane<arena::LfuArena>>(config);
    case CacheKind::kFifo:
      return small
                 ? std::unique_ptr<CachePlane>(
                       std::make_unique<ArenaCachePlane<arena::SmallFifoArena>>(
                           config))
                 : std::make_unique<ArenaCachePlane<arena::FifoArena>>(config);
    case CacheKind::kClock:
      return small
                 ? std::unique_ptr<CachePlane>(
                       std::make_unique<
                           ArenaCachePlane<arena::SmallClockArena>>(config))
                 : std::make_unique<ArenaCachePlane<arena::ClockArena>>(config);
    case CacheKind::kRandom:
      return small
                 ? std::unique_ptr<CachePlane>(
                       std::make_unique<
                           ArenaCachePlane<arena::SmallRandomArena>>(config))
                 : std::make_unique<ArenaCachePlane<arena::RandomArena>>(
                       config);
  }
  SPECPF_ASSERT(false && "unknown cache kind");
  return nullptr;
}

}  // namespace specpf
