#include "predict/predictor_plane.hpp"

#include <algorithm>
#include <string>

#include "predict/context_arena.hpp"
#include "predict/ranked_prefix.hpp"
#include "util/contract.hpp"
#include "workload/session_graph.hpp"

namespace specpf {

namespace {

using core::Candidate;

bool candidate_before(const Candidate& a, const Candidate& b) {
  if (a.probability != b.probability) return a.probability > b.probability;
  return a.item < b.item;  // deterministic tie order
}

/// Batched top-k: partial-select the k best candidates, then sort only
/// those. Items within one prediction are unique and ties break by item,
/// so the comparator is a strict total order — the result is bit-identical
/// to the legacy full sort + truncate, at O(n + k log k) instead of
/// O(n log n).
void select_top_candidates(std::vector<Candidate>& candidates, std::size_t k) {
  if (candidates.size() > k) {
    std::nth_element(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(k),
                     candidates.end(), candidate_before);
    candidates.resize(k);
  }
  std::sort(candidates.begin(), candidates.end(), candidate_before);
}

// --- frequency: one global context ----------------------------------------

class FrequencyPlane final : public PredictorPlane {
 public:
  FrequencyPlane() : ctx_(arena_.root_context()) {}

  void observe(UserId /*user*/, std::uint64_t item) override {
    const std::uint16_t count =
        arena_.add(ctx_, arena_.intern_item(item)).count;
    ranks_.on_add(arena_, ctx_, item, count);
  }

  void predict_into(UserId /*user*/, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    const std::uint64_t total = arena_.total(ctx_);
    if (total == 0) return;
    // c / total is strictly increasing in c, so the ranked prefix is
    // already in candidate order.
    const double total_d = static_cast<double>(total);
    for (const RankedPrefix::Entry& e :
         ranks_.top(arena_, ctx_, max_candidates)) {
      out.push_back(Candidate{e.item, static_cast<double>(e.count) / total_d});
    }
  }

  std::uint64_t counter_halvings() const override { return arena_.halvings(); }
  std::uint64_t context_count() const override {
    return arena_.context_count();
  }

  void audit(AuditReport& report) const override {
    arena_.audit(report);
    ranks_.audit(arena_, report);
  }

 private:
  ContextArena arena_;
  ContextArena::CtxId ctx_;
  /// Grows its stride on the first predict that needs more entries, the
  /// same single-threaded mutable scratch as PpmPlane::blend_.
  mutable RankedPrefix ranks_;
};

// --- markov: one context per last item -------------------------------------

class MarkovPlane final : public PredictorPlane {
 public:
  explicit MarkovPlane(std::size_t num_users)
      : last_(num_users, ContextArena::kNoItem) {}

  void observe(UserId user, std::uint64_t item) override {
    SPECPF_EXPECTS(user < last_.size());
    const std::uint32_t item_id = arena_.intern_item(item);
    if (last_[user] != ContextArena::kNoItem) {
      const ContextArena::CtxId ctx = arena_.item_context(last_[user]);
      ranks_.on_add(arena_, ctx, item, arena_.add(ctx, item_id).count);
    }
    last_[user] = item_id;
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    if (last_[user] == ContextArena::kNoItem) return;
    const ContextArena::CtxId ctx = arena_.find_item_context(last_[user]);
    if (ctx == ContextArena::kNoCtx || arena_.total(ctx) == 0) return;
    const double total = static_cast<double>(arena_.total(ctx));
    for (const RankedPrefix::Entry& e :
         ranks_.top(arena_, ctx, max_candidates)) {
      out.push_back(Candidate{e.item, static_cast<double>(e.count) / total});
    }
  }

  std::uint64_t counter_halvings() const override { return arena_.halvings(); }
  std::uint64_t context_count() const override {
    return arena_.context_count();
  }

  void audit(AuditReport& report) const override {
    arena_.audit(report);
    ranks_.audit(arena_, report);
    const AuditScope scope(report, "MarkovPlane");
    std::size_t bad = 0;
    for (const std::uint32_t last : last_) {
      bad += last != ContextArena::kNoItem && last >= arena_.item_count();
    }
    report.check(bad == 0, std::to_string(bad) +
                               " user(s) whose last item is not interned");
  }

 private:
  ContextArena arena_;
  mutable RankedPrefix ranks_;  ///< see FrequencyPlane::ranks_
  /// Per user: the item id of their latest access, or kNoItem before it.
  std::vector<std::uint32_t> last_;
};

// --- ppm: order-k context trie ---------------------------------------------

class PpmPlane final : public PredictorPlane {
 public:
  PpmPlane(std::size_t num_users, std::size_t max_order)
      : arena_(/*child_column=*/true), path_(num_users, max_order) {}

  void observe(UserId user, std::uint64_t item) override {
    path_.observe(arena_, user, arena_.intern_item(item));
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    const std::size_t len = path_.size(user);
    if (len == 0) return;

    // PPM-C blending, replicated term-for-term from the legacy table: the
    // longest matching context's predictions carry weight (1 - escape), the
    // escape mass flows to the next shorter context, and so on. Per item
    // the contributions accumulate in descending-order sequence, so the
    // sums are bit-identical regardless of successor iteration order.
    // Every contribution is > 0 (carry >= 1e-6, 1 - escape >= 1/2, c >= 1),
    // so a zero sum marks an item this call has not touched yet.
    if (blend_.size() < arena_.item_count()) {
      blend_.resize(arena_.item_count(), 0.0);
    }
    double carry = 1.0;
    for (std::size_t order = len; order >= 1; --order) {
      const ContextArena::CtxId ctx = path_.find(arena_, user, order);
      if (ctx == ContextArena::kNoCtx || arena_.total(ctx) == 0) continue;
      const double distinct = static_cast<double>(arena_.distinct(ctx));
      const double total = static_cast<double>(arena_.total(ctx));
      const double escape = distinct / (total + distinct);
      arena_.for_each_successor_id(
          ctx, [&](std::uint32_t item_id, std::uint16_t c) {
            const double share =
                carry * (1.0 - escape) * static_cast<double>(c) / total;
            SPECPF_DCHECK(share > 0.0);
            double& sum = blend_[item_id];
            if (sum == 0.0) touched_.push_back(item_id);
            sum += share;
          });
      carry *= escape;
      if (carry < 1e-6) break;
    }
    if (touched_.empty()) return;

    out.reserve(touched_.size());
    for (const std::uint32_t item_id : touched_) {
      out.push_back(Candidate{arena_.item_value(item_id), blend_[item_id]});
      blend_[item_id] = 0.0;
    }
    touched_.clear();
    select_top_candidates(out, max_candidates);
  }

  std::uint64_t counter_halvings() const override { return arena_.halvings(); }
  std::uint64_t context_count() const override {
    return arena_.context_count();
  }

  void audit(AuditReport& report) const override {
    arena_.audit(report);
    path_.audit(arena_, report);
  }

 private:
  ContextArena arena_;
  ContextPath path_;
  /// Blending scratch: a dense per-item-id sum, zero between calls, and the
  /// ids this call touched (reset from it in O(touched), not O(items)).
  /// Capacity persists, so the steady state does not allocate. The plane is
  /// single-threaded like the runtime that owns it — the sharded driver
  /// builds one plane per shard.
  mutable std::vector<double> blend_;
  mutable std::vector<std::uint32_t> touched_;
};

// --- dependency graph: lookahead-window follower credits --------------------

class DependencyGraphPlane final : public PredictorPlane {
 public:
  DependencyGraphPlane(std::size_t num_users, std::size_t lookahead)
      : window_(num_users, lookahead) {
    SPECPF_EXPECTS(lookahead >= 1);
  }

  void observe(UserId user, std::uint64_t item) override {
    const std::uint32_t item_id = arena_.intern_item(item);
    const std::size_t len = window_.size(user);
    // Credit `item` as a follower of each access still inside the window —
    // at most once per occurrence, deduplicating by prefix scan exactly
    // like the legacy table (the window holds a handful of entries). The
    // window holds item ids, which are equal exactly when the items are.
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint32_t predecessor = window_.at(user, i);
      if (predecessor == item_id) continue;
      bool duplicate = false;
      for (std::size_t j = 0; j < i; ++j) {
        if (window_.at(user, j) == predecessor) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      arena_.add(arena_.item_context(predecessor), item_id);
    }
    // Every context here is an observed item's, created right here, so the
    // occurrence column grows with the context count.
    const ContextArena::CtxId ctx = arena_.item_context(item_id);
    if (ctx == occurrences_.size()) occurrences_.push_back(0);
    ++occurrences_[ctx];
    window_.push(user, item_id);
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    if (window_.size(user) == 0) return;
    const ContextArena::CtxId ctx =
        arena_.find_item_context(window_.newest(user));
    if (ctx == ContextArena::kNoCtx) return;
    const double occurrences = static_cast<double>(occurrences_[ctx]);
    arena_.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      // P(B follows A within w) = count / occurrences(A), clipped to 1.
      out.push_back(Candidate{
          item, std::min(1.0, static_cast<double>(c) / occurrences)});
    });
    select_top_candidates(out, max_candidates);
  }

  std::uint64_t counter_halvings() const override { return arena_.halvings(); }
  std::uint64_t context_count() const override {
    return arena_.context_count();
  }

  void audit(AuditReport& report) const override {
    arena_.audit(report);
    const AuditScope scope(report, "DependencyGraphPlane");
    report.check(occurrences_.size() == arena_.context_count(),
                 "occurrence column length != context count");
  }

 private:
  ContextArena arena_;
  HistoryRing window_;  ///< item ids of each user's latest accesses
  /// Per context (an observed item): how often the item was accessed.
  std::vector<std::uint64_t> occurrences_;
};

// --- oracle: true conditionals from the generating graph --------------------

class OraclePlane final : public PredictorPlane {
 public:
  OraclePlane(std::size_t num_users, const SessionGraph& graph)
      : graph_(graph), current_page_(num_users, 0), has_page_(num_users, 0) {}

  void observe(UserId user, std::uint64_t item) override {
    SPECPF_EXPECTS(user < current_page_.size());
    current_page_[user] = item;
    has_page_[user] = 1;
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    if (!has_page_[user]) return;
    // Same arithmetic as SessionGraph::next_distribution, read straight off
    // the links without materializing the intermediate vector.
    const double stay = 1.0 - graph_.exit_probability();
    for (const auto& link : graph_.links(current_page_[user])) {
      out.push_back(Candidate{link.target, link.probability * stay});
    }
    select_top_candidates(out, max_candidates);
  }

 private:
  const SessionGraph& graph_;
  std::vector<std::uint64_t> current_page_;
  std::vector<std::uint8_t> has_page_;
};

}  // namespace

std::unique_ptr<PredictorPlane> make_predictor_plane(
    PredictorKind kind, const PredictorPlaneConfig& config) {
  SPECPF_EXPECTS(config.num_users >= 1);
  switch (kind) {
    case PredictorKind::kMarkov:
      return std::make_unique<MarkovPlane>(config.num_users);
    case PredictorKind::kPpm:
      return std::make_unique<PpmPlane>(config.num_users, config.ppm_order);
    case PredictorKind::kDependencyGraph:
      return std::make_unique<DependencyGraphPlane>(config.num_users,
                                                    config.depgraph_lookahead);
    case PredictorKind::kFrequency:
      return std::make_unique<FrequencyPlane>();
    case PredictorKind::kOracle:
      SPECPF_EXPECTS(config.graph != nullptr);
      return std::make_unique<OraclePlane>(config.num_users, *config.graph);
  }
  SPECPF_ASSERT(false && "unreachable");
  return nullptr;
}

}  // namespace specpf
