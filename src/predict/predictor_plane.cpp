#include "predict/predictor_plane.hpp"

#include <algorithm>

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
  FrequencyPlane() : ctx_(arena_.intern(0)) {}

  void observe(UserId /*user*/, std::uint64_t item) override {
    const std::uint16_t count = arena_.add(ctx_, arena_.intern_item(item));
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
  /// same single-threaded mutable scratch as PpmPlane::blended_.
  mutable RankedPrefix ranks_;
};

// --- markov: one context per last item -------------------------------------

class MarkovPlane final : public PredictorPlane {
 public:
  MarkovPlane(std::size_t num_users, double laplace)
      : laplace_(laplace), last_(num_users, 0), has_last_(num_users, 0) {
    // The bound keeps count order equal to probability order (see
    // kMaxMarkovLaplace); predict_into depends on it.
    SPECPF_EXPECTS(laplace >= 0.0 && laplace <= kMaxMarkovLaplace);
  }

  void observe(UserId user, std::uint64_t item) override {
    SPECPF_EXPECTS(user < last_.size());
    if (has_last_[user]) {
      const ContextArena::CtxId ctx = arena_.intern(last_[user]);
      const std::uint16_t count = arena_.add(ctx, arena_.intern_item(item));
      ranks_.on_add(arena_, ctx, item, count);
    }
    last_[user] = item;
    has_last_[user] = 1;
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    if (!has_last_[user]) return;
    const ContextArena::CtxId ctx = arena_.find(last_[user]);
    if (ctx == ContextArena::kNoCtx || arena_.total(ctx) == 0) return;
    const double denom =
        static_cast<double>(arena_.total(ctx)) +
        laplace_ * static_cast<double>(arena_.distinct(ctx));
    for (const RankedPrefix::Entry& e :
         ranks_.top(arena_, ctx, max_candidates)) {
      out.push_back(Candidate{
          e.item, (static_cast<double>(e.count) + laplace_) / denom});
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
  double laplace_;
  ContextArena arena_;
  mutable RankedPrefix ranks_;  ///< see FrequencyPlane::ranks_
  std::vector<std::uint64_t> last_;
  std::vector<std::uint8_t> has_last_;
};

// --- ppm: order-k context trie over hashed histories ------------------------

class PpmPlane final : public PredictorPlane {
 public:
  PpmPlane(std::size_t num_users, std::size_t max_order)
      : max_order_(max_order), history_(num_users, max_order) {
    SPECPF_EXPECTS(max_order >= 1);
  }

  void observe(UserId user, std::uint64_t item) override {
    const std::uint32_t item_id = arena_.intern_item(item);
    const std::size_t len = history_.size(user);
    for (std::size_t order = 1; order <= std::min(max_order_, len); ++order) {
      arena_.add(arena_.intern(context_hash(user, order)), item_id);
    }
    history_.push(user, item);
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    const std::size_t len = history_.size(user);
    if (len == 0) return;

    // PPM-C blending, replicated term-for-term from the legacy table: the
    // longest matching context's predictions carry weight (1 - escape), the
    // escape mass flows to the next shorter context, and so on. Per item
    // the contributions accumulate in descending-order sequence, so the
    // sums are bit-identical regardless of successor iteration order.
    blended_.clear();
    double carry = 1.0;
    for (std::size_t order = std::min(max_order_, len); order >= 1; --order) {
      const ContextArena::CtxId ctx = arena_.find(context_hash(user, order));
      if (ctx == ContextArena::kNoCtx || arena_.total(ctx) == 0) continue;
      const double distinct = static_cast<double>(arena_.distinct(ctx));
      const double total = static_cast<double>(arena_.total(ctx));
      const double escape = distinct / (total + distinct);
      arena_.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
        blended_[item] +=
            carry * (1.0 - escape) * static_cast<double>(c) / total;
      });
      carry *= escape;
      if (carry < 1e-6) break;
    }
    if (blended_.empty()) return;

    out.reserve(blended_.size());
    for (const auto& [item, prob] : blended_) {
      out.push_back(Candidate{item, prob});
    }
    select_top_candidates(out, max_candidates);
  }

  std::uint64_t counter_halvings() const override { return arena_.halvings(); }
  std::uint64_t context_count() const override {
    return arena_.context_count();
  }

  void audit(AuditReport& report) const override { arena_.audit(report); }

 private:
  /// Hash of the user's most recent `length` items — the same FNV-1a mix
  /// (seeded by the length) as PpmPredictor::hash_context, so context
  /// interning groups observations exactly as the legacy table does,
  /// including any 64-bit hash collisions.
  std::uint64_t context_hash(UserId user, std::size_t length) const {
    std::uint64_t h =
        14695981039346656037ULL ^ (length * 0x9E3779B97F4A7C15ULL);
    const std::size_t len = history_.size(user);
    for (std::size_t i = len - length; i < len; ++i) {
      h ^= history_.at(user, i);
      h *= 1099511628211ULL;
      h ^= h >> 29;
    }
    return h;
  }

  std::size_t max_order_;
  ContextArena arena_;
  HistoryRing history_;
  /// Scratch for blending; cleared per call, capacity persists (no steady-
  /// state allocation). The plane is single-threaded like the runtime that
  /// owns it — the sharded driver builds one plane per shard.
  mutable FlatHashMap<double> blended_;
};

// --- dependency graph: lookahead-window follower credits --------------------

class DependencyGraphPlane final : public PredictorPlane {
 public:
  DependencyGraphPlane(std::size_t num_users, std::size_t lookahead)
      : window_(num_users, lookahead) {
    SPECPF_EXPECTS(lookahead >= 1);
  }

  void observe(UserId user, std::uint64_t item) override {
    const std::size_t len = window_.size(user);
    // Credit `item` as a follower of each access still inside the window —
    // at most once per occurrence, deduplicating by prefix scan exactly
    // like the legacy table (the window holds a handful of entries).
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t predecessor = window_.at(user, i);
      if (predecessor == item) continue;
      bool duplicate = false;
      for (std::size_t j = 0; j < i; ++j) {
        if (window_.at(user, j) == predecessor) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      arena_.add(arena_.intern(predecessor), arena_.intern_item(item));
    }
    arena_.bump_aux(arena_.intern(item));
    window_.push(user, item);
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    if (window_.size(user) == 0) return;
    const ContextArena::CtxId ctx = arena_.find(window_.newest(user));
    if (ctx == ContextArena::kNoCtx || arena_.aux(ctx) == 0) return;
    const double occurrences = static_cast<double>(arena_.aux(ctx));
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

  void audit(AuditReport& report) const override { arena_.audit(report); }

 private:
  ContextArena arena_;
  HistoryRing window_;
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
      return std::make_unique<MarkovPlane>(config.num_users,
                                           config.markov_laplace);
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
