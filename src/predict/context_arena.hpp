// ContextArena — the shared slab behind the SoA predictor plane.
//
// Every predictor model reduces to the same data shape: a set of *contexts*
// (the global stream, a last item, an order-k history hash, a
// dependency-graph node), each holding a count per observed *successor*.
// The legacy tables realised that shape as FlatHashMap<FlatHashMap<u64>>
// — one heap-allocated nested table per context, a pointer chase per probe
// and an allocation per new context. The arena flattens the whole fleet of
// tables into four structure-of-arrays slabs:
//
//     ctx_index_ : FlatIndexMap   context key  -> u32 context id
//     item_index_: FlatIndexMap   item value   -> u32 dense item id
//     context slab (SoA)          head / distinct / total / aux  per context
//     successor slab (SoA)        item id / quantized count / next  (u32 links)
//     succ_index_: FlatIndexMap   (ctx id << 32 | item id) -> successor slot
//
// Successor counts are quantized saturating u16 counters: when a counter
// is about to overflow, every counter in that context is halved in place
// (rounding up, so no successor is ever forgotten) and the context total is
// recomputed — the classic aging scheme of adaptive-coding frequency
// tables. Below the saturation point the counts are exactly the legacy
// u64 counts, which is what lets the plane pin bit-identical predictions
// against the legacy tables (tests/predict_plane_test.cpp); past it the
// plane degrades to a bounded-memory approximation instead of growing
// 8-byte counters forever.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/audit.hpp"
#include "util/contract.hpp"
#include "util/flat_hash.hpp"

namespace specpf {

class ContextArena {
 public:
  using CtxId = std::uint32_t;
  static constexpr CtxId kNoCtx = 0xFFFFFFFFu;
  static constexpr std::uint16_t kCounterMax = 0xFFFFu;

  /// Context id for `key`, creating an empty context on first sight.
  CtxId intern(std::uint64_t key) {
    if (const std::uint32_t* id = ctx_index_.find(key)) return *id;
    const CtxId id = static_cast<CtxId>(head_.size());
    head_.push_back(kNoSucc);
    distinct_.push_back(0);
    total_.push_back(0);
    aux_.push_back(0);
    ctx_index_[key] = id;
    return id;
  }

  /// Context id for `key`, or kNoCtx when the context was never observed.
  CtxId find(std::uint64_t key) const {
    const std::uint32_t* id = ctx_index_.find(key);
    return id ? *id : kNoCtx;
  }

  /// Dense id for `item`, interning on first sight. Shared across every
  /// context, so PPM's k orders pay one intern per observe, not k.
  std::uint32_t intern_item(std::uint64_t item) {
    if (const std::uint32_t* id = item_index_.find(item)) return *id;
    const std::uint32_t id = static_cast<std::uint32_t>(item_value_.size());
    item_value_.push_back(item);
    item_index_[item] = id;
    return id;
  }

  /// Records one context -> item observation: bumps the successor's
  /// quantized counter (halving the context first when it would saturate)
  /// and the context total. Returns the successor's new count.
  std::uint16_t add(CtxId ctx, std::uint32_t item_id) {
    const std::uint64_t key = succ_key(ctx, item_id);
    std::uint16_t count = 1;
    if (const std::uint32_t* slot = succ_index_.find(key)) {
      if (succ_count_[*slot] == kCounterMax) halve(ctx);
      count = ++succ_count_[*slot];
    } else {
      const std::uint32_t fresh = static_cast<std::uint32_t>(succ_item_.size());
      succ_item_.push_back(item_id);
      succ_count_.push_back(1);
      succ_next_.push_back(head_[ctx]);
      head_[ctx] = fresh;
      ++distinct_[ctx];
      succ_index_[key] = fresh;
    }
    ++total_[ctx];
    return count;
  }

  /// Auxiliary per-context counter (the dependency graph's occurrence
  /// count); not part of the successor-total bookkeeping.
  void bump_aux(CtxId ctx) { ++aux_[ctx]; }

  std::uint64_t total(CtxId ctx) const { return total_[ctx]; }
  std::uint64_t aux(CtxId ctx) const { return aux_[ctx]; }
  std::uint32_t distinct(CtxId ctx) const { return distinct_[ctx]; }

  /// Visits every (item value, count) successor of `ctx`. Order is reverse
  /// insertion order — callers that rank candidates sort, so it never
  /// shows.
  template <typename Fn>
  void for_each_successor(CtxId ctx, Fn&& fn) const {
    for (std::uint32_t s = head_[ctx]; s != kNoSucc; s = succ_next_[s]) {
      fn(item_value_[succ_item_[s]], succ_count_[s]);
    }
  }

  std::size_t context_count() const { return head_.size(); }
  std::size_t successor_count() const { return succ_item_.size(); }
  std::size_t item_count() const { return item_value_.size(); }
  /// Contexts halved so far — the quantization events where the plane's
  /// counts stop mirroring the legacy u64 tables.
  std::uint64_t halvings() const { return halvings_; }

  /// Deep-invariant walker (util/audit.hpp): slab-length agreement across
  /// the SoA columns, successor chains acyclic with every slot owned by
  /// exactly one context, per-context conservation (chain length ==
  /// distinct, sum of counts == total, counts >= 1), successor-index
  /// round-trips ((ctx, item) <-> slot both ways), and interning
  /// round-trips for the context and item indices.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "ContextArena");
    const std::size_t ctxs = head_.size();
    report.check(distinct_.size() == ctxs && total_.size() == ctxs &&
                     aux_.size() == ctxs,
                 "context SoA columns disagree on length");
    const std::size_t succs = succ_item_.size();
    report.check(succ_count_.size() == succs && succ_next_.size() == succs,
                 "successor SoA columns disagree on length");
    report.check(ctx_index_.size() == ctxs,
                 "context index size != context count");
    report.check(succ_index_.size() == succs,
                 "successor index size != successor count");
    report.check(item_index_.size() == item_value_.size(),
                 "item index size != item count");

    // Successor chains: each slot owned by exactly one context, counts
    // conserve the context totals, and the (ctx, item) index agrees.
    std::vector<std::uint8_t> owned(succs, 0);
    std::uint64_t chained = 0;
    for (CtxId ctx = 0; ctx < ctxs; ++ctx) {
      const std::string who = "ctx " + std::to_string(ctx);
      std::uint64_t sum = 0;
      std::uint32_t walked = 0;
      for (std::uint32_t s = head_[ctx]; s != kNoSucc; s = succ_next_[s]) {
        if (!report.check(s < succs, who + ": successor chain points past "
                                           "the slab")) {
          break;
        }
        if (!report.check(owned[s] == 0,
                          who + ": successor slot " + std::to_string(s) +
                              " owned twice (cycle or cross-context "
                              "share)")) {
          break;
        }
        owned[s] = 1;
        report.check(succ_count_[s] >= 1,
                     who + ": successor slot " + std::to_string(s) +
                         " has a zero count");
        report.check(succ_item_[s] < item_value_.size(),
                     who + ": successor slot " + std::to_string(s) +
                         " names an uninterned item id");
        const std::uint32_t* slot =
            succ_index_.find(succ_key(ctx, succ_item_[s]));
        report.check(slot != nullptr && *slot == s,
                     who + ": successor index round-trip failed for slot " +
                         std::to_string(s));
        sum += succ_count_[s];
        ++walked;
      }
      report.check(walked == distinct_[ctx],
                   who + ": chain walk found " + std::to_string(walked) +
                       " successors, distinct() says " +
                       std::to_string(distinct_[ctx]));
      report.check(sum == total_[ctx],
                   who + ": successor counts sum to " + std::to_string(sum) +
                       " but total() says " + std::to_string(total_[ctx]));
      chained += walked;
    }
    report.check(chained == succs,
                 "successor slab conservation: " + std::to_string(chained) +
                     " slots chained, " + std::to_string(succs) +
                     " allocated (orphaned slots)");

    // Interning round-trips: every index entry points at a slab slot that
    // agrees with it, and (for items) the slab points back into the index.
    ctx_index_.for_each([&](std::uint64_t /*key*/, std::uint32_t id) {
      report.check(id < ctxs, "context index maps to an unallocated id " +
                                  std::to_string(id));
    });
    item_index_.for_each([&](std::uint64_t item, std::uint32_t id) {
      if (report.check(id < item_value_.size(),
                       "item index maps to an unallocated id " +
                           std::to_string(id))) {
        report.check(item_value_[id] == item,
                     "item interning round-trip failed for id " +
                         std::to_string(id));
      }
    });
    ctx_index_.audit(report);
    item_index_.audit(report);
    succ_index_.audit(report);
  }

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  static constexpr std::uint32_t kNoSucc = 0xFFFFFFFFu;

  static std::uint64_t succ_key(CtxId ctx, std::uint32_t item_id) {
    return (static_cast<std::uint64_t>(ctx) << 32) | item_id;
  }

  /// Ages every counter in `ctx`: c -> ceil(c/2), so counts stay >= 1 and
  /// relative frequencies are preserved to within rounding. The total is
  /// recomputed as the exact sum of the aged counts.
  void halve(CtxId ctx) {
    std::uint64_t total = 0;
    for (std::uint32_t s = head_[ctx]; s != kNoSucc; s = succ_next_[s]) {
      succ_count_[s] = static_cast<std::uint16_t>((succ_count_[s] + 1u) >> 1);
      total += succ_count_[s];
    }
    total_[ctx] = total;
    ++halvings_;
  }

  FlatIndexMap ctx_index_;
  FlatIndexMap item_index_;
  FlatIndexMap succ_index_;
  std::vector<std::uint64_t> item_value_;

  // Context slab.
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> distinct_;
  std::vector<std::uint64_t> total_;
  std::vector<std::uint64_t> aux_;

  // Successor slab (u32 links; kNoSucc terminates each chain).
  std::vector<std::uint32_t> succ_item_;
  std::vector<std::uint16_t> succ_count_;
  std::vector<std::uint32_t> succ_next_;

  std::uint64_t halvings_ = 0;
};

/// Fixed-window per-user history, stored as rings in one user-indexed slab
/// (replacing FlatHashMap<std::deque<u64>>): user u's window occupies slots
/// [u*window, (u+1)*window), with a one-byte head/length pair per user.
class HistoryRing {
 public:
  HistoryRing(std::size_t num_users, std::size_t window)
      : window_(window),
        items_(num_users * window),
        head_(num_users, 0),
        len_(num_users, 0) {
    SPECPF_EXPECTS(window >= 1 && window <= 255);
  }

  void push(std::uint32_t user, std::uint64_t item) {
    const std::size_t base = static_cast<std::size_t>(user) * window_;
    if (len_[user] < window_) {
      items_[base + (head_[user] + len_[user]) % window_] = item;
      ++len_[user];
    } else {
      items_[base + head_[user]] = item;
      head_[user] = static_cast<std::uint8_t>((head_[user] + 1) % window_);
    }
  }

  std::size_t size(std::uint32_t user) const { return len_[user]; }

  /// i-th item of the user's window, oldest (i = 0) to newest.
  std::uint64_t at(std::uint32_t user, std::size_t i) const {
    return items_[static_cast<std::size_t>(user) * window_ +
                  (head_[user] + i) % window_];
  }

  std::uint64_t newest(std::uint32_t user) const {
    return at(user, len_[user] - 1);
  }

 private:
  std::size_t window_;
  std::vector<std::uint64_t> items_;
  std::vector<std::uint8_t> head_;  ///< ring index of the oldest entry
  std::vector<std::uint8_t> len_;
};

}  // namespace specpf
