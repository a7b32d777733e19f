// RankedPrefix — each context's best successors, kept ranked as counts move.
//
// Markov and frequency predictions are the k best successors of one
// ContextArena context under the plane's candidate order: probability
// descending, then item ascending. Their probabilities, (c + α) / denom and
// c / total, are strictly increasing in the u16 count c (MarkovPlane bounds
// α so that this holds in floating point too), so that order is exactly
// count descending, then item ascending. RankedPrefix keeps the first
// min(stride, distinct) successors of every context in that order, so a
// prediction reads its answer off the prefix in O(k) instead of walking
// the context's whole successor chain.
//
// ContextArena::add bumps one count by one, and the prefix follows it in
// O(stride):
//   - a bumped item already in the prefix can only move up: it bubbles;
//   - an item outside the prefix enters only when it now ranks ahead of the
//     last entry, which it replaces — nothing else moved, so the displaced
//     entry is exactly the new (stride + 1)-th;
//   - while a context has fewer than `stride` successors all of them are
//     in the prefix, so an item not found there is new and is appended.
// A context's prefix is rebuilt from its chain in two cases only: after
// add halved it (ceil(c/2) can tie counts that differed, and the item
// tie-break may then pull an outside successor in), and — for every
// context — when a caller needs more entries than the stride holds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "predict/context_arena.hpp"
#include "util/audit.hpp"

namespace specpf {

class RankedPrefix {
 public:
  struct Entry {
    std::uint64_t item = 0;
    std::uint16_t count = 0;
  };

  /// Follows one `arena.add(ctx, item)` that returned `count`. Every add to
  /// the arena must be reported here, in order.
  void on_add(const ContextArena& arena, ContextArena::CtxId ctx,
              std::uint64_t item, std::uint16_t count) {
    const bool halved = arena.halvings() != halvings_seen_;
    halvings_seen_ = arena.halvings();
    if (stride_ == 0) return;
    cover(arena);
    if (halved) {
      // Only an add halves, so the context just added to is the one aged.
      rebuild(arena, ctx);
      return;
    }
    Entry* row = row_of(ctx);
    std::uint32_t& len = len_[ctx];
    std::uint32_t pos = 0;
    while (pos < len && row[pos].item != item) ++pos;
    if (pos < len) {
      row[pos].count = count;
      bubble_up(row, pos);
    } else {
      offer(row, len, Entry{item, count});
    }
  }

  /// The first min(k, distinct) successors of `ctx`, best first. When that
  /// is more than the stride holds, the stride grows to it and every
  /// context is rebuilt; capping at the context's successor count keeps a
  /// huge k from sizing the slab past what the data can fill.
  std::span<const Entry> top(const ContextArena& arena,
                             ContextArena::CtxId ctx, std::size_t k) {
    const std::size_t want = std::min<std::size_t>(k, arena.distinct(ctx));
    if (want == 0) return {};
    if (want > stride_) {
      stride_ = want;
      rebuild_all(arena);
    }
    return {row_of(ctx), want};
  }

  std::size_t stride() const { return stride_; }

  /// Deep-invariant walker (util/audit.hpp): every context's prefix holds
  /// exactly min(stride, distinct) entries and equals the top of its
  /// successor chain, re-ranked here by a full sort.
  void audit(const ContextArena& arena, AuditReport& report) const {
    const AuditScope scope(report, "RankedPrefix");
    report.check(halvings_seen_ == arena.halvings(),
                 "prefix missed a halving of the arena");
    if (stride_ == 0) {
      report.check(len_.empty() && entries_.empty(),
                   "prefix slab allocated before any stride was set");
      return;
    }
    report.check(len_.size() == arena.context_count(),
                 "prefix covers " + std::to_string(len_.size()) +
                     " contexts, arena has " +
                     std::to_string(arena.context_count()));
    report.check(entries_.size() == len_.size() * stride_,
                 "prefix slab length != contexts * stride");
    std::vector<Entry> ranked;
    for (ContextArena::CtxId ctx = 0; ctx < len_.size(); ++ctx) {
      const std::string who = "ctx " + std::to_string(ctx);
      ranked.clear();
      arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
        ranked.push_back(Entry{item, c});
      });
      std::sort(ranked.begin(), ranked.end(), ahead);
      const std::size_t want = std::min(stride_, ranked.size());
      if (!report.check(len_[ctx] == want,
                        who + ": prefix holds " + std::to_string(len_[ctx]) +
                            " entries, expected " + std::to_string(want))) {
        continue;
      }
      const Entry* row = row_of(ctx);
      for (std::size_t i = 0; i < want; ++i) {
        report.check(row[i].item == ranked[i].item &&
                         row[i].count == ranked[i].count,
                     who + ": prefix rank " + std::to_string(i) + " holds (" +
                         std::to_string(row[i].item) + ", " +
                         std::to_string(row[i].count) + "), chain says (" +
                         std::to_string(ranked[i].item) + ", " +
                         std::to_string(ranked[i].count) + ")");
      }
    }
  }

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  /// Rank order: count descending, then item ascending.
  static bool ahead(const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.item < b.item;
  }

  static void bubble_up(Entry* row, std::uint32_t pos) {
    for (; pos > 0 && ahead(row[pos], row[pos - 1]); --pos) {
      std::swap(row[pos], row[pos - 1]);
    }
  }

  /// Inserts `e`, which is not in the row, if it belongs in the top stride.
  void offer(Entry* row, std::uint32_t& len, const Entry& e) {
    if (len < stride_) {
      ++len;
    } else if (!ahead(e, row[len - 1])) {
      return;
    }
    row[len - 1] = e;
    bubble_up(row, len - 1);
  }

  Entry* row_of(ContextArena::CtxId ctx) { return &entries_[ctx * stride_]; }
  const Entry* row_of(ContextArena::CtxId ctx) const {
    return &entries_[ctx * stride_];
  }

  /// Extends the slab to every interned context; contexts first seen here
  /// have had no add yet, so their empty prefix is already exact.
  void cover(const ContextArena& arena) {
    const std::size_t ctxs = arena.context_count();
    if (len_.size() == ctxs) return;
    len_.resize(ctxs, 0);
    entries_.resize(ctxs * stride_);
  }

  void rebuild(const ContextArena& arena, ContextArena::CtxId ctx) {
    Entry* row = row_of(ctx);
    std::uint32_t& len = len_[ctx];
    len = 0;
    arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      offer(row, len, Entry{item, c});
    });
  }

  void rebuild_all(const ContextArena& arena) {
    const std::size_t ctxs = arena.context_count();
    len_.assign(ctxs, 0);
    entries_.assign(ctxs * stride_, Entry{});
    for (ContextArena::CtxId ctx = 0; ctx < ctxs; ++ctx) rebuild(arena, ctx);
  }

  std::size_t stride_ = 0;
  std::vector<Entry> entries_;      ///< context c's row: [c*stride, +stride)
  std::vector<std::uint32_t> len_;  ///< filled entries per context
  std::uint64_t halvings_seen_ = 0;
};

}  // namespace specpf
