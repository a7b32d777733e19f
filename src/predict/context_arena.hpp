// ContextArena — the shared slab behind the SoA predictor plane.
//
// Every predictor model reduces to the same data shape: a set of *contexts*
// (the global stream, a last item, an order-k history hash, a
// dependency-graph node), each holding a count per observed *successor*.
// The legacy tables realised that shape as FlatHashMap<FlatHashMap<u64>>
// — one heap-allocated nested table per context, a pointer chase per probe
// and an allocation per new context. The arena flattens the whole fleet of
// tables into structure-of-arrays columns:
//
//     ctx_index_ : FlatIndexMap   context key  -> u32 context id
//     item_index_: FlatIndexMap   item value   -> u32 dense item id
//     context columns (SoA)       offset / distinct / class / total / aux
//     successor pool (SoA)        item id (u32) / quantized count (u16)
//     succ_index_: FlatIndexMap   (ctx id << 32 | item id) -> position of
//                                 the successor inside its context's block
//
// Each context's successors sit in one contiguous block of the pool,
// [offset_[c], offset_[c] + distinct_[c]), in insertion order:
//
//     pool  | c3: a b c . | c0: d | free:class 1 | c1: e f g h | ...
//             ^ offset_[3], distinct 3, capacity 4 (class 2)
//
// A block's capacity is 2^class, the smallest power of two >= distinct
// (a context without successors has no block). A new successor goes to
// position `distinct`; when the block is full, the whole block moves into
// one twice its size — popped from that size class's free list of
// outgrown blocks, or appended to the pool — and the outgrown block goes
// onto its own class's free list. A move keeps every position, so
// succ_index_ is never rewritten. Reading a context is one linear scan of
// a block rather than one dependent load per successor. Iteration order is
// insertion order; every consumer either ranks by a strict total order or
// sums per item, so the order never shows in a prediction.
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

#include <algorithm>
#include <array>
#include <bit>
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
    const CtxId id = static_cast<CtxId>(offset_.size());
    offset_.push_back(0);
    distinct_.push_back(0);
    class_.push_back(kNoBlock);
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
    if (const std::uint32_t* found = succ_index_.find(key)) {
      std::uint16_t& c = count_[offset_[ctx] + *found];
      if (c == kCounterMax) halve(ctx);
      count = ++c;
    } else {
      const std::uint32_t pos = distinct_[ctx];
      if (pos == capacity(ctx)) grow(ctx);
      item_[offset_[ctx] + pos] = item_id;
      count_[offset_[ctx] + pos] = 1;
      distinct_[ctx] = pos + 1;
      succ_index_[key] = pos;
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

  /// Visits every (item id, count) successor of `ctx` in insertion order —
  /// one linear scan of the context's block. Callers that rank candidates
  /// sort by a strict total order, so the order never shows.
  template <typename Fn>
  void for_each_successor_id(CtxId ctx, Fn&& fn) const {
    const std::uint32_t* items = item_.data() + offset_[ctx];
    const std::uint16_t* counts = count_.data() + offset_[ctx];
    for (std::uint32_t i = 0, n = distinct_[ctx]; i < n; ++i) {
      fn(items[i], counts[i]);
    }
  }

  /// for_each_successor_id with each id resolved to its item value.
  template <typename Fn>
  void for_each_successor(CtxId ctx, Fn&& fn) const {
    for_each_successor_id(ctx, [&](std::uint32_t id, std::uint16_t c) {
      fn(item_value_[id], c);
    });
  }

  /// The item value behind a dense item id.
  std::uint64_t item_value(std::uint32_t item_id) const {
    return item_value_[item_id];
  }

  std::size_t context_count() const { return offset_.size(); }
  std::size_t successor_count() const { return succ_index_.size(); }
  std::size_t item_count() const { return item_value_.size(); }
  /// Successor-pool slots, live blocks and free-listed ones together.
  std::size_t pool_size() const { return item_.size(); }
  /// Contexts halved so far — the quantization events where the plane's
  /// counts stop mirroring the legacy u64 tables.
  std::uint64_t halvings() const { return halvings_; }

  /// Deep-invariant walker (util/audit.hpp): column-length agreement
  /// across the SoA columns; every live block and every free-listed block
  /// inside the pool, no two of them overlapping, and live plus free
  /// capacity accounting for the whole pool; each context's capacity the
  /// smallest power of two holding its successors; per-context
  /// conservation (sum of counts == total, counts >= 1); successor-index
  /// round-trips ((ctx, item) <-> block position both ways); and
  /// interning round-trips for the context and item indices.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "ContextArena");
    const std::size_t ctxs = offset_.size();
    report.check(distinct_.size() == ctxs && class_.size() == ctxs &&
                     total_.size() == ctxs && aux_.size() == ctxs,
                 "context SoA columns disagree on length");
    const std::size_t pool = item_.size();
    report.check(count_.size() == pool, "pool SoA columns disagree on length");
    report.check(ctx_index_.size() == ctxs,
                 "context index size != context count");
    report.check(item_index_.size() == item_value_.size(),
                 "item index size != item count");

    // Pool ownership: 0 = unclaimed, 1 = a live block, 2 = a free block.
    // Every pool slot must be claimed by exactly one block.
    std::vector<std::uint8_t> owner(pool, 0);
    std::uint64_t live_capacity = 0;
    std::uint64_t free_capacity = 0;
    auto claim = [&](std::uint64_t offset, std::uint64_t cap,
                     std::uint8_t kind, const std::string& who) {
      if (!report.check(offset + cap <= pool,
                        who + ": block [" + std::to_string(offset) + ", " +
                            std::to_string(offset + cap) +
                            ") runs past the pool (" + std::to_string(pool) +
                            " slots)")) {
        return false;
      }
      for (std::uint64_t i = offset; i < offset + cap; ++i) {
        if (!report.check(owner[i] == 0,
                          who + ": block overlaps " +
                              (owner[i] == 1 ? "a live" : "a free") +
                              " block at pool slot " + std::to_string(i))) {
          return false;
        }
        owner[i] = kind;
      }
      (kind == 1 ? live_capacity : free_capacity) += cap;
      return true;
    };

    std::uint64_t successors = 0;
    for (CtxId ctx = 0; ctx < ctxs; ++ctx) {
      const std::string who = "ctx " + std::to_string(ctx);
      if (!report.check(class_[ctx] == kNoBlock || class_[ctx] < kClasses,
                        who + ": size class out of range")) {
        continue;
      }
      const std::uint32_t distinct = distinct_[ctx];
      const std::uint64_t cap = capacity(ctx);
      if (!report.check(distinct <= cap,
                        who + ": " + std::to_string(distinct) +
                            " successors exceed its block capacity " +
                            std::to_string(cap))) {
        continue;
      }
      report.check(cap == (distinct == 0 ? 0 : std::bit_ceil(distinct)),
                   who + ": block capacity " + std::to_string(cap) +
                       " is not the smallest power of two holding " +
                       std::to_string(distinct) + " successors");
      if (cap == 0 || !claim(offset_[ctx], cap, 1, who)) continue;
      std::uint64_t sum = 0;
      for (std::uint32_t pos = 0; pos < distinct; ++pos) {
        const std::string where =
            who + ": position " + std::to_string(pos) + " ";
        const std::uint32_t item_id = item_[offset_[ctx] + pos];
        const std::uint16_t c = count_[offset_[ctx] + pos];
        report.check(c >= 1, where + "has a zero count");
        report.check(item_id < item_value_.size(),
                     where + "names an uninterned item id");
        const std::uint32_t* found =
            succ_index_.find(succ_key(ctx, item_id));
        report.check(found != nullptr && *found == pos,
                     where + "failed the successor index round-trip");
        sum += c;
      }
      report.check(sum == total_[ctx],
                   who + ": successor counts sum to " + std::to_string(sum) +
                       " but total() says " + std::to_string(total_[ctx]));
      successors += distinct;
    }
    // Each context's successors round-trip through the index, so equal
    // sizes leave no index entry without a successor behind it.
    report.check(succ_index_.size() == successors,
                 "successor index holds " +
                     std::to_string(succ_index_.size()) +
                     " entries, contexts hold " + std::to_string(successors) +
                     " successors");

    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      for (const std::uint32_t offset : free_[cls]) {
        claim(offset, std::uint64_t{1} << cls, 2,
              "free block at " + std::to_string(offset) + " (class " +
                  std::to_string(cls) + ")");
      }
    }
    report.check(live_capacity + free_capacity == pool,
                 "pool conservation: live capacity " +
                     std::to_string(live_capacity) + " + free capacity " +
                     std::to_string(free_capacity) + " != pool size " +
                     std::to_string(pool) + " (leaked slots)");

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

  /// Size classes 0..31: capacities 1 .. 2^31, enough for any u32
  /// successor count. kNoBlock marks a context that has no block yet.
  static constexpr std::size_t kClasses = 32;
  static constexpr std::uint8_t kNoBlock = 0xFF;

  static std::uint64_t succ_key(CtxId ctx, std::uint32_t item_id) {
    return (static_cast<std::uint64_t>(ctx) << 32) | item_id;
  }

  std::uint32_t capacity(CtxId ctx) const {
    return class_[ctx] == kNoBlock ? 0 : std::uint32_t{1} << class_[ctx];
  }

  /// Moves a full context into a block twice its size (or gives an empty
  /// context its first, one-slot block), reusing an outgrown block of that
  /// class when one is free. Positions are kept, so the index stays valid.
  void grow(CtxId ctx) {
    const std::uint32_t old_capacity = capacity(ctx);
    const std::uint8_t cls = class_[ctx] == kNoBlock
                                 ? 0
                                 : static_cast<std::uint8_t>(class_[ctx] + 1);
    SPECPF_ASSERT(cls < kClasses);
    const std::uint32_t new_capacity = std::uint32_t{1} << cls;
    std::uint32_t fresh;
    if (!free_[cls].empty()) {
      fresh = free_[cls].back();
      free_[cls].pop_back();
    } else {
      SPECPF_ASSERT(item_.size() + new_capacity <= 0xFFFFFFFFull);
      fresh = static_cast<std::uint32_t>(item_.size());
      item_.resize(item_.size() + new_capacity);
      count_.resize(count_.size() + new_capacity);
    }
    if (old_capacity != 0) {
      const std::uint32_t old = offset_[ctx];
      std::copy_n(item_.begin() + old, old_capacity, item_.begin() + fresh);
      std::copy_n(count_.begin() + old, old_capacity, count_.begin() + fresh);
      free_[class_[ctx]].push_back(old);
    }
    offset_[ctx] = fresh;
    class_[ctx] = cls;
  }

  /// Ages every counter in `ctx`: c -> ceil(c/2), so counts stay >= 1 and
  /// relative frequencies are preserved to within rounding. The total is
  /// recomputed as the exact sum of the aged counts.
  void halve(CtxId ctx) {
    std::uint16_t* counts = count_.data() + offset_[ctx];
    std::uint64_t total = 0;
    for (std::uint32_t i = 0, n = distinct_[ctx]; i < n; ++i) {
      counts[i] = static_cast<std::uint16_t>((counts[i] + 1u) >> 1);
      total += counts[i];
    }
    total_[ctx] = total;
    ++halvings_;
  }

  FlatIndexMap ctx_index_;
  FlatIndexMap item_index_;
  FlatIndexMap succ_index_;
  std::vector<std::uint64_t> item_value_;

  // Context columns.
  std::vector<std::uint32_t> offset_;  ///< block start in the pool
  std::vector<std::uint32_t> distinct_;
  std::vector<std::uint8_t> class_;    ///< log2 capacity, or kNoBlock
  std::vector<std::uint64_t> total_;
  std::vector<std::uint64_t> aux_;

  // Successor pool: live blocks and free-listed outgrown blocks.
  std::vector<std::uint32_t> item_;
  std::vector<std::uint16_t> count_;
  /// free_[k]: offsets of outgrown blocks of capacity 2^k.
  std::array<std::vector<std::uint32_t>, kClasses> free_;

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
