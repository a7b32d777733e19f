// ContextArena — the shared slab behind the SoA predictor plane.
//
// Every predictor model reduces to the same data shape: a set of *contexts*
// (the global stream, a last item, an order-k history, a
// dependency-graph node), each holding a count per observed *successor*.
// The legacy tables realised that shape as FlatHashMap<FlatHashMap<u64>>
// — one heap-allocated nested table per context, a pointer chase per probe
// and an allocation per new context. The arena flattens the whole fleet of
// tables into structure-of-arrays columns:
//
//     item_index_: FlatHashMap<u32>  item value   -> u32 dense item id
//     item_ctx_  : per item id    the item's context id, or kNoCtx
//     context columns (SoA)       offset / distinct / total
//     successor pool (SoA)        item id (u32) / quantized count (u16)
//                                 / child context id (u32, PPM's arena only)
//     succ_index_: FlatHashMap<u32>  (ctx id << 32 | item id) -> position of
//                                 the successor inside its context's block,
//                                 for blocks above kScanCapacity only
//
// A context is named by structure, never by a hashed key, and each context
// by exactly one name:
//   - an item context (Markov's last item, a dependency-graph node, PPM's
//     order-1 context) sits in item_ctx_ at the item's id;
//   - a child context (PPM's order k + 1) sits in the child column beside
//     one successor slot of its order-k parent: the context of history
//     (x1 .. xk, y) is the child of context (x1 .. xk) at y's slot;
//   - the root context (frequency's global stream) is made once.
// So PPM's contexts form a trie rooted at item contexts, and a PPM user
// walks it through ContextPath refs instead of hashing its history.
//
// Each context's successors sit in one contiguous block of the pool,
// [offset_[c], offset_[c] + distinct_[c]), in insertion order:
//
//     pool  | c3: a b c . | c0: d | free:class 1 | c1: e f g h | ...
//             ^ offset_[3], distinct 3, capacity 4 (class 2)
//
// A block's capacity is 2^class, the smallest power of two >= distinct
// (a context without successors has no block), so both are derived from
// `distinct` and not stored. A new successor goes to position `distinct`;
// when the block is full, the whole block moves into one twice its size —
// popped from that size class's free list of outgrown blocks, or appended
// to the pool — and the outgrown block goes onto its own class's free
// list. A move keeps every position, so neither succ_index_ nor a
// (parent, slot) ref is ever rewritten. Reading a context is one linear
// scan of a block rather than one dependent load per successor. Iteration
// order is insertion order; every consumer either ranks by a strict total
// order or sums per item, so the order never shows in a prediction.
//
// Most contexts are small (a PPM trie's deep contexts hold about two
// successors each), so add() finds an item in a block of at most
// kScanCapacity successors by scanning its item ids — one cache line —
// and only larger blocks (Markov's cross-session item contexts,
// frequency's root) keep (ctx, item) -> position entries in succ_index_.
// The block that grows past kScanCapacity indexes all its successors
// once; from then on each add is one probe. The index thus holds only the
// successors of large blocks instead of one entry per successor fleet-wide.
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
#include <numeric>
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
  /// Never a valid item id: the "no item yet" sentinel for per-user state.
  static constexpr std::uint32_t kNoItem = 0xFFFFFFFFu;
  static constexpr std::uint16_t kCounterMax = 0xFFFFu;
  /// Blocks of up to this many successors find an item by a linear scan
  /// (16 u32 item ids fill one 64-byte line); only larger blocks keep
  /// their successors in the fleet-wide index. A power of two, so the
  /// scan/index boundary is a block-size boundary.
  static constexpr std::uint32_t kScanCapacity = 16;
  static_assert(std::has_single_bit(kScanCapacity));

  /// Where add() counted a successor: its position in the context's block,
  /// which it keeps for good, and its new count.
  struct Added {
    std::uint32_t slot;
    std::uint16_t count;
  };

  /// `child_column`: keep a child context id beside every successor slot,
  /// for child_context. Only PPM's trie names contexts that way, and the
  /// column costs 4 bytes per pool slot, so the other models go without.
  explicit ContextArena(bool child_column = false)
      : children_(child_column) {}

  /// The arena's one root context (frequency's global stream), created on
  /// the first call.
  CtxId root_context() {
    if (root_ == kNoCtx) root_ = new_context();
    return root_;
  }

  /// Dense id for `item`, interning on first sight. Shared across every
  /// context, so PPM's k orders pay one intern per observe, not k.
  std::uint32_t intern_item(std::uint64_t item) {
    if (const std::uint32_t* id = item_index_.find(item)) return *id;
    const std::uint32_t id = static_cast<std::uint32_t>(item_value_.size());
    SPECPF_ASSERT(id != kNoItem);
    item_value_.push_back(item);
    item_ctx_.push_back(kNoCtx);
    item_index_[item] = id;
    return id;
  }

  /// The context named by `item_id`, created empty on first need.
  CtxId item_context(std::uint32_t item_id) {
    CtxId& ctx = item_ctx_[item_id];
    if (ctx == kNoCtx) ctx = new_context();
    return ctx;
  }

  /// The context named by `item_id`, or kNoCtx when none was needed yet.
  CtxId find_item_context(std::uint32_t item_id) const {
    return item_ctx_[item_id];
  }

  /// The child of `parent` at successor position `slot` (< distinct),
  /// created empty on first need. Needs the child column.
  CtxId child_context(CtxId parent, std::uint32_t slot) {
    SPECPF_DCHECK(children_ && slot < distinct_[parent]);
    CtxId& child = child_[offset_[parent] + slot];
    if (child == kNoCtx) child = new_context();
    return child;
  }

  /// The child of `parent` at `slot`, or kNoCtx when none was needed yet.
  CtxId find_child(CtxId parent, std::uint32_t slot) const {
    SPECPF_DCHECK(children_ && slot < distinct_[parent]);
    return child_[offset_[parent] + slot];
  }

  /// Records one context -> item observation: bumps the successor's
  /// quantized counter (halving the context first when it would saturate)
  /// and the context total. Returns the successor's slot and new count.
  Added add(CtxId ctx, std::uint32_t item_id) {
    const std::uint32_t distinct = distinct_[ctx];
    std::uint32_t slot;
    if (distinct <= kScanCapacity) {
      // A small block is at most one cache line of item ids: scan it.
      const std::uint32_t* items = item_.data() + offset_[ctx];
      slot = static_cast<std::uint32_t>(
          std::find(items, items + distinct, item_id) - items);
    } else {
      // One probe finds the successor or makes its index entry.
      const std::size_t indexed = succ_index_.size();
      std::uint32_t& entry = succ_index_[succ_key(ctx, item_id)];
      if (succ_index_.size() != indexed) entry = distinct;
      slot = entry;
    }
    Added added{slot, 1};
    if (slot < distinct) {
      std::uint16_t& c = count_[offset_[ctx] + slot];
      if (c == kCounterMax) halve(ctx);
      added.count = ++c;
    } else {
      if (distinct == capacity(ctx)) grow(ctx);
      const std::uint32_t at = offset_[ctx] + slot;
      item_[at] = item_id;
      count_[at] = 1;
      if (children_) child_[at] = kNoCtx;
      distinct_[ctx] = distinct + 1;
      // The block just outgrew the scan: index all its successors, once.
      if (distinct == kScanCapacity) {
        for (std::uint32_t pos = 0; pos <= distinct; ++pos) {
          succ_index_[succ_key(ctx, item_[offset_[ctx] + pos])] = pos;
        }
      }
    }
    ++total_[ctx];
    return added;
  }

  std::uint64_t total(CtxId ctx) const { return total_[ctx]; }
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

  /// The item id of `ctx`'s successor at position `slot` (< distinct).
  std::uint32_t successor_id(CtxId ctx, std::uint32_t slot) const {
    return item_[offset_[ctx] + slot];
  }

  std::size_t context_count() const { return offset_.size(); }
  std::size_t successor_count() const {
    return std::accumulate(distinct_.begin(), distinct_.end(), std::size_t{0});
  }
  std::size_t item_count() const { return item_value_.size(); }
  /// Successor-pool slots, live blocks and free-listed ones together.
  std::size_t pool_size() const { return item_.size(); }
  /// Contexts halved so far — the quantization events where the plane's
  /// counts stop mirroring the legacy u64 tables.
  std::uint64_t halvings() const { return halvings_; }

  /// Deep-invariant walker (util/audit.hpp): column-length agreement
  /// across the SoA columns; every live block and every free-listed block
  /// inside the pool, no two of them overlapping, and live plus free
  /// capacity accounting for the whole pool; per-context conservation
  /// (sum of counts == total, counts >= 1); successor-index round-trips
  /// ((ctx, item) <-> block position both ways) for every block above
  /// kScanCapacity, no index entry for a scanned block, and no index entry
  /// without a successor behind it; naming (every
  /// context named exactly once — by an item, by one child slot, or as the
  /// root — and every child created after its parent); and item interning
  /// round-trips.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "ContextArena");
    const std::size_t ctxs = offset_.size();
    report.check(distinct_.size() == ctxs && total_.size() == ctxs,
                 "context SoA columns disagree on length");
    const std::size_t pool = item_.size();
    report.check(count_.size() == pool &&
                     child_.size() == (children_ ? pool : 0),
                 "pool SoA columns disagree on length");
    report.check(item_index_.size() == item_value_.size() &&
                     item_ctx_.size() == item_value_.size(),
                 "item index or item-context column size != item count");

    // Naming: names[c] counts the names of context c, saturating at 2.
    std::vector<std::uint8_t> names(ctxs, 0);
    auto name = [&](CtxId ctx, const char* by) {
      if (ctx < ctxs) {
        names[ctx] = static_cast<std::uint8_t>(std::min(names[ctx] + 1, 2));
      } else {
        report.fail(std::string(by) + " names an unallocated context " +
                    std::to_string(ctx));
      }
    };
    if (root_ != kNoCtx) name(root_, "the root");
    for (const CtxId ctx : item_ctx_) {
      if (ctx != kNoCtx) name(ctx, "an item");
    }

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

    std::uint64_t indexed_successors = 0;
    for (CtxId ctx = 0; ctx < ctxs; ++ctx) {
      const std::string who = "ctx " + std::to_string(ctx);
      const std::uint32_t distinct = distinct_[ctx];
      const std::uint64_t cap = capacity(ctx);
      if (cap == 0 || !claim(offset_[ctx], cap, 1, who)) continue;
      const bool indexed = distinct > kScanCapacity;
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
        if (indexed) {
          report.check(found != nullptr && *found == pos,
                       where + "failed the successor index round-trip");
        } else {
          report.check(found == nullptr,
                       where + "has an index entry in a scanned block");
        }
        const CtxId child =
            children_ && offset_[ctx] + pos < child_.size()
                ? child_[offset_[ctx] + pos]
                : kNoCtx;
        if (child != kNoCtx) {
          name(child, "a child slot");
          if (child <= ctx) {
            report.fail(where + "names child ctx " + std::to_string(child) +
                        ", created before its parent");
          }
        }
        sum += c;
      }
      report.check(sum == total_[ctx],
                   who + ": successor counts sum to " + std::to_string(sum) +
                       " but total() says " + std::to_string(total_[ctx]));
      if (indexed) indexed_successors += distinct;
    }
    // Each indexed block's successors round-trip through the index, so
    // equal sizes leave no index entry without a successor behind it.
    report.check(succ_index_.size() == indexed_successors,
                 "successor index holds " +
                     std::to_string(succ_index_.size()) +
                     " entries, indexed blocks hold " +
                     std::to_string(indexed_successors) + " successors");

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

    std::size_t unnamed = 0;
    std::size_t renamed = 0;
    CtxId first_unnamed = 0;
    CtxId first_renamed = 0;
    for (CtxId ctx = 0; ctx < ctxs; ++ctx) {
      if (names[ctx] == 0 && unnamed++ == 0) first_unnamed = ctx;
      if (names[ctx] == 2 && renamed++ == 0) first_renamed = ctx;
    }
    report.check(unnamed == 0,
                 std::to_string(unnamed) +
                     " context(s) named by no item, child slot or root, "
                     "the first ctx " +
                     std::to_string(first_unnamed));
    report.check(renamed == 0, std::to_string(renamed) +
                                   " context(s) have two names, the first "
                                   "ctx " +
                                   std::to_string(first_renamed));

    // Item interning round-trips: every index entry points at a slab slot
    // that agrees with it, and the slab points back into the index.
    item_index_.for_each([&](std::uint64_t item, std::uint32_t id) {
      if (report.check(id < item_value_.size(),
                       "item index maps to an unallocated id " +
                           std::to_string(id))) {
        report.check(item_value_[id] == item,
                     "item interning round-trip failed for id " +
                         std::to_string(id));
      }
    });
    item_index_.audit(report);
    succ_index_.audit(report);
  }

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  /// Size classes 0..31: capacities 1 .. 2^31, enough for any u32
  /// successor count.
  static constexpr std::size_t kClasses = 32;

  CtxId new_context() {
    const CtxId id = static_cast<CtxId>(offset_.size());
    SPECPF_ASSERT(id != kNoCtx);
    offset_.push_back(0);
    distinct_.push_back(0);
    total_.push_back(0);
    return id;
  }

  static std::uint64_t succ_key(CtxId ctx, std::uint32_t item_id) {
    return (static_cast<std::uint64_t>(ctx) << 32) | item_id;
  }

  /// The block's capacity: the smallest power of two holding its
  /// successors, or 0 for a context without successors.
  std::uint32_t capacity(CtxId ctx) const {
    const std::uint32_t distinct = distinct_[ctx];
    return distinct == 0 ? 0 : std::bit_ceil(distinct);
  }

  /// Moves a full context into a block twice its size (or gives an empty
  /// context its first, one-slot block), reusing an outgrown block of that
  /// class when one is free. Positions are kept, so the index and every
  /// (parent, slot) ref stay valid. Called before the new successor is
  /// counted, so the old capacity is still derived from `distinct`.
  void grow(CtxId ctx) {
    const std::uint32_t old_capacity = capacity(ctx);
    const std::size_t cls =
        old_capacity == 0 ? 0 : std::countr_zero(old_capacity) + 1;
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
      if (children_) child_.resize(child_.size() + new_capacity);
    }
    if (old_capacity != 0) {
      const std::uint32_t old = offset_[ctx];
      std::copy_n(item_.begin() + old, old_capacity, item_.begin() + fresh);
      std::copy_n(count_.begin() + old, old_capacity, count_.begin() + fresh);
      if (children_) {
        std::copy_n(child_.begin() + old, old_capacity,
                    child_.begin() + fresh);
      }
      free_[cls - 1].push_back(old);
    }
    offset_[ctx] = fresh;
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

  FlatHashMap<std::uint32_t> item_index_;
  FlatHashMap<std::uint32_t> succ_index_;
  std::vector<std::uint64_t> item_value_;
  std::vector<CtxId> item_ctx_;  ///< per item id: its context, or kNoCtx
  CtxId root_ = kNoCtx;
  bool children_;

  // Context columns.
  std::vector<std::uint32_t> offset_;  ///< block start in the pool
  std::vector<std::uint32_t> distinct_;
  std::vector<std::uint64_t> total_;

  // Successor pool: live blocks and free-listed outgrown blocks.
  std::vector<std::uint32_t> item_;
  std::vector<std::uint16_t> count_;
  /// Per pool slot: the child context at that successor, or kNoCtx. Empty
  /// unless the arena was built with the child column.
  std::vector<CtxId> child_;
  /// free_[k]: offsets of outgrown blocks of capacity 2^k.
  std::array<std::vector<std::uint32_t>, kClasses> free_;

  std::uint64_t halvings_ = 0;
};

/// Each user's place in a child-column ContextArena's context trie, for a
/// PPM model of order `depth`. After the user's latest access x_n, ref k
/// (k = 1 .. size) names the user's order-k context (x_{n-k+1} .. x_n):
///   - order 1 is x_n's item context, so the ref holds x_n's item id;
///   - order k >= 2 is the child of the order-(k - 1) context that x_n was
///     counted in, at x_n's slot, so the ref holds {that parent, that slot}.
/// A ref names its context before the context exists: observe creates it
/// when the user's next access is counted in it, which is exactly where an
/// index keyed by the literal history would first have interned it. Refs
/// never go stale, because a successor keeps its slot for good (grow keeps
/// positions and halving does not reorder).
class ContextPath {
 public:
  ContextPath(std::size_t num_users, std::size_t depth)
      : depth_(depth), refs_(num_users * depth), len_(num_users, 0) {
    SPECPF_EXPECTS(depth >= 1 && depth <= 255);
  }

  /// Orders the user's refs cover: min(depth, accesses observed).
  std::size_t size(std::uint32_t user) const { return len_[user]; }

  /// Counts `item_id` in each of the user's contexts, shortest first,
  /// creating any that does not exist yet. Then moves the refs on: the new
  /// order-1 ref is `item_id`, and the new order-(k + 1) ref is the order-k
  /// context with the slot that `item_id` was just counted at.
  void observe(ContextArena& arena, std::uint32_t user,
               std::uint32_t item_id) {
    Ref* refs = refs_.data() + static_cast<std::size_t>(user) * depth_;
    const std::size_t len = len_[user];
    Ref next{item_id, 0};
    for (std::size_t k = 0; k < len; ++k) {
      const ContextArena::CtxId ctx =
          k == 0 ? arena.item_context(refs[0].parent)
                 : arena.child_context(refs[k].parent, refs[k].slot);
      refs[k] = next;
      next = Ref{ctx, arena.add(ctx, item_id).slot};
    }
    if (len < depth_) {
      refs[len] = next;
      len_[user] = static_cast<std::uint8_t>(len + 1);
    }
  }

  /// The user's order-`order` context (1 <= order <= size), or kNoCtx when
  /// no access has been counted in it yet.
  ContextArena::CtxId find(const ContextArena& arena, std::uint32_t user,
                           std::size_t order) const {
    const Ref& ref =
        refs_[static_cast<std::size_t>(user) * depth_ + order - 1];
    return order == 1 ? arena.find_item_context(ref.parent)
                      : arena.find_child(ref.parent, ref.slot);
  }

  /// Deep-invariant walker (util/audit.hpp): per user, at most `depth`
  /// refs; the order-1 ref an interned item; every longer ref an allocated
  /// parent with slot < distinct(parent), holding the user's newest item.
  void audit(const ContextArena& arena, AuditReport& report) const {
    const AuditScope scope(report, "ContextPath");
    report.check(refs_.size() == len_.size() * depth_,
                 "ref slab size != users x depth");
    for (std::size_t user = 0; user < len_.size(); ++user) {
      const std::size_t len = len_[user];
      if (len == 0) continue;
      const std::string who = "user " + std::to_string(user) + ": ";
      const Ref* refs = refs_.data() + user * depth_;
      const std::uint32_t newest = refs[0].parent;
      if (!report.check(len <= depth_, who + std::to_string(len) +
                                           " refs exceed the depth") ||
          !report.check(newest < arena.item_count(),
                        who + "order-1 ref names an uninterned item id")) {
        continue;
      }
      for (std::size_t k = 1; k < len; ++k) {
        const Ref& ref = refs[k];
        const std::string where =
            who + "order-" + std::to_string(k + 1) + " ref ";
        if (!report.check(ref.parent < arena.context_count(),
                          where + "names an unallocated parent") ||
            !report.check(ref.slot < arena.distinct(ref.parent),
                          where + "slot " + std::to_string(ref.slot) +
                              " is past its parent's " +
                              std::to_string(arena.distinct(ref.parent)) +
                              " successors")) {
          continue;
        }
        report.check(arena.successor_id(ref.parent, ref.slot) == newest,
                     where + "slot does not hold the newest item");
      }
    }
  }

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  struct Ref {
    std::uint32_t parent;  ///< order 1: the item id; else the parent ctx
    std::uint32_t slot;    ///< the newest item's slot in the parent
  };

  std::size_t depth_;
  std::vector<Ref> refs_;  ///< user u's refs: [u * depth, (u + 1) * depth)
  std::vector<std::uint8_t> len_;
};

/// Fixed-window per-user history of item ids, stored as rings in one
/// user-indexed slab (replacing FlatHashMap<std::deque<u64>>): user u's
/// window occupies slots [u*window, (u+1)*window), with a one-byte
/// head/length pair per user.
class HistoryRing {
 public:
  HistoryRing(std::size_t num_users, std::size_t window)
      : window_(window),
        items_(num_users * window),
        head_(num_users, 0),
        len_(num_users, 0) {
    SPECPF_EXPECTS(window >= 1 && window <= 255);
  }

  void push(std::uint32_t user, std::uint32_t item) {
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
  std::uint32_t at(std::uint32_t user, std::size_t i) const {
    return items_[static_cast<std::size_t>(user) * window_ +
                  (head_[user] + i) % window_];
  }

  std::uint32_t newest(std::uint32_t user) const {
    return at(user, len_[user] - 1);
  }

 private:
  std::size_t window_;
  std::vector<std::uint32_t> items_;
  std::vector<std::uint8_t> head_;  ///< ring index of the oldest entry
  std::vector<std::uint8_t> len_;
};

}  // namespace specpf
