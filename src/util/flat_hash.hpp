// Open-addressing flat hash map for 64-bit keys — the request-plane
// container of the proxy stack (in-flight transfer bookkeeping, cache
// residency, predictor context indexes, trace indexes).
//
// Design: robin-hood probing over a power-of-two table with backward-shift
// deletion, so the table is tombstone-free and lookups never scan dead
// slots. One byte of metadata per slot (0 = empty, d = probe distance + 1)
// keeps the probe loop inside a single contiguous array; keys and values
// live in parallel flat arrays, so a hit costs a few cache lines instead of
// a node-pointer chase per level of a tree or per bucket chain.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "util/audit.hpp"
#include "util/contract.hpp"

namespace specpf {

/// 64→64-bit mixer (the splitmix64 finalizer). Packed keys such as
/// (user << 32) | item concentrate their entropy in a few bit positions;
/// the mix spreads it across the whole index range.
inline std::uint64_t mix_u64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Flat hash map from std::uint64_t to V. V must be default-constructible,
/// movable, and move-assignable. Iteration order is an implementation
/// detail (it depends on the insertion history), but is deterministic for a
/// given operation sequence — callers that need a canonical order sort.
///
/// Keys, values, and metadata live in three parallel arrays, so a slot
/// costs 8 + sizeof(V) + 1 bytes with no padding between key and value:
/// 13 bytes for the u32-valued residency and context indexes, which hold
/// tens of millions of entries at fleet scale.
template <typename V>
class FlatHashMap {
 public:
  /// An occupied slot as range-for yields it; supports structured bindings:
  ///   for (const auto& [key, value] : map) ...
  struct Entry {
    std::uint64_t key;
    const V& value;
  };

  FlatHashMap() = default;

  ~FlatHashMap() { deallocate(); }

  FlatHashMap(FlatHashMap&& other) noexcept { steal(other); }

  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      deallocate();
      steal(other);
    }
    return *this;
  }

  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr when absent.
  V* find(std::uint64_t key) noexcept {
    const std::size_t idx = find_index(key);
    return idx == kNotFound ? nullptr : &values_[idx];
  }
  const V* find(std::uint64_t key) const noexcept {
    const std::size_t idx = find_index(key);
    return idx == kNotFound ? nullptr : &values_[idx];
  }

  bool contains(std::uint64_t key) const noexcept {
    return find_index(key) != kNotFound;
  }

  /// Returns the value for `key`, inserting a value-initialized V first if
  /// absent. `inserted` (when non-null) reports whether an insert happened.
  V& get_or_insert(std::uint64_t key, bool* inserted = nullptr) {
    if (V* v = find(key)) {
      if (inserted) *inserted = false;
      return *v;
    }
    if (inserted) *inserted = true;
    return *insert_new(key, V{});
  }

  /// get_or_insert without the report: the context arena calls this for
  /// every order of every observe, so it carries no `inserted` branches.
  V& operator[](std::uint64_t key) {
    if (V* v = find(key)) return *v;
    return *insert_new(key, V{});
  }

  /// Removes `key`. Returns false when absent.
  bool erase(std::uint64_t key) {
    const std::size_t idx = find_index(key);
    if (idx == kNotFound) return false;
    erase_at(idx);
    return true;
  }

  /// Moves the value for `key` out of the table and erases the entry.
  /// Precondition: the key is present.
  V take(std::uint64_t key) {
    const std::size_t idx = find_index(key);
    SPECPF_DCHECK(idx != kNotFound);
    V out = std::move(values_[idx]);
    erase_at(idx);
    return out;
  }

  void clear() {
    if (size_ == 0) return;
    destroy_values();
    std::fill_n(meta_, capacity_, std::uint8_t{0});
    size_ = 0;
  }

  /// Ensures `n` entries fit without further rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap <<= 1;
    if (cap > capacity_) rehash_to(cap);
  }

  /// Visits every (key, const value&) pair in range-for order. Cold-path
  /// helper for audit sweeps and diagnostics; the data plane never scans.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (meta_[i] != 0) fn(keys_[i], values_[i]);
    }
  }

  /// Deep-invariant walk (util/audit.hpp). Re-derives every slot's probe
  /// distance from its key and checks it against the stored metadata byte:
  ///   * a wrong distance means the slot was moved without fixing metadata
  ///     (or the metadata byte itself was corrupted) — lookups would
  ///     terminate early and miss live entries;
  ///   * probe-distance monotonicity (a slot's distance exceeds its
  ///     predecessor's by at most 1) is exactly the invariant backward-shift
  ///     deletion maintains — a violation means an erase left a hole mid-run
  ///     and every entry behind it is unreachable;
  ///   * the occupied-slot count must equal size().
  void audit(AuditReport& report) const {
    AuditScope scope(report, "FlatHashMap");
    if (capacity_ == 0) {
      report.check(size_ == 0, "empty table reports nonzero size");
      return;
    }
    std::size_t live = 0;
    for (std::size_t i = 0; i < capacity_; ++i) {
      const std::uint32_t dist = meta_[i];
      if (dist == 0) continue;
      ++live;
      if (!report.check(dist <= kMaxProbe,
                        "slot " + std::to_string(i) +
                            " probe distance exceeds kMaxProbe")) {
        continue;
      }
      const std::size_t home = mix_u64(keys_[i]) & mask_;
      const std::uint32_t derived =
          static_cast<std::uint32_t>(((i - home) & mask_) + 1);
      report.check(derived == dist,
                   "slot " + std::to_string(i) +
                       " stored probe distance disagrees with its key's home "
                       "(stored " +
                       std::to_string(dist) + ", derived " +
                       std::to_string(derived) + ")");
      if (dist > 1) {
        const std::size_t prev = (i - 1) & mask_;
        report.check(static_cast<std::uint32_t>(meta_[prev]) + 1 >= dist,
                     "slot " + std::to_string(i) +
                         " breaks backward-shift monotonicity (distance " +
                         std::to_string(dist) + " after predecessor distance " +
                         std::to_string(meta_[prev]) + ")");
      }
    }
    report.check(live == size_, "occupied-slot count " + std::to_string(live) +
                                    " disagrees with size() " +
                                    std::to_string(size_));
  }

  class Iter {
   public:
    Iter(const FlatHashMap* map, std::size_t idx) : map_(map), idx_(idx) {
      skip_empty();
    }
    Entry operator*() const {
      return {map_->keys_[idx_], map_->values_[idx_]};
    }
    Iter& operator++() {
      ++idx_;
      skip_empty();
      return *this;
    }
    bool operator==(const Iter& other) const { return idx_ == other.idx_; }
    bool operator!=(const Iter& other) const { return idx_ != other.idx_; }

   private:
    void skip_empty() {
      while (idx_ < map_->capacity_ && map_->meta_[idx_] == 0) ++idx_;
    }
    const FlatHashMap* map_;
    std::size_t idx_;
  };

  Iter begin() const { return Iter(this, 0); }
  Iter end() const { return Iter(this, capacity_); }

 private:
  friend struct AuditPeer;  // corruption-injection tests only
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;
  // Grow past 7/8 occupancy: robin-hood keeps probe sequences short up to
  // high load, and 7/8 keeps the memory overhead at ~1.14x entries.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;
  // Longest representable probe distance (metadata is one byte, 0 = empty).
  // Unreachable with a mixing hash at our load factor; hitting it forces a
  // grow rather than corrupting metadata.
  static constexpr std::uint32_t kMaxProbe = 254;

  std::size_t find_index(std::uint64_t key) const noexcept {
    if (size_ == 0) return kNotFound;
    std::size_t idx = mix_u64(key) & mask_;
    std::uint32_t dist = 1;
    // Robin-hood invariant: a stored key's probe distance never exceeds the
    // distance a probe for it has travelled, so the scan can stop at the
    // first slot that is empty or closer to its own home than we are.
    while (meta_[idx] >= dist) {
      if (keys_[idx] == key) return idx;
      idx = (idx + 1) & mask_;
      ++dist;
    }
    return kNotFound;
  }

  /// Places the carried entry, displacing richer entries robin-hood style.
  /// Returns the slot where the *initially* carried entry landed (the walk
  /// only moves forward, so later displacements never touch it again), or
  /// nullptr when a probe distance would overflow the metadata byte — the
  /// caller grows the table (rehashing everything already placed) and
  /// retries with whatever entry is left in the carry.
  V* robin_place(std::uint64_t& carry_key, V& carry_value) {
    std::size_t idx = mix_u64(carry_key) & mask_;
    std::uint32_t dist = 1;
    V* placed = nullptr;
    for (;;) {
      if (dist > kMaxProbe) return nullptr;
      if (meta_[idx] == 0) {
        keys_[idx] = carry_key;
        ::new (static_cast<void*>(values_ + idx)) V(std::move(carry_value));
        meta_[idx] = static_cast<std::uint8_t>(dist);
        return placed ? placed : &values_[idx];
      }
      if (meta_[idx] < dist) {
        std::swap(carry_key, keys_[idx]);
        std::swap(carry_value, values_[idx]);
        const std::uint8_t displaced = meta_[idx];
        meta_[idx] = static_cast<std::uint8_t>(dist);
        dist = displaced;
        if (!placed) placed = &values_[idx];
      }
      idx = (idx + 1) & mask_;
      ++dist;
    }
  }

  /// Inserts a key known to be absent; returns the value slot.
  V* insert_new(std::uint64_t key, V value) {
    if (capacity_ == 0 ||
        (size_ + 1) * kMaxLoadDen > capacity_ * kMaxLoadNum) {
      rehash_to(capacity_ ? capacity_ * 2 : kMinCapacity);
    }
    std::uint64_t carry_key = key;
    V* placed = robin_place(carry_key, value);
    while (placed == nullptr) {
      // Overflow is possible both before and after the original entry was
      // placed (the leftover carry may be a displaced victim), so re-locate
      // the original by key once the table is big enough.
      rehash_to(capacity_ * 2);
      if (robin_place(carry_key, value)) placed = find(key);
    }
    ++size_;
    SPECPF_DCHECK(placed != nullptr);
    return placed;
  }

  /// Backward-shift deletion: pull the probe chain one slot left until a
  /// slot that is empty or at its home position. No tombstones.
  void erase_at(std::size_t idx) {
    std::size_t cur = idx;
    for (;;) {
      const std::size_t next = (cur + 1) & mask_;
      if (meta_[next] <= 1) break;
      keys_[cur] = keys_[next];
      values_[cur] = std::move(values_[next]);
      meta_[cur] = static_cast<std::uint8_t>(meta_[next] - 1);
      cur = next;
    }
    std::destroy_at(values_ + cur);
    meta_[cur] = 0;
    --size_;
  }

  void rehash_to(std::size_t new_capacity) {
    std::uint64_t* old_keys = keys_;
    V* old_values = values_;
    std::uint8_t* old_meta = meta_;
    const std::size_t old_capacity = capacity_;

    keys_ = new std::uint64_t[new_capacity];
    values_ = std::allocator<V>{}.allocate(new_capacity);
    meta_ = new std::uint8_t[new_capacity]{};
    capacity_ = new_capacity;
    mask_ = new_capacity - 1;

    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_meta[i] == 0) continue;
      std::uint64_t key = old_keys[i];
      V value = std::move(old_values[i]);
      std::destroy_at(old_values + i);
      // At ≤ 7/16 load after doubling a mixed-hash probe cannot plausibly
      // reach kMaxProbe; fail loudly rather than recurse mid-rehash. The
      // call stays outside the assert macro: it performs the insertion.
      [[maybe_unused]] V* replaced = robin_place(key, value);
      SPECPF_DCHECK(replaced != nullptr);
    }
    release(old_keys, old_values, old_meta, old_capacity);
  }

  /// Ends the lifetime of every stored value; leaves metadata as it is.
  void destroy_values() {
    if constexpr (!std::is_trivially_destructible_v<V>) {
      for (std::size_t i = 0; i < capacity_; ++i) {
        if (meta_[i] != 0) std::destroy_at(values_ + i);
      }
    }
  }

  static void release(std::uint64_t* keys, V* values, std::uint8_t* meta,
                      std::size_t capacity) {
    delete[] keys;
    if (values) std::allocator<V>{}.deallocate(values, capacity);
    delete[] meta;
  }

  /// Destroys every value and frees the arrays; the caller resets size_.
  void deallocate() {
    destroy_values();
    release(keys_, values_, meta_, capacity_);
    keys_ = nullptr;
    values_ = nullptr;
    meta_ = nullptr;
    capacity_ = 0;
    mask_ = 0;
  }

  void steal(FlatHashMap& other) noexcept {
    keys_ = std::exchange(other.keys_, nullptr);
    values_ = std::exchange(other.values_, nullptr);
    meta_ = std::exchange(other.meta_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    mask_ = std::exchange(other.mask_, 0);
    size_ = std::exchange(other.size_, 0);
  }

  std::uint64_t* keys_ = nullptr;
  V* values_ = nullptr;           // live exactly where meta_ is nonzero
  std::uint8_t* meta_ = nullptr;  // 0 = empty, d = probe distance + 1
  std::size_t capacity_ = 0;      // power of two, or 0 before first insert
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Flat hash set of 64-bit keys, built on FlatHashMap.
class FlatHashSet {
 public:
  /// Returns true when the key was newly added.
  bool insert(std::uint64_t key) {
    bool added = false;
    map_.get_or_insert(key, &added);
    return added;
  }
  bool contains(std::uint64_t key) const { return map_.contains(key); }
  bool erase(std::uint64_t key) { return map_.erase(key); }
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

 private:
  struct Unit {};
  FlatHashMap<Unit> map_;
};

}  // namespace specpf
