// FlatHashMap / FlatHashSet: unit coverage plus randomized differential
// fuzzing against the standard containers (exercises rehash growth and
// backward-shift deletion under heavy collision pressure), typed over
// trivial and heap-owning value types.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/flat_hash.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

/// A V derived from a u64, so one typed body runs over plain integers and
/// heap-owning values alike. The string is longer than any small-string
/// buffer, so every value owns heap memory the sanitizers track: a value
/// constructed or destroyed other than exactly once shows as a leak or a
/// double free.
template <typename V>
V make_value(std::uint64_t x);
template <>
std::uint32_t make_value<std::uint32_t>(std::uint64_t x) {
  return static_cast<std::uint32_t>(x);
}
template <>
std::uint64_t make_value<std::uint64_t>(std::uint64_t x) {
  return x;
}
template <>
std::string make_value<std::string>(std::uint64_t x) {
  return "value-owning-heap-storage-" + std::to_string(x);
}
template <>
std::vector<double> make_value<std::vector<double>>(std::uint64_t x) {
  return {static_cast<double>(x), static_cast<double>(x % 7)};
}

template <typename V>
class FlatHashMapTest : public ::testing::Test {};
// u32 is the 13-byte-slot index of the cache arena and context arena;
// string and vector exercise real construct/move/destroy through
// backward-shift deletion, take() and rehash.
using ValueTypes = ::testing::Types<std::uint32_t, std::uint64_t,
                                    std::string, std::vector<double>>;
TYPED_TEST_SUITE(FlatHashMapTest, ValueTypes);

TYPED_TEST(FlatHashMapTest, InsertFindEraseBasics) {
  using V = TypeParam;
  FlatHashMap<V> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_FALSE(map.erase(42));

  map[42] = make_value<V>(7);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), make_value<V>(7));
  EXPECT_TRUE(map.contains(42));
  EXPECT_FALSE(map.contains(43));

  map[42] = make_value<V>(9);  // overwrite, no duplicate
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(42), make_value<V>(9));

  EXPECT_TRUE(map.erase(42));
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
}

TYPED_TEST(FlatHashMapTest, GetOrInsertReportsInsertion) {
  using V = TypeParam;
  FlatHashMap<V> map;
  bool inserted = false;
  map.get_or_insert(5, &inserted) = make_value<V>(50);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.get_or_insert(5, &inserted), make_value<V>(50));
  EXPECT_FALSE(inserted);
}

TYPED_TEST(FlatHashMapTest, ValueInitializedOnFirstAccess) {
  using V = TypeParam;
  FlatHashMap<V> map;
  EXPECT_EQ(map[99], V{});
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map[99], V{});  // a second access inserts nothing
  EXPECT_EQ(map.size(), 1u);
}

TYPED_TEST(FlatHashMapTest, TakeMovesValueOut) {
  using V = TypeParam;
  FlatHashMap<V> map;
  for (std::uint64_t k = 0; k < 64; ++k) map[k] = make_value<V>(k);
  for (std::uint64_t k = 0; k < 64; k += 2) {
    const V taken = map.take(k);
    EXPECT_EQ(taken, make_value<V>(k));
    EXPECT_FALSE(map.contains(k));
  }
  EXPECT_EQ(map.size(), 32u);
  for (std::uint64_t k = 1; k < 64; k += 2) {
    ASSERT_NE(map.find(k), nullptr);
    EXPECT_EQ(*map.find(k), make_value<V>(k));
  }
}

TYPED_TEST(FlatHashMapTest, GrowsThroughManyRehashes) {
  using V = TypeParam;
  FlatHashMap<V> map;
  const std::uint64_t n = 100000;
  for (std::uint64_t k = 0; k < n; ++k) {
    map[k * 2654435761u] = make_value<V>(k);
  }
  EXPECT_EQ(map.size(), n);
  for (std::uint64_t k = 0; k < n; ++k) {
    const V* v = map.find(k * 2654435761u);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, make_value<V>(k));
  }
}

TYPED_TEST(FlatHashMapTest, ReserveSurvivesFillWithoutLosingEntries) {
  // Note: robin-hood displacement may move entries between slots even
  // without a rehash, so pointer stability is NOT part of the contract —
  // only that every value survives filling up to the reserved size.
  // Packed (user << 32) | item keys, as the residency index uses.
  using V = TypeParam;
  FlatHashMap<V> map;
  map.reserve(4096);
  for (std::uint64_t k = 0; k < 4096; ++k) map[k << 32 | k] = make_value<V>(k);
  EXPECT_EQ(map.size(), 4096u);
  for (std::uint64_t k = 0; k < 4096; ++k) {
    ASSERT_NE(map.find(k << 32 | k), nullptr);
    EXPECT_EQ(*map.find(k << 32 | k), make_value<V>(k));
  }
}

TYPED_TEST(FlatHashMapTest, IterationVisitsEachEntryOnce) {
  using V = TypeParam;
  FlatHashMap<V> map;
  for (std::uint64_t k = 1; k <= 500; ++k) map[k * 7919] = make_value<V>(k);
  std::vector<std::pair<std::uint64_t, V>> ranged;
  for (const auto& [key, value] : map) ranged.emplace_back(key, value);
  std::vector<std::pair<std::uint64_t, V>> visited;
  map.for_each([&](std::uint64_t key, const V& value) {
    visited.emplace_back(key, value);
  });
  EXPECT_EQ(ranged, visited) << "range-for and for_each disagree";

  std::unordered_map<std::uint64_t, V> seen;
  for (const auto& [key, value] : ranged) {
    EXPECT_TRUE(seen.emplace(key, value).second) << "duplicate key " << key;
  }
  EXPECT_EQ(seen.size(), 500u);
  for (std::uint64_t k = 1; k <= 500; ++k) {
    EXPECT_EQ(seen.at(k * 7919), make_value<V>(k));
  }
}

TYPED_TEST(FlatHashMapTest, MoveConstructAndAssign) {
  using V = TypeParam;
  FlatHashMap<V> a;
  a[1] = make_value<V>(10);
  a[2] = make_value<V>(20);
  FlatHashMap<V> b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(*b.find(2), make_value<V>(20));
  FlatHashMap<V> c;
  c[5] = make_value<V>(50);
  c = std::move(b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(*c.find(1), make_value<V>(10));
  EXPECT_FALSE(c.contains(5));
}

TYPED_TEST(FlatHashMapTest, ClearThenReuse) {
  using V = TypeParam;
  FlatHashMap<V> map;
  for (std::uint64_t k = 0; k < 100; ++k) map[k] = make_value<V>(k);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(5), nullptr);
  map[5] = make_value<V>(55);
  EXPECT_EQ(*map.find(5), make_value<V>(55));
  EXPECT_EQ(map.size(), 1u);
}

TYPED_TEST(FlatHashMapTest, EraseChurnKeepsTheSurvivors) {
  using V = TypeParam;
  FlatHashMap<V> map;
  for (std::uint64_t k = 0; k < 200; ++k) map[k] = make_value<V>(k);
  for (std::uint64_t k = 0; k < 200; k += 2) EXPECT_TRUE(map.erase(k));
  EXPECT_EQ(map.size(), 100u);
  for (std::uint64_t k = 1; k < 200; k += 2) {
    ASSERT_NE(map.find(k), nullptr);
    EXPECT_EQ(*map.find(k), make_value<V>(k));
  }
  for (std::uint64_t k = 0; k < 200; k += 2) EXPECT_FALSE(map.contains(k));
}

TYPED_TEST(FlatHashMapTest, FuzzDifferentialAgainstUnorderedMap) {
  // Small key range concentrates collisions and forces long probe chains
  // interleaved with backward-shift erases.
  using V = TypeParam;
  FlatHashMap<V> map;
  std::unordered_map<std::uint64_t, V> ref;
  Rng rng(0xF1A7);
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = rng.next_u64() % 512;
    switch (rng.next_u64() % 3) {
      case 0: {  // insert / overwrite
        const V value = make_value<V>(rng.next_u64());
        map[key] = value;
        ref[key] = value;
        break;
      }
      case 1: {  // erase
        EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
        break;
      }
      case 2: {  // lookup
        const V* v = map.find(key);
        auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(v, nullptr);
        } else {
          ASSERT_NE(v, nullptr);
          EXPECT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // Full sweep at the end: contents must match exactly, both directions.
  std::size_t visited = 0;
  for (const auto& [key, value] : map) {
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(value, it->second);
    ++visited;
  }
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatHashSet, BasicsAndFuzz) {
  FlatHashSet set;
  EXPECT_TRUE(set.insert(10));
  EXPECT_FALSE(set.insert(10));
  EXPECT_TRUE(set.contains(10));
  EXPECT_TRUE(set.erase(10));
  EXPECT_FALSE(set.erase(10));
  EXPECT_TRUE(set.empty());

  std::unordered_set<std::uint64_t> ref;
  Rng rng(0x5E7);
  for (int op = 0; op < 50000; ++op) {
    const std::uint64_t key = rng.next_u64() % 256;
    if (rng.next_u64() % 2 == 0) {
      EXPECT_EQ(set.insert(key), ref.insert(key).second);
    } else {
      EXPECT_EQ(set.erase(key), ref.erase(key) > 0);
    }
  }
  EXPECT_EQ(set.size(), ref.size());
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(set.contains(k), ref.count(k) > 0);
  }
}

}  // namespace
}  // namespace specpf
