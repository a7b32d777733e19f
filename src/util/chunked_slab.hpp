// Placement slab in fixed-size, cache-line-aligned chunks. Slots are handed
// out in increasing order and their storage never moves: growth allocates
// one more chunk, so no element is ever copied and references stay valid.
// An element is default-constructed the first time its slot is handed out
// (allocating a chunk costs no construction sweep) and destroyed with the
// slab. Slots are never returned; free-list policy is the caller's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "util/cache_aligned.hpp"

namespace specpf {

template <typename T, std::size_t ChunkShift>
class ChunkedSlab {
 public:
  static constexpr std::size_t kChunkSize = std::size_t{1} << ChunkShift;

  ChunkedSlab() = default;
  ChunkedSlab(const ChunkedSlab&) = delete;
  ChunkedSlab& operator=(const ChunkedSlab&) = delete;
  ~ChunkedSlab() {
    for (std::size_t slot = 0; slot < size_; ++slot) {
      (*this)[static_cast<std::uint32_t>(slot)].~T();
    }
  }

  /// Slots handed out so far; every slot below this holds a live T.
  std::size_t size() const noexcept { return size_; }
  /// Slots the allocated chunks can hold.
  std::size_t capacity() const noexcept { return chunks_.size() * kChunkSize; }

  T& operator[](std::uint32_t slot) {
    return *(reinterpret_cast<T*>(chunks_[slot >> ChunkShift].get()) +
             (slot & (kChunkSize - 1)));
  }
  const T& operator[](std::uint32_t slot) const {
    return *(reinterpret_cast<const T*>(chunks_[slot >> ChunkShift].get()) +
             (slot & (kChunkSize - 1)));
  }

  /// Constructs a T in the next unused slot and returns that slot.
  std::uint32_t emplace_back() {
    if (size_ == capacity()) {
      chunks_.push_back(ChunkPtr(static_cast<std::byte*>(::operator new[](
          kChunkSize * sizeof(T), std::align_val_t{kCacheLineBytes}))));
    }
    const auto slot = static_cast<std::uint32_t>(size_++);
    ::new (static_cast<void*>(&(*this)[slot])) T();
    return slot;
  }

 private:
  struct ChunkDeleter {
    void operator()(std::byte* p) const noexcept {
      ::operator delete[](p, std::align_val_t{kCacheLineBytes});
    }
  };
  using ChunkPtr = std::unique_ptr<std::byte[], ChunkDeleter>;

  std::vector<ChunkPtr> chunks_;
  std::size_t size_ = 0;
};

}  // namespace specpf
