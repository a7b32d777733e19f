// FIFO ring over one power-of-two std::vector: O(1) push_back and
// pop_front with no per-entry allocation. Growth doubles the buffer and
// moves the live entries once, head first. The hot-path lint bans
// std::deque in favour of this.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace specpf {

/// T must be default-constructible and move-assignable. A popped entry
/// stays in the buffer, moved-from or not, until a push overwrites it.
template <typename T>
class FlatRing {
 public:
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Entry `i` counted from the front.
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_++) & (buf_.size() - 1)] = std::move(value);
  }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  void grow() {
    std::vector<T> grown(std::max(kMinCapacity, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    buf_.swap(grown);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace specpf
