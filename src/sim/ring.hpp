// FIFO ring buffer for the engine's and the channels' queues.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace starfish::sim {

/// Power-of-two ring over a vector: once it has grown to its high-water
/// mark, push_back/pop_front never allocate (a std::deque allocates a block
/// every few hundred bytes pushed). A popped slot keeps its moved-from
/// value until it is reused.
template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  const T& front() const { return buf_[head_]; }
  /// The i-th element from the front.
  T& operator[](size_t i) { return buf_[(head_ + i) & mask_]; }
  void push_back(T v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = std::move(v);
    ++count_;
  }
  T pop_front() {
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --count_;
    return v;
  }

 private:
  void grow() {
    const size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (size_t i = 0; i < count_; ++i) next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t count_ = 0;
  size_t mask_ = 0;
};

}  // namespace starfish::sim
