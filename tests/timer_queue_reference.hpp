// The engine's timer heap and ready ring as they stood before the heap
// learned runs, kept verbatim as the oracle of the timer-queue differential
// test (timer_queue_oracle_test): one heap entry per event, so the order
// they pop in is the total order by construction. Do not optimize or
// restyle: their only job is to be the old code.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/engine.hpp"

namespace starfish::sim::reference {

/// 4-ary min-heap on (at, node, seq): shallower than binary for the same
/// size, pops move entries instead of copying callables.
class TimerHeap {
 public:
  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  const TimerEntry& top() const { return v_[0]; }
  void push(TimerEntry e) {
    size_t i = v_.size();
    v_.push_back(e);  // placeholder; the hole walks up
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!before(e, v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = e;
  }
  TimerEntry pop() {
    const TimerEntry out = v_[0];
    const TimerEntry last = v_.back();
    v_.pop_back();
    if (!v_.empty()) {
      // Sift the hole down, choosing the smallest of up to kArity children.
      size_t i = 0;
      const size_t n = v_.size();
      for (;;) {
        const size_t first = i * kArity + 1;
        if (first >= n) break;
        size_t best = first;
        const size_t end = std::min(first + kArity, n);
        for (size_t c = first + 1; c < end; ++c) {
          if (before(v_[c], v_[best])) best = c;
        }
        if (!before(v_[best], last)) break;
        v_[i] = v_[best];
        i = best;
      }
      v_[i] = last;
    }
    return out;
  }

 private:
  static constexpr size_t kArity = 4;
  static bool before(const TimerEntry& a, const TimerEntry& b) {
    return event_key_before(a.at, a.node, a.seq, b.at, b.node, b.seq);
  }
  std::vector<TimerEntry> v_;
};

/// Power-of-two ring buffer; push/pop never allocate at steady state.
/// Pushes insert in (at, node, seq) order from the back: wakes from one
/// node arrive already ordered (zero shifts, the dominant case), and the
/// rare same-time wake from a lower node shifts a handful of entries —
/// keeping the front the minimum, which the multi-node total order requires
/// (a FIFO ring is only sorted when all wakes share one counter).
class ReadyQueue {
 public:
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  const ReadyEntry& front() const { return buf_[head_]; }
  void push(ReadyEntry e) {
    if (count_ == buf_.size()) grow();
    size_t pos = count_;
    while (pos > 0) {
      ReadyEntry& prev = buf_[(head_ + pos - 1) & mask_];
      if (!event_key_before(e.at, e.node, e.seq, prev.at, prev.node, prev.seq)) break;
      buf_[(head_ + pos) & mask_] = std::move(prev);
      --pos;
    }
    buf_[(head_ + pos) & mask_] = std::move(e);
    ++count_;
  }
  ReadyEntry pop() {
    ReadyEntry e = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --count_;
    return e;
  }

 private:
  void grow() {
    const size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
    std::vector<ReadyEntry> next(cap);
    for (size_t i = 0; i < count_; ++i) next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }
  std::vector<ReadyEntry> buf_;
  size_t head_ = 0;
  size_t count_ = 0;
  size_t mask_ = 0;
};

}  // namespace starfish::sim::reference
