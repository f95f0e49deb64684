// Blocking primitives for fibers: channels, mutex, condition variable,
// barrier. All are single-threaded simulation objects — "blocking" means
// parking the calling fiber in the engine, never an OS wait.
//
// Wait-list discipline (keeps raw Fiber* safe): the *waiting* fiber always
// removes its own entry after Engine::block() returns, including on the
// FiberKilled unwind path, so lists never hold dangling pointers.
#pragma once

#include <algorithm>
#include <cassert>
#include <optional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/ring.hpp"

namespace starfish::sim {

/// FIFO list of parked fibers.
class WaitList {
 public:
  explicit WaitList(Engine& engine) : engine_(engine) {}

  /// Parks the current fiber until woken (kSignal) or deadline (kTimer).
  /// deadline < 0 means wait forever.
  WakeReason park(Time deadline = -1) {
    Fiber* self = engine_.current();
    assert(self != nullptr);
    waiters_.push_back(self);
    WakeReason reason;
    try {
      reason = deadline < 0 ? engine_.block() : engine_.block_until(deadline);
    } catch (...) {
      remove(self);
      throw;
    }
    remove(self);
    return reason;
  }

  /// Wakes the longest-waiting still-blocked fiber; returns false if none.
  /// Entries are popped here (not when the fiber resumes) so back-to-back
  /// wake_one calls reach distinct waiters; fibers already woken by a timer
  /// or kill are skipped — they will re-check their condition on resume.
  bool wake_one() {
    while (!waiters_.empty()) {
      Fiber* f = waiters_.front();
      waiters_.erase(waiters_.begin());
      if (f->state() == FiberState::kBlocked) {
        engine_.wake(f);
        return true;
      }
    }
    return false;
  }
  void wake_all() {
    auto snapshot = std::move(waiters_);
    waiters_.clear();
    for (Fiber* f : snapshot) {
      if (f->state() == FiberState::kBlocked) engine_.wake(f);
    }
  }
  bool empty() const { return waiters_.empty(); }
  size_t size() const { return waiters_.size(); }

 private:
  void remove(Fiber* f) {
    auto it = std::find(waiters_.begin(), waiters_.end(), f);
    if (it != waiters_.end()) waiters_.erase(it);
  }
  Engine& engine_;
  std::vector<Fiber*> waiters_;
};

enum class RecvStatus : uint8_t { kOk, kClosed, kTimeout };

template <typename T>
struct RecvResult {
  RecvStatus status;
  std::optional<T> value;
  bool ok() const { return status == RecvStatus::kOk; }
};

/// Unbounded MPSC/MPMC channel. send() never blocks; recv() blocks until an
/// item, close, or deadline. Closing wakes all readers; remaining queued
/// items are still delivered before kClosed is reported.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(engine), readers_(engine) {}

  Engine& engine() const { return engine_; }

  /// Returns false (dropping the item) if the channel is closed — matching
  /// a message arriving at a dead process.
  bool send(T item) {
    if (closed_) return false;
    items_.push_back(std::move(item));
    readers_.wake_one();
    return true;
  }

  RecvResult<T> recv(Time deadline = -1) {
    while (items_.empty()) {
      if (closed_) return {RecvStatus::kClosed, std::nullopt};
      const WakeReason r = readers_.park(deadline);
      if (r == WakeReason::kTimer && items_.empty()) {
        return {RecvStatus::kTimeout, std::nullopt};
      }
    }
    return {RecvStatus::kOk, items_.pop_front()};
  }

  /// Non-blocking poll.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    return items_.pop_front();
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    readers_.wake_all();
  }
  bool closed() const { return closed_; }
  size_t pending() const { return items_.size(); }

 private:
  Engine& engine_;
  Ring<T> items_;
  WaitList readers_;
  bool closed_ = false;
};

/// Fiber mutex: serializes critical sections that span blocking points
/// (e.g. queued access to a disk).
class Mutex {
 public:
  explicit Mutex(Engine& engine) : waiters_(engine) {}

  void lock() {
    while (locked_) (void)waiters_.park();
    locked_ = true;
  }
  void unlock() {
    assert(locked_);
    locked_ = false;
    waiters_.wake_one();
  }
  bool locked() const { return locked_; }

 private:
  bool locked_ = false;
  WaitList waiters_;
};

/// RAII lock for Mutex (CP.20: never plain lock/unlock). Unlocks on the
/// FiberKilled unwind path too.
class LockGuard {
 public:
  explicit LockGuard(Mutex& m) : mutex_(m) { mutex_.lock(); }
  ~LockGuard() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable over fiber blocking; no separate mutex needed in a
/// single-threaded simulation, but wait(pred) re-checks after every wake.
class CondVar {
 public:
  explicit CondVar(Engine& engine) : waiters_(engine) {}

  template <typename Pred>
  void wait(Pred pred) {
    while (!pred()) (void)waiters_.park();
  }
  /// Returns false on timeout with the predicate still false.
  template <typename Pred>
  bool wait_until(Time deadline, Pred pred) {
    while (!pred()) {
      const WakeReason r = waiters_.park(deadline);
      if (r == WakeReason::kTimer && !pred()) return false;
    }
    return true;
  }
  void notify_one() { waiters_.wake_one(); }
  void notify_all() { waiters_.wake_all(); }

 private:
  WaitList waiters_;
};

/// Reusable barrier for n participants.
class Barrier {
 public:
  Barrier(Engine& engine, size_t parties) : waiters_(engine), parties_(parties) {}

  void arrive_and_wait() {
    const uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      waiters_.wake_all();
      return;
    }
    while (generation_ == gen) (void)waiters_.park();
  }

 private:
  WaitList waiters_;
  size_t parties_;
  size_t arrived_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace starfish::sim
