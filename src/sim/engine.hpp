// Deterministic discrete-event engine: one event loop on one thread.
//
// Events execute in a single total order keyed by (time, origin node,
// per-node sequence): each scheduling *node* (node 0 = control plane, one
// node per simulated host) stamps the events it creates from its own
// counter. The keys, not the host thread, fix the history, which is what
// the goldens pin (DESIGN.md section 13).
//
// The hot path: slab-pooled events with inline callback storage (SmallFn)
// ordered by a 4-ary min-heap of trivially-copyable (time, node, seq)
// entries, same-timestamp wakeups through an order-preserving ready ring,
// recycled guard-paged fiber stacks. The engine_golden_test goldens pin that
// the dispatch order equals the old single priority queue's.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/fiber.hpp"
#include "sim/small_fn.hpp"
#include "sim/stack_pool.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace starfish::sim {

/// Pooled timer event: callback storage that never moves once scheduled.
/// Nodes are recycled through an intrusive free list; slabs are only ever
/// appended, so node pointers stay stable across scheduling from inside
/// event callbacks.
struct EventNode {
  SmallFn fn;
  NodeId exec_node = kControlNode;  ///< node context the callback runs under
  EventNode* next_free = nullptr;
};

class EventPool {
 public:
  EventNode* acquire() {
    if (free_ == nullptr) grow();
    EventNode* n = free_;
    free_ = n->next_free;
    n->next_free = nullptr;
    return n;
  }
  /// Destroys the callable and returns the node to the free list.
  void release(EventNode* n) {
    n->fn.reset();
    n->next_free = free_;
    free_ = n;
  }

 private:
  static constexpr size_t kSlabNodes = 256;
  void grow();
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_ = nullptr;
};

/// What the heap actually sifts: 32 trivially-copyable bytes per event.
struct TimerEntry {
  Time at;
  NodeId node;   ///< origin node (allocated the seq)
  uint64_t seq;  ///< per-origin-node sequence number
  EventNode* event;
};

/// The total order both queues agree on.
inline bool event_key_before(Time a_at, NodeId a_node, uint64_t a_seq, Time b_at,
                             NodeId b_node, uint64_t b_seq) {
  if (a_at != b_at) return a_at < b_at;
  if (a_node != b_node) return a_node < b_node;
  return a_seq < b_seq;
}

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
  TimerEntry pop();

 private:
  static constexpr size_t kArity = 4;
  static bool before(const TimerEntry& a, const TimerEntry& b) {
    return event_key_before(a.at, a.node, a.seq, b.at, b.node, b.seq);
  }
  std::vector<TimerEntry> v_;
};

/// A woken fiber waiting its turn; carries the keep-alive the old wake
/// lambda captured and the epoch that makes stale wakes harmless.
struct ReadyEntry {
  Time at = 0;
  NodeId node = kControlNode;  ///< origin node of the wake
  uint64_t seq = 0;
  FiberPtr fiber;
  uint64_t epoch = 0;
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
  void grow();
  std::vector<ReadyEntry> buf_;
  size_t head_ = 0;
  size_t count_ = 0;
  size_t mask_ = 0;
};

class Engine {
 public:
  /// The seed feeds the engine-owned RNG that randomized simulation
  /// components draw from, and derives the per-host fault streams in the
  /// net layer. Two engines with the same seed replay bit-for-bit.
  explicit Engine(uint64_t seed = 0);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Virtual time: the dispatching event's time inside run(), the time the
  /// last run stopped at outside it.
  Time now() const { return now_; }
  uint64_t seed() const { return seed_; }
  /// The engine's deterministic RNG.
  util::Rng& rng() { return rng_; }

  /// Mints a new node. Hosts call this at construction; everything else
  /// runs on the control node.
  NodeId register_node();
  size_t node_count() const { return nodes_.size(); }

  /// Observability hub recording this engine's metrics and trace events
  /// (nullptr = observability off, the default unless a process-default hub
  /// is installed). Attaching a hub never perturbs the simulation.
  obs::Hub* obs() const { return obs_; }
  void set_obs(obs::Hub* hub);
  /// The tracer when attached and enabled, else nullptr — the one-branch
  /// guard every trace call site uses.
  obs::Tracer* tracer() const {
    return obs_ != nullptr && obs_->tracer.enabled() ? &obs_->tracer : nullptr;
  }

  /// Schedules a callback at now() + delay on the executing node.
  /// Callbacks run on the main context and must not block. Captures up to
  /// SmallFn::kInlineBytes are constructed directly inside the pooled event
  /// record — no allocation, no callable move.
  template <typename F>
  void schedule(Duration delay, F&& fn) {
    schedule_on(exec_node_, delay, std::forward<F>(fn));
  }

  /// Schedules a callback to execute under `exec_node`'s context.
  template <typename F>
  void schedule_on(NodeId exec_node, Duration delay, F&& fn) {
    assert(delay >= 0);
    assert(exec_node < nodes_.size());
    const uint64_t seq = nodes_[exec_node_].next_seq++;
    EventNode* n = pool_.acquire();
    n->fn.emplace(std::forward<F>(fn));
    n->exec_node = exec_node;
    if (obs_fn_heap_ != nullptr && n->fn.heap_allocated()) obs_fn_heap_->add(1);
    timers_.push(TimerEntry{now_ + delay, exec_node_, seq, n});
  }

  /// Creates a fiber on the executing node and schedules it to start at
  /// now() + delay.
  FiberPtr spawn(std::string name, std::function<void()> body, Duration delay = 0);
  /// Creates a fiber homed on `node` (Host::spawn uses this).
  FiberPtr spawn_on(NodeId node, std::string name, std::function<void()> body,
                    Duration delay = 0);

  /// Kills a fiber: a blocked fiber is woken with WakeReason::kKilled (its
  /// blocking primitive throws FiberKilled); a runnable/running fiber throws
  /// at its next blocking point. Idempotent.
  void kill(const FiberPtr& fiber);

  /// Runs events until the queue is empty.
  void run();
  /// Runs events with timestamp <= now()+d, then sets now() = start+d.
  void run_for(Duration d);
  /// True if no events remain.
  bool idle() const { return timers_.empty() && ready_.empty(); }
  uint64_t events_executed() const { return events_; }

  /// The fiber stack pool (stats for tests and reporting).
  const StackPool& stack_pool() const { return *stack_pool_; }

  // --- Fiber-side API (call only from inside a fiber) ---

  /// The currently running fiber, or nullptr when on the main context.
  Fiber* current() const { return current_; }

  /// Suspends the current fiber until t (virtual time). Throws FiberKilled
  /// if killed while sleeping.
  void sleep_until(Time t);
  void sleep(Duration d) { sleep_until(now() + d); }
  /// Charges CPU time to the current fiber; identical to sleep but named for
  /// intent at call sites that model computation.
  void advance(Duration d) { sleep(d); }
  /// Cooperative yield: requeue at the current time (after already-queued
  /// same-time events).
  void yield() { sleep(0); }

  /// Parks the current fiber indefinitely; resumed by wake(). Returns the
  /// wake reason (kKilled is turned into a FiberKilled throw before return).
  WakeReason block();
  /// Parks with a deadline; returns kTimer if the deadline fired first.
  WakeReason block_until(Time deadline);

  /// Wakes a blocked fiber (no-op if not blocked or already woken). The
  /// resume is queued on the ready ring — O(1) amortized, no heap traffic —
  /// and dispatched in (time, node, seq) order.
  void wake(Fiber* fiber, WakeReason reason = WakeReason::kSignal);

 private:
  friend class Fiber;

  /// Per-node determinism state.
  struct NodeState {
    uint64_t next_seq = 0;
    uint64_t next_fiber = 1;
  };

  /// Dispatches the next event in (time, node, seq) order across the ready
  /// ring and the timer heap; returns false when none remains at
  /// <= deadline (inclusive).
  bool dispatch_one(Time deadline);
  void note_event_dispatched();

  void run_until(Time deadline, bool bounded);
  void resume(Fiber* fiber);

  Time now_ = 0;
  /// The node whose context the dispatching event holds; the control node
  /// outside events.
  NodeId exec_node_ = kControlNode;
  uint64_t seed_ = 0;
  util::Rng rng_;
  obs::Hub* obs_ = nullptr;
  obs::Counter* obs_events_ = nullptr;
  obs::Counter* obs_switches_ = nullptr;
  obs::Histogram* obs_runq_ = nullptr;
  obs::Counter* obs_fn_heap_ = nullptr;
  obs::Counter* obs_stack_hits_ = nullptr;
  obs::Counter* obs_stack_misses_ = nullptr;

  std::vector<NodeState> nodes_;
  TimerHeap timers_;
  ReadyQueue ready_;
  EventPool pool_;
  /// Shared with every fiber (FiberPtrs can outlive the engine).
  std::shared_ptr<StackPool> stack_pool_ = std::make_shared<StackPool>();
  Fiber* current_ = nullptr;
#if STARFISH_FAST_CONTEXT
  /// Main context's saved stack pointer while a fiber runs.
  void* main_sp_ = nullptr;
#else
  ucontext_t main_context_{};
#endif
  uint64_t events_ = 0;  ///< events dispatched, ever
  /// Keeps fibers alive; swept opportunistically when finished.
  std::vector<FiberPtr> fibers_;
};

}  // namespace starfish::sim
