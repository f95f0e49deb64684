#include "sim/engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/log.hpp"
#include "util/simd/simd.hpp"

namespace starfish::sim {

namespace {
constexpr size_t kStackBytes = 256 * 1024;
constexpr Time kForever = std::numeric_limits<Time>::max();

#if !STARFISH_FAST_CONTEXT
// makecontext passes only ints; the fiber pointer travels as two halves.
Fiber* unpack_fiber(unsigned hi, unsigned lo) {
  uintptr_t p = (static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo);
  return reinterpret_cast<Fiber*>(p);
}
#endif
}  // namespace

// ---------------------------------------------------------------- Fiber ----

Fiber::Fiber(Engine& engine, NodeId node, std::string name, std::function<void()> body)
    : engine_(engine),
      name_(std::move(name)),
      id_((static_cast<uint64_t>(node) << 32) | engine.nodes_[node].next_fiber++),
      node_(node),
      body_(std::move(body)),
      pool_(engine.stack_pool_) {
  const StackPool::Allocation alloc = pool_->acquire(kStackBytes);
  stack_base_ = alloc.base;
  stack_total_ = alloc.total;
  if (alloc.reused) {
    if (engine.obs_stack_hits_ != nullptr) engine.obs_stack_hits_->add(1);
  } else if (engine.obs_stack_misses_ != nullptr) {
    engine.obs_stack_misses_->add(1);
  }

#if STARFISH_FAST_CONTEXT
  // Context creation is pure user-space pointer arithmetic: no getcontext
  // syscall, no signal-mask snapshot. The guard page sits at stack_base_.
  ctx_sp_ = ctx_make(static_cast<char*>(stack_base_) + stack_total_, &Fiber::fast_entry, this);
#else
  const long page = sysconf(_SC_PAGESIZE);
  getcontext(&context_);
  context_.uc_stack.ss_sp = static_cast<char*>(stack_base_) + page;
  context_.uc_stack.ss_size = stack_total_ - static_cast<size_t>(page);
  context_.uc_link = &engine.main_context_;
  const uintptr_t p = reinterpret_cast<uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline_entry), 2,
              static_cast<unsigned>(p >> 32), static_cast<unsigned>(p & 0xffffffffu));
#endif
}

Fiber::~Fiber() { release_stack(); }

void Fiber::release_stack() {
  if (stack_base_ != nullptr) {
    pool_->release(stack_base_, stack_total_);
    stack_base_ = nullptr;
  }
}

#if STARFISH_FAST_CONTEXT
void Fiber::fast_entry(void* arg) {
  Fiber* self = static_cast<Fiber*>(arg);
  self->run_body();
  // The uc_link equivalent: switch back to the engine's main context for
  // good. The engine observes kFinished there and never resumes this context
  // again.
  starfish_ctx_swap(&self->ctx_sp_, self->engine_.main_sp_);
  // Unreachable (the asm entry stub ud2s if entry ever returns).
}
#else
void Fiber::trampoline_entry(unsigned hi, unsigned lo) {
  Fiber* self = unpack_fiber(hi, lo);
  self->run_body();
  // Returning lets ucontext switch to uc_link (the engine's main context);
  // the engine observes kFinished there.
}
#endif

void Fiber::run_body() {
  try {
    body_();
  } catch (const FiberKilled&) {
    // Expected unwind path for killed fibers.
  } catch (const std::exception& e) {
    STARFISH_LOG(kError, "sim") << "fiber '" << name_ << "' died with exception: " << e.what();
  }
  state_ = FiberState::kFinished;
}

// ----------------------------------------------------------- structures ----

void EventPool::grow() {
  auto slab = std::make_unique<EventNode[]>(kSlabNodes);
  for (size_t i = 0; i < kSlabNodes; ++i) {
    slab[i].next_free = free_;
    free_ = &slab[i];
  }
  slabs_.push_back(std::move(slab));
}

TimerEntry TimerHeap::pop() {
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

void ReadyQueue::grow() {
  const size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
  std::vector<ReadyEntry> next(cap);
  for (size_t i = 0; i < count_; ++i) next[i] = std::move(buf_[(head_ + i) & mask_]);
  buf_ = std::move(next);
  head_ = 0;
  mask_ = cap - 1;
}

// --------------------------------------------------------------- Engine ----

Engine::Engine(uint64_t seed) : seed_(seed), rng_(seed) {
  nodes_.emplace_back();  // node 0: the control plane
  set_obs(obs::default_hub());
}

// Unblockable cleanup: any still-suspended fiber stacks are released
// without unwinding (back into the stack pool, which the last owner unmaps).
// Long-lived simulations should kill fibers and drain the queue before
// destroying the engine; tests that end mid-simulation rely on this path.
Engine::~Engine() = default;

void Engine::set_obs(obs::Hub* hub) {
  obs_ = hub;
  if (hub != nullptr) {
    // Which kernel table the data plane dispatched to (0=scalar, 1=neon,
    // 2=avx2, 3=avx512), so bench JSON and metric snapshots are
    // self-describing about the ISA they were measured under.
    hub->metrics.gauge("sim.simd.dispatch")
        .set(static_cast<int64_t>(util::simd::level()));
  }
  obs_events_ = hub ? &hub->metrics.counter("sim.events_executed") : nullptr;
  obs_switches_ = hub ? &hub->metrics.counter("sim.fiber_switches") : nullptr;
  obs_runq_ = hub ? &hub->metrics.histogram("sim.run_queue_depth",
                                            obs::HistogramSpec::exponential(1, 2.0, 20))
                  : nullptr;
  obs_fn_heap_ = hub ? &hub->metrics.counter("sim.event_fn_heap") : nullptr;
  obs_stack_hits_ = hub ? &hub->metrics.counter("sim.stack_pool.hits") : nullptr;
  obs_stack_misses_ = hub ? &hub->metrics.counter("sim.stack_pool.misses") : nullptr;
}

NodeId Engine::register_node() {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back();
  return id;
}

FiberPtr Engine::spawn(std::string name, std::function<void()> body, Duration delay) {
  return spawn_on(exec_node_, std::move(name), std::move(body), delay);
}

FiberPtr Engine::spawn_on(NodeId node, std::string name, std::function<void()> body,
                          Duration delay) {
  assert(node < nodes_.size());
  auto fiber = std::make_shared<Fiber>(*this, node, std::move(name), std::move(body));
  fibers_.push_back(fiber);
  fiber->state_ = FiberState::kRunnable;
  schedule_on(node, delay, [this, fiber] {
    if (fiber->state_ == FiberState::kRunnable && !fiber->killed_) resume(fiber.get());
  });
  return fiber;
}

void Engine::kill(const FiberPtr& fiber) {
  Fiber* f = fiber.get();
  if (f == nullptr || f->finished() || f->killed_) return;
  f->killed_ = true;
  if (f->state_ == FiberState::kBlocked) wake(f, WakeReason::kKilled);
  // Runnable-but-not-yet-started fibers simply never start (spawn's start
  // event checks killed_); running fibers throw at their next block.
}

void Engine::note_event_dispatched() {
  ++events_;
  if (obs_events_ != nullptr) {
    obs_events_->add(1);
    obs_runq_->record(timers_.size() + ready_.size());
  }
}

bool Engine::dispatch_one(Time deadline) {
  // Pick the smallest (time, node, seq) across the ready ring and the timer
  // heap. Ready entries carry keys from the same per-node counters timers
  // draw from, so this interleaving is exactly the total order.
  bool take_ready;
  if (ready_.empty()) {
    if (timers_.empty()) return false;
    take_ready = false;
  } else if (timers_.empty()) {
    take_ready = true;
  } else {
    const ReadyEntry& r = ready_.front();
    const TimerEntry& t = timers_.top();
    take_ready = event_key_before(r.at, r.node, r.seq, t.at, t.node, t.seq);
  }

  if (take_ready) {
    if (ready_.front().at > deadline) return false;
    ReadyEntry e = ready_.pop();
    assert(e.at >= now_);
    now_ = e.at;
    // The stamp is only ever read through the hub (Tracer::push), so an
    // unobserved engine skips the write — it is measurable per event.
    if (obs_ != nullptr) obs::trace_order() = obs::TraceOrder{e.at, e.node, e.seq, 0};
    note_event_dispatched();
    Fiber* f = e.fiber.get();
    // Same guards the old wake event applied: the epoch and state checks
    // make stale or duplicate wakes harmless (the fiber may already have
    // resumed and re-blocked).
    if (f->state_ == FiberState::kRunnable && f->wait_epoch_ == e.epoch && !f->finished()) {
      exec_node_ = f->node_;
      resume(f);
      exec_node_ = kControlNode;
    }
  } else {
    if (timers_.top().at > deadline) return false;
    TimerEntry t = timers_.pop();
    assert(t.at >= now_);
    now_ = t.at;
    if (obs_ != nullptr) obs::trace_order() = obs::TraceOrder{t.at, t.node, t.seq, 0};
    note_event_dispatched();
    exec_node_ = t.event->exec_node;
    t.event->fn();
    exec_node_ = kControlNode;
    pool_.release(t.event);
  }

  // Periodically drop finished fibers so long simulations don't grow. Both
  // run() and run_for() dispatch through here.
  if ((events_ & 0x3ff) == 0) {
    std::erase_if(fibers_, [](const FiberPtr& f) { return f->finished() && f.use_count() == 1; });
  }
  return true;
}

void Engine::run() {
  assert(current() == nullptr && "Engine::run called from inside a fiber");
  run_until(kForever, /*bounded=*/false);
}

void Engine::run_for(Duration d) {
  assert(current() == nullptr && "Engine::run_for called from inside a fiber");
  run_until(now_ + d, /*bounded=*/true);
}

void Engine::run_until(Time deadline, bool bounded) {
  while (dispatch_one(deadline)) {
  }
  if (bounded) now_ = deadline;
  // Re-stamp the trace order deterministically: records emitted between
  // runs sort after every event up to now (node UINT32_MAX outranks all
  // real nodes).
  obs::trace_order() = obs::TraceOrder{now_, UINT32_MAX, 0, 0};
}

void Engine::resume(Fiber* fiber) {
  assert(current_ == nullptr && "nested fiber resume");
  assert(!fiber->finished());
  current_ = fiber;
  fiber->state_ = FiberState::kRunning;
  if (obs_switches_ != nullptr) obs_switches_->add(1);
#if STARFISH_FAST_CONTEXT
  starfish_ctx_swap(&main_sp_, fiber->ctx_sp_);
#else
  swapcontext(&main_context_, &fiber->context_);
#endif
  current_ = nullptr;
  // A finished fiber's context never runs again: recycle the stack now,
  // not when the last FiberPtr dies, so spawn churn reuses stacks
  // immediately.
  if (fiber->finished()) fiber->release_stack();
}

WakeReason Engine::block() {
  Fiber* f = current_;
  assert(f != nullptr && "block() outside a fiber");
  if (f->killed_) throw FiberKilled{};
  f->state_ = FiberState::kBlocked;
  ++f->wait_epoch_;
#if STARFISH_FAST_CONTEXT
  starfish_ctx_swap(&f->ctx_sp_, main_sp_);
#else
  swapcontext(&f->context_, &main_context_);
#endif
  // Resumed.
  if (f->wake_reason_ == WakeReason::kKilled || f->killed_) throw FiberKilled{};
  return f->wake_reason_;
}

WakeReason Engine::block_until(Time deadline) {
  Fiber* f = current_;
  assert(f != nullptr && "block_until() outside a fiber");
  if (f->killed_) throw FiberKilled{};
  const uint64_t epoch = f->wait_epoch_ + 1;  // epoch this block will have
  // Capture a shared_ptr: the timer may outlive the fiber if it is woken
  // early by a signal and then finishes. The capture set (this + keep +
  // epoch) fits SmallFn's inline buffer, so no allocation.
  schedule(deadline - now_ < 0 ? 0 : deadline - now_,
           [this, keep = f->shared_from_this(), epoch] {
             if (keep->state_ == FiberState::kBlocked && keep->wait_epoch_ == epoch) {
               wake(keep.get(), WakeReason::kTimer);
             }
           });
  return block();
}

void Engine::sleep_until(Time t) {
  (void)block_until(t);
}

void Engine::wake(Fiber* fiber, WakeReason reason) {
  if (fiber == nullptr || fiber->state_ != FiberState::kBlocked) return;
  fiber->state_ = FiberState::kRunnable;
  fiber->wake_reason_ = reason;
  // O(1) amortized ready-ring enqueue: no heap round-trip, no callback
  // allocation on the dominant block/wake/resume cycle. The (node, seq) key
  // keeps the total order.
  ready_.push(ReadyEntry{now_, exec_node_, nodes_[exec_node_].next_seq++,
                         fiber->shared_from_this(), fiber->wait_epoch_});
}

}  // namespace starfish::sim
