// Cooperative fibers on POSIX ucontext with guarded mmap stacks.
//
// Each simulated entity — application process, daemon, polling thread,
// failure detector — is a fiber. Fibers block on simulation primitives
// (sleep, channel recv, condition wait); the engine resumes them at later
// virtual times. Killing a fiber (host crash) unwinds its stack by throwing
// FiberKilled from the next blocking point, so RAII cleanup still runs.
//
// Every fiber has a home *node* fixed at creation: the events it schedules
// and the wakes it issues draw their order keys from that node's counter
// (DESIGN.md section 13). Node 0 is the control plane.
#pragma once

#include <ucontext.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/context.hpp"
#include "sim/stack_pool.hpp"

namespace starfish::sim {

class Engine;

/// Logical execution lane for determinism. Node 0 is the control node;
/// Engine::register_node() mints one per host. The event total order is
/// (time, node, per-node seq).
using NodeId = uint32_t;
constexpr NodeId kControlNode = 0;

/// Thrown inside a fiber when it has been killed; caught by the trampoline.
/// User code should let it propagate (catch-all handlers must rethrow it).
struct FiberKilled {};

enum class FiberState : uint8_t { kCreated, kRunnable, kRunning, kBlocked, kFinished };

/// Why a blocked fiber was resumed.
enum class WakeReason : uint8_t { kTimer, kSignal, kKilled, kClosed };

class Fiber : public std::enable_shared_from_this<Fiber> {
 public:
  Fiber(Engine& engine, NodeId node, std::string name, std::function<void()> body);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  const std::string& name() const { return name_; }
  /// (node << 32) | per-node counter: unique and deterministic.
  uint64_t id() const { return id_; }
  NodeId node() const { return node_; }
  FiberState state() const { return state_; }
  bool finished() const { return state_ == FiberState::kFinished; }
  bool killed() const { return killed_; }

 private:
  friend class Engine;
#if STARFISH_FAST_CONTEXT
  static void fast_entry(void* arg);
#else
  static void trampoline_entry(unsigned hi, unsigned lo);
#endif
  void run_body();
  /// Returns the stack to the pool; the engine calls this as soon as the
  /// fiber finishes (its context will never be resumed again), so churning
  /// workloads recycle stacks without waiting for the FiberPtr to die.
  void release_stack();

  Engine& engine_;
  std::string name_;
  uint64_t id_;
  NodeId node_;
  std::function<void()> body_;

  FiberState state_ = FiberState::kCreated;
  bool killed_ = false;
  WakeReason wake_reason_ = WakeReason::kSignal;
  /// Incremented on every block; stale wake events compare against it.
  uint64_t wait_epoch_ = 0;

#if STARFISH_FAST_CONTEXT
  /// Saved stack pointer while suspended (see sim/context.hpp).
  void* ctx_sp_ = nullptr;
#else
  ucontext_t context_{};
#endif
  /// Owns the recycling pool jointly with the engine: a FiberPtr held by
  /// user code can outlive the engine, and ~Fiber must still release.
  std::shared_ptr<StackPool> pool_;
  void* stack_base_ = nullptr;  // mmap'd region including guard page
  size_t stack_total_ = 0;
};

using FiberPtr = std::shared_ptr<Fiber>;

}  // namespace starfish::sim
