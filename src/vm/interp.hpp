// Bytecode interpreter with a host-escape (syscall) protocol.
//
// The interpreter never touches the network or the clock itself: when the
// program executes a syscall it returns control to the host (the Starfish
// application module), which performs the operation — possibly blocking its
// fiber on MPI traffic or a checkpoint — and resumes. This is what makes a
// VM program checkpointable at any syscall boundary and restartable on a
// different machine.
//
// Execution engine (DESIGN.md section 12): programs the verifier can
// analyze run on a direct-threaded fast loop (computed goto where the
// compiler supports it, a portable switch otherwise) over prepared code
// with proven underflow/type checks elided, data-dependent checks (heap
// bounds, tags of loaded values) done inline in front of an escape, and hot
// idioms fused into superinstructions. Anything unproven — and any program
// that fails analysis outright — executes through the original
// fully-checked single-step, so observable behavior (state, traps, step
// counts, checkpoint images) is bit-identical across all dispatch
// configurations.
#pragma once

#include <string>

#include "obs/obs.hpp"
#include "vm/bytecode.hpp"
#include "vm/exec.hpp"
#include "vm/value.hpp"
#include "vm/verify.hpp"

namespace starfish::vm {

enum class RunStatus : uint8_t {
  kRunning = 0,  ///< step budget exhausted, more work to do
  kHalted,
  kTrap,
  kSyscall,  ///< host must service pending_syscall() and call run() again
};

struct RunResult {
  RunStatus status = RunStatus::kRunning;
  Syscall syscall = Syscall::kPrint;
  std::string trap;
};

class Interpreter {
 public:
  /// Dispatch selection, mainly for differential tests: kFast is the real
  /// engine, kFastNoFuse disables only the superinstruction peephole, and
  /// kChecked pins the original fully-checked loop. All three produce
  /// bit-identical observable behavior.
  enum class Dispatch : uint8_t { kFast = 0, kFastNoFuse, kChecked };

  Interpreter(const Program& program, sim::Machine machine,
              Dispatch dispatch = Dispatch::kFast);

  /// Resets state and enters `entry` (trap if missing).
  void start(const std::string& entry = "main");

  /// Executes until halt, trap, syscall, or `max_steps` instructions.
  RunResult run(uint64_t max_steps = UINT64_MAX);

  // --- syscall servicing (host side) ---
  /// Pops the top of the operand stack. Popping an empty stack is a host
  /// protocol violation (a syscall consumed arguments the program never
  /// pushed); it is reported as a trap on the next run() instead of being
  /// silently absorbed as unit.
  Value pop_value();
  void push_value(Value v);
  /// Peeks `depth` values below the top of the stack (0 = top) without
  /// popping — used to read syscall arguments while keeping the state
  /// restartable during a blocking operation. Callers must check
  /// stack_depth() (or the returned tag) before trusting the value: peeking
  /// past the end returns unit.
  Value peek_value(size_t depth = 0) const {
    if (depth >= state_.stack.size()) return Value::unit();
    return state_.stack[state_.stack.size() - 1 - depth];
  }
  size_t stack_depth() const { return state_.stack.size(); }
  /// Marks the pending syscall done: advances past the instruction. Call
  /// after popping the arguments and pushing any result.
  void complete_syscall() {
    if (!state_.frames.empty()) {
      ++state_.frames.back().pc;
      ++state_.steps_executed;
      if (obs_retired_ != nullptr) obs_retired_->add(1);
    }
  }

  // --- state access (checkpointing) ---
  const VmState& state() const { return state_; }
  VmState& mutable_state() { return state_; }
  /// Installs a restored state; arithmetic continues under this
  /// interpreter's machine (which may differ from the saving machine).
  /// The state is vetted against the verifier's depth and tag facts before
  /// the fast loop will touch it; anything inconsistent (corrupt or
  /// hand-crafted images) runs on the checked loop, which re-validates
  /// everything per instruction.
  void set_state(VmState s);

  const sim::Machine& machine() const { return machine_; }
  const Program& program() const { return program_; }
  bool halted() const { return halted_; }

  /// True when the verifier licensed the fast loop for this program (and
  /// the current state passed restore vetting).
  bool fast_dispatch() const {
    return dispatch_ != Dispatch::kChecked && state_fast_ok_;
  }

  /// Execution counters, mirrored into `sim.vm.*` when a hub is attached.
  struct ExecStats {
    uint64_t fast_instrs = 0;     ///< retired with checks elided
    uint64_t checked_instrs = 0;  ///< retired through the checked step
    uint64_t fused_hits = 0;      ///< superinstructions executed
  };
  const ExecStats& exec_stats() const { return stats_; }

  /// Attaches sim.vm.* counters (instructions retired, fast vs checked
  /// dispatch, fused-op hits) to `hub`; nullptr detaches.
  void set_obs(obs::Hub* hub);

 private:
  enum class StepOutcome : uint8_t { kContinue = 0, kHalted, kTrap, kSyscall };

  RunResult run_checked(uint64_t max_steps);
  RunResult run_fast(uint64_t max_steps);
  /// Executes exactly one instruction with every runtime check — the
  /// original interpreter loop body, shared verbatim by the checked loop
  /// and the fast loop's escape hatch.
  StepOutcome step_checked_one(RunResult& out);

  RunResult trap(std::string why);
  bool pop2_ints(int64_t& a, int64_t& b, RunResult& out);
  bool pop2_floats(double& a, double& b, RunResult& out);
  /// Internal pop preserving the legacy "empty pops unit" behavior the
  /// checked opcodes rely on for their own trap messages.
  Value pop_or_unit() {
    if (state_.stack.empty()) return Value::unit();
    Value v = state_.stack.back();
    state_.stack.pop_back();
    return v;
  }
  /// Machine-word wrap as a precomputed shift pair (0 on 64-bit machines):
  /// hoisted out of the hot loop instead of a per-run lambda.
  int64_t wrap(int64_t v) const {
    return static_cast<int64_t>(static_cast<uint64_t>(v) << wrap_shift_) >>
           wrap_shift_;
  }
  bool restored_state_fast_ok() const;
  void note_fast(uint64_t n, uint64_t fused);
  void note_checked(uint64_t n);

  const Program& program_;
  sim::Machine machine_;
  VmState state_;
  bool halted_ = false;

  Dispatch dispatch_ = Dispatch::kChecked;
  bool state_fast_ok_ = true;
  unsigned wrap_shift_ = 0;
  PreparedProgram prepared_;
  std::string host_trap_;
  ExecStats stats_;
  obs::Counter* obs_retired_ = nullptr;
  obs::Counter* obs_fast_ = nullptr;
  obs::Counter* obs_checked_ = nullptr;
  obs::Counter* obs_fused_ = nullptr;
};

}  // namespace starfish::vm
