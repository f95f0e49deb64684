#include "vm/interp.hpp"

#include <utility>

namespace starfish::vm {

// Computed-goto (direct-threaded) dispatch where the compiler supports the
// GNU label-address extension; -DSTARFISH_VM_SWITCH_DISPATCH (CMake option)
// pins the portable switch loop instead, e.g. for sanitized builds or
// foreign compilers. Both loops execute the same op bodies via the VM_OP /
// VM_NEXT macros below.
#if defined(__GNUC__) && !defined(STARFISH_VM_SWITCH_DISPATCH)
#define STARFISH_VM_CGOTO 1
#endif

namespace {

inline bool fast_compare(Op op, double a, double b) {
  switch (op) {
    case Op::kEq: return a == b;
    case Op::kNe: return a != b;
    case Op::kLt: return a < b;
    case Op::kLe: return a <= b;
    case Op::kGt: return a > b;
    default: return a >= b;  // kGe — peephole only emits compare ops
  }
}

inline int64_t fast_int_arith(Op op, int64_t a, int64_t b) {
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    default: return a * b;  // kMul — peephole only emits add/sub/mul
  }
}

/// The array `ref` of the `heap_size`-object heap at `heap` when the checked
/// aload/astore would not trap on its element `idx` (ref not dangling, an
/// array, idx in bounds), else nullptr.
inline HeapObject* array_at(HeapObject* heap, size_t heap_size, HeapIndex ref, int64_t idx) {
  if (ref >= heap_size) return nullptr;
  HeapObject& obj = heap[ref];
  if (obj.kind != HeapObject::Kind::kArray || static_cast<uint64_t>(idx) >= obj.size()) {
    return nullptr;
  }
  return &obj;
}

}  // namespace

Interpreter::Interpreter(const Program& program, sim::Machine machine,
                         Dispatch dispatch)
    : program_(program),
      machine_(std::move(machine)),
      dispatch_(dispatch),
      // wrap_to_word is "truncate to int32" for any word under 8 bytes, so
      // the shift pair is 32 there and the identity (0) on 64-bit machines.
      wrap_shift_(machine_.word_bytes >= 8 ? 0u : 32u) {
  if (dispatch_ != Dispatch::kChecked) {
    prepared_ = prepare_program(program_, analyze(program_), machine_,
                                dispatch_ == Dispatch::kFast);
    if (!prepared_.any_fast) dispatch_ = Dispatch::kChecked;
  }
}

void Interpreter::start(const std::string& entry) {
  state_ = VmState{};
  halted_ = false;
  host_trap_.clear();
  state_fast_ok_ = true;
  const int fn = program_.function_index(entry);
  if (fn < 0) {
    halted_ = true;
    return;
  }
  Frame frame;
  frame.function = static_cast<uint32_t>(fn);
  frame.pc = 0;
  frame.locals.assign(program_.functions[static_cast<size_t>(fn)].n_locals, Value::unit());
  state_.frames.push_back(std::move(frame));
}

Value Interpreter::pop_value() {
  if (state_.stack.empty()) {
    host_trap_ = "host pop on empty stack";
    return Value::unit();
  }
  Value v = state_.stack.back();
  state_.stack.pop_back();
  return v;
}

void Interpreter::push_value(Value v) { state_.stack.push_back(v); }

void Interpreter::set_state(VmState s) {
  state_ = std::move(s);
  halted_ = false;
  host_trap_.clear();
  state_fast_ok_ = dispatch_ != Dispatch::kChecked && restored_state_fast_ok();
}

// The verifier's depth and tag facts hold for states *this interpreter*
// produced, but set_state() accepts arbitrary images (a corrupt checkpoint,
// a hand-built test state). Vet the restored state against the facts before
// letting the fast loop elide checks on it: every frame must sit in an
// analyzed function at a reachable pc with the right locals count, the
// facts' stack depths must add up to the actual operand stack, and every
// local and stack slot must carry the tag the facts proved for it. A
// non-top frame is parked right after a call, so it owns depth-at-pc minus
// the callee result that is not on the stack yet. Anything inconsistent
// runs on the checked loop, which re-validates per instruction. The facts
// are recomputed here rather than kept: a restore is rare, and per-pc tags
// would cost every interpreter memory for its whole life.
bool Interpreter::restored_state_fast_ok() const {
  const ProgramFacts facts = analyze(program_);
  const auto tag_ok = [](uint8_t proven, const Value& v) {
    return proven == kTagUnknown || proven == static_cast<uint8_t>(v.tag);
  };
  size_t base = 0;  // first stack slot the current frame owns
  for (size_t i = 0; i < state_.frames.size(); ++i) {
    const Frame& fr = state_.frames[i];
    if (fr.function >= program_.functions.size()) return false;
    const Function& fn = program_.functions[fr.function];
    const FunctionFacts& ff = facts.functions[fr.function];
    if (!ff.analyzed) return false;
    if (fr.locals.size() != fn.n_locals) return false;
    if (fr.pc >= ff.depth.size()) return false;
    const int32_t dep = ff.depth[fr.pc];
    if (dep < 0) return false;  // pc the dataflow proved unreachable
    size_t own = static_cast<size_t>(dep);
    if (i + 1 != state_.frames.size()) {
      // Parked right after a reachable call, whose result slot (unknown tag
      // in the facts) the callee's ret will push.
      if (fr.pc == 0 || fn.code[fr.pc - 1].op != Op::kCall ||
          ff.depth[fr.pc - 1] < 0 || dep < 1) {
        return false;
      }
      --own;
    }
    if (base + own > state_.stack.size()) return false;
    const SlotTags& tags = ff.tags[fr.pc];
    for (size_t k = 0; k < own; ++k) {
      if (!tag_ok(tags.stack[k], state_.stack[base + k])) return false;
    }
    for (size_t k = 0; k < fr.locals.size(); ++k) {
      if (!tag_ok(tags.locals[k], fr.locals[k])) return false;
    }
    base += own;
  }
  return base == state_.stack.size();
}

void Interpreter::set_obs(obs::Hub* hub) {
  if (hub == nullptr) {
    obs_retired_ = nullptr;
    obs_fast_ = nullptr;
    obs_checked_ = nullptr;
    obs_fused_ = nullptr;
    return;
  }
  obs_retired_ = &hub->metrics.counter("sim.vm.instructions_retired");
  obs_fast_ = &hub->metrics.counter("sim.vm.dispatch_fast");
  obs_checked_ = &hub->metrics.counter("sim.vm.dispatch_checked");
  obs_fused_ = &hub->metrics.counter("sim.vm.fused_hits");
}

void Interpreter::note_fast(uint64_t n, uint64_t fused) {
  if (n == 0 && fused == 0) return;
  stats_.fast_instrs += n;
  stats_.fused_hits += fused;
  if (obs_retired_ != nullptr) {
    obs_retired_->add(n);
    obs_fast_->add(n);
    if (fused != 0) obs_fused_->add(fused);
  }
}

void Interpreter::note_checked(uint64_t n) {
  if (n == 0) return;
  stats_.checked_instrs += n;
  if (obs_retired_ != nullptr) {
    obs_retired_->add(n);
    obs_checked_->add(n);
  }
}

RunResult Interpreter::trap(std::string why) {
  halted_ = true;
  RunResult r;
  r.status = RunStatus::kTrap;
  r.trap = std::move(why);
  return r;
}

bool Interpreter::pop2_ints(int64_t& a, int64_t& b, RunResult& out) {
  if (state_.stack.size() < 2) {
    out = trap("stack underflow");
    return false;
  }
  Value vb = pop_or_unit(), va = pop_or_unit();
  if (va.tag != Tag::kInt || vb.tag != Tag::kInt) {
    out = trap("type error: expected two ints");
    return false;
  }
  a = va.i;
  b = vb.i;
  return true;
}

bool Interpreter::pop2_floats(double& a, double& b, RunResult& out) {
  if (state_.stack.size() < 2) {
    out = trap("stack underflow");
    return false;
  }
  Value vb = pop_or_unit(), va = pop_or_unit();
  if (va.tag != Tag::kFloat || vb.tag != Tag::kFloat) {
    out = trap("type error: expected two floats");
    return false;
  }
  a = va.f;
  b = vb.f;
  return true;
}

RunResult Interpreter::run(uint64_t max_steps) {
  if (halted_) {
    RunResult out;
    out.status = RunStatus::kHalted;
    return out;
  }
  if (!host_trap_.empty()) {
    std::string why = std::move(host_trap_);
    host_trap_.clear();
    return trap(std::move(why));
  }
  if (dispatch_ != Dispatch::kChecked && state_fast_ok_) return run_fast(max_steps);
  return run_checked(max_steps);
}

// ------------------------------------------------------- checked loop ----
//
// The original interpreter, loop body factored into step_checked_one() so
// the fast loop's escape hatch executes the exact same code (and therefore
// produces the exact same traps, stack effects and step accounting).

RunResult Interpreter::run_checked(uint64_t max_steps) {
  RunResult out;
  out.status = RunStatus::kRunning;
  const uint64_t before = state_.steps_executed;
  for (uint64_t step = 0; step < max_steps; ++step) {
    if (state_.frames.empty()) {
      halted_ = true;
      out.status = RunStatus::kHalted;
      break;
    }
    if (step_checked_one(out) != StepOutcome::kContinue) break;
  }
  note_checked(state_.steps_executed - before);
  return out;
}

Interpreter::StepOutcome Interpreter::step_checked_one(RunResult& out) {
  Frame& frame = state_.frames.back();
  if (frame.function >= program_.functions.size()) {
    out = trap("bad function index");
    return StepOutcome::kTrap;
  }
  const Function& fn = program_.functions[frame.function];
  if (frame.pc >= fn.code.size()) {
    out = trap("pc out of range in " + fn.name);
    return StepOutcome::kTrap;
  }
  const Instr& instr = fn.code[frame.pc];
  ++frame.pc;
  ++state_.steps_executed;

  switch (instr.op) {
    case Op::kNop: break;
    case Op::kPushInt: push_value(Value::integer(wrap(instr.imm_i))); break;
    case Op::kPushFloat: push_value(Value::real(instr.imm_f)); break;
    case Op::kPushBool: push_value(Value::boolean(instr.imm_i != 0)); break;
    case Op::kPushUnit: push_value(Value::unit()); break;
    case Op::kPop:
      if (state_.stack.empty()) {
        out = trap("pop on empty stack");
        return StepOutcome::kTrap;
      }
      state_.stack.pop_back();
      break;
    case Op::kDup:
      if (state_.stack.empty()) {
        out = trap("dup on empty stack");
        return StepOutcome::kTrap;
      }
      push_value(state_.stack.back());
      break;
    case Op::kSwap: {
      if (state_.stack.size() < 2) {
        out = trap("swap underflow");
        return StepOutcome::kTrap;
      }
      std::swap(state_.stack[state_.stack.size() - 1], state_.stack[state_.stack.size() - 2]);
      break;
    }
    case Op::kLoadLocal: {
      const auto idx = static_cast<size_t>(instr.imm_i);
      if (idx >= frame.locals.size()) {
        out = trap("local index out of range");
        return StepOutcome::kTrap;
      }
      push_value(frame.locals[idx]);
      break;
    }
    case Op::kStoreLocal: {
      const auto idx = static_cast<size_t>(instr.imm_i);
      if (idx >= frame.locals.size()) {
        out = trap("local index out of range");
        return StepOutcome::kTrap;
      }
      if (state_.stack.empty()) {
        out = trap("store_local underflow");
        return StepOutcome::kTrap;
      }
      frame.locals[idx] = pop_or_unit();
      break;
    }
    case Op::kLoadGlobal: {
      // Bound matches the verifier's structural prepass: a negative index
      // used to be cast to size_t and fed to resize(), throwing
      // std::length_error out of run() instead of trapping.
      if (instr.imm_i < 0 || instr.imm_i > 1'000'000) {
        out = trap("global index out of range");
        return StepOutcome::kTrap;
      }
      const auto idx = static_cast<size_t>(instr.imm_i);
      if (idx >= state_.globals.size()) state_.globals.resize(idx + 1, Value::unit());
      push_value(state_.globals[idx]);
      break;
    }
    case Op::kStoreGlobal: {
      if (instr.imm_i < 0 || instr.imm_i > 1'000'000) {
        out = trap("global index out of range");
        return StepOutcome::kTrap;
      }
      const auto idx = static_cast<size_t>(instr.imm_i);
      if (idx >= state_.globals.size()) state_.globals.resize(idx + 1, Value::unit());
      if (state_.stack.empty()) {
        out = trap("store_global underflow");
        return StepOutcome::kTrap;
      }
      state_.globals[idx] = pop_or_unit();
      break;
    }

    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv: case Op::kMod: {
      int64_t a, b;
      if (!pop2_ints(a, b, out)) return StepOutcome::kTrap;
      int64_t r = 0;
      switch (instr.op) {
        case Op::kAdd: r = a + b; break;
        case Op::kSub: r = a - b; break;
        case Op::kMul: r = a * b; break;
        case Op::kDiv:
          if (b == 0) {
            out = trap("division by zero");
            return StepOutcome::kTrap;
          }
          r = a / b;
          break;
        case Op::kMod:
          if (b == 0) {
            out = trap("modulo by zero");
            return StepOutcome::kTrap;
          }
          r = a % b;
          break;
        default: break;
      }
      push_value(Value::integer(wrap(r)));
      break;
    }
    case Op::kNeg: {
      Value v = pop_or_unit();
      if (v.tag == Tag::kInt) {
        push_value(Value::integer(wrap(-v.i)));
      } else if (v.tag == Tag::kFloat) {
        push_value(Value::real(-v.f));
      } else {
        out = trap("neg on non-number");
        return StepOutcome::kTrap;
      }
      break;
    }
    case Op::kFAdd: case Op::kFSub: case Op::kFMul: case Op::kFDiv: {
      double a, b;
      if (!pop2_floats(a, b, out)) return StepOutcome::kTrap;
      double r = 0;
      switch (instr.op) {
        case Op::kFAdd: r = a + b; break;
        case Op::kFSub: r = a - b; break;
        case Op::kFMul: r = a * b; break;
        case Op::kFDiv: r = a / b; break;
        default: break;
      }
      push_value(Value::real(r));
      break;
    }
    case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe: case Op::kGt: case Op::kGe: {
      if (state_.stack.size() < 2) {
        out = trap("compare underflow");
        return StepOutcome::kTrap;
      }
      Value vb = pop_or_unit(), va = pop_or_unit();
      double a, b;
      if (va.tag == Tag::kInt && vb.tag == Tag::kInt) {
        a = static_cast<double>(va.i);
        b = static_cast<double>(vb.i);
      } else if (va.tag == Tag::kFloat && vb.tag == Tag::kFloat) {
        a = va.f;
        b = vb.f;
      } else if (va.tag == Tag::kBool && vb.tag == Tag::kBool) {
        a = static_cast<double>(va.i);
        b = static_cast<double>(vb.i);
      } else {
        out = trap("compare type mismatch");
        return StepOutcome::kTrap;
      }
      bool r = false;
      switch (instr.op) {
        case Op::kEq: r = a == b; break;
        case Op::kNe: r = a != b; break;
        case Op::kLt: r = a < b; break;
        case Op::kLe: r = a <= b; break;
        case Op::kGt: r = a > b; break;
        case Op::kGe: r = a >= b; break;
        default: break;
      }
      push_value(Value::boolean(r));
      break;
    }
    case Op::kAnd: case Op::kOr: {
      int64_t a, b;
      if (!pop2_ints(a, b, out)) return StepOutcome::kTrap;
      push_value(Value::integer(instr.op == Op::kAnd ? (a & b) : (a | b)));
      break;
    }
    case Op::kNot: {
      Value v = pop_or_unit();
      if (v.tag != Tag::kBool) {
        out = trap("not on non-bool");
        return StepOutcome::kTrap;
      }
      push_value(Value::boolean(v.i == 0));
      break;
    }
    case Op::kI2F: {
      Value v = pop_or_unit();
      if (v.tag != Tag::kInt) {
        out = trap("i2f on non-int");
        return StepOutcome::kTrap;
      }
      push_value(Value::real(static_cast<double>(v.i)));
      break;
    }
    case Op::kF2I: {
      Value v = pop_or_unit();
      if (v.tag != Tag::kFloat) {
        out = trap("f2i on non-float");
        return StepOutcome::kTrap;
      }
      push_value(Value::integer(wrap(static_cast<int64_t>(v.f))));
      break;
    }

    case Op::kJmp:
      frame.pc = static_cast<uint32_t>(instr.imm_i);
      break;
    case Op::kJmpIfFalse: {
      Value v = pop_or_unit();
      if (v.tag != Tag::kBool) {
        out = trap("jmp_if_false on non-bool");
        return StepOutcome::kTrap;
      }
      if (v.i == 0) frame.pc = static_cast<uint32_t>(instr.imm_i);
      break;
    }
    case Op::kCall: {
      const auto callee_idx = static_cast<size_t>(instr.imm_i);
      if (callee_idx >= program_.functions.size()) {
        out = trap("call: bad function");
        return StepOutcome::kTrap;
      }
      const Function& callee = program_.functions[callee_idx];
      if (state_.stack.size() < callee.n_args) {
        out = trap("call: missing args");
        return StepOutcome::kTrap;
      }
      Frame next;
      next.function = static_cast<uint32_t>(callee_idx);
      next.pc = 0;
      next.locals.assign(callee.n_locals, Value::unit());
      for (uint32_t a = callee.n_args; a > 0; --a) next.locals[a - 1] = pop_or_unit();
      state_.frames.push_back(std::move(next));
      break;
    }
    case Op::kRet: {
      Value v = state_.stack.empty() ? Value::unit() : pop_or_unit();
      state_.frames.pop_back();
      if (state_.frames.empty()) {
        halted_ = true;
        out.status = RunStatus::kHalted;
        return StepOutcome::kHalted;
      }
      push_value(v);
      break;
    }
    case Op::kHalt:
      halted_ = true;
      out.status = RunStatus::kHalted;
      return StepOutcome::kHalted;

    case Op::kNewArray: {
      Value len = pop_or_unit();
      if (len.tag != Tag::kInt || len.i < 0) {
        out = trap("new_array: bad length");
        return StepOutcome::kTrap;
      }
      HeapObject obj;
      obj.kind = HeapObject::Kind::kArray;
      obj.assign(static_cast<size_t>(len.i), Value::unit());
      state_.heap.push_back(std::move(obj));
      push_value(Value::reference(static_cast<HeapIndex>(state_.heap.size() - 1)));
      break;
    }
    case Op::kNewBytes: {
      Value len = pop_or_unit();
      if (len.tag != Tag::kInt || len.i < 0) {
        out = trap("new_bytes: bad length");
        return StepOutcome::kTrap;
      }
      HeapObject obj;
      obj.kind = HeapObject::Kind::kBytes;
      obj.bytes.assign(static_cast<size_t>(len.i), std::byte{0});
      state_.heap.push_back(std::move(obj));
      push_value(Value::reference(static_cast<HeapIndex>(state_.heap.size() - 1)));
      break;
    }
    case Op::kALoad: {
      if (state_.stack.size() < 2) {
        out = trap("aload underflow");
        return StepOutcome::kTrap;
      }
      Value idx = pop_or_unit(), ref = pop_or_unit();
      if (ref.tag != Tag::kRef || idx.tag != Tag::kInt) {
        out = trap("aload: bad operands");
        return StepOutcome::kTrap;
      }
      if (ref.ref >= state_.heap.size()) {
        out = trap("aload: dangling ref");
        return StepOutcome::kTrap;
      }
      HeapObject& obj = state_.heap[ref.ref];
      if (obj.kind != HeapObject::Kind::kArray) {
        out = trap("aload: not an array");
        return StepOutcome::kTrap;
      }
      if (idx.i < 0 || static_cast<size_t>(idx.i) >= obj.size()) {
        out = trap("aload: index out of bounds");
        return StepOutcome::kTrap;
      }
      push_value(obj.get(static_cast<size_t>(idx.i)));
      break;
    }
    case Op::kAStore: {
      if (state_.stack.size() < 3) {
        out = trap("astore underflow");
        return StepOutcome::kTrap;
      }
      Value val = pop_or_unit(), idx = pop_or_unit(), ref = pop_or_unit();
      if (ref.tag != Tag::kRef || idx.tag != Tag::kInt) {
        out = trap("astore: bad operands");
        return StepOutcome::kTrap;
      }
      if (ref.ref >= state_.heap.size()) {
        out = trap("astore: dangling ref");
        return StepOutcome::kTrap;
      }
      HeapObject& obj = state_.heap[ref.ref];
      if (obj.kind != HeapObject::Kind::kArray) {
        out = trap("astore: not an array");
        return StepOutcome::kTrap;
      }
      if (idx.i < 0 || static_cast<size_t>(idx.i) >= obj.size()) {
        out = trap("astore: index out of bounds");
        return StepOutcome::kTrap;
      }
      obj.set(static_cast<size_t>(idx.i), val);
      break;
    }
    case Op::kALen: {
      Value ref = pop_or_unit();
      if (ref.tag != Tag::kRef || ref.ref >= state_.heap.size()) {
        out = trap("alen: bad ref");
        return StepOutcome::kTrap;
      }
      const HeapObject& obj = state_.heap[ref.ref];
      const size_t n = obj.kind == HeapObject::Kind::kArray ? obj.size() : obj.bytes.size();
      push_value(Value::integer(static_cast<int64_t>(n)));
      break;
    }

    case Op::kSyscall:
      // Restartable syscalls: pc stays AT the syscall instruction (and the
      // operand stack untouched) until the host calls complete_syscall().
      // A checkpoint taken while the process is blocked inside a syscall
      // therefore captures a consistent "about to execute it" state, and a
      // restore simply re-executes the call (receives are replayed from
      // the saved channel state).
      --frame.pc;
      --state_.steps_executed;
      out.status = RunStatus::kSyscall;
      out.syscall = static_cast<Syscall>(instr.imm_i);
      return StepOutcome::kSyscall;
  }
  return StepOutcome::kContinue;
}


// ---------------------------------------------------------- fast loop ----
//
// Executes prepared code (vm/exec.hpp) with verifier-elided checks. The
// invariants that keep it bit-identical to the checked loop:
//  - pc and frames stay in ORIGINAL bytecode coordinates; every handler
//    advances pc and the step count by its op's compile-time length
//    (xop_len: 1, or a superinstruction's component count), and a
//    superinstruction first checks that the budget covers all of it — if
//    the budget would expire inside one, the remaining components execute
//    singly through the checked step instead, so it never straddles a run()
//    boundary.
//  - the budget `left` counts down per retired instruction; the fast
//    instructions retired since the last flush (its drop since then) are
//    flushed to state_.steps_executed at every exit, so a checkpoint cut at
//    any kSyscall/kRunning boundary sees the same count the checked loop
//    produces.
//  - `sp` is the real operand-stack top. While the loop runs, the `stack`
//    vector is at least the frame's headroom (depth + the verifier's
//    max_stack) long; it is cut back to `sp` before every exit and every
//    checked step, so the host and the checked code see the exact stack.
//    Call and ret stay inside the loop and keep the headroom.
//  - the heap is re-read at every frame entry: inside the loop only the
//    checked step allocates, and it always returns through load_frame.
//  - any entry the verifier could not prove runs through
//    step_checked_one(), i.e. the original code with original messages.
//  - guard-then-escape: a guarded body (heap ops; int arithmetic, div/mod
//    zero) tests everything the facts leave open — dangling ref, array
//    kind, bounds, int tags, zero divisor — BEFORE it mutates or charges
//    anything, and on any failure jumps to the checked escape, which re-runs
//    the entry's first original instruction through the checked step,
//    producing the identical trap, stack and step count.
//  - int/bool compares convert through double exactly like the checked
//    loop (observable for |int| > 2^53); only proven underflow/type checks
//    are gone.

RunResult Interpreter::run_fast(uint64_t max_steps) {
  RunResult out;
  out.status = RunStatus::kRunning;
  if (max_steps == 0) return out;  // checked loop returns kRunning here too

  std::vector<Value>& stack = state_.stack;
  std::vector<Frame>& frames = state_.frames;

  uint64_t left = max_steps;     // local countdown
  uint64_t flushed_left = left;  // `left` at the last flush: the fast
                                 // instructions retired since are the gap
  uint64_t fused_done = 0;       // superinstructions among them
  Frame* fr = nullptr;
  Value* locals = nullptr;
  const DecodedInstr* code = nullptr;
  size_t code_size = 0;
  size_t pc = 0;
  const DecodedInstr* d = nullptr;
  Value* sp = nullptr;          // one past the operand-stack top
  HeapObject* heap = nullptr;   // state_.heap as of the last frame entry
  size_t heap_size = 0;

#ifdef STARFISH_VM_CGOTO
  // Indexed by XOp; order must match vm/exec.hpp exactly.
  static const void* kLabels[] = {
      &&op_Nop, &&op_PushInt, &&op_PushFloat, &&op_PushBool, &&op_PushUnit,
      &&op_Pop, &&op_Dup, &&op_Swap,
      &&op_LoadLocal, &&op_StoreLocal, &&op_LoadGlobal, &&op_StoreGlobal,
      &&op_Add, &&op_Sub, &&op_Mul, &&op_Div, &&op_Mod, &&op_Neg,
      &&op_FAdd, &&op_FSub, &&op_FMul, &&op_FDiv,
      &&op_Eq, &&op_Ne, &&op_Lt, &&op_Le, &&op_Gt, &&op_Ge,
      &&op_And, &&op_Or, &&op_Not,
      &&op_I2F, &&op_F2I,
      &&op_Jmp, &&op_JmpIfFalse, &&op_Call, &&op_Ret, &&op_Halt,
      &&op_Checked,  // kNewArray: allocation always runs checked
      &&op_ALoad, &&op_AStore, &&op_ALen,  // guarded: bounds/kind/dangling
      &&op_Checked,  // kNewBytes: allocation always runs checked
      &&op_Syscall,
      &&op_Checked,
      &&op_FusedIncLocal, &&op_FusedCmpBr, &&op_FusedLoadCmpBr,
      &&op_FusedLoadLoadArith, &&op_FusedLoadLoadArithSt,
      &&op_FusedLoadLoadALoad, &&op_FusedLoadOffsetALoad,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kXOpCount,
                "dispatch table out of sync with XOp");
#endif

// Fetch/decode shared by both dispatch flavors: budget first (the checked
// loop's for-condition), then the pc bounds check the fast loop keeps.
// Nothing here depends on the entry: each handler advances by its own
// static length.
#define VM_FETCH()                    \
  do {                                \
    if (left == 0) goto budget_out;   \
    if (pc >= code_size) goto pc_oob; \
    d = &code[pc];                    \
  } while (0)

// A superinstruction of `n` components runs only if the budget covers all
// of them (left >= 1 is already known from the fetch).
#define VM_FUSED_BUDGET(n)              \
  do {                                  \
    if (left < (n)) goto partial_fused; \
  } while (0)

// Cuts the operand-stack vector back to the cached top.
#define VM_SYNC_STACK() stack.resize(static_cast<size_t>(sp - stack.data()))

// Flush batched step accounting to the canonical state. Does not touch
// fr->pc — exits that need it write it explicitly first.
#define VM_FLUSH_STEPS()                            \
  do {                                              \
    const uint64_t fast_done = flushed_left - left; \
    state_.steps_executed += fast_done;             \
    note_fast(fast_done, fused_done);               \
    flushed_left = left;                            \
    fused_done = 0;                                 \
  } while (0)

#ifdef STARFISH_VM_CGOTO
#define VM_OP(name) op_##name:
#define VM_NEXT()                                        \
  do {                                                   \
    VM_FETCH();                                          \
    goto* kLabels[static_cast<size_t>(d->op)];           \
  } while (0)
#else
#define VM_OP(name) case XOp::k##name:
#define VM_NEXT() continue
#endif

// Retires the `n` instructions at pc and dispatches the one after them.
// Plain statements, not do/while (see VM_COMPARE): always a block's last.
#define VM_NEXT_AFTER(n) \
  pc += (n);             \
  left -= (n);           \
  VM_NEXT()

  sp = stack.data() + stack.size();  // the host hands over the exact stack

load_frame:
  if (frames.empty()) {
    VM_SYNC_STACK();
    VM_FLUSH_STEPS();
    halted_ = true;
    out.status = RunStatus::kHalted;
    return out;
  }
  fr = &frames.back();
  if (fr->function >= program_.functions.size()) {
    VM_SYNC_STACK();
    VM_FLUSH_STEPS();
    return trap("bad function index");
  }
  {
    const PreparedFunction& pf = prepared_.functions[fr->function];
    code = pf.code.data();
    code_size = pf.code.size();
    // The frame's headroom, checked once per frame entry: no push below
    // checks for growth or writes the vector's end back.
    const auto depth = static_cast<size_t>(sp - stack.data());
    if (stack.size() < depth + pf.max_stack) {
      stack.resize(depth + pf.max_stack);
      sp = stack.data() + depth;
    }
  }
  locals = fr->locals.data();
  heap = state_.heap.data();
  heap_size = state_.heap.size();
  pc = fr->pc;

#ifdef STARFISH_VM_CGOTO
  VM_NEXT();
#else
  for (;;) {
    VM_FETCH();
    switch (d->op) {
#endif

  VM_OP(Nop) {
    VM_NEXT_AFTER(1);
  }

  VM_OP(PushInt) {  // immediate pre-wrapped by prepare_program
    *sp++ = Value::integer(d->imm.i);
    VM_NEXT_AFTER(1);
  }
  VM_OP(PushFloat) {
    *sp++ = Value::real(d->imm.f);
    VM_NEXT_AFTER(1);
  }
  VM_OP(PushBool) {
    *sp++ = Value::boolean(d->imm.i != 0);
    VM_NEXT_AFTER(1);
  }
  VM_OP(PushUnit) {
    *sp++ = Value::unit();
    VM_NEXT_AFTER(1);
  }
  VM_OP(Pop) {
    --sp;
    VM_NEXT_AFTER(1);
  }
  VM_OP(Dup) {
    *sp = sp[-1];
    ++sp;
    VM_NEXT_AFTER(1);
  }
  VM_OP(Swap) {
    std::swap(sp[-1], sp[-2]);
    VM_NEXT_AFTER(1);
  }
  VM_OP(LoadLocal) {
    *sp++ = locals[static_cast<size_t>(d->imm.i)];
    VM_NEXT_AFTER(1);
  }
  VM_OP(StoreLocal) {
    locals[static_cast<size_t>(d->imm.i)] = *--sp;
    VM_NEXT_AFTER(1);
  }
  VM_OP(LoadGlobal) {
    const auto idx = static_cast<size_t>(d->imm.i);
    if (idx >= state_.globals.size()) state_.globals.resize(idx + 1, Value::unit());
    *sp++ = state_.globals[idx];
    VM_NEXT_AFTER(1);
  }
  VM_OP(StoreGlobal) {
    const auto idx = static_cast<size_t>(d->imm.i);
    if (idx >= state_.globals.size()) state_.globals.resize(idx + 1, Value::unit());
    state_.globals[idx] = *--sp;
    VM_NEXT_AFTER(1);
  }

// Int arithmetic: depth proven; both tags re-checked inline whether or not
// the verifier proved them (two byte compares), plus the zero divisor for
// div/mod. Plain block, see VM_COMPARE.
#define VM_INT_ARITH(expr, zero_guard)                          \
  {                                                             \
    Value* top = sp - 1;                                        \
    if (top[0].tag != Tag::kInt || top[-1].tag != Tag::kInt ||  \
        (zero_guard && top[0].i == 0)) {                        \
      goto checked_escape;                                      \
    }                                                           \
    const int64_t a = top[-1].i, b = top[0].i;                  \
    top[-1] = Value::integer(expr);                             \
    sp = top;                                                   \
    VM_NEXT_AFTER(1);                                           \
  }

  VM_OP(Add) VM_INT_ARITH(wrap(a + b), false);
  VM_OP(Sub) VM_INT_ARITH(wrap(a - b), false);
  VM_OP(Mul) VM_INT_ARITH(wrap(a * b), false);
  VM_OP(Div) VM_INT_ARITH(wrap(a / b), true);
  VM_OP(Mod) VM_INT_ARITH(wrap(a % b), true);
  VM_OP(Neg) {
    Value& t = sp[-1];
    if (d->aux == static_cast<uint8_t>(Tag::kInt)) {
      t = Value::integer(wrap(-t.i));
    } else {
      t = Value::real(-t.f);
    }
    VM_NEXT_AFTER(1);
  }

// Float arithmetic: depth and both tags proven. Plain block, see VM_COMPARE.
#define VM_FLOAT_ARITH(op)                            \
  {                                                   \
    --sp;                                             \
    sp[-1] = Value::real(sp[-1].f op sp[0].f);        \
    VM_NEXT_AFTER(1);                                 \
  }

  VM_OP(FAdd) VM_FLOAT_ARITH(+);
  VM_OP(FSub) VM_FLOAT_ARITH(-);
  VM_OP(FMul) VM_FLOAT_ARITH(*);
  VM_OP(FDiv) VM_FLOAT_ARITH(/);

// Compares convert int/bool operands through double like the checked loop
// (d->aux is the verifier-proven shared operand tag). Plain block, not
// do/while: VM_NEXT() is `continue` in switch mode and must reach the
// dispatch loop, not a wrapper loop.
#define VM_COMPARE(rel)                                         \
  {                                                             \
    --sp;                                                       \
    const Value va = sp[-1], vb = sp[0];                        \
    double a, b;                                                \
    if (d->aux == static_cast<uint8_t>(Tag::kFloat)) {          \
      a = va.f;                                                 \
      b = vb.f;                                                 \
    } else {                                                    \
      a = static_cast<double>(va.i);                            \
      b = static_cast<double>(vb.i);                            \
    }                                                           \
    sp[-1] = Value::boolean(a rel b);                           \
    VM_NEXT_AFTER(1);                                           \
  }

  VM_OP(Eq) VM_COMPARE(==);
  VM_OP(Ne) VM_COMPARE(!=);
  VM_OP(Lt) VM_COMPARE(<);
  VM_OP(Le) VM_COMPARE(<=);
  VM_OP(Gt) VM_COMPARE(>);
  VM_OP(Ge) VM_COMPARE(>=);

  VM_OP(And) VM_INT_ARITH(a & b, false);  // not wrapped, as checked
  VM_OP(Or) VM_INT_ARITH(a | b, false);
  VM_OP(Not) {
    Value& t = sp[-1];
    t = Value::boolean(t.i == 0);
    VM_NEXT_AFTER(1);
  }
  VM_OP(I2F) {
    Value& t = sp[-1];
    t = Value::real(static_cast<double>(t.i));
    VM_NEXT_AFTER(1);
  }
  VM_OP(F2I) {
    Value& t = sp[-1];
    t = Value::integer(wrap(static_cast<int64_t>(t.f)));
    VM_NEXT_AFTER(1);
  }

  VM_OP(Jmp) {
    left -= 1;
    pc = d->b;
    VM_NEXT();
  }
  VM_OP(JmpIfFalse) {
    left -= 1;
    pc = (--sp)->i == 0 ? d->b : pc + 1;
    VM_NEXT();
  }
  VM_OP(Call) {
    const auto callee_idx = static_cast<size_t>(d->imm.i);
    const Function& callee = program_.functions[callee_idx];
    Frame next;
    next.function = static_cast<uint32_t>(callee_idx);
    next.pc = 0;
    next.locals.assign(callee.n_locals, Value::unit());
    for (uint32_t a = callee.n_args; a > 0; --a) next.locals[a - 1] = *--sp;
    left -= 1;
    fr->pc = static_cast<uint32_t>(pc + 1);  // caller resumes after the call
    frames.push_back(std::move(next));       // may invalidate fr
    goto load_frame;
  }
  VM_OP(Ret) {
    const Value v = *--sp;  // depth >= 1 proven by the verifier
    left -= 1;
    frames.pop_back();
    if (frames.empty()) {
      VM_SYNC_STACK();
      VM_FLUSH_STEPS();
      halted_ = true;
      out.status = RunStatus::kHalted;
      return out;
    }
    *sp++ = v;  // the callee's headroom holds the caller's result slot
    goto load_frame;
  }
  VM_OP(Halt) {
    left -= 1;
    fr->pc = static_cast<uint32_t>(pc + 1);
    VM_SYNC_STACK();
    VM_FLUSH_STEPS();
    halted_ = true;
    out.status = RunStatus::kHalted;
    return out;
  }

  VM_OP(Syscall) {
    // Restartable: pc stays AT the syscall and it is charged only by
    // complete_syscall() — the checked loop's un-increment.
    fr->pc = static_cast<uint32_t>(pc);
    VM_SYNC_STACK();
    VM_FLUSH_STEPS();
    out.status = RunStatus::kSyscall;
    out.syscall = static_cast<Syscall>(d->imm.i);
    return out;
  }

  // Heap ops: the ref/index tags are proven, the rest is guarded.
  VM_OP(ALoad) {
    Value* top = sp - 1;
    const HeapObject* arr = array_at(heap, heap_size, top[-1].ref, top[0].i);
    if (arr == nullptr) goto checked_escape;
    top[-1] = arr->get(static_cast<size_t>(top[0].i));
    sp = top;
    VM_NEXT_AFTER(1);
  }
  VM_OP(AStore) {
    Value* top = sp - 1;
    HeapObject* arr = array_at(heap, heap_size, top[-2].ref, top[-1].i);
    if (arr == nullptr) goto checked_escape;
    arr->set(static_cast<size_t>(top[-1].i), top[0]);
    sp -= 3;
    VM_NEXT_AFTER(1);
  }
  VM_OP(ALen) {
    Value& t = sp[-1];
    if (t.ref >= heap_size) goto checked_escape;
    const HeapObject& obj = heap[t.ref];
    const size_t n = obj.kind == HeapObject::Kind::kArray ? obj.size() : obj.bytes.size();
    t = Value::integer(static_cast<int64_t>(n));
    VM_NEXT_AFTER(1);
  }

#ifndef STARFISH_VM_CGOTO
  VM_OP(NewArray)
  VM_OP(NewBytes)
#endif
  VM_OP(Checked)
  checked_escape: {
    // Escape hatch: allocation, anything the verifier could not prove, and
    // every failed guard run through the original fully-checked
    // single-step (for a fused entry, its first component). Nothing was
    // charged for the entry yet; the checked step does its own pc/step
    // accounting and may move the frame, the stack and the heap, so the
    // loop re-enters through load_frame on the exact stack it left.
    fr->pc = static_cast<uint32_t>(pc);
    VM_SYNC_STACK();
    VM_FLUSH_STEPS();
    {
      const uint64_t before = state_.steps_executed;
      const StepOutcome so = step_checked_one(out);
      note_checked(state_.steps_executed - before);
      if (so != StepOutcome::kContinue) return out;
      const uint64_t used = state_.steps_executed - before;
      left = left > used ? left - used : 0;
      flushed_left = left;  // checked steps are not fast ones
    }
    sp = stack.data() + stack.size();
    goto load_frame;
  }

  VM_OP(FusedIncLocal) {  // load_local b, push_int imm, add|sub, store_local c
    constexpr size_t kLen = xop_len(XOp::kFusedIncLocal);
    VM_FUSED_BUDGET(kLen);
    const int64_t a = locals[d->b].i;
    const int64_t r =
        d->aux == static_cast<uint8_t>(Op::kAdd) ? a + d->imm.i : a - d->imm.i;
    locals[d->c] = Value::integer(wrap(r));
    ++fused_done;
    VM_NEXT_AFTER(kLen);
  }
  VM_OP(FusedCmpBr) {  // <compare aux>, jmp_if_false b (operand class in c)
    constexpr size_t kLen = xop_len(XOp::kFusedCmpBr);
    VM_FUSED_BUDGET(kLen);
    sp -= 2;
    const Value va = sp[0], vb = sp[1];
    double a, b;
    if (d->c == static_cast<uint32_t>(Tag::kFloat)) {
      a = va.f;
      b = vb.f;
    } else {
      a = static_cast<double>(va.i);
      b = static_cast<double>(vb.i);
    }
    left -= kLen;
    pc = fast_compare(static_cast<Op>(d->aux), a, b) ? pc + kLen : d->b;
    ++fused_done;
    VM_NEXT();
  }
  VM_OP(FusedLoadCmpBr) {  // load_local b, push_int imm, <cmp aux>, jif c
    constexpr size_t kLen = xop_len(XOp::kFusedLoadCmpBr);
    VM_FUSED_BUDGET(kLen);
    const double a = static_cast<double>(locals[d->b].i);
    const double b = static_cast<double>(d->imm.i);
    left -= kLen;
    pc = fast_compare(static_cast<Op>(d->aux), a, b) ? pc + kLen : d->c;
    ++fused_done;
    VM_NEXT();
  }
  VM_OP(FusedLoadLoadArith) {  // load_local b, load_local c, <arith aux>
    constexpr size_t kLen = xop_len(XOp::kFusedLoadLoadArith);
    VM_FUSED_BUDGET(kLen);
    const int64_t r =
        fast_int_arith(static_cast<Op>(d->aux), locals[d->b].i, locals[d->c].i);
    *sp++ = Value::integer(wrap(r));
    ++fused_done;
    VM_NEXT_AFTER(kLen);
  }
  VM_OP(FusedLoadLoadArithSt) {  // ... , store_local imm
    constexpr size_t kLen = xop_len(XOp::kFusedLoadLoadArithSt);
    VM_FUSED_BUDGET(kLen);
    const int64_t r =
        fast_int_arith(static_cast<Op>(d->aux), locals[d->b].i, locals[d->c].i);
    locals[static_cast<size_t>(d->imm.i)] = Value::integer(wrap(r));
    ++fused_done;
    VM_NEXT_AFTER(kLen);
  }
  VM_OP(FusedLoadLoadALoad) {  // load_local b (Ref), load_local c (Int), aload
    constexpr size_t kLen = xop_len(XOp::kFusedLoadLoadALoad);
    VM_FUSED_BUDGET(kLen);
    const int64_t idx = locals[d->c].i;
    const HeapObject* arr = array_at(heap, heap_size, locals[d->b].ref, idx);
    if (arr == nullptr) goto checked_escape;
    *sp++ = arr->get(static_cast<size_t>(idx));
    ++fused_done;
    VM_NEXT_AFTER(kLen);
  }
  VM_OP(FusedLoadOffsetALoad) {  // load_local b, load_local c, push_int imm,
                                 // add|sub aux, aload
    constexpr size_t kLen = xop_len(XOp::kFusedLoadOffsetALoad);
    VM_FUSED_BUDGET(kLen);
    const int64_t i = locals[d->c].i;
    const int64_t idx = wrap(d->aux == static_cast<uint8_t>(Op::kAdd) ? i + d->imm.i
                                                                      : i - d->imm.i);
    const HeapObject* arr = array_at(heap, heap_size, locals[d->b].ref, idx);
    if (arr == nullptr) goto checked_escape;
    *sp++ = arr->get(static_cast<size_t>(idx));
    ++fused_done;
    VM_NEXT_AFTER(kLen);
  }

#ifndef STARFISH_VM_CGOTO
      case XOp::kCount:  // never emitted by prepare_program
        break;
    }
  }
#endif

budget_out:
  fr->pc = static_cast<uint32_t>(pc);
  VM_SYNC_STACK();
  VM_FLUSH_STEPS();
  out.status = RunStatus::kRunning;
  return out;

pc_oob:
  // Fetch-time trap, not charged as a step — same as the checked loop.
  fr->pc = static_cast<uint32_t>(pc);
  VM_SYNC_STACK();
  VM_FLUSH_STEPS();
  return trap("pc out of range in " + program_.functions[fr->function].name);

partial_fused:
  // The budget expires inside a superinstruction (1 <= left < its length).
  // Retire the remaining budget one ORIGINAL instruction at a time through
  // the checked step so the pause lands on exactly the same instruction and
  // step count as the unfused interpreter. Every component but the last is
  // a proven load/push/arith/compare, and the last never runs here, so each
  // step continues.
  fr->pc = static_cast<uint32_t>(pc);
  VM_SYNC_STACK();
  VM_FLUSH_STEPS();
  while (left > 0) {
    const uint64_t before = state_.steps_executed;
    const StepOutcome so = step_checked_one(out);
    note_checked(state_.steps_executed - before);
    if (so != StepOutcome::kContinue) return out;
    --left;
  }
  out.status = RunStatus::kRunning;
  return out;

#undef VM_FETCH
#undef VM_FUSED_BUDGET
#undef VM_SYNC_STACK
#undef VM_FLUSH_STEPS
#undef VM_OP
#undef VM_NEXT
#undef VM_NEXT_AFTER
#undef VM_COMPARE
#undef VM_INT_ARITH
#undef VM_FLOAT_ARITH
}

}  // namespace starfish::vm
