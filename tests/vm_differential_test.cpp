// Differential tests for the VM execution engine: the fast dispatcher
// (computed goto / switch, verifier-elided checks, fused superinstructions)
// must be observably BIT-IDENTICAL to the original fully-checked loop —
// same end state, same trap messages, same step counts, same syscall
// boundaries, and byte-identical portable checkpoint images at every pause.
//
// Random programs are generated from seeded fragments (verifier-friendly
// loops, arithmetic, array traffic, calls) mixed with raw random
// instructions (programs that trap or defeat analysis), then driven through
// all three dispatch configurations in lockstep under an identical slice
// schedule, with the host servicing syscalls identically.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ckpt/image.hpp"
#include "vm/bytecode.hpp"
#include "vm/interp.hpp"
#include "workloads.hpp"

namespace starfish::vm {
namespace {

const sim::Machine kM32 = {"i686", "Linux", util::Endian::kLittle, 4};
const sim::Machine kM64 = {"Alpha", "Linux", util::Endian::kLittle, 8};

using Rng = std::mt19937;

int64_t rnd_int(Rng& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

// ------------------------------------------------------------ generator ----

void emit(std::vector<Instr>& code, Op op, int64_t imm_i = 0, double imm_f = 0.0) {
  Instr in;
  in.op = op;
  in.imm_i = imm_i;
  in.imm_f = imm_f;
  code.push_back(in);
}

/// Array fragment: local `arr` holds a fresh array for the fragment's
/// duration (an Int again at its end, so later fragments keep their facts);
/// the next local is the index.
void emit_array_fragment(Rng& rng, std::vector<Instr>& code, uint32_t n_locals,
                         int64_t arr) {
  const int64_t idx = (arr + 1) % n_locals;
  const int64_t len = rnd_int(rng, 2, 6);
  emit(code, Op::kPushInt, len);
  emit(code, Op::kNewArray);
  emit(code, Op::kStoreLocal, arr);
  emit(code, Op::kPushInt, rnd_int(rng, -1, len));  // out of range at the ends
  emit(code, Op::kStoreLocal, idx);
  // a[i] = v and a[i + 1] = v'
  emit(code, Op::kLoadLocal, arr);
  emit(code, Op::kLoadLocal, idx);
  emit(code, Op::kPushInt, rnd_int(rng, -50, 50));
  emit(code, Op::kAStore);
  emit(code, Op::kLoadLocal, arr);
  emit(code, Op::kLoadLocal, idx);
  emit(code, Op::kPushInt, 1);
  emit(code, Op::kAdd);
  emit(code, Op::kPushInt, rnd_int(rng, -50, 50));
  emit(code, Op::kAStore);
  switch (rnd_int(rng, 0, 2)) {
    case 0:  // fused: a[i] <arith> a[i +- c], stored into the index local
      emit(code, Op::kLoadLocal, arr);
      emit(code, Op::kLoadLocal, idx);
      emit(code, Op::kALoad);
      emit(code, Op::kLoadLocal, arr);
      emit(code, Op::kLoadLocal, idx);
      emit(code, Op::kPushInt, rnd_int(rng, 0, 1));
      emit(code, rnd_int(rng, 0, 1) ? Op::kAdd : Op::kSub);
      emit(code, Op::kALoad);
      emit(code, static_cast<Op>(rnd_int(rng, static_cast<int64_t>(Op::kAdd),
                                         static_cast<int64_t>(Op::kMod))));
      emit(code, Op::kStoreLocal, idx);
      break;
    case 1:  // unfused: constant index off the stack, then alen
      emit(code, Op::kLoadLocal, arr);
      emit(code, Op::kPushInt, rnd_int(rng, -1, len));
      emit(code, Op::kALoad);
      emit(code, Op::kLoadLocal, arr);
      emit(code, Op::kALen);
      emit(code, Op::kMul);
      emit(code, Op::kPop);
      break;
    default:  // read-modify-write: a[i] = a[i] * 3
      emit(code, Op::kLoadLocal, arr);
      emit(code, Op::kLoadLocal, idx);
      emit(code, Op::kLoadLocal, arr);
      emit(code, Op::kLoadLocal, idx);
      emit(code, Op::kALoad);
      emit(code, Op::kPushInt, 3);
      emit(code, Op::kMul);
      emit(code, Op::kAStore);
      break;
  }
  emit(code, Op::kPushInt, 0);
  emit(code, Op::kStoreLocal, arr);
}

/// Appends one well-formed fragment (keeps the abstract stack balanced and
/// local/jump operands valid) so generated programs execute long enough to
/// exercise the fast loop and its fusion patterns.
void emit_fragment(Rng& rng, std::vector<Instr>& code, uint32_t n_locals,
                   size_t n_functions) {
  const int64_t kind = rnd_int(rng, 0, 8);
  const int64_t l0 = rnd_int(rng, 0, n_locals - 1);
  const int64_t l1 = rnd_int(rng, 0, n_locals - 1);
  switch (kind) {
    case 0:  // int expression
      emit(code, Op::kPushInt, rnd_int(rng, -1000, 1000));
      emit(code, Op::kPushInt, rnd_int(rng, -1000, 1000));
      emit(code, static_cast<Op>(rnd_int(rng, static_cast<int64_t>(Op::kAdd),
                                         static_cast<int64_t>(Op::kMul))));
      emit(code, Op::kStoreLocal, l0);
      break;
    case 1:  // increment idiom (fuses to kFusedIncLocal)
      emit(code, Op::kLoadLocal, l0);
      emit(code, Op::kPushInt, rnd_int(rng, 1, 5));
      emit(code, rnd_int(rng, 0, 1) ? Op::kAdd : Op::kSub);
      emit(code, Op::kStoreLocal, l0);
      break;
    case 2:  // local-local arithmetic (fuses to kFusedLoadLoadArith[St])
      emit(code, Op::kLoadLocal, l0);
      emit(code, Op::kLoadLocal, l1);
      emit(code, Op::kAdd);
      if (rnd_int(rng, 0, 1) != 0) {
        emit(code, Op::kStoreLocal, l1);
      } else {
        emit(code, Op::kPop);
      }
      break;
    case 3: {  // bounded countdown loop with compare+branch (fuses)
      emit(code, Op::kPushInt, rnd_int(rng, 2, 12));
      emit(code, Op::kStoreLocal, l0);
      const size_t loop_top = code.size();
      emit(code, Op::kLoadLocal, l0);
      emit(code, Op::kPushInt, 1);
      emit(code, Op::kSub);
      emit(code, Op::kStoreLocal, l0);
      emit(code, Op::kLoadLocal, l0);
      emit(code, Op::kPushInt, 0);
      emit(code, Op::kGt);
      emit(code, Op::kJmpIfFalse, static_cast<int64_t>(code.size() + 2));
      emit(code, Op::kJmp, static_cast<int64_t>(loop_top));
      break;
    }
    case 4:  // float expression
      emit(code, Op::kPushFloat, 0, 0.5 * static_cast<double>(rnd_int(rng, 1, 9)));
      emit(code, Op::kPushFloat, 0, 0.25 * static_cast<double>(rnd_int(rng, 1, 9)));
      emit(code, static_cast<Op>(rnd_int(rng, static_cast<int64_t>(Op::kFAdd),
                                         static_cast<int64_t>(Op::kFDiv))));
      emit(code, Op::kPop);
      break;
    case 5:  // heap traffic off the stack (new_array checked, astore/alen guarded)
      emit(code, Op::kPushInt, rnd_int(rng, 1, 4));
      emit(code, Op::kNewArray);
      emit(code, Op::kDup);
      emit(code, Op::kPushInt, 0);
      emit(code, Op::kLoadLocal, l0);
      emit(code, Op::kAStore);
      emit(code, Op::kALen);
      emit(code, Op::kPop);
      break;
    case 6:  // syscall round-trip
      switch (rnd_int(rng, 0, 3)) {
        case 0:
          emit(code, Op::kSyscall, static_cast<int64_t>(Syscall::kRank));
          emit(code, Op::kStoreLocal, l0);
          break;
        case 1:
          emit(code, Op::kPushInt, rnd_int(rng, 0, 50));
          emit(code, Op::kSyscall, static_cast<int64_t>(Syscall::kPrint));
          break;
        case 2:
          emit(code, Op::kPushInt, rnd_int(rng, 0, 3));
          emit(code, Op::kSyscall, static_cast<int64_t>(Syscall::kAllreduceSum));
          emit(code, Op::kPop);
          break;
        default:
          emit(code, Op::kSyscall, static_cast<int64_t>(Syscall::kWorldSize));
          emit(code, Op::kPop);
          break;
      }
      break;
    case 8:  // array in a local: fused and unfused indexed loads, astore
             // through locals, arithmetic on loaded cells; indices may be
             // out of range and cells may be unset (unit), so some trap
      emit_array_fragment(rng, code, n_locals, l0);
      break;
    default:  // call a random function (recursion is budget-bounded)
      if (n_functions > 1) {
        emit(code, Op::kPushInt, rnd_int(rng, -5, 5));
        emit(code, Op::kCall, rnd_int(rng, 0, static_cast<int64_t>(n_functions) - 1));
        emit(code, Op::kPop);
      } else {
        emit(code, Op::kNop);
      }
      break;
  }
}

/// Raw random instruction: operands are often-but-not-always valid, so some
/// programs trap and some defeat the verifier — both dispatchers must agree
/// on those too. Two exclusions keep generated programs from crashing the
/// harness itself (identically under every dispatcher, so no divergence is
/// lost): heap allocation ops never run with an arbitrary stack top (wrapped
/// arithmetic reaches 2^63, and new_array of that throws std::length_error),
/// and random jumps land only on fragment boundaries or out of range — never
/// inside a fragment, where they could skip an allocation's length push.
void emit_chaos(Rng& rng, std::vector<Instr>& code, uint32_t n_locals,
                const std::vector<size_t>& boundaries) {
  const auto op = static_cast<Op>(rnd_int(rng, 0, static_cast<int64_t>(Op::kHalt)));
  int64_t imm = rnd_int(rng, -2, static_cast<int64_t>(n_locals) + 2);
  if (op == Op::kJmp || op == Op::kJmpIfFalse) {
    if (rnd_int(rng, 0, 3) == 0) {
      imm = rnd_int(rng, static_cast<int64_t>(code.size()) + 1,
                    static_cast<int64_t>(code.size()) + 6);  // pc-out-of-range trap
    } else {
      imm = static_cast<int64_t>(
          boundaries[static_cast<size_t>(rnd_int(rng, 0, static_cast<int64_t>(boundaries.size()) - 1))]);
    }
  }
  if (op == Op::kCall) imm = rnd_int(rng, 0, 2);
  emit(code, op, imm, 1.5);
}

Program random_program(uint32_t seed) {
  Rng rng(seed);
  Program prog;
  const size_t n_functions = static_cast<size_t>(rnd_int(rng, 1, 3));
  for (size_t f = 0; f < n_functions; ++f) {
    Function fn;
    fn.name = f == 0 ? "main" : "fn" + std::to_string(f);
    fn.n_args = f == 0 ? 0 : 1;
    fn.n_locals = static_cast<uint32_t>(rnd_int(rng, 2, 4));
    const int64_t fragments = rnd_int(rng, 2, 6);
    std::vector<size_t> boundaries;
    for (int64_t i = 0; i < fragments; ++i) {
      boundaries.push_back(fn.code.size());
      if (rnd_int(rng, 0, 9) < 7) {
        emit_fragment(rng, fn.code, fn.n_locals, n_functions);
      } else {
        emit_chaos(rng, fn.code, fn.n_locals, boundaries);
      }
    }
    if (f == 0) {
      emit(fn.code, Op::kHalt);
    } else {
      emit(fn.code, Op::kPushInt, 7);
      emit(fn.code, Op::kRet);
    }
    prog.functions.push_back(std::move(fn));
  }
  return prog;
}

// ------------------------------------------------------------- harness ----

/// Services a pending syscall with fixed, deterministic host behavior —
/// applied identically to every interpreter under comparison.
void service_syscall(Interpreter& interp, Syscall syscall) {
  switch (syscall) {
    case Syscall::kPrint:
    case Syscall::kSleepMs:
    case Syscall::kSpin:
      (void)interp.pop_value();
      break;
    case Syscall::kRank:
      interp.push_value(Value::integer(3));
      break;
    case Syscall::kWorldSize:
      interp.push_value(Value::integer(8));
      break;
    case Syscall::kSendTo:
      (void)interp.pop_value();
      (void)interp.pop_value();
      break;
    case Syscall::kRecvFrom:
      (void)interp.pop_value();
      interp.push_value(Value::integer(1234));
      break;
    case Syscall::kCheckpoint:
      interp.push_value(Value::unit());
      break;
    case Syscall::kBarrier:
      break;
    case Syscall::kAllreduceSum: {
      Value v = interp.pop_value();
      interp.push_value(Value::integer(v.i * 8));
      break;
    }
  }
  interp.complete_syscall();
}

util::Bytes image_of(const Interpreter& interp, const sim::Machine& machine) {
  return ckpt::portable_encode(machine, interp.state()).payload;
}

/// Drives `a` (reference: checked) and `b` (candidate) through an identical
/// slice schedule, comparing status/trap/steps and the portable checkpoint
/// image at every pause. Returns after halt/trap or `max_rounds` slices.
void run_lockstep(const Program& prog, const sim::Machine& machine,
                  Interpreter::Dispatch mode_b, uint32_t seed) {
  Interpreter a(prog, machine, Interpreter::Dispatch::kChecked);
  Interpreter b(prog, machine, mode_b);
  a.start();
  b.start();
  Rng slices(seed ^ 0x9e3779b9u);
  const int max_rounds = 300;
  for (int round = 0; round < max_rounds; ++round) {
    const auto slice = static_cast<uint64_t>(rnd_int(slices, 1, 37));
    RunResult ra = a.run(slice);
    RunResult rb = b.run(slice);
    ASSERT_EQ(static_cast<int>(ra.status), static_cast<int>(rb.status))
        << "seed " << seed << " round " << round << " trap_a='" << ra.trap
        << "' trap_b='" << rb.trap << "'";
    ASSERT_EQ(ra.trap, rb.trap) << "seed " << seed;
    ASSERT_EQ(a.state().steps_executed, b.state().steps_executed)
        << "seed " << seed << " round " << round;
    ASSERT_EQ(image_of(a, machine), image_of(b, machine))
        << "portable image diverged: seed " << seed << " round " << round;
    if (ra.status == RunStatus::kHalted || ra.status == RunStatus::kTrap) return;
    if (ra.status == RunStatus::kSyscall) {
      ASSERT_EQ(static_cast<int>(ra.syscall), static_cast<int>(rb.syscall));
      service_syscall(a, ra.syscall);
      service_syscall(b, rb.syscall);
    }
  }
}

// --------------------------------------------------------------- tests ----

TEST(VmDifferential, FastMatchesCheckedOnRandomPrograms) {
  for (uint32_t seed = 1; seed <= 120; ++seed) {
    Program prog = random_program(seed);
    try {
      run_lockstep(prog, kM64, Interpreter::Dispatch::kFast, seed);
    } catch (const std::exception& e) {
      FAIL() << "exception at seed " << seed << ": " << e.what() << "\n"
             << disassemble(prog);
    }
    if (HasFatalFailure()) return;
  }
}

TEST(VmDifferential, FastMatchesCheckedOn32BitMachine) {
  // Word wrapping is live on every int push/arith here.
  for (uint32_t seed = 200; seed <= 280; ++seed) {
    Program prog = random_program(seed);
    run_lockstep(prog, kM32, Interpreter::Dispatch::kFast, seed);
    if (HasFatalFailure()) return;
  }
}

TEST(VmDifferential, UnfusedMatchesCheckedOnRandomPrograms) {
  for (uint32_t seed = 300; seed <= 360; ++seed) {
    Program prog = random_program(seed);
    run_lockstep(prog, kM64, Interpreter::Dispatch::kFastNoFuse, seed);
    if (HasFatalFailure()) return;
  }
}

/// Runs `src` under all three dispatch configurations in lockstep at every
/// slice length 1..11, comparing the portable image at each pause, and
/// checks the final top of stack against `want`.
void expect_identical_images_at_every_slice(const char* src, const Value& want) {
  auto assembled = assemble(src);
  ASSERT_TRUE(assembled.ok());
  const Program prog = assembled.value();
  for (uint64_t slice = 1; slice <= 11; ++slice) {
    Interpreter checked(prog, kM32, Interpreter::Dispatch::kChecked);
    Interpreter fast(prog, kM32, Interpreter::Dispatch::kFast);
    Interpreter nofuse(prog, kM32, Interpreter::Dispatch::kFastNoFuse);
    checked.start();
    fast.start();
    nofuse.start();
    for (;;) {
      RunResult rc = checked.run(slice);
      RunResult rf = fast.run(slice);
      RunResult rn = nofuse.run(slice);
      ASSERT_EQ(static_cast<int>(rc.status), static_cast<int>(rf.status));
      ASSERT_EQ(static_cast<int>(rc.status), static_cast<int>(rn.status));
      const util::Bytes img = image_of(checked, kM32);
      ASSERT_EQ(img, image_of(fast, kM32)) << "slice " << slice;
      ASSERT_EQ(img, image_of(nofuse, kM32)) << "slice " << slice;
      if (rc.status == RunStatus::kHalted) break;
      ASSERT_EQ(rc.status, RunStatus::kRunning);
    }
    EXPECT_EQ(checked.state().stack.back(), want);
  }
}

TEST(VmDifferential, MidLoopCheckpointImagesAreByteIdentical) {
  // The acceptance pin: cut portable images inside a hot (fused) loop at
  // awkward slice boundaries — including budgets that expire in the middle
  // of a superinstruction — across all three dispatch configurations.
  const char* src = R"(
func main 0 2
  push_int 0
  store_local 0
  push_int 1
  store_local 1
loop:
  load_local 1
  push_int 200
  le
  jmp_if_false done
  load_local 0
  load_local 1
  add
  store_local 0
  load_local 1
  push_int 1
  add
  store_local 1
  jmp loop
done:
  load_local 0
  halt
)";
  expect_identical_images_at_every_slice(src, Value::integer(20100));  // sum 1..200
}

TEST(VmDifferential, MidLoopStencilImagesAreByteIdentical) {
  // The stencil sweep a[i] = (a[i-1] + a[i] + a[i+1]) mod P: budgets expire
  // inside the 3- and 5-instruction array superinstructions and right
  // before the guarded arithmetic and astore.
  const char* src = R"(
func main 0 3
  push_int 24
  new_array
  store_local 0
  push_int 0
  store_local 1
fill:
  load_local 1
  push_int 24
  lt
  jmp_if_false filled
  load_local 0
  load_local 1
  load_local 1
  push_int 13
  mul
  push_int 97
  mod
  astore
  load_local 1
  push_int 1
  add
  store_local 1
  jmp fill
filled:
  push_int 3
  store_local 2
step:
  push_int 1
  store_local 1
sweep:
  load_local 1
  push_int 23
  lt
  jmp_if_false swept
  load_local 0
  load_local 1
  load_local 0
  load_local 1
  push_int 1
  sub
  aload
  load_local 0
  load_local 1
  aload
  add
  load_local 0
  load_local 1
  push_int 1
  add
  aload
  add
  push_int 97
  mod
  astore
  load_local 1
  push_int 1
  add
  store_local 1
  jmp sweep
swept:
  load_local 2
  push_int 1
  sub
  store_local 2
  load_local 2
  push_int 0
  gt
  jmp_if_false done
  jmp step
done:
  load_local 0
  push_int 11
  aload
  halt
)";
  expect_identical_images_at_every_slice(src, Value::integer(24));
}

TEST(VmDifferential, RestoredImageResumesIdenticallyOnBothDispatchers) {
  // Checkpoint mid-run on the checked loop, restore into a fast
  // interpreter (and vice versa), and finish: end states must agree.
  Program prog = random_program(42);
  Interpreter a(prog, kM64, Interpreter::Dispatch::kChecked);
  Interpreter b(prog, kM64, Interpreter::Dispatch::kFast);
  a.start();
  b.start();
  RunResult ra = a.run(23);
  RunResult rb = b.run(23);
  ASSERT_EQ(static_cast<int>(ra.status), static_cast<int>(rb.status));
  if (ra.status != RunStatus::kRunning) return;  // seed-dependent; done
  const ckpt::Image img = ckpt::portable_encode(kM64, a.state());

  auto restored_fast = ckpt::portable_decode(img, kM64);
  auto restored_checked = ckpt::portable_decode(img, kM64);
  ASSERT_TRUE(restored_fast.ok());
  ASSERT_TRUE(restored_checked.ok());
  Interpreter c(prog, kM64, Interpreter::Dispatch::kFast);
  Interpreter d(prog, kM64, Interpreter::Dispatch::kChecked);
  c.set_state(std::move(restored_fast).value());
  d.set_state(std::move(restored_checked).value());
  for (int round = 0; round < 200; ++round) {
    RunResult rc = c.run(17);
    RunResult rd = d.run(17);
    ASSERT_EQ(static_cast<int>(rc.status), static_cast<int>(rd.status)) << rc.trap;
    ASSERT_EQ(rc.trap, rd.trap);
    ASSERT_EQ(image_of(c, kM64), image_of(d, kM64)) << "round " << round;
    if (rc.status == RunStatus::kHalted || rc.status == RunStatus::kTrap) break;
    if (rc.status == RunStatus::kSyscall) {
      service_syscall(c, rc.syscall);
      service_syscall(d, rd.syscall);
    }
  }
}

// ------------------------------------------------- fast-loop invariants ----
//
// The fast loop keeps its dispatch state in registers: it advances pc and
// the step count by each op's compile-time length (xop_len), never by the
// entry's `len`; it checks only that the budget covers a superinstruction
// before running it; and it holds the operand-stack top in a pointer,
// cutting the stack vector back to it at every exit.

/// Asserts that every entry prepare_program emits for `prog` on `machine`,
/// fused and unfused, covers exactly its op's static length and ends
/// inside the function; adds the superinstruction kinds seen to `fused`.
void expect_static_lengths(const Program& prog, const sim::Machine& machine,
                           const std::string& what, std::set<XOp>& fused) {
  const ProgramFacts facts = analyze(prog);
  for (const bool fuse : {true, false}) {
    const PreparedProgram prepared = prepare_program(prog, facts, machine, fuse);
    for (size_t f = 0; f < prepared.functions.size(); ++f) {
      const std::vector<DecodedInstr>& code = prepared.functions[f].code;
      for (size_t pc = 0; pc < code.size(); ++pc) {
        const DecodedInstr& d = code[pc];
        ASSERT_EQ(d.len, xop_len(d.op))
            << what << " fn " << f << " pc " << pc << " xop " << static_cast<int>(d.op);
        ASSERT_LE(pc + d.len, code.size()) << what << " fn " << f << " pc " << pc;
        if (d.len > 1) fused.insert(d.op);
      }
    }
  }
}

TEST(VmDifferential, PreparedEntriesCarryTheirStaticLength) {
  std::set<XOp> fused;
  for (uint32_t seed = 1; seed <= 360; ++seed) {
    expect_static_lengths(random_program(seed), seed % 2 == 0 ? kM32 : kM64,
                          "seed " + std::to_string(seed), fused);
    if (HasFatalFailure()) return;
  }
  // The benchmark's interpreted workloads, as the cluster runs them.
  for (const char* name : {"stencil16_vm", "sparse8_ckpt"}) {
    auto prog = assemble(perfbench::make_workload(name, 1).program);
    ASSERT_TRUE(prog.ok()) << name;
    expect_static_lengths(prog.value(), kM32, name, fused);
    if (HasFatalFailure()) return;
  }
  // Not vacuous: every superinstruction kind occurs in the corpus.
  EXPECT_EQ(fused.size(), kXOpCount - static_cast<size_t>(XOp::kFusedIncLocal));
}

/// A loop that runs every superinstruction kind each iteration, on ints
/// only, without syscalls.
const char* const kEveryFusedKind = R"(
func main 0 4
  push_int 8
  new_array
  store_local 0
  load_local 0
  push_int 0
  push_int 5
  astore
  push_int 1
  store_local 1
  push_int 0
  store_local 2
loop:
  load_local 1          # load, compare, branch
  push_int 7
  lt
  jmp_if_false done
  load_local 0          # a[i] = i * 3
  load_local 1
  load_local 1
  push_int 3
  mul
  astore
  load_local 2          # load, load, arith, store: s = s + i
  load_local 1
  add
  store_local 2
  load_local 0          # both array loads: a[i] + a[i - 1]
  load_local 1
  aload
  load_local 0
  load_local 1
  push_int 1
  sub
  aload
  add
  store_local 3
  load_local 2          # load, load, arith; then compare, branch
  load_local 1
  mul
  load_local 1
  gt
  jmp_if_false skip
  load_local 3
  pop
skip:
  load_local 1          # increment
  push_int 1
  add
  store_local 1
  jmp loop
done:
  load_local 2
  halt
)";

TEST(VmDifferential, BudgetCutsEveryFusedKindAtEveryInteriorOffset) {
  // Walk the checked loop one instruction at a time. Wherever the fused
  // code starts a superinstruction, bring all three dispatchers to that
  // step, then give them a budget that expires inside it, at each interior
  // offset: the pause, and the run to the end from it, must be identical.
  auto assembled = assemble(kEveryFusedKind);
  ASSERT_TRUE(assembled.ok());
  const Program prog = assembled.value();
  const PreparedProgram prepared = prepare_program(prog, analyze(prog), kM32);
  std::set<XOp> cut;
  Interpreter walker(prog, kM32, Interpreter::Dispatch::kChecked);
  walker.start();
  for (uint64_t step = 0; !walker.halted(); ++step) {
    const Frame& top = walker.state().frames.back();
    const XOp op = prepared.functions[top.function].code[top.pc].op;
    for (uint64_t k = 1; k < xop_len(op); ++k) {
      cut.insert(op);
      Interpreter checked(prog, kM32, Interpreter::Dispatch::kChecked);
      Interpreter fast(prog, kM32, Interpreter::Dispatch::kFast);
      Interpreter nofuse(prog, kM32, Interpreter::Dispatch::kFastNoFuse);
      for (Interpreter* in : {&checked, &fast, &nofuse}) {
        in->start();
        if (step > 0) {
          ASSERT_EQ(in->run(step).status, RunStatus::kRunning);
        }
        ASSERT_EQ(in->run(k).status, RunStatus::kRunning) << "step " << step << " +" << k;
        ASSERT_EQ(in->state().steps_executed, step + k);
      }
      const util::Bytes img = image_of(checked, kM32);
      ASSERT_EQ(img, image_of(fast, kM32)) << "xop " << static_cast<int>(op) << " step "
                                           << step << " +" << k;
      ASSERT_EQ(img, image_of(nofuse, kM32)) << "step " << step << " +" << k;
      for (Interpreter* in : {&checked, &fast, &nofuse}) {
        ASSERT_EQ(in->run().status, RunStatus::kHalted);
      }
      ASSERT_EQ(image_of(checked, kM32), image_of(fast, kM32));
      ASSERT_EQ(image_of(checked, kM32), image_of(nofuse, kM32));
    }
    ASSERT_NE(walker.run(1).status, RunStatus::kTrap);
  }
  EXPECT_EQ(walker.state().stack.back(), Value::integer(21));  // 1 + 2 + ... + 6
  EXPECT_EQ(cut.size(), kXOpCount - static_cast<size_t>(XOp::kFusedIncLocal));
}

TEST(VmDifferential, SyscallAfterFastPushesSeesTheExactStack) {
  // A syscall two frames deep, right after fast pushes and below the
  // callee's deepest point: the host must see the exact operand stack (no
  // headroom slots above the top, the caller's slot below), and resume on
  // it.
  auto assembled = assemble(R"(
func main 0 0
  push_int 7
  push_int 11
  call f
  add
  halt
func f 1 1
  load_local 0
  push_int 22
  push_float 3.5
  syscall print
  push_int 1
  push_int 2
  push_int 3
  add
  add
  add
  add
  ret
)");
  ASSERT_TRUE(assembled.ok());
  const Program prog = assembled.value();
  Interpreter checked(prog, kM64, Interpreter::Dispatch::kChecked);
  checked.start();
  ASSERT_EQ(checked.run().status, RunStatus::kSyscall);
  for (const auto dispatch : {Interpreter::Dispatch::kFast, Interpreter::Dispatch::kFastNoFuse}) {
    Interpreter interp(prog, kM64, dispatch);
    interp.start();
    const RunResult r = interp.run();
    ASSERT_EQ(r.status, RunStatus::kSyscall);
    EXPECT_EQ(r.syscall, Syscall::kPrint);
    EXPECT_TRUE(interp.fast_dispatch());
    EXPECT_EQ(interp.exec_stats().checked_instrs, 0u);
    ASSERT_EQ(interp.stack_depth(), 4u);
    EXPECT_EQ(interp.peek_value(0), Value::real(3.5));
    EXPECT_EQ(interp.peek_value(1), Value::integer(22));
    EXPECT_EQ(interp.peek_value(2), Value::integer(11));
    EXPECT_EQ(interp.peek_value(3), Value::integer(7));  // the caller's slot
    EXPECT_EQ(interp.peek_value(4), Value::unit());      // past the bottom
    EXPECT_EQ(interp.state().steps_executed, 6u);
    EXPECT_EQ(interp.state(), checked.state());
    EXPECT_EQ(interp.pop_value(), Value::real(3.5));
    interp.complete_syscall();
    ASSERT_EQ(interp.run().status, RunStatus::kHalted);
    ASSERT_EQ(interp.stack_depth(), 1u);
    EXPECT_EQ(interp.peek_value(0), Value::integer(46));  // 7 + 11 + 22 + 6
  }
}

TEST(VmDifferential, ArraysAllocatedMidRunStayOnTheFastPath) {
  // The fast loop reads the heap once per frame entry; an allocation runs
  // through the checked step, which re-enters the frame. An array made in
  // the middle of a run is therefore reached by the guarded fast ops at
  // once: only the two allocations take the checked step.
  auto assembled = assemble(R"(
func main 0 3
  push_int 4
  new_array
  store_local 0
  push_int 6
  new_array
  store_local 1
  load_local 1
  push_int 5
  push_int 9
  astore
  load_local 1
  push_int 5
  aload
  load_local 1
  alen
  add
  halt
)");
  ASSERT_TRUE(assembled.ok());
  Interpreter interp(assembled.value(), kM64, Interpreter::Dispatch::kFast);
  interp.start();
  ASSERT_EQ(interp.run().status, RunStatus::kHalted);
  EXPECT_EQ(interp.state().stack.back(), Value::integer(15));
  EXPECT_EQ(interp.exec_stats().checked_instrs, 2u);
  EXPECT_EQ(interp.exec_stats().fast_instrs, 15u);
}

// ----------------------------------------------------- mixed-tag arrays ----
//
// A heap array is a tag column plus a payload-word column (vm/value.hpp),
// written and read column to column by the image codec. This array holds
// every tag in mixed runs, with the payloads a bad split or rebuild would
// lose: ints at the 32-bit edges, -0.0, a NaN with payload bits, refs
// (kNullRef too), bools and units.

const sim::Machine kLe64 = {"Alpha", "Linux", util::Endian::kLittle, 8};
const sim::Machine kBe32 = {"SPARC", "Solaris", util::Endian::kBig, 4};

HeapObject mixed_tag_array() {
  const double nan = std::bit_cast<double>(uint64_t{0x7ff80000deadbeefull});
  const Value pattern[] = {
      Value::integer(INT32_MIN), Value::integer(INT32_MAX), Value::real(-0.0),
      Value::real(nan),          Value::integer(-1),        Value::reference(0),
      Value::reference(kNullRef), Value::boolean(true),     Value::unit(),
      Value::boolean(false),     Value::real(1e300),        Value::integer(0),
  };
  HeapObject arr;
  // Runs of one to five copies of each value, twice round.
  for (size_t round = 0; round < 2; ++round) {
    for (size_t p = 0; p < std::size(pattern); ++p) {
      for (size_t k = 0; k <= (p + round) % 5; ++k) arr.push_back(pattern[p]);
    }
  }
  return arr;
}

/// Bitwise element equality: tags and raw payload words (NaN bits, the
/// sign of -0.0), which Value equality deliberately does not compare.
void expect_same_columns(const HeapObject& got, const HeapObject& want, const std::string& what) {
  EXPECT_EQ(got.kind, want.kind) << what;
  EXPECT_EQ(got.tags, want.tags) << what;
  EXPECT_EQ(got.words, want.words) << what;
}

TEST(MixedTagArray, RoundTripsAtBothSavers) {
  VmState s;
  s.heap.push_back(mixed_tag_array());
  // The stack takes the same values through the split/rebuild path.
  for (size_t k = 0; k < s.heap[0].size(); ++k) s.stack.push_back(s.heap[0].get(k));
  s.frames.push_back(Frame{0, 1, {Value::real(-0.0), Value::reference(kNullRef)}});
  for (const sim::Machine& saver : {kLe64, kBe32}) {
    const ckpt::Image img = ckpt::portable_encode(saver, s);
    for (const sim::Machine& target : {kLe64, kBe32}) {
      const std::string what = saver.label() + " -> " + target.label();
      auto back = ckpt::portable_decode(img, target);
      ASSERT_TRUE(back.ok()) << what << ": " << back.error().to_string();
      ASSERT_EQ(back.value().heap.size(), 1u);
      expect_same_columns(back.value().heap[0], s.heap[0], what);
      HeapObject stack_back, stack_want;
      for (const Value& v : back.value().stack) stack_back.push_back(v);
      for (const Value& v : s.stack) stack_want.push_back(v);
      expect_same_columns(stack_back, stack_want, what + " (stack)");
      for (const Value& v : back.value().stack) {  // canonical inactive payloads
        if (v.tag == Tag::kRef) {
          EXPECT_EQ(v.i, 0) << what;
        } else {
          EXPECT_EQ(v.ref, kNullRef) << what;
        }
      }
      // Re-saving the restored state reproduces the image byte for byte.
      EXPECT_EQ(ckpt::portable_encode(saver, back.value()).payload, img.payload) << what;
    }
  }
}

TEST(MixedTagArray, DecodeFailsClosedOnNarrowIntsAndBadTags) {
  for (const bool single_tag : {false, true}) {
    VmState s;
    HeapObject arr;
    if (single_tag) {
      for (int64_t k = 0; k < 64; ++k) arr.push_back(Value::integer(k - 32));
    } else {
      arr = mixed_tag_array();
    }
    arr.set(3, Value::integer(int64_t{INT32_MAX} + 1));
    s.heap.push_back(arr);
    const ckpt::Image img = ckpt::portable_encode(kLe64, s);
    auto narrow = ckpt::portable_decode(img, kBe32);
    ASSERT_FALSE(narrow.ok());
    EXPECT_EQ(narrow.error().code, "narrow") << narrow.error().to_string();
    EXPECT_TRUE(ckpt::portable_decode(img, kLe64).ok());

    // magic, 4 counts (globals, stack, frames, heap), heap kind, array
    // count: the first tag byte of the array.
    ckpt::Image bad = img;
    bad.payload[4 + 4 + 4 + 4 + 4 + 1 + 4] = std::byte{7};
    auto tag = ckpt::portable_decode(bad, kLe64);
    ASSERT_FALSE(tag.ok());
    EXPECT_EQ(tag.error().code, "decode");
  }
}

TEST(MixedTagArray, DispatchersAgreeOnArrayOps) {
  // Rotates the restored array left by one: every element of every tag
  // goes through aload (both fused array idioms on kFast) and astore, and
  // alen reads its length.
  const char* src = R"(
func main 0 4
  push_int 1
  new_array
  store_local 0
  syscall barrier
  load_local 0
  alen
  store_local 2
  load_local 0
  push_int 0
  aload
  store_local 3
  push_int 0
  store_local 1
loop:
  load_local 1
  load_local 2
  push_int 1
  sub
  lt
  jmp_if_false done
  load_local 0
  load_local 1
  load_local 0
  load_local 1
  push_int 1
  add
  aload
  astore
  load_local 0
  load_local 1
  aload
  pop
  load_local 1
  push_int 1
  add
  store_local 1
  jmp loop
done:
  load_local 0
  load_local 2
  push_int 1
  sub
  load_local 3
  astore
  load_local 0
  alen
  halt
)";
  auto assembled = assemble(src);
  ASSERT_TRUE(assembled.ok()) << assembled.error().to_string();
  const Program prog = std::move(assembled).take();
  const HeapObject arr = mixed_tag_array();
  HeapObject rotated;
  for (size_t k = 0; k < arr.size(); ++k) rotated.push_back(arr.get((k + 1) % arr.size()));

  for (const sim::Machine& machine : {kM64, kM32}) {
    Interpreter boot(prog, machine);
    boot.start();
    ASSERT_EQ(boot.run().status, RunStatus::kSyscall);
    boot.complete_syscall();
    VmState s = boot.state();
    s.heap[0] = arr;

    const Interpreter::Dispatch modes[] = {Interpreter::Dispatch::kChecked,
                                           Interpreter::Dispatch::kFast,
                                           Interpreter::Dispatch::kFastNoFuse};
    std::vector<std::unique_ptr<Interpreter>> interps;
    for (const auto mode : modes) {
      interps.push_back(std::make_unique<Interpreter>(prog, machine, mode));
      interps.back()->set_state(s);
      EXPECT_EQ(interps.back()->fast_dispatch(), mode != Interpreter::Dispatch::kChecked);
    }
    Rng slices(0x5eed);
    for (int round = 0; round < 1000; ++round) {
      const auto slice = static_cast<uint64_t>(rnd_int(slices, 1, 37));
      const RunResult want = interps[0]->run(slice);
      for (size_t m = 1; m < interps.size(); ++m) {
        const RunResult got = interps[m]->run(slice);
        ASSERT_EQ(static_cast<int>(got.status), static_cast<int>(want.status))
            << "mode " << m << " round " << round << ": " << got.trap << want.trap;
        ASSERT_EQ(interps[m]->state().steps_executed, interps[0]->state().steps_executed);
        ASSERT_EQ(image_of(*interps[m], machine), image_of(*interps[0], machine))
            << "mode " << m << " round " << round;
      }
      if (want.status != RunStatus::kRunning) break;
    }
    for (size_t m = 0; m < interps.size(); ++m) {
      const VmState& end = interps[m]->state();
      ASSERT_TRUE(interps[m]->halted()) << "mode " << m;
      expect_same_columns(end.heap[0], rotated, "mode " + std::to_string(m));
      EXPECT_EQ(end.stack.back(), Value::integer(static_cast<int64_t>(arr.size())));
    }
    EXPECT_GT(interps[1]->exec_stats().fused_hits, 0u);
    EXPECT_GT(interps[2]->exec_stats().fast_instrs, interps[2]->exec_stats().checked_instrs);
  }
}

// ------------------------------------------------------------- goldens ----
//
// Byte goldens for everything the VM's value representation feeds: the SFV2
// portable image of a fixed mixed-tag state and the 17-byte application
// wire payload of send_to/recv_from. Recorded before vm::Value shrank to 16
// bytes; any change to Value's layout must leave them untouched.
//
// Regenerating (only for an intentional image or wire format change):
//   STARFISH_GOLDEN_DUMP=1 ./vm_differential_test --gtest_filter='ValueGolden.*'
// prints the actuals to paste below.

bool golden_dump() { return std::getenv("STARFISH_GOLDEN_DUMP") != nullptr; }

uint64_t fnv1a(util::BytesView bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const std::byte b : bytes) {
    h ^= static_cast<uint8_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(util::BytesView bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out += kDigits[static_cast<uint8_t>(b) >> 4];
    out += kDigits[static_cast<uint8_t>(b) & 0xf];
  }
  return out;
}

/// Globals, a stack holding every tag, two frames, a long heap array of
/// tag runs (one longer than 4096 values) and a bytes object. Integers fit
/// 32 bits so the 32-bit saver narrows nothing.
VmState golden_state() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  VmState s;
  s.globals = {Value::integer(42), Value::real(3.5), Value::unit(), Value::boolean(false),
               Value::reference(1)};
  s.stack = {Value::unit(),         Value::integer(INT32_MIN), Value::real(-0.0),
             Value::real(nan),      Value::boolean(true),      Value::reference(0),
             Value::integer(-7),    Value::integer(INT32_MAX), Value::real(1e300)};
  s.frames.push_back(Frame{0, 12, {Value::integer(5), Value::reference(0), Value::real(1.25)}});
  s.frames.push_back(Frame{1, 3, {Value::boolean(true), Value::unit(), Value::integer(-1)}});
  HeapObject arr;
  for (int64_t k = 0; k < 9000; ++k) {
    if (k < 5000) {
      arr.push_back(Value::integer(k * 7 - 1000));
    } else if (k < 5100) {
      arr.push_back(Value::real(static_cast<double>(k) * 0.5));
    } else if (k < 5200) {
      arr.push_back(Value::boolean(k % 3 == 0));
    } else if (k < 5300) {
      arr.push_back(Value::unit());
    } else if (k % 97 == 0) {
      arr.push_back(Value::reference(1));
    } else {
      arr.push_back(Value::integer(-k * 131));
    }
  }
  s.heap.push_back(std::move(arr));
  HeapObject bytes;
  bytes.kind = HeapObject::Kind::kBytes;
  for (int k = 0; k < 37; ++k) bytes.bytes.push_back(static_cast<std::byte>(k * 29 + 3));
  s.heap.push_back(std::move(bytes));
  s.steps_executed = 123456789;
  return s;
}

TEST(ValueGolden, PortableImageBytesAtBothSavers) {
  const sim::Machine le64 = {"Alpha", "Linux", util::Endian::kLittle, 8};
  const sim::Machine be32 = {"SPARC", "Solaris", util::Endian::kBig, 4};
  struct Case {
    const sim::Machine* saver;
    size_t size;
    uint64_t hash;
  };
  const Case cases[] = {
      {&le64, 79570, 14981039077709596008ull},
      {&be32, 44898, 15247017744969431492ull},
  };
  const VmState state = golden_state();
  for (const Case& c : cases) {
    const ckpt::Image img = ckpt::portable_encode(*c.saver, state);
    const uint64_t h = fnv1a(util::as_bytes_view(img.payload));
    if (golden_dump()) {
      std::printf("golden image %s: {.size = %zu, .hash = %lluull}\n", c.saver->arch.c_str(),
                  img.payload.size(), static_cast<unsigned long long>(h));
      continue;
    }
    EXPECT_EQ(img.payload.size(), c.size) << c.saver->arch;
    EXPECT_EQ(h, c.hash) << c.saver->arch;
    // Decoding onto the other representation and re-encoding at the same
    // saver reproduces the bytes (NaN payloads included).
    auto back = ckpt::portable_decode(img, kM64);
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(ckpt::portable_encode(*c.saver, back.value()).payload, img.payload);
  }
  if (golden_dump()) GTEST_SKIP() << "STARFISH_GOLDEN_DUMP set: printed actuals";
}

TEST(ValueGolden, WireBytesOfEveryTag) {
  struct Case {
    const char* name;
    Value value;
    const char* bytes;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Case cases[] = {
      {"integer(INT64_MIN)", Value::integer(INT64_MIN), "0100000000000000800000000000000000"},
      {"integer(-1)", Value::integer(-1), "01ffffffffffffffff0000000000000000"},
      {"real(-0.0)", Value::real(-0.0), "0200000000000000000000000000000080"},
      {"real(NaN)", Value::real(nan), "020000000000000000000000000000f87f"},
      {"boolean(true)", Value::boolean(true), "0301000000000000000000000000000000"},
      {"unit()", Value::unit(), "0000000000000000000000000000000000"},
      {"reference(7)", Value::reference(7), "0400000000000000000000000000000000"},
  };
  for (const Case& c : cases) {
    const std::string got = hex(util::as_bytes_view(encode_wire_value(c.value)));
    if (golden_dump()) {
      std::printf("golden wire: {\"%s\", ..., \"%s\"},\n", c.name, got.c_str());
      continue;
    }
    EXPECT_EQ(got, c.bytes) << c.name;
  }
  if (golden_dump()) GTEST_SKIP() << "STARFISH_GOLDEN_DUMP set: printed actuals";
}

}  // namespace
}  // namespace starfish::vm
