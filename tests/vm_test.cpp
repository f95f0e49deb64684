#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "vm/bytecode.hpp"
#include "vm/interp.hpp"
#include "vm/value.hpp"
#include "vm/verify.hpp"

namespace starfish::vm {
namespace {

const sim::Machine kM32 = {"i686", "Linux", util::Endian::kLittle, 4};
const sim::Machine kM64 = {"Alpha", "Linux", util::Endian::kLittle, 8};

Program must_assemble(const std::string& src) {
  auto r = assemble(src);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
  return r.ok() ? r.value() : Program{};
}

/// Runs `src`'s main to completion on `machine`; returns top of stack.
Value run_to_halt(const std::string& src, const sim::Machine& machine = kM32) {
  Program prog = must_assemble(src);
  Interpreter interp(prog, machine);
  interp.start();
  auto r = interp.run();
  EXPECT_EQ(r.status, RunStatus::kHalted) << r.trap;
  return interp.mutable_state().stack.empty() ? Value::unit()
                                              : interp.mutable_state().stack.back();
}

// -------------------------------------------------------------- value ----

static_assert(sizeof(Value) == 16);

TEST(Value, EqualityComparesTagAndLivePayload) {
  EXPECT_NE(Value::integer(0), Value::unit());
  EXPECT_NE(Value::integer(1), Value::boolean(true));
  EXPECT_NE(Value::integer(0), Value::real(0.0));
  EXPECT_NE(Value::reference(3), Value::reference(4));
  EXPECT_EQ(Value::reference(3), Value::reference(3));
  EXPECT_EQ(Value::real(+0.0), Value::real(-0.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(Value::real(nan), Value::real(nan));
  EXPECT_EQ(Value::boolean(false), Value::boolean(false));
  EXPECT_EQ(Value::unit(), Value{});
}

TEST(Value, FactoriesKeepInactivePayloadCanonical) {
  EXPECT_EQ(Value::unit().i, 0);
  EXPECT_EQ(Value::unit().ref, kNullRef);
  EXPECT_EQ(Value::reference(9).i, 0);
  EXPECT_EQ(Value::integer(-5).ref, kNullRef);
  EXPECT_EQ(Value::real(2.5).ref, kNullRef);
  EXPECT_EQ(Value::boolean(true).i, 1);
  EXPECT_EQ(Value::boolean(true).ref, kNullRef);
}

TEST(Value, FromPartsInvertsWordAndStaysCanonical) {
  const double nan = std::bit_cast<double>(uint64_t{0x7ff80000deadbeefull});
  for (const Value& v : {Value::unit(), Value::integer(INT64_MIN), Value::integer(-1),
                         Value::real(-0.0), Value::real(nan), Value::boolean(true),
                         Value::boolean(false), Value::reference(7), Value::reference(kNullRef)}) {
    const Value back = Value::from_parts(v.tag, v.word());
    EXPECT_EQ(back.tag, v.tag);
    EXPECT_EQ(back.word(), v.word()) << v.to_string();
    EXPECT_EQ(back.ref, v.ref) << v.to_string();
  }
  EXPECT_EQ(Value::real(-0.0).word(), uint64_t{1} << 63);
  EXPECT_EQ(Value::reference(kNullRef).word(), uint64_t{kNullRef});  // zero-extended
  EXPECT_EQ(Value::from_parts(Tag::kRef, 5).i, 0);
  EXPECT_EQ(Value::from_parts(Tag::kInt, 5).ref, kNullRef);
}

// ------------------------------------------------------- heap objects ----

TEST(HeapObject, EqualityComparesElementsAsValues) {
  // The word column holds raw payload bits; equality must still be Value
  // equality, which a defaulted == over the columns would break.
  HeapObject pos, neg;
  pos.push_back(Value::real(+0.0));
  neg.push_back(Value::real(-0.0));
  EXPECT_NE(pos.words, neg.words);
  EXPECT_EQ(pos, neg);

  HeapObject nan;
  nan.push_back(Value::real(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(nan.words, nan.words);
  EXPECT_NE(nan, nan);

  HeapObject one, yes;
  one.push_back(Value::integer(1));
  yes.push_back(Value::boolean(true));
  EXPECT_EQ(one.words, yes.words);
  EXPECT_NE(one, yes);

  HeapObject longer = one;
  longer.push_back(Value::unit());
  EXPECT_NE(one, longer);
  HeapObject bytes;
  bytes.kind = HeapObject::Kind::kBytes;
  EXPECT_NE(HeapObject{}, bytes);
}

TEST(HeapObject, ElementsReadBackThroughTheFactories) {
  HeapObject arr;
  arr.assign(3, Value::unit());
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.get(2), Value::unit());
  arr.set(0, Value::reference(4));
  arr.set(1, Value::real(2.5));
  arr.set(2, Value::boolean(true));
  EXPECT_EQ(arr.get(0), Value::reference(4));
  EXPECT_EQ(arr.get(0).i, 0);
  EXPECT_EQ(arr.get(1), Value::real(2.5));
  EXPECT_EQ(arr.get(1).ref, kNullRef);
  EXPECT_EQ(arr.get(2), Value::boolean(true));
  arr.set(0, Value::integer(-3));  // a slot changes tag in place
  EXPECT_EQ(arr.get(0), Value::integer(-3));
  EXPECT_EQ(arr.get(0).ref, kNullRef);
}

TEST(WireValue, EveryTagRoundTrips) {
  const Value values[] = {Value::unit(),         Value::integer(INT64_MIN),
                          Value::integer(-1),    Value::real(-0.0),
                          Value::real(1e-300),   Value::boolean(true),
                          Value::boolean(false)};
  for (const Value& v : values) {
    const util::Bytes wire = encode_wire_value(v);
    ASSERT_EQ(wire.size(), kWireValueBytes) << v.to_string();
    auto back = decode_wire_value(util::as_bytes_view(wire));
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value(), v) << v.to_string();
    if (v.tag == Tag::kFloat) {
      EXPECT_EQ(std::signbit(back.value().f), std::signbit(v.f));
    }
  }
  // NaN never equals itself; its bits survive.
  auto nan = decode_wire_value(util::as_bytes_view(
      encode_wire_value(Value::real(std::numeric_limits<double>::quiet_NaN()))));
  ASSERT_TRUE(nan.ok());
  EXPECT_EQ(nan.value().tag, Tag::kFloat);
  EXPECT_TRUE(std::isnan(nan.value().f));
  // A heap index is host-local: a reference arrives as the null reference.
  auto ref = decode_wire_value(util::as_bytes_view(encode_wire_value(Value::reference(7))));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value(), Value::reference(kNullRef));
}

TEST(WireValue, DecodeFailsClosed) {
  const util::Bytes good = encode_wire_value(Value::integer(42));
  std::vector<std::pair<std::string, util::Bytes>> bad;
  for (size_t n = 0; n < good.size(); ++n) {
    bad.emplace_back("truncated to " + std::to_string(n),
                     util::Bytes(good.begin(), good.begin() + static_cast<ptrdiff_t>(n)));
  }
  util::Bytes appended = good;
  appended.push_back(std::byte{0});
  bad.emplace_back("one appended byte", appended);
  for (const uint8_t tag : {uint8_t{5}, uint8_t{255}}) {
    util::Bytes b = good;
    b[0] = std::byte{tag};
    bad.emplace_back("tag " + std::to_string(tag), b);
  }
  for (const auto& [name, bytes] : bad) {
    auto r = decode_wire_value(util::as_bytes_view(bytes));
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.error().code, "decode") << name;
  }
}

// ---------------------------------------------------------- assembler ----

TEST(Assembler, RejectsUnknownMnemonic) {
  auto r = assemble("func main 0 0\n  frobnicate\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "asm");
}

TEST(Assembler, RejectsUnknownLabel) {
  auto r = assemble("func main 0 0\n  jmp nowhere\n");
  ASSERT_FALSE(r.ok());
}

TEST(Assembler, RejectsInstructionOutsideFunction) {
  EXPECT_FALSE(assemble("push_int 1\n").ok());
}

TEST(Assembler, RejectsBadOperandCounts) {
  EXPECT_FALSE(assemble("func main 0 0\n  push_int\n").ok());
  EXPECT_FALSE(assemble("func main 0 0\n  add 3\n").ok());
  EXPECT_FALSE(assemble("func main 0\n  halt\n").ok());
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
  auto r = assemble("# header comment\n\nfunc main 0 0\n  push_int 7  # trailing\n  halt\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().functions[0].code.size(), 2u);
}

TEST(Assembler, ForwardFunctionReferencesResolve) {
  auto r = assemble(R"(
func main 0 0
  push_int 4
  call helper
  halt
func helper 1 1
  load_local 0
  push_int 1
  add
  ret
)");
  ASSERT_TRUE(r.ok());
}

// -------------------------------------------------------- interpreter ----

TEST(Interp, ArithmeticExpression) {
  // (7 * 6) - (10 / 2) = 37
  Value v = run_to_halt(R"(
func main 0 0
  push_int 7
  push_int 6
  mul
  push_int 10
  push_int 2
  div
  sub
  halt
)");
  EXPECT_EQ(v, Value::integer(37));
}

TEST(Interp, FloatArithmetic) {
  Value v = run_to_halt(R"(
func main 0 0
  push_float 1.5
  push_float 2.25
  fadd
  push_float 2.0
  fmul
  halt
)");
  ASSERT_EQ(v.tag, Tag::kFloat);
  EXPECT_DOUBLE_EQ(v.f, 7.5);
}

TEST(Interp, LoopComputesTriangularNumber) {
  // sum 1..100 = 5050 via locals and a backward jump.
  Value v = run_to_halt(R"(
func main 0 2
  push_int 0
  store_local 0      # acc
  push_int 1
  store_local 1      # i
loop:
  load_local 1
  push_int 100
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
)");
  EXPECT_EQ(v, Value::integer(5050));
}

TEST(Interp, FunctionCallAndReturn) {
  Value v = run_to_halt(R"(
func main 0 0
  push_int 9
  push_int 16
  call hypot2
  halt
func hypot2 2 2
  load_local 0
  load_local 0
  mul
  load_local 1
  load_local 1
  mul
  add
  ret
)");
  EXPECT_EQ(v, Value::integer(81 + 256));
}

TEST(Interp, RecursionFactorial) {
  Value v = run_to_halt(R"(
func main 0 0
  push_int 10
  call fact
  halt
func fact 1 1
  load_local 0
  push_int 1
  le
  jmp_if_false rec
  push_int 1
  ret
rec:
  load_local 0
  push_int 1
  sub
  call fact
  load_local 0
  mul
  ret
)");
  EXPECT_EQ(v, Value::integer(3628800));
}

TEST(Interp, GlobalsPersistAcrossCalls) {
  Value v = run_to_halt(R"(
func main 0 0
  push_int 5
  store_global 3
  call bump
  pop
  load_global 3
  halt
func bump 0 0
  load_global 3
  push_int 1
  add
  store_global 3
  push_unit
  ret
)");
  EXPECT_EQ(v, Value::integer(6));
}

TEST(Interp, HeapArrayRoundtrip) {
  Value v = run_to_halt(R"(
func main 0 1
  push_int 10
  new_array
  store_local 0
  load_local 0
  push_int 4
  push_int 99
  astore
  load_local 0
  push_int 4
  aload
  halt
)");
  EXPECT_EQ(v, Value::integer(99));
}

TEST(Interp, ArrayLength) {
  Value v = run_to_halt(R"(
func main 0 0
  push_int 17
  new_array
  alen
  halt
)");
  EXPECT_EQ(v, Value::integer(17));
}

TEST(Interp, WordWrap32BitOverflow) {
  // 2^31 - 1 + 1 wraps negative on a 32-bit machine...
  Value v32 = run_to_halt(R"(
func main 0 0
  push_int 2147483647
  push_int 1
  add
  halt
)", kM32);
  EXPECT_EQ(v32, Value::integer(INT32_MIN));
  // ...but not on a 64-bit machine.
  Value v64 = run_to_halt(R"(
func main 0 0
  push_int 2147483647
  push_int 1
  add
  halt
)", kM64);
  EXPECT_EQ(v64, Value::integer(2147483648ll));
}

TEST(Interp, DivisionByZeroTraps) {
  Program prog = must_assemble("func main 0 0\n push_int 1\n push_int 0\n div\n halt\n");
  Interpreter interp(prog, kM32);
  interp.start();
  auto r = interp.run();
  EXPECT_EQ(r.status, RunStatus::kTrap);
  EXPECT_NE(r.trap.find("division"), std::string::npos);
}

TEST(Interp, OutOfBoundsArrayTraps) {
  Program prog = must_assemble(R"(
func main 0 0
  push_int 3
  new_array
  push_int 5
  aload
  halt
)");
  Interpreter interp(prog, kM32);
  interp.start();
  EXPECT_EQ(interp.run().status, RunStatus::kTrap);
}

TEST(Interp, StackUnderflowTraps) {
  Program prog = must_assemble("func main 0 0\n add\n halt\n");
  Interpreter interp(prog, kM32);
  interp.start();
  EXPECT_EQ(interp.run().status, RunStatus::kTrap);
}

TEST(Interp, TypeErrorTraps) {
  Program prog = must_assemble("func main 0 0\n push_float 1.0\n push_int 2\n add\n halt\n");
  Interpreter interp(prog, kM32);
  interp.start();
  EXPECT_EQ(interp.run().status, RunStatus::kTrap);
}

TEST(Interp, SyscallReturnsControlToHost) {
  Program prog = must_assemble(R"(
func main 0 0
  syscall rank
  push_int 100
  add
  halt
)");
  Interpreter interp(prog, kM32);
  interp.start();
  auto r = interp.run();
  ASSERT_EQ(r.status, RunStatus::kSyscall);
  EXPECT_EQ(r.syscall, Syscall::kRank);
  // Until the host completes the call, the pc stays at the syscall: a
  // checkpoint here would re-execute it after restore.
  auto again = interp.run(0);
  EXPECT_EQ(again.status, RunStatus::kRunning);
  interp.push_value(Value::integer(3));  // host services the call
  interp.complete_syscall();
  r = interp.run();
  ASSERT_EQ(r.status, RunStatus::kHalted);
  EXPECT_EQ(interp.mutable_state().stack.back(), Value::integer(103));
}

TEST(Interp, BlockedSyscallStateIsRestartable) {
  // Snapshot while a syscall is pending; the restored interpreter re-issues
  // the same syscall with the argument stack intact.
  Program prog = must_assemble(R"(
func main 0 0
  push_int 2
  syscall recv_from
  push_int 10
  add
  halt
)");
  Interpreter a(prog, kM32);
  a.start();
  auto r = a.run();
  ASSERT_EQ(r.status, RunStatus::kSyscall);
  EXPECT_EQ(r.syscall, Syscall::kRecvFrom);
  EXPECT_EQ(a.peek_value(0), Value::integer(2));  // arg still on the stack

  VmState snapshot = a.state();  // "checkpoint" taken while blocked
  Interpreter b(prog, kM32);
  b.set_state(snapshot);
  auto rb = b.run();
  ASSERT_EQ(rb.status, RunStatus::kSyscall);  // re-executes the receive
  EXPECT_EQ(rb.syscall, Syscall::kRecvFrom);
  (void)b.pop_value();
  b.push_value(Value::integer(32));  // the replayed message
  b.complete_syscall();
  rb = b.run();
  ASSERT_EQ(rb.status, RunStatus::kHalted);
  EXPECT_EQ(b.mutable_state().stack.back(), Value::integer(42));
}

TEST(Interp, StepBudgetSuspendsAndResumes) {
  Program prog = must_assemble(R"(
func main 0 1
  push_int 0
  store_local 0
loop:
  load_local 0
  push_int 1
  add
  store_local 0
  load_local 0
  push_int 1000
  lt
  jmp_if_false done
  jmp loop
done:
  load_local 0
  halt
)");
  Interpreter interp(prog, kM32);
  interp.start();
  int resumes = 0;
  for (;;) {
    auto r = interp.run(100);
    if (r.status == RunStatus::kHalted) break;
    ASSERT_EQ(r.status, RunStatus::kRunning);
    ++resumes;
    ASSERT_LT(resumes, 1000);
  }
  EXPECT_GT(resumes, 10);
  EXPECT_EQ(interp.mutable_state().stack.back(), Value::integer(1000));
}

TEST(Interp, StateSnapshotMidRunResumesIdentically) {
  // Run half on one interpreter, snapshot, resume on a second interpreter:
  // the checkpointing property the whole system relies on.
  const std::string src = R"(
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
  Program prog = must_assemble(src);
  Interpreter a(prog, kM32);
  a.start();
  (void)a.run(500);  // stop somewhere in the middle
  VmState snapshot = a.state();

  Interpreter b(prog, kM32);
  b.set_state(snapshot);
  auto r = b.run();
  ASSERT_EQ(r.status, RunStatus::kHalted);
  EXPECT_EQ(b.mutable_state().stack.back(), Value::integer(201 * 100));

  // The original also finishes with the same answer (snapshot is a copy).
  r = a.run();
  ASSERT_EQ(r.status, RunStatus::kHalted);
  EXPECT_EQ(a.mutable_state().stack.back(), Value::integer(201 * 100));
}

TEST(Interp, SwapDupPopNotAndOr) {
  Value v = run_to_halt(R"(
func main 0 0
  push_int 6
  push_int 3
  swap
  sub            # 3 - 6 = -3
  neg            # 3
  dup
  add            # 6
  push_int 12
  and            # 6 & 12 = 4
  push_int 1
  or             # 5
  halt
)");
  EXPECT_EQ(v, Value::integer(5));
}

TEST(Interp, NotOperator) {
  Value v = run_to_halt(R"(
func main 0 0
  push_bool 0
  not
  halt
)");
  EXPECT_EQ(v, Value::boolean(true));
}

TEST(Interp, IntFloatConversions) {
  Value v = run_to_halt(R"(
func main 0 0
  push_int 7
  i2f
  push_float 2.0
  fdiv           # 3.5
  f2i            # 3
  halt
)");
  EXPECT_EQ(v, Value::integer(3));
}

TEST(Interp, FloatNegAndComparisons) {
  Value v = run_to_halt(R"(
func main 0 0
  push_float 1.5
  neg
  push_float -1.5
  eq
  halt
)");
  EXPECT_EQ(v, Value::boolean(true));
}

TEST(Interp, ByteObjectsViaAlen) {
  Value v = run_to_halt(R"(
func main 0 0
  push_int 33
  new_bytes
  alen
  halt
)");
  EXPECT_EQ(v, Value::integer(33));
}

TEST(Interp, NestedCallsThreeDeep) {
  Value v = run_to_halt(R"(
func main 0 0
  push_int 2
  call twice
  halt
func twice 1 1
  load_local 0
  call inc
  call inc
  ret
func inc 1 1
  load_local 0
  push_int 1
  add
  ret
)");
  EXPECT_EQ(v, Value::integer(4));
}

TEST(Interp, ModAndDivTruncateTowardZero) {
  Value v = run_to_halt(R"(
func main 0 0
  push_int -7
  push_int 2
  div            # -3
  push_int -7
  push_int 2
  mod            # -1
  add
  halt
)");
  EXPECT_EQ(v, Value::integer(-4));
}

TEST(Interp, AstoreTypeErrorsTrap) {
  Program prog = must_assemble(R"(
func main 0 0
  push_int 1
  push_int 0
  push_int 5
  astore
  halt
)");
  Interpreter interp(prog, kM32);
  interp.start();
  EXPECT_EQ(interp.run().status, RunStatus::kTrap);
}

TEST(Interp, JmpIfFalseOnNonBoolTraps) {
  Program prog = must_assemble(R"(
func main 0 0
  push_int 1
  jmp_if_false out
out:
  halt
)");
  Interpreter interp(prog, kM32);
  interp.start();
  EXPECT_EQ(interp.run().status, RunStatus::kTrap);
}

// ----------------------------------------------------------- verifier ----

TEST(Verify, AcceptsWellFormedProgram) {
  Program p = must_assemble(R"(
func main 0 1
  push_int 1
  store_local 0
  load_local 0
  call helper
  halt
func helper 1 1
  load_local 0
  ret
)");
  EXPECT_TRUE(validate(p).ok());
}

TEST(Verify, RejectsMissingMain) {
  Program p = must_assemble("func notmain 0 0\n  halt\n");
  auto r = validate(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("main"), std::string::npos);
}

TEST(Verify, RejectsFallOffEnd) {
  Program p = must_assemble("func main 0 0\n  push_int 1\n  pop\n");
  EXPECT_FALSE(validate(p).ok());
}

TEST(Verify, RejectsOutOfRangeLocal) {
  Program p = must_assemble("func main 0 1\n  load_local 0\n  halt\n");
  p.functions[0].code[0].imm_i = 5;  // corrupt the slot index
  EXPECT_FALSE(validate(p).ok());
}

TEST(Verify, RejectsBadJumpTarget) {
  Program p = must_assemble("func main 0 0\n  jmp end\nend:\n  halt\n");
  p.functions[0].code[0].imm_i = 99;
  EXPECT_FALSE(validate(p).ok());
}

TEST(Verify, RejectsBadCallIndex) {
  Program p = must_assemble("func main 0 0\n  call main\n  halt\n");
  p.functions[0].code[0].imm_i = 7;
  EXPECT_FALSE(validate(p).ok());
}

TEST(Verify, RejectsUnknownSyscallId) {
  Program p = must_assemble("func main 0 0\n  syscall print\n  halt\n");
  p.functions[0].code[0].imm_i = 200;
  EXPECT_FALSE(validate(p).ok());
}

TEST(Verify, RejectsDuplicateFunctionNames) {
  Program p = must_assemble("func main 0 0\n  halt\n");
  p.functions.push_back(p.functions[0]);
  EXPECT_FALSE(validate(p).ok());
}

TEST(Disassemble, RoundTripPreservesBehavior) {
  const std::string src = R"(
func main 0 2
  push_int 0
  store_local 0
  push_int 1
  store_local 1
loop:
  load_local 1
  push_int 25
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
  Program original = must_assemble(src);
  const std::string listing = disassemble(original);
  Program again = must_assemble(listing);
  EXPECT_TRUE(validate(again).ok());
  Interpreter a(original, kM32), b(again, kM32);
  a.start();
  b.start();
  (void)a.run();
  (void)b.run();
  EXPECT_EQ(a.state().stack, b.state().stack);  // sum 1..25 = 325 both ways
  EXPECT_EQ(a.state().stack.back(), Value::integer(325));
}

// ---------------------------------------------------- execution engine ----

TEST(Verifier, AnalyzeProvesStraightLineFacts) {
  Program p = must_assemble(R"(
func main 0 1
  push_int 2
  push_int 3
  add
  store_local 0
  halt
)");
  ProgramFacts facts = analyze(p);
  ASSERT_EQ(facts.functions.size(), 1u);
  const FunctionFacts& f = facts.functions[0];
  ASSERT_TRUE(f.analyzed);
  EXPECT_TRUE(facts.any_fast);
  for (size_t pc = 0; pc < p.functions[0].code.size(); ++pc) {
    EXPECT_EQ(f.fast[pc], 1) << "pc " << pc;
  }
  // Exact depths before each instruction: 0, 1, 2, 1, 0.
  EXPECT_EQ(f.depth, (std::vector<int32_t>{0, 1, 2, 1, 0}));
  EXPECT_EQ(f.max_stack, 2u);
}

TEST(Verifier, UnderflowMakesFunctionUnanalyzable) {
  // `add` pops below main's entry depth: no facts, everything stays checked.
  Program p = must_assemble("func main 0 0\n  add\n  halt\n");
  ProgramFacts facts = analyze(p);
  EXPECT_FALSE(facts.functions[0].analyzed);
  EXPECT_FALSE(facts.any_fast);
}

TEST(Verifier, CallerOfUnanalyzableCalleeIsDemoted) {
  // helper underflows, so main's assumption about the call's stack effect
  // is unprovable and main must forfeit its facts too.
  Program p = must_assemble(R"(
func main 0 0
  call helper
  halt
func helper 0 0
  add
  ret
)");
  ProgramFacts facts = analyze(p);
  EXPECT_FALSE(facts.functions[1].analyzed);
  EXPECT_FALSE(facts.functions[0].analyzed);
}

TEST(Verifier, DefiniteTrapKeepsInstructionCheckedWithoutFailingFunction) {
  // not-on-int provably traps; the function keeps its facts (flow dies at
  // the trap) and the checked escape must preserve the original message.
  Program p = must_assemble("func main 0 0\n  push_int 1\n  not\n  halt\n");
  ProgramFacts facts = analyze(p);
  ASSERT_TRUE(facts.functions[0].analyzed);
  EXPECT_EQ(facts.functions[0].fast[1], 0);

  Interpreter interp(p, kM32);
  interp.start();
  auto r = interp.run();
  EXPECT_EQ(r.status, RunStatus::kTrap);
  EXPECT_EQ(r.trap, "not on non-bool");
}

TEST(Interp, AllDispatchModesProduceIdenticalResults) {
  const std::string src = R"(
func main 0 2
  push_int 0
  store_local 0
  push_int 1
  store_local 1
loop:
  load_local 1
  push_int 500
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
  Program p = must_assemble(src);
  Interpreter fast(p, kM32, Interpreter::Dispatch::kFast);
  Interpreter nofuse(p, kM32, Interpreter::Dispatch::kFastNoFuse);
  Interpreter checked(p, kM32, Interpreter::Dispatch::kChecked);
  EXPECT_TRUE(fast.fast_dispatch());
  EXPECT_FALSE(checked.fast_dispatch());
  for (Interpreter* i : {&fast, &nofuse, &checked}) {
    i->start();
    auto r = i->run();
    EXPECT_EQ(r.status, RunStatus::kHalted) << r.trap;
  }
  EXPECT_EQ(fast.state().stack.back(), Value::integer(125250));
  EXPECT_EQ(fast.state().stack, checked.state().stack);
  EXPECT_EQ(nofuse.state().stack, checked.state().stack);
  EXPECT_EQ(fast.state().steps_executed, checked.state().steps_executed);
  EXPECT_EQ(nofuse.state().steps_executed, checked.state().steps_executed);
}

TEST(Interp, TrapMessagesIdenticalAcrossDispatchers) {
  // Division by zero sits on a verifier-fast path (zero guard retained).
  const std::string src = "func main 0 0\n  push_int 1\n  push_int 0\n  div\n  halt\n";
  Program p = must_assemble(src);
  Interpreter fast(p, kM32, Interpreter::Dispatch::kFast);
  Interpreter checked(p, kM32, Interpreter::Dispatch::kChecked);
  fast.start();
  checked.start();
  auto rf = fast.run(), rc = checked.run();
  EXPECT_EQ(rf.status, RunStatus::kTrap);
  EXPECT_EQ(rf.trap, rc.trap);
  EXPECT_EQ(rf.trap, "division by zero");
  EXPECT_EQ(fast.state().steps_executed, checked.state().steps_executed);
  EXPECT_EQ(fast.state().stack, checked.state().stack);
}

TEST(Interp, HostPopOnEmptyStackTrapsInsteadOfReturningUnit) {
  Program p = must_assemble("func main 0 0\n  syscall print\n  halt\n");
  Interpreter interp(p, kM32, Interpreter::Dispatch::kChecked);
  interp.start();
  interp.mutable_state().stack.clear();  // simulate a host protocol bug
  (void)interp.pop_value();              // old behavior: silently unit
  auto r = interp.run();
  EXPECT_EQ(r.status, RunStatus::kTrap);
  EXPECT_EQ(r.trap, "host pop on empty stack");
}

TEST(Interp, ExecStatsCountFastAndFusedInstructions) {
  Program p = must_assemble(R"(
func main 0 1
  push_int 0
  store_local 0
loop:
  load_local 0
  push_int 1
  add
  store_local 0
  load_local 0
  push_int 100
  lt
  jmp_if_false done
  jmp loop
done:
  halt
)");
  Interpreter interp(p, kM64);
  interp.start();
  auto r = interp.run();
  EXPECT_EQ(r.status, RunStatus::kHalted) << r.trap;
  const auto& stats = interp.exec_stats();
  EXPECT_EQ(stats.fast_instrs, interp.state().steps_executed);
  EXPECT_EQ(stats.checked_instrs, 0u);
  EXPECT_GT(stats.fused_hits, 0u);  // inc-local and load-cmp-branch idioms
}

TEST(Interp, ObsCountersMirrorExecution) {
  obs::Hub hub;
  Program p = must_assemble("func main 0 0\n  push_int 1\n  push_int 2\n  add\n  halt\n");
  Interpreter interp(p, kM64);
  interp.set_obs(&hub);
  interp.start();
  (void)interp.run();
  const obs::Counter* retired = hub.metrics.find_counter("sim.vm.instructions_retired");
  ASSERT_NE(retired, nullptr);
  EXPECT_EQ(retired->value(), interp.state().steps_executed);
  const obs::Counter* fastc = hub.metrics.find_counter("sim.vm.dispatch_fast");
  ASSERT_NE(fastc, nullptr);
  EXPECT_EQ(fastc->value(), interp.state().steps_executed);
}

TEST(Interp, RestoredStateFailingDepthVettingFallsBackToChecked) {
  Program p = must_assemble("func main 0 0\n  push_int 1\n  push_int 2\n  add\n  halt\n");
  Interpreter a(p, kM32);
  a.start();
  (void)a.run(1);  // pause with one value on the stack
  VmState s = a.state();
  s.stack.push_back(Value::integer(99));  // corrupt: depth no longer matches
  Interpreter b(p, kM32);
  b.set_state(std::move(s));
  EXPECT_FALSE(b.fast_dispatch());  // checked loop re-validates per step
  VmState good = a.state();
  Interpreter c(p, kM32);
  c.set_state(std::move(good));
  EXPECT_TRUE(c.fast_dispatch());
  auto r = c.run();
  EXPECT_EQ(r.status, RunStatus::kHalted);
  EXPECT_EQ(c.state().stack.back(), Value::integer(3));
}

/// Runs `p` to its first syscall, completes it, and returns the state
/// parked on the instruction after it.
VmState state_after_first_syscall(const Program& p) {
  Interpreter a(p, kM32);
  a.start();
  EXPECT_EQ(a.run().status, RunStatus::kSyscall);
  a.complete_syscall();
  return a.state();
}

/// Installs `s` into each dispatcher and runs it to the end: restore
/// vetting must reject the state for the fast loop, and every dispatcher
/// must trap with `want`.
void expect_vetting_rejects(const Program& p, const VmState& s, const std::string& want) {
  for (auto mode : {Interpreter::Dispatch::kFast, Interpreter::Dispatch::kFastNoFuse,
                    Interpreter::Dispatch::kChecked}) {
    Interpreter b(p, kM32, mode);
    b.set_state(s);
    EXPECT_FALSE(b.fast_dispatch()) << "mode " << static_cast<int>(mode);
    auto r = b.run();
    EXPECT_EQ(r.status, RunStatus::kTrap) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(r.trap, want) << "mode " << static_cast<int>(mode);
  }
}

TEST(Interp, RestoredStateWithMistypedLocalFallsBackToChecked) {
  // The depths match the facts, but local 0 — proven Int at the resume pc
  // — now holds a float: the fast loop must not trust the elided tag check.
  Program p = must_assemble(R"(
func main 0 1
  push_int 5
  store_local 0
  syscall barrier
  load_local 0
  push_int 1
  add
  halt
)");
  VmState s = state_after_first_syscall(p);
  {
    Interpreter good(p, kM32);
    good.set_state(s);
    EXPECT_TRUE(good.fast_dispatch());
  }
  s.frames[0].locals[0] = Value::real(2.5);
  expect_vetting_rejects(p, s, "type error: expected two ints");
}

TEST(Interp, RestoredStateWithMistypedRefLocalFallsBackToChecked) {
  // Local 0 is proven Ref in front of a fused array load; the restored state
  // turns it into an Int whose stale ref field still names the live array,
  // so only the tag tells the two apart.
  Program p = must_assemble(R"(
func main 0 2
  push_int 4
  new_array
  store_local 0
  push_int 2
  store_local 1
  syscall barrier
  load_local 0
  load_local 1
  aload
  halt
)");
  VmState s = state_after_first_syscall(p);
  Value bogus = Value::integer(0);
  bogus.ref = s.frames[0].locals[0].ref;
  s.frames[0].locals[0] = bogus;
  expect_vetting_rejects(p, s, "aload: bad operands");
}

TEST(Interp, RestoredCallerFrameIsVettedBelowTheCalleeResult) {
  // main is parked after `call helper` with one value of its own below the
  // pending result: its proven Int must be checked, the result slot not.
  Program p = must_assemble(R"(
func main 0 0
  push_int 40
  call helper
  add
  halt
func helper 0 0
  syscall barrier
  push_int 2
  ret
)");
  Interpreter a(p, kM32);
  a.start();
  ASSERT_EQ(a.run().status, RunStatus::kSyscall);
  VmState s = a.state();
  {
    Interpreter b(p, kM32);
    b.set_state(s);
    EXPECT_TRUE(b.fast_dispatch());
    ASSERT_EQ(b.run().status, RunStatus::kSyscall);
    b.complete_syscall();
    ASSERT_EQ(b.run().status, RunStatus::kHalted);
    EXPECT_EQ(b.state().stack.back(), Value::integer(42));
  }
  s.stack[0] = Value::boolean(true);
  Interpreter c(p, kM32);
  c.set_state(s);
  EXPECT_FALSE(c.fast_dispatch());
  // A caller frame not parked right after a call is rejected too.
  s = a.state();
  s.frames[0].pc = 1;
  c.set_state(s);
  EXPECT_FALSE(c.fast_dispatch());
}

TEST(Verifier, RetLeavingValuesBehindForfeitsFacts) {
  // helper returns with an extra Int under its result, which stays on
  // main's stack where main's facts expect the Bool it pushed: trusting
  // them would take the branch instead of trapping.
  Program p = must_assemble(R"(
func main 0 0
  push_bool 1
  call helper
  pop
  jmp_if_false out
out:
  halt
func helper 0 0
  push_int 0
  push_int 7
  ret
)");
  ProgramFacts facts = analyze(p);
  EXPECT_FALSE(facts.functions[1].analyzed);
  EXPECT_FALSE(facts.functions[0].analyzed);
  for (auto mode : {Interpreter::Dispatch::kFast, Interpreter::Dispatch::kChecked}) {
    Interpreter interp(p, kM32, mode);
    interp.start();
    auto r = interp.run();
    EXPECT_EQ(r.status, RunStatus::kTrap);
    EXPECT_EQ(r.trap, "jmp_if_false on non-bool");
  }
}

struct HeapGuardCase {
  const char* name;
  const char* src;
  const char* trap;
};

TEST(Interp, HeapGuardTrapsIdenticalAcrossDispatchers) {
  // Each failing guard in a fast heap op (or in int arithmetic on a loaded
  // cell) must escape before mutating anything, so the checked step
  // reproduces the trap, the stack and the step count exactly.
  const HeapGuardCase cases[] = {
      {"aload out of bounds", R"(
func main 0 0
  push_int 3
  new_array
  push_int 3
  aload
  halt
)", "aload: index out of bounds"},
      {"astore out of bounds", R"(
func main 0 1
  push_int 3
  new_array
  store_local 0
  load_local 0
  push_int 9
  push_int 1
  astore
  halt
)", "astore: index out of bounds"},
      {"aload negative index", R"(
func main 0 0
  push_int 3
  new_array
  push_int -1
  aload
  halt
)", "aload: index out of bounds"},
      {"astore negative index", R"(
func main 0 0
  push_int 3
  new_array
  push_int -2
  push_int 5
  astore
  halt
)", "astore: index out of bounds"},
      {"fused aload out of bounds", R"(
func main 0 2
  push_int 3
  new_array
  store_local 0
  push_int 3
  store_local 1
  push_int 7
  load_local 0
  load_local 1
  aload
  halt
)", "aload: index out of bounds"},
      {"fused offset aload negative index", R"(
func main 0 2
  push_int 3
  new_array
  store_local 0
  push_int 0
  store_local 1
  push_int 7
  load_local 0
  load_local 1
  push_int 1
  sub
  aload
  halt
)", "aload: index out of bounds"},
      {"aload on a byte object", R"(
func main 0 0
  push_int 4
  new_bytes
  push_int 0
  aload
  halt
)", "aload: not an array"},
      {"fused aload on a byte object", R"(
func main 0 2
  push_int 4
  new_bytes
  store_local 0
  push_int 1
  store_local 1
  load_local 0
  load_local 1
  aload
  halt
)", "aload: not an array"},
      {"astore on a byte object", R"(
func main 0 0
  push_int 4
  new_bytes
  push_int 0
  push_int 1
  astore
  halt
)", "astore: not an array"},
      {"add on a never-stored cell", R"(
func main 0 2
  push_int 2
  new_array
  store_local 0
  push_int 1
  store_local 1
  push_int 5
  load_local 0
  load_local 1
  aload
  add
  halt
)", "type error: expected two ints"},
      {"increment of a never-stored cell held in a local", R"(
func main 0 1
  push_int 2
  new_array
  push_int 1
  aload
  store_local 0
  load_local 0
  push_int 1
  add
  store_local 0
  halt
)", "type error: expected two ints"},
      {"mod by a loaded zero", R"(
func main 0 1
  push_int 2
  new_array
  store_local 0
  load_local 0
  push_int 0
  push_int 0
  astore
  push_int 5
  load_local 0
  push_int 0
  aload
  mod
  halt
)", "modulo by zero"},
  };
  for (const HeapGuardCase& c : cases) {
    SCOPED_TRACE(c.name);
    Program p = must_assemble(c.src);
    Interpreter fast(p, kM32, Interpreter::Dispatch::kFast);
    Interpreter nofuse(p, kM32, Interpreter::Dispatch::kFastNoFuse);
    Interpreter checked(p, kM32, Interpreter::Dispatch::kChecked);
    ASSERT_TRUE(fast.fast_dispatch());
    RunResult results[3];
    Interpreter* interps[3] = {&fast, &nofuse, &checked};
    for (int k = 0; k < 3; ++k) {
      interps[k]->start();
      results[k] = interps[k]->run();
    }
    EXPECT_EQ(results[2].status, RunStatus::kTrap);
    EXPECT_EQ(results[2].trap, c.trap);
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(results[k].status, results[2].status) << "dispatcher " << k;
      EXPECT_EQ(results[k].trap, results[2].trap) << "dispatcher " << k;
      EXPECT_EQ(interps[k]->state().steps_executed, checked.state().steps_executed)
          << "dispatcher " << k;
      EXPECT_EQ(interps[k]->state().stack, checked.state().stack) << "dispatcher " << k;
      EXPECT_EQ(interps[k]->state().heap, checked.state().heap) << "dispatcher " << k;
    }
  }
}

TEST(Interp, RestoredByteObjectWithStrayFieldsIsNotReadAsArray) {
  // Restore vetting checks tags, not heap objects: a byte object carrying
  // array fields in a restored image must still fail the fast aload's kind
  // guard rather than expose the fields.
  Program p = must_assemble(R"(
func main 0 1
  push_int 4
  new_bytes
  store_local 0
  syscall barrier
  load_local 0
  push_int 0
  aload
  halt
)");
  VmState s = state_after_first_syscall(p);
  s.heap[0].push_back(Value::integer(9));
  for (auto mode : {Interpreter::Dispatch::kFast, Interpreter::Dispatch::kChecked}) {
    Interpreter b(p, kM32, mode);
    b.set_state(s);
    EXPECT_EQ(b.fast_dispatch(), mode == Interpreter::Dispatch::kFast);
    auto r = b.run();
    EXPECT_EQ(r.status, RunStatus::kTrap);
    EXPECT_EQ(r.trap, "aload: not an array");
  }
}

TEST(Interp, StencilSweepRunsCheckedOnlyForAllocation) {
  // The stencil's inner loop — fused array loads, int arithmetic on loaded
  // cells, astore through locals — stays on the fast loop end to end; only
  // the one new_array takes the checked step.
  Program p = must_assemble(R"(
func main 0 4
  push_int 64
  new_array
  store_local 0
  push_int 0
  store_local 1
fill:
  load_local 1
  push_int 64
  lt
  jmp_if_false filled
  load_local 0
  load_local 1
  load_local 1
  push_int 7
  mul
  push_int 101
  mod
  astore
  load_local 1
  push_int 1
  add
  store_local 1
  jmp fill
filled:
  push_int 1
  store_local 1
sweep:
  load_local 1
  push_int 63
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
  push_int 101
  mod
  astore
  load_local 1
  push_int 1
  add
  store_local 1
  jmp sweep
swept:
  load_local 0
  alen
  load_local 0
  push_int 62
  aload
  add
  halt
)");
  Interpreter fast(p, kM64);
  Interpreter checked(p, kM64, Interpreter::Dispatch::kChecked);
  fast.start();
  checked.start();
  ASSERT_EQ(fast.run().status, RunStatus::kHalted);
  ASSERT_EQ(checked.run().status, RunStatus::kHalted);
  EXPECT_EQ(fast.state(), checked.state());
  const auto& stats = fast.exec_stats();
  EXPECT_EQ(stats.checked_instrs, 1u);  // the new_array
  EXPECT_EQ(stats.fast_instrs + stats.checked_instrs, fast.state().steps_executed);
  EXPECT_GT(stats.fused_hits, 2u * 61u);  // both array idioms, every sweep step
}

TEST(Disassemble, RendersSyscallsAndCallsByName) {
  Program p = must_assemble(R"(
func main 0 0
  syscall rank
  call helper
  halt
func helper 1 1
  load_local 0
  ret
)");
  const std::string listing = disassemble(p);
  EXPECT_NE(listing.find("syscall rank"), std::string::npos);
  EXPECT_NE(listing.find("call helper"), std::string::npos);
}

}  // namespace
}  // namespace starfish::vm
