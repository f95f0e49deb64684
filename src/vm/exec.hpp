// Prepared (decoded) code for the fast dispatcher.
//
// The interpreter never executes `Function::code` directly on its hot path.
// At construction it lowers each function into a DecodedInstr stream indexed
// by the ORIGINAL pc: entry `pc` holds the decoding that starts at that pc.
// A superinstruction at `pc` covers `len` original instructions; the entries
// it shadows (`pc+1 .. pc+len-1`) still hold their own valid decodings, so a
// jump into the middle of a fused region lands on ordinary code. Because
// frames keep original pc coordinates and `steps_executed` is charged one
// per ORIGINAL instruction, the execution history — and therefore every
// checkpoint image `ckpt::portable_encode` produces — is bit-identical to
// the unfused, unprepared interpreter's.
//
// Which entries may elide runtime checks is decided by the verifier
// (`vm::analyze`): an instruction whose stack depth and operand tags are
// proven at load time is lowered to its unchecked XOp; one whose depth is
// proven but whose data-dependent preconditions are not (heap ops' bounds,
// array kind and dangling ref; int arithmetic on an operand of unproven
// tag) is lowered to its XOp too, whose body re-checks those inline and
// escapes to the checked step before mutating anything; anything else
// (or proven to trap) is lowered to XOp::kChecked, which defers to the
// original fully-checked single-step — preserving every trap message.
#pragma once

#include <cstdint>
#include <vector>

#include "vm/bytecode.hpp"
#include "vm/value.hpp"
#include "vm/verify.hpp"

namespace starfish::vm {

/// Extended opcode space of the fast loop. Values 0..kBaseOpCount-1 mirror
/// `Op` exactly (decode is a cast); the tail adds the checked escape and the
/// fused superinstructions. The dispatch table is indexed by this value, so
/// the numbering here and the label/case order in interp.cpp must agree.
enum class XOp : uint8_t {
  // --- base ops, numerically identical to Op ---
  kNop = 0,
  kPushInt, kPushFloat, kPushBool, kPushUnit,
  kPop, kDup, kSwap,
  kLoadLocal, kStoreLocal, kLoadGlobal, kStoreGlobal,
  kAdd, kSub, kMul, kDiv, kMod, kNeg,
  kFAdd, kFSub, kFMul, kFDiv,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr, kNot,
  kI2F, kF2I,
  kJmp, kJmpIfFalse, kCall, kRet, kHalt,
  kNewArray, kALoad, kAStore, kALen, kNewBytes,
  kSyscall,
  // --- escape: run the original checked single-step for this pc ---
  kChecked,
  // --- superinstructions (see peephole_fuse) ---
  kFusedIncLocal,       ///< load_local i, push_int c, add|sub, store_local i
  kFusedCmpBr,          ///< <compare>, jmp_if_false t
  kFusedLoadCmpBr,      ///< load_local i, push_int c, <compare>, jmp_if_false t
  kFusedLoadLoadArith,  ///< load_local a, load_local b, add|sub|mul
  kFusedLoadLoadArithSt,///< load_local a, load_local b, add|sub|mul, store_local d
  kFusedLoadLoadALoad,  ///< load_local r, load_local i, aload
  kFusedLoadOffsetALoad,///< load_local r, load_local i, push_int c, add|sub, aload
  kCount,
};

constexpr size_t kXOpCount = static_cast<size_t>(XOp::kCount);
constexpr size_t kBaseOpCount = static_cast<size_t>(Op::kSyscall) + 1;

/// Original instructions an entry of kind `op` covers: 1 for base ops and
/// the checked escape, the idiom's component count for a superinstruction.
/// The fast loop advances pc and the step count by this compile-time
/// constant, never by the entry's `len` (which must equal it).
constexpr uint8_t xop_len(XOp op) {
  switch (op) {
    case XOp::kFusedCmpBr: return 2;
    case XOp::kFusedLoadLoadArith:
    case XOp::kFusedLoadLoadALoad: return 3;
    case XOp::kFusedIncLocal:
    case XOp::kFusedLoadCmpBr:
    case XOp::kFusedLoadLoadArithSt: return 4;
    case XOp::kFusedLoadOffsetALoad: return 5;
    default: return 1;
  }
}

/// One decoded entry. Field use by XOp:
///  - base fast ops: `imm.i` / `imm.f` carry the original immediate
///    (push_int immediates are pre-wrapped to the interpreter's machine
///    word); compares and neg carry the verifier-proven operand tag class in
///    `aux`. Int arithmetic re-checks both operand tags (and div/mod the
///    divisor) inline; aload/astore/alen have their ref/index tags proven
///    and re-check dangling ref, array kind and bounds inline.
///  - kChecked: no operands; the escape re-fetches the original Instr.
///  - kFusedIncLocal: b = source slot, c = destination slot (b == c for
///    the canonical increment), imm.i = pre-wrapped constant, aux = Op
///    (kAdd or kSub).
///  - kFusedCmpBr: aux = compare Op, b = branch target, c = operand tag.
///  - kFusedLoadCmpBr: b = local slot, imm.i = pre-wrapped constant,
///    aux = compare Op, c = branch target (operands proven Int).
///  - kFusedLoadLoadArith[St]: b/c = source slots, aux = arithmetic Op,
///    imm.i = destination slot (St form only).
///  - kFusedLoadLoadALoad: b = array ref slot, c = index slot.
///  - kFusedLoadOffsetALoad: b = array ref slot, c = index slot,
///    imm.i = pre-wrapped index offset, aux = Op (kAdd or kSub).
struct DecodedInstr {
  XOp op = XOp::kChecked;
  uint8_t len = 1;  ///< original instructions covered: xop_len(op)
  uint8_t aux = 0;  ///< inner Op / proven Tag, per the table above
  uint8_t pad = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  union {
    int64_t i;
    double f;
  } imm = {0};
};

struct PreparedFunction {
  std::vector<DecodedInstr> code;  ///< same length as Function::code
  uint32_t max_stack = 0;          ///< verifier's max relative operand depth
  bool analyzed = false;           ///< depth facts valid (else all-checked)
};

struct PreparedProgram {
  std::vector<PreparedFunction> functions;
  bool any_fast = false;  ///< at least one function carries elided entries
};

/// Lowers `program` for execution on `machine` (push_int immediates are
/// pre-wrapped to the machine word): verifier facts pick checked vs fast
/// entries, then — unless `fuse` is false (differential tests pin
/// fused/unfused equivalence) — the assembler's peephole pass fuses hot
/// idioms.
PreparedProgram prepare_program(const Program& program, const ProgramFacts& facts,
                                const sim::Machine& machine, bool fuse = true);

/// Assembler-level peephole pass (vm/asm.cpp): rewrites `code[pc]` with
/// superinstruction entries where a hot idiom's components are all proven
/// (an array load, the last component of the two array idioms, need only
/// be guarded-fast). Never touches the Program itself, so checkpoint images
/// decode back to the original sequence untouched.
void peephole_fuse(const Function& fn, const FunctionFacts& facts,
                   std::vector<DecodedInstr>& code);

}  // namespace starfish::vm
