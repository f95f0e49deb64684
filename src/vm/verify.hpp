// Static validation, load-time analysis and disassembly of bytecode.
//
// validate() rejects programs the interpreter would only trap on at run
// time — out-of-range jump targets, bad call indices, out-of-range local
// slots, unknown syscalls — so broken programs fail at registration instead
// of mid-job. disassemble() renders a program back to the assembler's text
// form (round-trippable), which tests use to verify the assembler and
// humans use to debug.
//
// analyze() is the verifier upgrade behind the fast dispatcher: a forward
// abstract interpretation that proves, per instruction, the exact operand
// stack depth (relative to function entry) and the tags of the operands an
// instruction consumes. Instructions whose preconditions are proven run
// with underflow/type checks elided; instructions whose depth is proven but
// whose remaining preconditions are data-dependent (heap bounds, the tag of
// a value loaded from the heap) run fast behind inline guards that fall
// back to the checked step; everything else keeps the original
// fully-checked execution, so the analysis never changes behavior — it only
// licenses eliding checks that provably cannot fire.
#pragma once

#include <string>
#include <vector>

#include "vm/bytecode.hpp"

namespace starfish::vm {

/// Structural checks over every function of the program.
util::Status validate(const Program& program);

/// Text rendering in the assembler's format (labels synthesized as L<pc>).
std::string disassemble(const Program& program);

/// Abstract tag of a slot whose runtime `Tag` the analysis could not pin.
constexpr uint8_t kTagUnknown = 0xff;

/// `FunctionFacts::fast` verdicts.
constexpr uint8_t kFactChecked = 0;  ///< keep the original checked step
constexpr uint8_t kFactProven = 1;   ///< depth and operand tags proven: no checks left
/// Depth proven (and, for heap ops, the ref/index tags); the fast body
/// re-checks the rest inline — dangling ref, array kind, bounds, int tags —
/// and escapes to the checked step before mutating anything.
constexpr uint8_t kFactGuarded = 2;

/// Proven tags of one program point (`kTagUnknown` where unproven).
struct SlotTags {
  std::vector<uint8_t> stack;   ///< bottom first, relative to function entry
  std::vector<uint8_t> locals;
};

/// Facts proven about one function. When `analyzed` is false nothing was
/// proven (the dataflow hit a construct it cannot certify — inconsistent
/// stack depths at a merge point, a pop below the function's entry depth, a
/// ret that leaves values behind, a call into a function that itself failed
/// analysis, an unknown syscall id) and every instruction keeps its runtime
/// checks.
struct FunctionFacts {
  bool analyzed = false;
  /// Per pc: kFactChecked, kFactProven or kFactGuarded.
  std::vector<uint8_t> fast;
  /// Per pc: for tag-dispatched ops (neg, compares) the proven operand tag
  /// class (`Tag` value); 0 elsewhere.
  std::vector<uint8_t> operand_tag;
  /// Per pc: exact operand-stack depth relative to function entry *before*
  /// the instruction executes; -1 = unreachable. Valid only when `analyzed`.
  std::vector<int32_t> depth;
  /// Per pc: proven stack and local tags before the instruction executes
  /// (empty for unreachable pcs). Restore vetting checks a state against
  /// them, since the fast loop trusts them.
  std::vector<SlotTags> tags;
  /// Max relative depth any reachable instruction produces (reserve hint).
  uint32_t max_stack = 0;
};

struct ProgramFacts {
  std::vector<FunctionFacts> functions;
  /// At least one function analyzed: the fast dispatcher is worth entering.
  bool any_fast = false;
};

/// Abstract interpretation over every function (safe on arbitrary programs,
/// validated or not; failures just disable elision, never reject).
ProgramFacts analyze(const Program& program);

}  // namespace starfish::vm
