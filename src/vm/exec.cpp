#include "vm/exec.hpp"

namespace starfish::vm {

PreparedProgram prepare_program(const Program& program, const ProgramFacts& facts,
                                const sim::Machine& machine, bool fuse) {
  // Same wrap the interpreter applies at runtime; folding it into push_int
  // immediates here removes one shift pair per push on the hot path.
  const unsigned shift = machine.word_bytes >= 8 ? 0u : 32u;
  const auto wrap = [shift](int64_t v) {
    return static_cast<int64_t>(static_cast<uint64_t>(v) << shift) >> shift;
  };

  PreparedProgram out;
  out.functions.resize(program.functions.size());
  for (size_t f = 0; f < program.functions.size(); ++f) {
    const Function& fn = program.functions[f];
    const FunctionFacts& ff = facts.functions[f];
    PreparedFunction& pf = out.functions[f];
    pf.analyzed = ff.analyzed;
    pf.max_stack = ff.max_stack;
    pf.code.resize(fn.code.size());
    for (size_t pc = 0; pc < fn.code.size(); ++pc) {
      const Instr& in = fn.code[pc];
      DecodedInstr d;
      if (!ff.analyzed || ff.fast[pc] == kFactChecked) {
        d.op = XOp::kChecked;  // defer to the original single-step
      } else {
        d.op = static_cast<XOp>(in.op);
        d.aux = ff.operand_tag[pc];
        switch (in.op) {
          case Op::kPushInt:
            d.imm.i = wrap(in.imm_i);
            break;
          case Op::kPushBool:
            d.imm.i = in.imm_i != 0 ? 1 : 0;
            break;
          case Op::kPushFloat:
            d.imm.f = in.imm_f;
            break;
          case Op::kJmp:
          case Op::kJmpIfFalse:
            // The runtime truncation to uint32 happens once, here.
            d.b = static_cast<uint32_t>(in.imm_i);
            break;
          default:
            d.imm.i = in.imm_i;
            break;
        }
        out.any_fast = true;
      }
      pf.code[pc] = d;
    }
    if (fuse && ff.analyzed) peephole_fuse(fn, ff, pf.code);
  }
  return out;
}

}  // namespace starfish::vm
