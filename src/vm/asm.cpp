// Two-pass assembler for the tiny text bytecode format used by tests and
// example programs. Grammar per line (comments start with '#'):
//   func <name> <nargs> <nlocals>
//   <label>:
//   <mnemonic> [operand]
// Jump targets are label names; `call` takes a function name; `syscall`
// takes a syscall name (print, rank, world_size, send_to, recv_from,
// checkpoint, sleep_ms, spin).
#include <map>
#include <optional>

#include "util/strings.hpp"
#include "vm/bytecode.hpp"
#include "vm/exec.hpp"

namespace starfish::vm {

namespace {

const std::map<std::string, Op> kMnemonics = {
    {"nop", Op::kNop},           {"push_int", Op::kPushInt},
    {"push_float", Op::kPushFloat}, {"push_bool", Op::kPushBool},
    {"push_unit", Op::kPushUnit}, {"pop", Op::kPop},
    {"dup", Op::kDup},           {"swap", Op::kSwap},
    {"load_local", Op::kLoadLocal}, {"store_local", Op::kStoreLocal},
    {"load_global", Op::kLoadGlobal}, {"store_global", Op::kStoreGlobal},
    {"add", Op::kAdd},           {"sub", Op::kSub},
    {"mul", Op::kMul},           {"div", Op::kDiv},
    {"mod", Op::kMod},           {"neg", Op::kNeg},
    {"fadd", Op::kFAdd},         {"fsub", Op::kFSub},
    {"fmul", Op::kFMul},         {"fdiv", Op::kFDiv},
    {"eq", Op::kEq},             {"ne", Op::kNe},
    {"lt", Op::kLt},             {"le", Op::kLe},
    {"gt", Op::kGt},             {"ge", Op::kGe},
    {"and", Op::kAnd},           {"or", Op::kOr},
    {"not", Op::kNot},           {"i2f", Op::kI2F},
    {"f2i", Op::kF2I},           {"jmp", Op::kJmp},
    {"jmp_if_false", Op::kJmpIfFalse}, {"call", Op::kCall},
    {"ret", Op::kRet},           {"halt", Op::kHalt},
    {"new_array", Op::kNewArray}, {"new_bytes", Op::kNewBytes},
    {"aload", Op::kALoad},       {"astore", Op::kAStore},
    {"alen", Op::kALen},         {"syscall", Op::kSyscall},
};

const std::map<std::string, Syscall> kSyscalls = {
    {"print", Syscall::kPrint},         {"rank", Syscall::kRank},
    {"world_size", Syscall::kWorldSize}, {"send_to", Syscall::kSendTo},
    {"recv_from", Syscall::kRecvFrom},  {"checkpoint", Syscall::kCheckpoint},
    {"sleep_ms", Syscall::kSleepMs},    {"spin", Syscall::kSpin},
    {"barrier", Syscall::kBarrier},     {"allreduce_sum", Syscall::kAllreduceSum},
};

struct PendingJump {
  size_t fn;
  size_t instr;
  std::string label;
  int line_no;
};

struct PendingCall {
  size_t fn;
  size_t instr;
  std::string callee;
  int line_no;
};

util::Error err(int line, const std::string& what) {
  return util::Error::make("asm", "line " + std::to_string(line) + ": " + what);
}

}  // namespace

util::Result<Program> assemble(const std::string& source) {
  Program prog;
  // Per-function label table, resolved at end of each function.
  std::map<std::string, uint32_t> labels;
  std::vector<PendingJump> jumps;
  std::vector<PendingCall> calls;
  bool in_func = false;

  auto close_function = [&]() -> std::optional<util::Error> {
    for (const auto& j : jumps) {
      auto it = labels.find(j.label);
      if (it == labels.end()) return err(j.line_no, "unknown label '" + j.label + "'");
      prog.functions[j.fn].code[j.instr].imm_i = it->second;
    }
    jumps.clear();
    labels.clear();
    return std::nullopt;
  };

  int line_no = 0;
  for (const auto& raw_line : util::split(source, '\n')) {
    ++line_no;
    std::string_view line = util::trim(raw_line);
    if (auto hash = line.find('#'); hash != std::string_view::npos) {
      line = util::trim(line.substr(0, hash));
    }
    if (line.empty()) continue;

    auto tokens = util::split_ws(line);
    const std::string& head = tokens[0];

    if (head == "func") {
      if (tokens.size() != 4) return err(line_no, "func needs: name nargs nlocals");
      if (in_func) {
        if (auto e = close_function()) return *e;
      }
      Function fn;
      fn.name = tokens[1];
      auto nargs = util::parse_int(tokens[2]);
      auto nlocals = util::parse_int(tokens[3]);
      if (!nargs || !nlocals || *nargs < 0 || *nlocals < *nargs) {
        return err(line_no, "bad arg/local counts");
      }
      fn.n_args = static_cast<uint32_t>(*nargs);
      fn.n_locals = static_cast<uint32_t>(*nlocals);
      prog.functions.push_back(std::move(fn));
      in_func = true;
      continue;
    }

    if (!in_func) return err(line_no, "instruction outside a function");
    Function& fn = prog.functions.back();

    if (head.size() > 1 && head.back() == ':') {
      if (tokens.size() != 1) return err(line_no, "label must be alone on its line");
      labels[head.substr(0, head.size() - 1)] = static_cast<uint32_t>(fn.code.size());
      continue;
    }

    auto op_it = kMnemonics.find(head);
    if (op_it == kMnemonics.end()) return err(line_no, "unknown mnemonic '" + head + "'");
    Instr instr;
    instr.op = op_it->second;

    switch (instr.op) {
      case Op::kPushInt:
      case Op::kPushBool:
      case Op::kLoadLocal:
      case Op::kStoreLocal:
      case Op::kLoadGlobal:
      case Op::kStoreGlobal: {
        if (tokens.size() != 2) return err(line_no, head + " needs an integer operand");
        auto v = util::parse_int(tokens[1]);
        if (!v) return err(line_no, "bad integer operand");
        instr.imm_i = *v;
        break;
      }
      case Op::kPushFloat: {
        if (tokens.size() != 2) return err(line_no, "push_float needs an operand");
        try {
          instr.imm_f = std::stod(tokens[1]);
        } catch (...) {
          return err(line_no, "bad float operand");
        }
        break;
      }
      case Op::kJmp:
      case Op::kJmpIfFalse: {
        if (tokens.size() != 2) return err(line_no, head + " needs a label");
        jumps.push_back({prog.functions.size() - 1, fn.code.size(), tokens[1], line_no});
        break;
      }
      case Op::kCall: {
        if (tokens.size() != 2) return err(line_no, "call needs a function name");
        calls.push_back({prog.functions.size() - 1, fn.code.size(), tokens[1], line_no});
        break;
      }
      case Op::kSyscall: {
        if (tokens.size() != 2) return err(line_no, "syscall needs a name");
        auto sys = kSyscalls.find(tokens[1]);
        if (sys == kSyscalls.end()) return err(line_no, "unknown syscall '" + tokens[1] + "'");
        instr.imm_i = static_cast<int64_t>(sys->second);
        break;
      }
      default:
        if (tokens.size() != 1) return err(line_no, head + " takes no operand");
        break;
    }
    fn.code.push_back(instr);
  }

  if (in_func) {
    if (auto e = close_function()) return *e;
  }
  // Calls may reference functions defined later; resolve after the whole
  // file is parsed.
  for (const auto& c : calls) {
    const int idx = prog.function_index(c.callee);
    if (idx < 0) return err(c.line_no, "unknown function '" + c.callee + "'");
    prog.functions[c.fn].code[c.instr].imm_i = idx;
  }
  return prog;
}

// ------------------------------------------------------------ peephole ----
//
// Superinstruction fusion over the decoded stream. The pass matches hot
// idioms on the ORIGINAL instruction sequence and rewrites only the entry
// at the idiom's first pc; the shadowed entries keep their own decodings so
// a jump into the middle of a fused region executes the tail unfused. A
// fused entry advances pc and the step count by the full component count,
// so execution histories — and the checkpoint images portable_encode cuts
// from them — are indistinguishable from the unfused interpreter's.
//
// Fusion requires every component to be verifier-proven: the
// superinstruction bodies have no guards, so a component the fast loop
// runs only behind an inline guard (int arithmetic on an operand of
// unproven tag) keeps its own entry. The one exception is the array load
// that ends the two array idioms: its ref/index tags are proven, and the
// fused body keeps its dangling/kind/bounds guards, escaping to the
// checked step (which then retires the idiom singly) when one fails.

namespace {

bool is_int_arith(Op op) { return op == Op::kAdd || op == Op::kSub || op == Op::kMul; }
bool is_compare(Op op) {
  return op == Op::kEq || op == Op::kNe || op == Op::kLt || op == Op::kLe ||
         op == Op::kGt || op == Op::kGe;
}

}  // namespace

void peephole_fuse(const Function& fn, const FunctionFacts& facts,
                   std::vector<DecodedInstr>& code) {
  const size_t n = fn.code.size();
  auto fast_run = [&](size_t p, size_t len) {
    if (p + len > n) return false;
    for (size_t k = p; k < p + len; ++k) {
      if (facts.fast[k] != kFactProven) return false;
    }
    return true;
  };
  // `len - 1` proven components followed by a guarded-fast aload.
  auto array_idiom = [&](size_t p, size_t len) {
    return fast_run(p, len - 1) && p + len <= n &&
           fn.code[p + len - 1].op == Op::kALoad &&
           facts.fast[p + len - 1] != kFactChecked;
  };

  for (size_t p = 0; p < n; ++p) {
    const Op op0 = fn.code[p].op;

    // load_local s, push_int c, add|sub, store_local d  ->  kFusedIncLocal
    if (op0 == Op::kLoadLocal && fast_run(p, 4) && fn.code[p + 1].op == Op::kPushInt &&
        (fn.code[p + 2].op == Op::kAdd || fn.code[p + 2].op == Op::kSub) &&
        fn.code[p + 3].op == Op::kStoreLocal) {
      DecodedInstr d;
      d.op = XOp::kFusedIncLocal;
      d.len = 4;
      d.aux = static_cast<uint8_t>(fn.code[p + 2].op);
      d.b = static_cast<uint32_t>(fn.code[p].imm_i);
      d.c = static_cast<uint32_t>(fn.code[p + 3].imm_i);
      d.imm.i = code[p + 1].imm.i;  // pre-wrapped by prepare_program
      code[p] = d;
      continue;
    }

    // load_local s, push_int c, <cmp>, jmp_if_false t  ->  kFusedLoadCmpBr
    // (cmp fast against a push_int => the local is proven Int)
    if (op0 == Op::kLoadLocal && fast_run(p, 4) && fn.code[p + 1].op == Op::kPushInt &&
        is_compare(fn.code[p + 2].op) && fn.code[p + 3].op == Op::kJmpIfFalse) {
      DecodedInstr d;
      d.op = XOp::kFusedLoadCmpBr;
      d.len = 4;
      d.aux = static_cast<uint8_t>(fn.code[p + 2].op);
      d.b = static_cast<uint32_t>(fn.code[p].imm_i);
      d.c = static_cast<uint32_t>(fn.code[p + 3].imm_i);
      d.imm.i = code[p + 1].imm.i;
      code[p] = d;
      continue;
    }

    // load_local a, load_local b, add|sub|mul [, store_local dst]
    if (op0 == Op::kLoadLocal && fn.code.size() > p + 2 &&
        fn.code[p + 1].op == Op::kLoadLocal && is_int_arith(fn.code[p + 2].op)) {
      if (fast_run(p, 4) && fn.code[p + 3].op == Op::kStoreLocal) {
        DecodedInstr d;
        d.op = XOp::kFusedLoadLoadArithSt;
        d.len = 4;
        d.aux = static_cast<uint8_t>(fn.code[p + 2].op);
        d.b = static_cast<uint32_t>(fn.code[p].imm_i);
        d.c = static_cast<uint32_t>(fn.code[p + 1].imm_i);
        d.imm.i = fn.code[p + 3].imm_i;
        code[p] = d;
        continue;
      }
      if (fast_run(p, 3)) {
        DecodedInstr d;
        d.op = XOp::kFusedLoadLoadArith;
        d.len = 3;
        d.aux = static_cast<uint8_t>(fn.code[p + 2].op);
        d.b = static_cast<uint32_t>(fn.code[p].imm_i);
        d.c = static_cast<uint32_t>(fn.code[p + 1].imm_i);
        code[p] = d;
        continue;
      }
    }

    // load_local r, load_local i, aload  ->  kFusedLoadLoadALoad
    if (op0 == Op::kLoadLocal && array_idiom(p, 3) &&
        fn.code[p + 1].op == Op::kLoadLocal) {
      DecodedInstr d;
      d.op = XOp::kFusedLoadLoadALoad;
      d.len = 3;
      d.b = static_cast<uint32_t>(fn.code[p].imm_i);
      d.c = static_cast<uint32_t>(fn.code[p + 1].imm_i);
      code[p] = d;
      continue;
    }

    // load_local r, load_local i, push_int c, add|sub, aload
    //   ->  kFusedLoadOffsetALoad (the add|sub proven => local i is Int)
    if (op0 == Op::kLoadLocal && array_idiom(p, 5) &&
        fn.code[p + 1].op == Op::kLoadLocal && fn.code[p + 2].op == Op::kPushInt &&
        (fn.code[p + 3].op == Op::kAdd || fn.code[p + 3].op == Op::kSub)) {
      DecodedInstr d;
      d.op = XOp::kFusedLoadOffsetALoad;
      d.len = 5;
      d.aux = static_cast<uint8_t>(fn.code[p + 3].op);
      d.b = static_cast<uint32_t>(fn.code[p].imm_i);
      d.c = static_cast<uint32_t>(fn.code[p + 1].imm_i);
      d.imm.i = code[p + 2].imm.i;  // pre-wrapped by prepare_program
      code[p] = d;
      continue;
    }

    // <cmp>, jmp_if_false t  ->  kFusedCmpBr
    if (is_compare(op0) && fast_run(p, 2) && fn.code[p + 1].op == Op::kJmpIfFalse) {
      DecodedInstr d;
      d.op = XOp::kFusedCmpBr;
      d.len = 2;
      d.aux = static_cast<uint8_t>(op0);
      d.b = static_cast<uint32_t>(fn.code[p + 1].imm_i);
      d.c = facts.operand_tag[p];  // proven operand class of the compare
      code[p] = d;
      continue;
    }
  }
}

}  // namespace starfish::vm
