#include "vm/verify.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "vm/value.hpp"

namespace starfish::vm {

namespace {

const char* mnemonic(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kPushInt: return "push_int";
    case Op::kPushFloat: return "push_float";
    case Op::kPushBool: return "push_bool";
    case Op::kPushUnit: return "push_unit";
    case Op::kPop: return "pop";
    case Op::kDup: return "dup";
    case Op::kSwap: return "swap";
    case Op::kLoadLocal: return "load_local";
    case Op::kStoreLocal: return "store_local";
    case Op::kLoadGlobal: return "load_global";
    case Op::kStoreGlobal: return "store_global";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kNeg: return "neg";
    case Op::kFAdd: return "fadd";
    case Op::kFSub: return "fsub";
    case Op::kFMul: return "fmul";
    case Op::kFDiv: return "fdiv";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
    case Op::kGt: return "gt";
    case Op::kGe: return "ge";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kNot: return "not";
    case Op::kI2F: return "i2f";
    case Op::kF2I: return "f2i";
    case Op::kJmp: return "jmp";
    case Op::kJmpIfFalse: return "jmp_if_false";
    case Op::kCall: return "call";
    case Op::kRet: return "ret";
    case Op::kHalt: return "halt";
    case Op::kNewArray: return "new_array";
    case Op::kNewBytes: return "new_bytes";
    case Op::kALoad: return "aload";
    case Op::kAStore: return "astore";
    case Op::kALen: return "alen";
    case Op::kSyscall: return "syscall";
  }
  return "?";
}

const char* syscall_name(Syscall s) {
  switch (s) {
    case Syscall::kPrint: return "print";
    case Syscall::kRank: return "rank";
    case Syscall::kWorldSize: return "world_size";
    case Syscall::kSendTo: return "send_to";
    case Syscall::kRecvFrom: return "recv_from";
    case Syscall::kCheckpoint: return "checkpoint";
    case Syscall::kSleepMs: return "sleep_ms";
    case Syscall::kSpin: return "spin";
    case Syscall::kBarrier: return "barrier";
    case Syscall::kAllreduceSum: return "allreduce_sum";
  }
  return nullptr;
}

util::Error bad(const Function& fn, size_t pc, const std::string& what) {
  return util::Error::make(
      "verify", fn.name + "+" + std::to_string(pc) + ": " + what);
}

}  // namespace

util::Status validate(const Program& program) {
  if (program.functions.empty()) {
    return util::Error::make("verify", "program has no functions");
  }
  if (program.function_index("main") < 0) {
    return util::Error::make("verify", "program has no 'main'");
  }
  std::set<std::string> names;
  for (const auto& fn : program.functions) {
    if (!names.insert(fn.name).second) {
      return util::Error::make("verify", "duplicate function '" + fn.name + "'");
    }
    if (fn.code.empty()) return util::Error::make("verify", fn.name + ": empty body");
    for (size_t pc = 0; pc < fn.code.size(); ++pc) {
      const Instr& in = fn.code[pc];
      switch (in.op) {
        case Op::kJmp:
        case Op::kJmpIfFalse:
          if (in.imm_i < 0 || static_cast<size_t>(in.imm_i) > fn.code.size()) {
            return bad(fn, pc, "jump target out of range");
          }
          break;
        case Op::kCall:
          if (in.imm_i < 0 ||
              static_cast<size_t>(in.imm_i) >= program.functions.size()) {
            return bad(fn, pc, "call target out of range");
          }
          break;
        case Op::kLoadLocal:
        case Op::kStoreLocal:
          if (in.imm_i < 0 || static_cast<size_t>(in.imm_i) >= fn.n_locals) {
            return bad(fn, pc, "local slot out of range");
          }
          break;
        case Op::kLoadGlobal:
        case Op::kStoreGlobal:
          if (in.imm_i < 0 || in.imm_i > 1'000'000) {
            return bad(fn, pc, "global slot out of range");
          }
          break;
        case Op::kSyscall:
          if (syscall_name(static_cast<Syscall>(in.imm_i)) == nullptr) {
            return bad(fn, pc, "unknown syscall id " + std::to_string(in.imm_i));
          }
          break;
        default:
          break;
      }
    }
    // Control must not run off the end: the final instruction must be an
    // unconditional transfer.
    const Op last = fn.code.back().op;
    if (last != Op::kHalt && last != Op::kRet && last != Op::kJmp) {
      return bad(fn, fn.code.size() - 1, "function can fall off its end");
    }
  }
  return util::Status::ok_status();
}

// ------------------------------------------------------------ analyze ----
//
// Forward dataflow over <operand-stack tags, local tags>, with the stack
// depth tracked *exactly* (relative to function entry). The lattice per
// slot is Tag < Unknown, so the fixpoint is reached after at most one
// widening per slot. Everything here errs toward "keep the runtime check":
// an instruction is marked proven only when the facts prove the checked
// implementation could not trap on its stack depth or operand tags, and
// guarded only when its fast body re-checks everything the facts leave open.

namespace {

inline uint8_t tag_of(Tag t) { return static_cast<uint8_t>(t); }
inline bool is_known(uint8_t t) { return t != kTagUnknown; }
inline bool may_be(uint8_t t, Tag want) {
  return t == kTagUnknown || t == tag_of(want);
}

/// Facts of a function nothing could be proven about: every pc checked.
FunctionFacts unanalyzed(size_t n) {
  FunctionFacts facts;
  facts.fast.assign(n, kFactChecked);
  facts.operand_tag.assign(n, 0);
  facts.depth.assign(n, -1);
  return facts;
}

/// Joins src into dst; depths must agree (the depth is exact, not a range).
/// Returns false on a depth mismatch; sets `changed` if dst widened.
bool join_into(SlotTags& dst, const SlotTags& src, bool& changed) {
  if (dst.stack.size() != src.stack.size()) return false;
  for (size_t i = 0; i < dst.stack.size(); ++i) {
    if (dst.stack[i] != src.stack[i] && dst.stack[i] != kTagUnknown) {
      dst.stack[i] = kTagUnknown;
      changed = true;
    }
  }
  for (size_t i = 0; i < dst.locals.size(); ++i) {
    if (dst.locals[i] != src.locals[i] && dst.locals[i] != kTagUnknown) {
      dst.locals[i] = kTagUnknown;
      changed = true;
    }
  }
  return true;
}

/// Host-side stack effect of each syscall, mirroring what
/// core/process.cpp's service_syscall does between the kSyscall return and
/// complete_syscall(). The facts at pc+1 describe the post-completion stack.
struct SyscallEffect {
  bool known = false;
  uint32_t pops = 0;
  bool pushes = false;
  uint8_t push_tag = kTagUnknown;
};

SyscallEffect syscall_effect(int64_t id) {
  switch (static_cast<Syscall>(id)) {
    case Syscall::kPrint: return {true, 1, false, 0};
    case Syscall::kRank: return {true, 0, true, tag_of(Tag::kInt)};
    case Syscall::kWorldSize: return {true, 0, true, tag_of(Tag::kInt)};
    case Syscall::kSendTo: return {true, 2, false, 0};
    case Syscall::kRecvFrom: return {true, 1, true, kTagUnknown};
    case Syscall::kCheckpoint: return {true, 0, true, tag_of(Tag::kUnit)};
    case Syscall::kSleepMs: return {true, 1, false, 0};
    case Syscall::kSpin: return {true, 1, false, 0};
    case Syscall::kBarrier: return {true, 0, false, 0};
    case Syscall::kAllreduceSum: return {true, 1, true, tag_of(Tag::kInt)};
  }
  return {};
}

/// Analyzes one function in isolation (calls optimistically assumed to have
/// their nominal pop-args/push-result effect; analyze() demotes callers of
/// unanalyzable callees afterwards). Appends reachable call targets to
/// `call_targets`.
FunctionFacts analyze_function(const Program& prog, const Function& fn,
                               std::vector<uint32_t>& call_targets) {
  const size_t n = fn.code.size();
  FunctionFacts facts = unanalyzed(n);
  if (n == 0) {
    facts.analyzed = true;  // nothing to prove; first fetch traps pc-oob
    return facts;
  }

  std::vector<std::optional<SlotTags>> in(n);
  SlotTags entry;
  entry.locals.assign(fn.n_locals, tag_of(Tag::kUnit));
  for (uint32_t a = 0; a < fn.n_args && a < fn.n_locals; ++a) {
    entry.locals[a] = kTagUnknown;  // caller-provided, any tag
  }
  in[0] = std::move(entry);

  std::vector<size_t> work{0};
  std::vector<char> queued(n, 0);
  queued[0] = 1;
  bool failed = false;

  auto enqueue = [&](size_t pc) {
    if (!queued[pc]) {
      queued[pc] = 1;
      work.push_back(pc);
    }
  };

  while (!work.empty() && !failed) {
    const size_t pc = work.back();
    work.pop_back();
    queued[pc] = 0;
    SlotTags st = *in[pc];
    const Instr& instr = fn.code[pc];

    facts.depth[pc] = static_cast<int32_t>(st.stack.size());
    facts.max_stack = std::max<uint32_t>(facts.max_stack,
                                         static_cast<uint32_t>(st.stack.size()));
    bool fast = false;     // kFactProven
    bool guarded = false;  // kFactGuarded (when not fast)
    uint8_t operand_tag = 0;
    bool flows_next = false;   // falls through to pc+1
    int64_t extra_succ = -1;   // branch target, when taken

    // A pop below the entry depth would read the *caller's* operand stack —
    // legal at runtime (or an absolute underflow trap; we cannot tell which
    // from here), so the whole function forfeits its facts.
    auto need = [&](size_t k) {
      if (st.stack.size() < k) {
        failed = true;
        return false;
      }
      return true;
    };
    auto pop1 = [&]() {
      const uint8_t t = st.stack.back();
      st.stack.pop_back();
      return t;
    };
    auto push = [&](uint8_t t) { st.stack.push_back(t); };
    // Definite trap: preconditions provably violated on every path; the
    // instruction keeps its runtime check and kills the flow.
    bool definite_trap = false;

    switch (instr.op) {
      case Op::kNop:
        fast = flows_next = true;
        break;
      case Op::kPushInt:
        push(tag_of(Tag::kInt));
        fast = flows_next = true;
        break;
      case Op::kPushFloat:
        push(tag_of(Tag::kFloat));
        fast = flows_next = true;
        break;
      case Op::kPushBool:
        push(tag_of(Tag::kBool));
        fast = flows_next = true;
        break;
      case Op::kPushUnit:
        push(tag_of(Tag::kUnit));
        fast = flows_next = true;
        break;
      case Op::kPop:
        if (!need(1)) break;
        (void)pop1();
        fast = flows_next = true;
        break;
      case Op::kDup:
        if (!need(1)) break;
        push(st.stack.back());
        fast = flows_next = true;
        break;
      case Op::kSwap:
        if (!need(2)) break;
        std::swap(st.stack[st.stack.size() - 1], st.stack[st.stack.size() - 2]);
        fast = flows_next = true;
        break;
      case Op::kLoadLocal: {
        const int64_t idx = instr.imm_i;
        if (idx < 0 || static_cast<size_t>(idx) >= fn.n_locals) {
          definite_trap = true;
          break;
        }
        push(st.locals[static_cast<size_t>(idx)]);
        fast = flows_next = true;
        break;
      }
      case Op::kStoreLocal: {
        const int64_t idx = instr.imm_i;
        if (idx < 0 || static_cast<size_t>(idx) >= fn.n_locals) {
          definite_trap = true;
          break;
        }
        if (!need(1)) break;
        st.locals[static_cast<size_t>(idx)] = pop1();
        fast = flows_next = true;
        break;
      }
      case Op::kLoadGlobal:
        if (instr.imm_i < 0 || instr.imm_i > 1'000'000) {
          definite_trap = true;  // runtime: "global index out of range"
          break;
        }
        push(kTagUnknown);  // globals are shared, mutated across functions
        fast = flows_next = true;
        break;
      case Op::kStoreGlobal:
        if (instr.imm_i < 0 || instr.imm_i > 1'000'000) {
          definite_trap = true;
          break;
        }
        if (!need(1)) break;
        (void)pop1();
        fast = flows_next = true;
        break;

      case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv: case Op::kMod:
      case Op::kAnd: case Op::kOr: {
        if (!need(2)) break;
        const uint8_t b = pop1(), a = pop1();
        if (!may_be(a, Tag::kInt) || !may_be(b, Tag::kInt)) {
          definite_trap = true;
          break;
        }
        // Div/mod keep their zero-divisor guard on the fast path. Operands
        // of unproven tag (a heap load, a received value) still run fast:
        // the body checks both tags before it pops.
        fast = is_known(a) && is_known(b);
        guarded = true;
        push(tag_of(Tag::kInt));
        flows_next = true;
        break;
      }
      case Op::kNeg: {
        if (!need(1)) break;
        const uint8_t a = pop1();
        if (a == tag_of(Tag::kInt) || a == tag_of(Tag::kFloat)) {
          fast = true;
          operand_tag = a;
          push(a);
        } else if (a == kTagUnknown) {
          push(kTagUnknown);
        } else {
          definite_trap = true;
          break;
        }
        flows_next = true;
        break;
      }
      case Op::kFAdd: case Op::kFSub: case Op::kFMul: case Op::kFDiv: {
        if (!need(2)) break;
        const uint8_t b = pop1(), a = pop1();
        if (!may_be(a, Tag::kFloat) || !may_be(b, Tag::kFloat)) {
          definite_trap = true;
          break;
        }
        fast = is_known(a) && is_known(b);
        push(tag_of(Tag::kFloat));
        flows_next = true;
        break;
      }
      case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe: case Op::kGt:
      case Op::kGe: {
        if (!need(2)) break;
        const uint8_t b = pop1(), a = pop1();
        const bool can_int = may_be(a, Tag::kInt) && may_be(b, Tag::kInt);
        const bool can_float = may_be(a, Tag::kFloat) && may_be(b, Tag::kFloat);
        const bool can_bool = may_be(a, Tag::kBool) && may_be(b, Tag::kBool);
        if (!can_int && !can_float && !can_bool) {
          definite_trap = true;
          break;
        }
        if (is_known(a) && is_known(b) && a == b) {
          fast = true;
          operand_tag = a;
        }
        push(tag_of(Tag::kBool));
        flows_next = true;
        break;
      }
      case Op::kNot: {
        if (!need(1)) break;
        const uint8_t a = pop1();
        if (!may_be(a, Tag::kBool)) {
          definite_trap = true;
          break;
        }
        fast = is_known(a);
        push(tag_of(Tag::kBool));
        flows_next = true;
        break;
      }
      case Op::kI2F: {
        if (!need(1)) break;
        const uint8_t a = pop1();
        if (!may_be(a, Tag::kInt)) {
          definite_trap = true;
          break;
        }
        fast = is_known(a);
        push(tag_of(Tag::kFloat));
        flows_next = true;
        break;
      }
      case Op::kF2I: {
        if (!need(1)) break;
        const uint8_t a = pop1();
        if (!may_be(a, Tag::kFloat)) {
          definite_trap = true;
          break;
        }
        fast = is_known(a);
        push(tag_of(Tag::kInt));
        flows_next = true;
        break;
      }

      case Op::kJmp: {
        fast = true;
        const auto target = static_cast<uint32_t>(instr.imm_i);
        if (target < n) extra_succ = target;
        // else: the next fetch traps pc-out-of-range (kept in the fast loop)
        break;
      }
      case Op::kJmpIfFalse: {
        if (!need(1)) break;
        const uint8_t a = pop1();
        if (!may_be(a, Tag::kBool)) {
          definite_trap = true;
          break;
        }
        fast = is_known(a);
        flows_next = true;
        const auto target = static_cast<uint32_t>(instr.imm_i);
        if (target < n) extra_succ = target;
        break;
      }
      case Op::kCall: {
        const int64_t idx = instr.imm_i;
        if (idx < 0 || static_cast<size_t>(idx) >= prog.functions.size()) {
          definite_trap = true;
          break;
        }
        const Function& callee = prog.functions[static_cast<size_t>(idx)];
        if (!need(callee.n_args)) break;
        for (uint32_t a = 0; a < callee.n_args; ++a) (void)pop1();
        push(kTagUnknown);  // the callee's return value
        call_targets.push_back(static_cast<uint32_t>(idx));
        fast = flows_next = true;
        break;
      }
      case Op::kRet:
        // A ret at relative depth 0 pops (or not) depending on the caller's
        // absolute stack — unprovable from here. Above depth 1 the values
        // under the result stay on the caller's stack, where the caller's
        // facts (one result per call) would mistype every slot below it.
        if (!need(1)) break;
        if (st.stack.size() != 1) {
          failed = true;
          break;
        }
        fast = true;
        break;
      case Op::kHalt:
        fast = true;
        break;

      case Op::kNewArray:
      case Op::kNewBytes: {
        if (!need(1)) break;
        const uint8_t a = pop1();
        if (!may_be(a, Tag::kInt)) {
          definite_trap = true;
          break;
        }
        // Allocation (length sign, heap growth) always runs through the
        // checked step.
        push(tag_of(Tag::kRef));
        flows_next = true;
        break;
      }
      case Op::kALoad: {
        if (!need(2)) break;
        const uint8_t idx = pop1(), ref = pop1();
        if (!may_be(ref, Tag::kRef) || !may_be(idx, Tag::kInt)) {
          definite_trap = true;
          break;
        }
        // With both tags proven the fast body guards the rest: dangling
        // ref, array kind, bounds.
        guarded = is_known(ref) && is_known(idx);
        push(kTagUnknown);
        flows_next = true;
        break;
      }
      case Op::kAStore: {
        if (!need(3)) break;
        (void)pop1();
        const uint8_t idx = pop1(), ref = pop1();
        if (!may_be(ref, Tag::kRef) || !may_be(idx, Tag::kInt)) {
          definite_trap = true;
          break;
        }
        guarded = is_known(ref) && is_known(idx);
        flows_next = true;
        break;
      }
      case Op::kALen: {
        if (!need(1)) break;
        const uint8_t ref = pop1();
        if (!may_be(ref, Tag::kRef)) {
          definite_trap = true;
          break;
        }
        guarded = is_known(ref);  // dangling ref guarded in the fast body
        push(tag_of(Tag::kInt));
        flows_next = true;
        break;
      }

      case Op::kSyscall: {
        const SyscallEffect eff = syscall_effect(instr.imm_i);
        if (!eff.known) {
          failed = true;  // unknown host effect: no facts for this function
          break;
        }
        if (!need(eff.pops)) break;
        for (uint32_t k = 0; k < eff.pops; ++k) (void)pop1();
        if (eff.pushes) push(eff.push_tag);
        fast = flows_next = true;  // the op itself just returns to the host
        break;
      }
    }

    if (failed) break;
    facts.fast[pc] = fast ? kFactProven : guarded ? kFactGuarded : kFactChecked;
    facts.operand_tag[pc] = operand_tag;
    facts.max_stack = std::max<uint32_t>(facts.max_stack,
                                         static_cast<uint32_t>(st.stack.size()));
    if (definite_trap) continue;  // no successors: flow dies here

    auto propagate = [&](size_t succ, const SlotTags& out) {
      if (!in[succ]) {
        in[succ] = out;
        enqueue(succ);
        return;
      }
      bool changed = false;
      if (!join_into(*in[succ], out, changed)) {
        failed = true;  // depth mismatch at a merge point
        return;
      }
      if (changed) enqueue(succ);
    };
    if (extra_succ >= 0) propagate(static_cast<size_t>(extra_succ), st);
    if (flows_next && pc + 1 < n) propagate(pc + 1, st);
    // flows_next with pc+1 == n: the next fetch traps pc-out-of-range.
  }

  if (failed) return unanalyzed(n);
  facts.tags.resize(n);
  for (size_t pc = 0; pc < n; ++pc) {
    if (in[pc]) facts.tags[pc] = std::move(*in[pc]);
  }
  facts.analyzed = true;
  return facts;
}

}  // namespace

ProgramFacts analyze(const Program& program) {
  ProgramFacts out;
  const size_t n = program.functions.size();
  out.functions.reserve(n);
  std::vector<std::vector<uint32_t>> calls(n);
  for (size_t i = 0; i < n; ++i) {
    out.functions.push_back(analyze_function(program, program.functions[i], calls[i]));
  }
  // A caller's depth facts assumed every reachable callee pops its args and
  // pushes exactly one result — true only for functions that never reach
  // below their own entry depth, i.e. analyzed ones. Demote callers of
  // unanalyzable callees until the assumption holds everywhere (the
  // optimistic fixpoint is sound: a first-in-time violation would need an
  // earlier one).
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (!out.functions[i].analyzed) continue;
      for (uint32_t callee : calls[i]) {
        if (!out.functions[callee].analyzed) {
          out.functions[i] = unanalyzed(out.functions[i].fast.size());
          changed = true;
          break;
        }
      }
    }
  }
  for (const auto& f : out.functions) {
    if (f.analyzed) {
      out.any_fast = true;
      break;
    }
  }
  return out;
}

std::string disassemble(const Program& program) {
  std::string out;
  for (const auto& fn : program.functions) {
    // Collect jump targets for label synthesis.
    std::set<size_t> targets;
    for (const auto& in : fn.code) {
      if (in.op == Op::kJmp || in.op == Op::kJmpIfFalse) {
        targets.insert(static_cast<size_t>(in.imm_i));
      }
    }
    out += "func " + fn.name + " " + std::to_string(fn.n_args) + " " +
           std::to_string(fn.n_locals) + "\n";
    for (size_t pc = 0; pc < fn.code.size(); ++pc) {
      if (targets.contains(pc)) {
        out += "L";
        out += std::to_string(pc);
        out += ":\n";
      }
      const Instr& in = fn.code[pc];
      out += "  ";
      out += mnemonic(in.op);
      switch (in.op) {
        case Op::kPushInt:
        case Op::kPushBool:
        case Op::kLoadLocal:
        case Op::kStoreLocal:
        case Op::kLoadGlobal:
        case Op::kStoreGlobal:
          out += " ";
          out += std::to_string(in.imm_i);
          break;
        case Op::kPushFloat:
          out += " ";
          out += std::to_string(in.imm_f);
          break;
        case Op::kJmp:
        case Op::kJmpIfFalse:
          out += " L";
          out += std::to_string(in.imm_i);
          break;
        case Op::kCall:
          out += " ";
          out += program.functions[static_cast<size_t>(in.imm_i)].name;
          break;
        case Op::kSyscall:
          out += std::string(" ") + syscall_name(static_cast<Syscall>(in.imm_i));
          break;
        default:
          break;
      }
      out += "\n";
    }
    if (targets.contains(fn.code.size())) {
      out += "L";
      out += std::to_string(fn.code.size());
      out += ":\n";
    }
  }
  return out;
}

}  // namespace starfish::vm
