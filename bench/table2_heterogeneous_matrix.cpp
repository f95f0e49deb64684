// Table 2 — machine types tested with heterogeneous C/R.
//
// The paper lists six machine types (architecture, OS, byte order, word
// length) across which VM-level checkpoints restore. We reproduce the table
// and exercise the full 6x6 save/restore matrix: every portable image must
// restore on every machine (with endianness and word-length conversion),
// while native images restore only under an identical representation.
#include <cstdio>

#include "bench_util.hpp"
#include "ckpt/image.hpp"
#include "vm/value.hpp"

using namespace starfish;

namespace {

vm::VmState sample_state() {
  vm::VmState s;
  s.globals = {vm::Value::integer(123456789), vm::Value::real(2.718281828),
               vm::Value::boolean(true), vm::Value::reference(0)};
  s.stack = {vm::Value::integer(-42)};
  vm::Frame f;
  f.function = 1;
  f.pc = 99;
  f.locals = {vm::Value::integer(INT32_MAX), vm::Value::integer(INT32_MIN)};
  s.frames.push_back(f);
  vm::HeapObject arr;
  arr.push_back(vm::Value::integer(7));
  arr.push_back(vm::Value::real(0.5));
  s.heap.push_back(arr);
  s.steps_executed = 1'000'000;
  return s;
}

}  // namespace

int main() {
  benchutil::header("Table 2: machine types tested with heterogeneous C/R");
  auto machines = sim::table2_machines();
  std::printf("%-28s %-18s %-14s %s\n", "architecture type", "OS", "representation",
              "word length");
  for (const auto& m : machines) {
    std::printf("%-28s %-18s %-14s %d-bit\n", m.arch.c_str(), m.os.c_str(),
                m.endian == util::Endian::kLittle ? "little-endian" : "big-endian",
                m.word_bytes * 8);
  }

  const vm::VmState state = sample_state();
  int portable_ok = 0, native_ok = 0;

  std::printf("\nVM-level (portable) restore matrix — saved on row, restored on column:\n");
  std::printf("%8s", "");
  for (size_t c = 0; c < machines.size(); ++c) std::printf("   M%zu", c);
  std::printf("\n");
  for (size_t r = 0; r < machines.size(); ++r) {
    std::printf("    M%zu  ", r);
    auto img = ckpt::portable_encode(machines[r], state);
    for (size_t c = 0; c < machines.size(); ++c) {
      auto back = ckpt::portable_decode(img, machines[c]);
      const bool ok = back.ok() && back.value() == state;
      if (ok) ++portable_ok;
      std::printf("  %s", ok ? "ok " : "XX ");
    }
    std::printf("\n");
  }

  std::printf("\nnative restore matrix (homogeneous restriction — only identical\n"
              "representations restore):\n");
  util::Bytes memory(4096, std::byte{0xcd});
  std::printf("%8s", "");
  for (size_t c = 0; c < machines.size(); ++c) std::printf("   M%zu", c);
  std::printf("\n");
  for (size_t r = 0; r < machines.size(); ++r) {
    std::printf("    M%zu  ", r);
    auto img = ckpt::native_encode(machines[r], util::as_bytes_view(memory));
    for (size_t c = 0; c < machines.size(); ++c) {
      const bool ok = ckpt::native_decode(img, machines[c]).ok();
      if (ok) ++native_ok;
      std::printf("  %s", ok ? "ok " : "-- ");
    }
    std::printf("\n");
  }

  std::printf("\nportable restores: %d/36 succeed (paper: all pairs work at the VM level)\n",
              portable_ok);
  std::printf("native restores:   %d/36 succeed (only representation-identical pairs)\n",
              native_ok);
  return portable_ok == 36 ? 0 : 1;
}
