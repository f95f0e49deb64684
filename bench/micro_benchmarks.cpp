// Real-time microbenchmarks (google-benchmark) of the substrate hot paths:
// the figure/table benches above measure *virtual* time inside the
// simulator; these measure how fast the simulator and codecs themselves run
// on the host, which bounds how large an experiment is practical.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/incremental.hpp"
#include "ckpt/store.hpp"
#include "core/cr.hpp"
#include "gcs/endpoint.hpp"
#include "gcs/wire.hpp"
#include "mpi/datatype.hpp"
#include "mpi/frame.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/buffer.hpp"
#include "util/codec/lz.hpp"
#include "util/rng.hpp"
#include "util/simd/simd.hpp"
#include "vm/bytecode.hpp"
#include "vm/interp.hpp"

using namespace starfish;

namespace {

void BM_EngineEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule(sim::microseconds(i), [] {});
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventDispatch);

// Wake-heavy: the dominant block/wake/resume cycle (every recv, every GCS
// deliver, every sync primitive). Two fibers ping-pong through a pair of
// channels, so each item is one park + one zero-delay wake + one resume on
// each side, with no timer involved after warmup.
void BM_EngineWakeHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> ping(eng);
    sim::Channel<int> pong(eng);
    eng.spawn("ponger", [&] {
      for (int i = 0; i < 1000; ++i) {
        (void)ping.recv();
        pong.send(i);
      }
    });
    eng.spawn("pinger", [&] {
      for (int i = 0; i < 1000; ++i) {
        ping.send(i);
        (void)pong.recv();
      }
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 2000);  // wakes per iteration
}
BENCHMARK(BM_EngineWakeHeavy);

// Spawn-heavy: daemon restarts, chaos churn, per-message handler fibers.
// Waves of short-lived fibers; the driver joins each wave before launching
// the next, so stack recycling (when present) can serve every wave after
// the first from the pool.
void BM_EngineSpawnHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn("driver", [&eng] {
      for (int wave = 0; wave < 125; ++wave) {
        for (int i = 0; i < 8; ++i) {
          eng.spawn("worker", [&eng] { eng.sleep(sim::microseconds(1)); });
        }
        eng.sleep(sim::microseconds(2));  // joins the wave: workers exit first
      }
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // fibers per iteration
}
BENCHMARK(BM_EngineSpawnHeavy);

// Mixed timers: many fibers asleep on staggered deadlines keep the timer
// heap deep while short sleeps churn its top — the scheduling mix of the
// fig benches (heartbeats + link delays + disk transfers).
void BM_EngineMixedTimers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 64; ++i) {
      eng.spawn("timer", [&eng, i] {
        for (int k = 0; k < 32; ++k) {
          eng.sleep(sim::microseconds((i * 37 + k * 11) % 97 + 1));
        }
      });
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 32);
}
BENCHMARK(BM_EngineMixedTimers);

void BM_FiberContextSwitch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn("switcher", [&eng] {
      for (int i = 0; i < 1000; ++i) eng.yield();
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 2000);  // two switches per yield
}
BENCHMARK(BM_FiberContextSwitch);

void BM_ChannelSendRecv(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> ch(eng);
    eng.spawn("rx", [&] {
      for (int i = 0; i < 1000; ++i) (void)ch.recv();
    });
    eng.spawn("tx", [&] {
      for (int i = 0; i < 1000; ++i) ch.send(i);
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelSendRecv);

void BM_BufferWriterU64(benchmark::State& state) {
  for (auto _ : state) {
    util::Bytes out;
    out.reserve(8 * 1024);
    util::Writer w(out);
    for (int i = 0; i < 1024; ++i) w.u64(static_cast<uint64_t>(i) * 0x9e3779b9);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * 8 * 1024);
}
BENCHMARK(BM_BufferWriterU64);

void BM_MpiFrameRoundtrip(benchmark::State& state) {
  mpi::Frame f;
  f.kind = mpi::FrameKind::kEager;
  f.comm = 0;
  f.src_rank = 3;
  f.dst_rank = 7;
  f.tag = 42;
  f.payload = util::Bytes(static_cast<size_t>(state.range(0)), std::byte{0x5a});
  for (auto _ : state) {
    auto bytes = f.encode();
    auto back = mpi::Frame::decode(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MpiFrameRoundtrip)->Arg(64)->Arg(4096)->Arg(65536);

void BM_PortableImageEncode(benchmark::State& state) {
  vm::VmState s;
  vm::HeapObject blob;
  blob.kind = vm::HeapObject::Kind::kBytes;
  blob.bytes = util::Bytes(static_cast<size_t>(state.range(0)), std::byte{1});
  s.heap.push_back(std::move(blob));
  for (int i = 0; i < 256; ++i) s.globals.push_back(vm::Value::integer(i));
  for (auto _ : state) {
    auto img = ckpt::portable_encode(sim::default_machine(), s);
    benchmark::DoNotOptimize(img.payload.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PortableImageEncode)->Arg(64 * 1024)->Arg(1024 * 1024);

// The restore side of one sparse8_ckpt rank's array: range/8 ints (1 MB
// of payload words at 1048576) decoded on the saving machine.
void BM_PortableImageDecode(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0)) / 8;
  vm::VmState s;
  vm::HeapObject arr;
  arr.assign(n, vm::Value::unit());
  for (size_t i = 0; i < n; ++i) {
    arr.set(i, vm::Value::integer(static_cast<int64_t>((i * 7919 + 17) % 1000003)));
  }
  s.heap.push_back(std::move(arr));
  const auto img = ckpt::portable_encode(sim::default_machine(), s);
  for (auto _ : state) {
    auto back = ckpt::portable_decode(img, sim::default_machine());
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PortableImageDecode)->Arg(1024 * 1024);

void BM_PortableImageCrossDecode(benchmark::State& state) {
  // Encode big-endian 32-bit, decode little-endian 64-bit: the conversion
  // path of the Table 2 matrix.
  auto machines = sim::table2_machines();
  vm::VmState s;
  for (int i = 0; i < 4096; ++i) s.globals.push_back(vm::Value::integer(i * 3));
  auto img = ckpt::portable_encode(machines[1], s);
  for (auto _ : state) {
    auto back = ckpt::portable_decode(img, machines[5]);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PortableImageCrossDecode);

// --- VM instruction dispatch -------------------------------------------
//
// The VM is the compute substrate of fig4/table2: every simulated
// application instruction goes through Interpreter::run. These benches pin
// the shapes that dominate real programs — a tight arithmetic loop (the
// canonical accumulate/increment/compare/branch idiom), call-heavy
// recursion, the syscall round-trip into the host and back, and a stencil
// sweep over a heap array.

vm::Program must_assemble_bench(const std::string& src) {
  auto r = vm::assemble(src);
  if (!r.ok()) {
    fprintf(stderr, "bench program failed to assemble: %s\n",
            r.error().to_string().c_str());
    abort();
  }
  return std::move(r).take();
}

// sum 1..20000 via locals: 20k iterations x 14 instructions + prologue.
const char* kVmArithLoopSrc = R"(
func main 0 2
  push_int 0
  store_local 0
  push_int 1
  store_local 1
loop:
  load_local 1
  push_int 20000
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

void BM_VmArithLoop(benchmark::State& state) {
  vm::Program prog = must_assemble_bench(kVmArithLoopSrc);
  uint64_t steps = 0;
  for (auto _ : state) {
    vm::Interpreter interp(prog, sim::default_machine());
    interp.start();
    auto r = interp.run();
    if (r.status != vm::RunStatus::kHalted) abort();
    steps = interp.state().steps_executed;
    benchmark::DoNotOptimize(interp.state().stack.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmArithLoop);

// fib(18) by naive recursion: ~8k calls, each a frame push/arg move/ret.
void BM_VmCallHeavy(benchmark::State& state) {
  vm::Program prog = must_assemble_bench(R"(
func main 0 0
  push_int 18
  call fib
  halt
func fib 1 1
  load_local 0
  push_int 2
  lt
  jmp_if_false rec
  load_local 0
  ret
rec:
  load_local 0
  push_int 1
  sub
  call fib
  load_local 0
  push_int 2
  sub
  call fib
  add
  ret
)");
  uint64_t steps = 0;
  for (auto _ : state) {
    vm::Interpreter interp(prog, sim::default_machine());
    interp.start();
    auto r = interp.run();
    if (r.status != vm::RunStatus::kHalted) abort();
    steps = interp.state().steps_executed;
    benchmark::DoNotOptimize(interp.state().stack.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmCallHeavy);

// 1000 rank syscalls serviced by the host: run-to-syscall, push the reply,
// complete, resume — the exact control transfer run_vm_app makes per call.
void BM_VmSyscallRoundtrip(benchmark::State& state) {
  vm::Program prog = must_assemble_bench(R"(
func main 0 1
  push_int 0
  store_local 0
loop:
  syscall rank
  pop
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
  halt
)");
  for (auto _ : state) {
    vm::Interpreter interp(prog, sim::default_machine());
    interp.start();
    for (;;) {
      auto r = interp.run();
      if (r.status == vm::RunStatus::kHalted) break;
      if (r.status != vm::RunStatus::kSyscall) abort();
      interp.push_value(vm::Value::integer(3));
      interp.complete_syscall();
    }
    benchmark::DoNotOptimize(interp.state().steps_executed);
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // round-trips
}
BENCHMARK(BM_VmSyscallRoundtrip);

// The stencil16_vm inner loop over an 8k-cell array: fill a[i], then one
// sweep a[i] = (a[i-1] + a[i] + a[i+1]) mod P — indexed loads off locals,
// int arithmetic on loaded cells, astore through locals.
void BM_VmArraySweep(benchmark::State& state) {
  vm::Program prog = must_assemble_bench(R"(
func main 0 2
  push_int 8192
  new_array
  store_local 0
  push_int 0
  store_local 1
fill:
  load_local 1
  push_int 8192
  lt
  jmp_if_false filled
  load_local 0
  load_local 1
  load_local 1
  push_int 7919
  mul
  push_int 1000003
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
  push_int 8191
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
  push_int 1000003
  mod
  astore
  load_local 1
  push_int 1
  add
  store_local 1
  jmp sweep
swept:
  load_local 0
  push_int 4096
  aload
  halt
)");
  uint64_t steps = 0;
  for (auto _ : state) {
    vm::Interpreter interp(prog, sim::default_machine());
    interp.start();
    auto r = interp.run();
    if (r.status != vm::RunStatus::kHalted) abort();
    steps = interp.state().steps_executed;
    benchmark::DoNotOptimize(interp.state().stack.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmArraySweep);

void BM_GcsWireRoundtrip(benchmark::State& state) {
  gcs::WireMsg msg;
  msg.kind = gcs::MsgKind::kOrder;
  msg.from = {2, 0};
  msg.gseq = 123456;
  msg.origin = {1, 0};
  msg.payload = util::Bytes(256, std::byte{7});
  for (auto _ : state) {
    auto bytes = msg.encode();
    auto back = gcs::WireMsg::decode(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_GcsWireRoundtrip);

// The flat control plane at cluster scale: a founding group whose members
// heartbeat all-to-all while one member multicasts every 5 ms — the shape
// of ring64_control's daemon group. One iteration advances one virtual
// second of an already warm group. A fault-free group delivers every beat,
// so the `heartbeats` counter (per iteration) is n(n-1) beats per period;
// host time per heartbeat is real_time / heartbeats.
void BM_GcsFlatGroup(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  sim::Engine eng(/*seed=*/1);
  net::Network net(eng);
  gcs::GroupConfig config;
  config.topology = gcs::Topology::kFlat;
  std::vector<net::NetAddr> founders;
  for (size_t i = 0; i < n; ++i) {
    founders.push_back({net.add_host("node" + std::to_string(i))->id(), config.control_port});
  }
  std::vector<std::unique_ptr<gcs::GroupEndpoint>> eps;
  for (size_t i = 0; i < n; ++i) {
    eps.push_back(std::make_unique<gcs::GroupEndpoint>(
        net, *net.host(static_cast<sim::HostId>(i)), config, gcs::Callbacks{}));
  }
  for (auto& ep : eps) ep->start_founding(founders);
  gcs::GroupEndpoint* sender = eps[1].get();  // not the sequencer: ORDER_REQ hop included
  net.host(1)->spawn("sender", [sender, &eng] {
    for (;;) {
      eng.sleep(sim::milliseconds(5));
      sender->multicast(util::Bytes(64, std::byte{0x5a}));
    }
  });
  eng.run_for(sim::seconds(1));  // warm-up: first beats, log at steady state
  for (auto _ : state) eng.run_for(sim::seconds(1));
  const double beats = static_cast<double>(n * (n - 1)) *
                       static_cast<double>(sim::seconds(1) / config.heartbeat_period);
  state.counters["heartbeats"] = beats;
  state.SetItemsProcessed(static_cast<int64_t>(static_cast<double>(state.iterations()) * beats));
}
BENCHMARK(BM_GcsFlatGroup)->Arg(16)->Arg(64);

// --- SIMD data-plane kernels: dispatched vs forced-scalar ----------------
//
// Each pair runs one hot path under the dispatched table and again with the
// scalar reference forced, so the speedup that justifies the dispatch layer
// stays measurable on any host (EXPERIMENTS.md records the ratios; the
// bit-identity of the outputs is pinned by tests/simd_differential_test.cpp).

namespace simd = util::simd;

/// Forces one ISA level for the duration of a benchmark run.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) : prev_(simd::level()) { simd::force(isa); }
  ~ScopedIsa() { simd::force(prev_); }

 private:
  simd::Isa prev_;
};

void fingerprint_bench(benchmark::State& state, simd::Isa isa) {
  ScopedIsa forced(isa);
  const size_t n = static_cast<size_t>(state.range(0));
  util::Bytes buf(n, std::byte{0x5a});
  for (size_t i = 0; i < n; i += 97) buf[i] = static_cast<std::byte>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::fingerprint(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n);
}
void BM_FingerprintDispatch(benchmark::State& state) {
  fingerprint_bench(state, simd::level());
}
void BM_FingerprintScalar(benchmark::State& state) {
  fingerprint_bench(state, simd::Isa::kScalar);
}
BENCHMARK(BM_FingerprintDispatch)->Arg(4096)->Arg(16 * 1024 * 1024);
BENCHMARK(BM_FingerprintScalar)->Arg(4096)->Arg(16 * 1024 * 1024);

/// Int-heavy state whose portable image is dominated by the integer column.
vm::VmState convert_state(size_t n_ints) {
  vm::VmState s;
  s.globals.reserve(n_ints);
  for (size_t i = 0; i < n_ints; ++i) {
    s.globals.push_back(vm::Value::integer(static_cast<int32_t>(i * 2654435761u)));
  }
  return s;
}

// Encode on a big-endian 32-bit saver from this (little-endian) host: the
// byteswap + narrow direction of the heterogeneous conversion.
void image_encode_bench(benchmark::State& state, simd::Isa isa) {
  ScopedIsa forced(isa);
  auto machines = sim::table2_machines();
  const vm::VmState s = convert_state(1 << 16);
  for (auto _ : state) {
    auto img = ckpt::portable_encode(machines[1], s);
    benchmark::DoNotOptimize(img.payload.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * (1 << 16));
}
void BM_ImageConvertEncodeDispatch(benchmark::State& state) {
  image_encode_bench(state, simd::level());
}
void BM_ImageConvertEncodeScalar(benchmark::State& state) {
  image_encode_bench(state, simd::Isa::kScalar);
}
BENCHMARK(BM_ImageConvertEncodeDispatch);
BENCHMARK(BM_ImageConvertEncodeScalar);

// Decode the same image on a little-endian 64-bit target: byteswap + widen.
void image_decode_bench(benchmark::State& state, simd::Isa isa) {
  ScopedIsa forced(isa);
  auto machines = sim::table2_machines();
  const auto img = ckpt::portable_encode(machines[1], convert_state(1 << 16));
  for (auto _ : state) {
    auto back = ckpt::portable_decode(img, machines[5]);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * (1 << 16));
}
void BM_ImageConvertDecodeDispatch(benchmark::State& state) {
  image_decode_bench(state, simd::level());
}
void BM_ImageConvertDecodeScalar(benchmark::State& state) {
  image_decode_bench(state, simd::Isa::kScalar);
}
BENCHMARK(BM_ImageConvertDecodeDispatch);
BENCHMARK(BM_ImageConvertDecodeScalar);

// Large-message pack + unpack of a strided vector layout (a 256 KB matrix
// band: 256-byte blocks every 512 bytes), and the contiguous fast path.
// Cache-resident on purpose: at multi-MB sizes every implementation is
// DRAM-bound and the bench would measure the memory bus, not the kernels.
void datatype_pack_bench(benchmark::State& state, simd::Isa isa, bool contiguous) {
  ScopedIsa forced(isa);
  const size_t total = 256 * 1024;
  const auto dt = contiguous ? mpi::Datatype::contiguous(total, 1)
                             : mpi::Datatype::vector(total / 512, 256, 512, 1);
  util::Bytes buf(dt.extent(), std::byte{0x3c});
  util::Bytes scatter(dt.extent());
  for (auto _ : state) {
    auto packed = dt.pack(util::as_bytes_view(buf));
    benchmark::DoNotOptimize(packed.value().data());
    auto st = dt.unpack(packed.value(), scatter);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 * dt.packed_bytes());
}
void BM_DatatypePackStridedDispatch(benchmark::State& state) {
  datatype_pack_bench(state, simd::level(), false);
}
void BM_DatatypePackStridedScalar(benchmark::State& state) {
  datatype_pack_bench(state, simd::Isa::kScalar, false);
}
void BM_DatatypePackContiguous(benchmark::State& state) {
  datatype_pack_bench(state, simd::level(), true);
}
BENCHMARK(BM_DatatypePackStridedDispatch);
BENCHMARK(BM_DatatypePackStridedScalar);
BENCHMARK(BM_DatatypePackContiguous);

// --- LZ checkpoint codec ---------------------------------------------------
//
// lz_compress on 1 MB of two shapes of checkpoint bytes. The narrow-int
// column is an SFV2 column of 32-bit values below 2^20: it almost never
// repeats a 4-byte window, so nearly every position's chain walk would find
// nothing. The structured input is compressible records: almost every
// window was seen before, so the matcher's presence filter can rarely skip
// a walk and the row shows what the filter costs.

enum class LzBenchInput { kNarrowColumn, kStructured };

util::Bytes lz_bench_input(LzBenchInput kind) {
  constexpr size_t kBytes = 1 << 20;
  util::Rng rng(0x12c0de);
  util::Bytes b;
  if (kind == LzBenchInput::kNarrowColumn) {
    util::Writer w(b);
    for (size_t i = 0; i < kBytes; i += 4) w.u32(static_cast<uint32_t>(rng.below(1u << 20)));
    return b;
  }
  // 32-byte records: a little-endian record counter, then one of 16 random
  // 28-byte templates.
  constexpr size_t kRecord = 32, kTemplates = 16;
  b.resize(kBytes);
  util::Bytes templates(kTemplates * (kRecord - 4));
  for (auto& x : templates) x = static_cast<std::byte>(rng.next() & 0xff);
  for (size_t rec = 0; rec * kRecord < kBytes; ++rec) {
    std::byte* r = b.data() + rec * kRecord;
    for (size_t k = 0; k < 4; ++k) r[k] = static_cast<std::byte>((rec >> (8 * k)) & 0xff);
    std::memcpy(r + 4, templates.data() + rng.below(kTemplates) * (kRecord - 4), kRecord - 4);
  }
  return b;
}

void BM_LzCompress(benchmark::State& state, LzBenchInput kind) {
  const util::Bytes raw = lz_bench_input(kind);
  for (auto _ : state) {
    auto frame = util::codec::lz_compress(util::as_bytes_view(raw));
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(raw.size()));
}
BENCHMARK_CAPTURE(BM_LzCompress, narrow_column, LzBenchInput::kNarrowColumn);
BENCHMARK_CAPTURE(BM_LzCompress, structured, LzBenchInput::kStructured);

// --- checkpoint path: capture to store, and a chained restore -------------
//
// One rank's checkpoint epochs as sparse8_ckpt takes them: a 1 MB portable
// state (one array of narrow ints), a few cells touched between epochs,
// stored on disk under delta+lz. Each bench drives the store from a fiber
// on a one-host network, so the disk charges sleep in virtual time only.

constexpr size_t kCkptCells = 116 * 1024;  // 9 SFV2 bytes a value: ~1 MB

vm::VmState ckpt_bench_state() {
  vm::VmState s;
  vm::HeapObject arr;
  arr.assign(kCkptCells, vm::Value::unit());
  for (size_t i = 0; i < kCkptCells; ++i) {
    arr.set(i, vm::Value::integer(static_cast<int64_t>((i * 7919 + 17) % 1000003)));
  }
  s.heap.push_back(std::move(arr));
  s.frames.push_back(vm::Frame{0, 12, {vm::Value::integer(0), vm::Value::reference(0)}});
  return s;
}

void touch_cells(vm::VmState& s, uint64_t epoch) {
  vm::HeapObject& cells = s.heap[0];
  for (uint64_t k = 0; k < 8; ++k) {
    const size_t i = static_cast<size_t>((epoch * 7919 + k * 32771) % cells.size());
    cells.set(i, vm::Value::integer(cells.get(i).i + 1));
  }
  s.steps_executed += 200'000;
}

/// Capture, container, delta+lz and the disk put of one epoch.
void store_epoch(ckpt::CheckpointStore& store, sim::Host& host, const vm::VmState& s,
                 uint64_t epoch) {
  ckpt::Image capture = ckpt::portable_encode(host.machine(), s);
  const util::Bytes tracker(16, std::byte{0});
  ckpt::Image img;
  img.kind = ckpt::ImageKind::kPortable;
  img.repr_code = capture.repr_code;
  img.payload = core::Container{tracker, capture.payload, {}, {}}.encode();
  img.file_bytes = ckpt::kPortableBaseBytes + img.payload.size();
  capture = {};
  store.put(host, ckpt::CkptKey{"app", 0, epoch}, std::move(img));
}

void BM_CkptStoreImage(benchmark::State& state) {
  sim::Engine eng;
  net::Network net(eng);
  sim::Host& host = *net.add_host("node0");
  ckpt::CheckpointStore store(eng);
  store.set_compress_mode(ckpt::CompressMode::kDeltaLz);
  vm::VmState s = ckpt_bench_state();
  uint64_t epoch = 0;
  for (auto _ : state) {
    ++epoch;
    touch_cells(s, epoch);
    host.spawn("ckpt", [&] { store_epoch(store, host, s, epoch); });
    eng.run();
    benchmark::DoNotOptimize(store.bytes_written());
    store.commit("app", epoch);
    store.gc("app", ckpt::last_full_at_or_before(epoch));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kCkptCells * 9));
}
BENCHMARK(BM_CkptStoreImage);

/// Restores the newest epoch of a 4-link chain: the lz anchor at epoch 1
/// and three delta+lz links on top, each fetched and decoded by get().
void BM_CkptChainRestore(benchmark::State& state) {
  sim::Engine eng;
  net::Network net(eng);
  sim::Host& host = *net.add_host("node0");
  ckpt::CheckpointStore store(eng);
  store.set_compress_mode(ckpt::CompressMode::kDeltaLz);
  vm::VmState s = ckpt_bench_state();
  host.spawn("ckpt", [&] {
    for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
      touch_cells(s, epoch);
      store_epoch(store, host, s, epoch);
      store.commit("app", epoch);
    }
  });
  eng.run();
  size_t restored = 0;
  for (auto _ : state) {
    host.spawn("restore", [&] {
      auto img = store.get(host, ckpt::CkptKey{"app", 0, 4});
      restored = img ? img->payload.size() : 0;
      benchmark::DoNotOptimize(img);
    });
    eng.run();
    if (restored == 0) state.SkipWithError("chain did not resolve");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(restored));
}
BENCHMARK(BM_CkptChainRestore);

}  // namespace

BENCHMARK_MAIN();
