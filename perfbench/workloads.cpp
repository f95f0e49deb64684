#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

namespace sim = starfish::sim;
namespace core = starfish::core;
namespace daemon = starfish::daemon;
namespace ckpt = starfish::ckpt;
namespace gcs = starfish::gcs;

namespace {

/// Every value the programs keep is reduced modulo this prime, so sums of
/// three cells and the checksum's `sum * 31 + cell` stay far inside the
/// 32-bit machine word the modeled PII-300 wraps integers to.
constexpr int64_t kModulus = 1'000'003;

/// splitmix64: the benchmark's own generator, independent of the engine RNG.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

std::string num(int64_t v) { return std::to_string(v); }

/// Replaces every `{KEY}` in `text` with its value.
std::string fill(std::string text, const std::vector<std::pair<std::string, int64_t>>& vars) {
  for (const auto& [key, value] : vars) {
    const std::string token = "{" + key + "}";
    for (size_t at = text.find(token); at != std::string::npos; at = text.find(token, at)) {
      text.replace(at, token.size(), num(value));
    }
  }
  return text;
}

/// Options every workload pins explicitly, so no STARFISH_* lever that
/// Cluster consults for unset options can change what runs.
core::ClusterOptions pinned_options(size_t nodes, ckpt::CkptBackend backend,
                                    ckpt::CompressMode compress, uint64_t seed) {
  core::ClusterOptions opts;
  opts.nodes = nodes;
  opts.seed = seed;
  opts.shards = 1;
  opts.ckpt_backend = backend;
  opts.ckpt_replication = 2;
  opts.ckpt_compress = compress;
  opts.daemon.group.topology = gcs::Topology::kFlat;
  return opts;
}

daemon::JobSpec stop_and_sync_job(const std::string& binary, uint32_t nprocs,
                                  sim::Duration interval) {
  daemon::JobSpec job;
  job.name = binary;
  job.binary = binary;
  job.nprocs = nprocs;
  job.policy = daemon::FtPolicy::kRestart;
  job.protocol = daemon::CrProtocol::kStopAndSync;
  job.level = daemon::CkptLevel::kVm;
  job.ckpt_interval = interval;
  return job;
}

Crash draw_crash(SeedStream& rng, sim::Duration earliest, sim::Duration window_ms) {
  Crash c;
  c.offset = earliest + sim::milliseconds(rng.range(0, window_ms));
  c.victim_draw = rng.next();
  return c;
}

// ------------------------------------------------------- ring64_control ----
//
// A token ring: rank 0 injects a seeded token, every other rank adds its
// rank number and forwards it; per-round work is `spin`-charged, so almost
// no bytecode is interpreted. Rank 0 prints the token after `rounds` laps.

constexpr const char* kRingProgram = R"(
func main 0 2
  syscall rank
  store_local 0
  syscall world_size
  store_local 1
  push_int 0
  store_global 0
  push_int {TOKEN}
  store_global 1
loop:
  load_global 0
  push_int {ROUNDS}
  ge
  jmp_if_false body
  jmp done
body:
  push_int {SPIN}
  syscall spin
  load_local 0
  push_int 0
  eq
  jmp_if_false relay
  push_int 1
  load_global 1
  syscall send_to
  push_int -1
  syscall recv_from
  store_global 1
  jmp next
relay:
  push_int -1
  syscall recv_from
  load_local 0
  add
  store_global 1
  load_local 0
  push_int 1
  add
  load_local 1
  mod
  load_global 1
  syscall send_to
next:
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
done:
  load_local 0
  push_int 0
  eq
  jmp_if_false finish
  load_global 1
  syscall print
finish:
  halt
)";

Workload ring64_control(uint64_t seed) {
  constexpr uint32_t kRanks = 64;
  constexpr int64_t kRounds = 200;
  SeedStream rng(seed);
  const int64_t token = rng.range(1, 1'000'000);

  Workload w;
  w.name = "ring64_control";
  w.program = fill(kRingProgram, {{"TOKEN", token}, {"ROUNDS", kRounds}, {"SPIN", 2000}});
  w.options = pinned_options(kRanks, ckpt::CkptBackend::kDisk, ckpt::CompressMode::kOff, seed);
  w.job = stop_and_sync_job("ring", kRanks, sim::milliseconds(250));
  w.crashes.push_back(draw_crash(rng, sim::milliseconds(200), 4));

  int64_t expect = token;
  for (int64_t round = 0; round < kRounds; ++round) {
    for (uint32_t r = 1; r < kRanks; ++r) expect += r;
  }
  w.expected_output = num(expect);
  return w;
}

// --------------------------------------------------------- stencil16_vm ----
//
// A 1-D halo-exchange stencil, interpreted: each rank owns N cells seeded
// from the workload seed, sweeps a moving W-cell window per step with
// a[i] = (a[i-1] + a[i] + a[i+1]) mod P, then sends its first cell to the
// left neighbour and its last to the right one and adds what it receives
// into its own boundary cells. An allreduce of the per-rank checksums ends
// the run; rank 0 prints it.

constexpr const char* kStencilProgram = R"(
func main 0 12
  syscall rank
  store_local 0
  syscall world_size
  store_local 1
  load_local 0
  load_local 1
  add
  push_int 1
  sub
  load_local 1
  mod
  store_local 10
  load_local 0
  push_int 1
  add
  load_local 1
  mod
  store_local 11
  push_int {N}
  new_array
  store_local 2
  push_int 0
  store_local 3
fill:
  load_local 3
  push_int {N}
  lt
  jmp_if_false filled
  load_local 2
  load_local 3
  load_local 3
  push_int {MUL}
  mul
  load_local 0
  push_int {RANKMUL}
  mul
  add
  push_int {BIAS}
  add
  push_int {P}
  mod
  astore
  load_local 3
  push_int 1
  add
  store_local 3
  jmp fill
filled:
  push_int 0
  store_local 4
step:
  load_local 4
  push_int {STEPS}
  lt
  jmp_if_false stepped
  load_local 4
  push_int {STRIDE}
  mul
  push_int {SPAN}
  mod
  push_int 1
  add
  store_local 5
  load_local 5
  push_int {W}
  add
  store_local 6
  load_local 5
  store_local 3
sweep:
  load_local 3
  load_local 6
  lt
  jmp_if_false swept
  load_local 2
  load_local 3
  load_local 2
  load_local 3
  push_int 1
  sub
  aload
  load_local 2
  load_local 3
  aload
  add
  load_local 2
  load_local 3
  push_int 1
  add
  aload
  add
  push_int {P}
  mod
  astore
  load_local 3
  push_int 1
  add
  store_local 3
  jmp sweep
swept:
  load_local 10
  load_local 2
  push_int 0
  aload
  syscall send_to
  load_local 11
  load_local 2
  push_int {LAST}
  aload
  syscall send_to
  load_local 2
  push_int 0
  load_local 2
  push_int 0
  aload
  load_local 10
  syscall recv_from
  add
  push_int {P}
  mod
  astore
  load_local 2
  push_int {LAST}
  load_local 2
  push_int {LAST}
  aload
  load_local 11
  syscall recv_from
  add
  push_int {P}
  mod
  astore
  load_local 4
  push_int 1
  add
  store_local 4
  jmp step
stepped:
  push_int 0
  store_local 9
  push_int 0
  store_local 3
sum:
  load_local 3
  push_int {N}
  lt
  jmp_if_false summed
  load_local 9
  push_int 31
  mul
  load_local 2
  load_local 3
  aload
  add
  push_int {P}
  mod
  store_local 9
  load_local 3
  push_int 1
  add
  store_local 3
  jmp sum
summed:
  load_local 9
  syscall allreduce_sum
  store_local 9
  load_local 0
  push_int 0
  eq
  jmp_if_false finish
  load_local 9
  syscall print
finish:
  halt
)";

/// Per-rank checksum the stencil and sparse programs compute at the end.
int64_t checksum(const std::vector<int64_t>& cells) {
  int64_t sum = 0;
  for (const int64_t c : cells) sum = (sum * 31 + c) % kModulus;
  return sum;
}

/// The programs' seeded fill: a[i] = (i * mul + rank * rank_mul + bias) mod P.
std::vector<int64_t> seeded_cells(int64_t n, int64_t rank, int64_t mul, int64_t rank_mul,
                                  int64_t bias) {
  std::vector<int64_t> a(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    a[static_cast<size_t>(i)] = (i * mul + rank * rank_mul + bias) % kModulus;
  }
  return a;
}

Workload stencil16_vm(uint64_t seed) {
  constexpr uint32_t kRanks = 16;
  constexpr int64_t kCells = 32 * 1024;
  constexpr int64_t kWindow = 8 * 1024;
  constexpr int64_t kSteps = 50;
  constexpr int64_t kStride = 977;
  constexpr int64_t kSpan = kCells - kWindow - 2;
  SeedStream rng(seed);
  const int64_t mul = rng.range(3, 9000);
  const int64_t rank_mul = rng.range(1, 9000);
  const int64_t bias = rng.range(0, kModulus - 1);

  Workload w;
  w.name = "stencil16_vm";
  w.program = fill(kStencilProgram, {{"N", kCells},
                                     {"LAST", kCells - 1},
                                     {"W", kWindow},
                                     {"STEPS", kSteps},
                                     {"STRIDE", kStride},
                                     {"SPAN", kSpan},
                                     {"MUL", mul},
                                     {"RANKMUL", rank_mul},
                                     {"BIAS", bias},
                                     {"P", kModulus}});
  w.options =
      pinned_options(kRanks + 2, ckpt::CkptBackend::kReplica, ckpt::CompressMode::kDeltaLz, seed);
  w.job = stop_and_sync_job("stencil", kRanks, sim::milliseconds(100));
  w.crashes.push_back(draw_crash(rng, sim::milliseconds(150), 4));

  std::vector<std::vector<int64_t>> a;
  for (uint32_t r = 0; r < kRanks; ++r) a.push_back(seeded_cells(kCells, r, mul, rank_mul, bias));
  std::vector<int64_t> first(kRanks), last(kRanks);
  for (int64_t s = 0; s < kSteps; ++s) {
    const int64_t lo = (s * kStride) % kSpan + 1;
    for (uint32_t r = 0; r < kRanks; ++r) {
      auto& c = a[r];
      for (int64_t i = lo; i < lo + kWindow; ++i) {
        const auto k = static_cast<size_t>(i);
        c[k] = (c[k - 1] + c[k] + c[k + 1]) % kModulus;
      }
      first[r] = c.front();
      last[r] = c.back();
    }
    for (uint32_t r = 0; r < kRanks; ++r) {
      const uint32_t left = (r + kRanks - 1) % kRanks;
      const uint32_t right = (r + 1) % kRanks;
      a[r].front() = (a[r].front() + last[left]) % kModulus;
      a[r].back() = (a[r].back() + first[right]) % kModulus;
    }
  }
  int64_t total = 0;
  for (const auto& c : a) total += checksum(c);
  w.expected_output = num(total);
  return w;
}

// --------------------------------------------------------- sparse8_ckpt ----
//
// A large, densely filled array that changes sparsely: every step charges
// 10 ms of `spin` compute and rewrites 8 scattered cells, so checkpoints
// are dominated by image capture, fingerprinting, delta coding and LZ.

constexpr const char* kSparseProgram = R"(
func main 0 8
  syscall rank
  store_local 0
  push_int {N}
  new_array
  store_local 2
  push_int 0
  store_local 3
fill:
  load_local 3
  push_int {N}
  lt
  jmp_if_false filled
  load_local 2
  load_local 3
  load_local 3
  push_int {MUL}
  mul
  load_local 0
  push_int {RANKMUL}
  mul
  add
  push_int {BIAS}
  add
  push_int {P}
  mod
  astore
  load_local 3
  push_int 1
  add
  store_local 3
  jmp fill
filled:
  push_int 0
  store_local 4
step:
  load_local 4
  push_int {STEPS}
  lt
  jmp_if_false stepped
  push_int {SPIN}
  syscall spin
  push_int 0
  store_local 5
touch:
  load_local 5
  push_int {TOUCHES}
  lt
  jmp_if_false touched
  load_local 4
  push_int 7919
  mul
  load_local 5
  push_int 32771
  mul
  add
  load_local 0
  push_int 104729
  mul
  add
  push_int {N}
  mod
  store_local 6
  load_local 2
  load_local 6
  load_local 2
  load_local 6
  aload
  load_local 4
  add
  load_local 5
  add
  push_int 1
  add
  push_int {P}
  mod
  astore
  load_local 5
  push_int 1
  add
  store_local 5
  jmp touch
touched:
  load_local 4
  push_int 1
  add
  store_local 4
  jmp step
stepped:
  push_int 0
  store_local 7
  push_int 0
  store_local 3
sum:
  load_local 3
  push_int {N}
  lt
  jmp_if_false summed
  load_local 7
  push_int 31
  mul
  load_local 2
  load_local 3
  aload
  add
  push_int {P}
  mod
  store_local 7
  load_local 3
  push_int 1
  add
  store_local 3
  jmp sum
summed:
  load_local 7
  syscall allreduce_sum
  store_local 7
  load_local 0
  push_int 0
  eq
  jmp_if_false finish
  load_local 7
  syscall print
finish:
  halt
)";

Workload sparse8_ckpt(uint64_t seed) {
  constexpr uint32_t kRanks = 8;
  constexpr int64_t kCells = 128 * 1024;
  constexpr int64_t kSteps = 150;
  constexpr int64_t kTouches = 8;
  SeedStream rng(seed);
  // i * mul must stay below 2^31 for every i < kCells.
  const int64_t mul = rng.range(3, 8000);
  const int64_t rank_mul = rng.range(1, 9000);
  const int64_t bias = rng.range(0, kModulus - 1);

  Workload w;
  w.name = "sparse8_ckpt";
  w.program = fill(kSparseProgram, {{"N", kCells},
                                    {"STEPS", kSteps},
                                    {"TOUCHES", kTouches},
                                    {"SPIN", 200'000},  // 10 ms at 50 ns a step
                                    {"MUL", mul},
                                    {"RANKMUL", rank_mul},
                                    {"BIAS", bias},
                                    {"P", kModulus}});
  w.options =
      pinned_options(kRanks + 2, ckpt::CkptBackend::kDisk, ckpt::CompressMode::kDeltaLz, seed);
  w.job = stop_and_sync_job("sparse", kRanks, sim::milliseconds(50));
  w.crashes.push_back(draw_crash(rng, sim::milliseconds(200), 4));
  w.crashes.push_back(draw_crash(rng, sim::milliseconds(200), 4));

  int64_t total = 0;
  for (uint32_t r = 0; r < kRanks; ++r) {
    std::vector<int64_t> c = seeded_cells(kCells, r, mul, rank_mul, bias);
    for (int64_t s = 0; s < kSteps; ++s) {
      for (int64_t k = 0; k < kTouches; ++k) {
        const auto i = static_cast<size_t>((s * 7919 + k * 32771 + r * 104729) % kCells);
        c[i] = (c[i] + s + k + 1) % kModulus;
      }
    }
    total += checksum(c);
  }
  w.expected_output = num(total);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, uint64_t seed) {
  if (name == "ring64_control") return ring64_control(seed);
  if (name == "stencil16_vm") return stencil16_vm(seed);
  if (name == "sparse8_ckpt") return sparse8_ckpt(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
