#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/image.hpp"
#include "ckpt/incremental.hpp"
#include "json_out.hpp"
#include "util/codec/lz.hpp"
#include "vm/interp.hpp"

namespace perfbench {
namespace {

namespace sim = starfish::sim;
namespace vm = starfish::vm;
namespace ckpt = starfish::ckpt;
namespace util = starfish::util;

using Clock = std::chrono::steady_clock;

/// Rank whose payloads are captured (rank 0 also prints; rank 1 is a plain
/// worker in every workload).
constexpr uint32_t kCaptureRank = 1;
constexpr size_t kMaxSnapshots = 24;
/// Timed passes over the captured payloads; the median pass is reported.
constexpr int kCodecPasses = 3;

uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double ns_per_mb(uint64_t ns, uint64_t bytes) {
  return bytes == 0 ? 0.0 : static_cast<double>(ns) / (static_cast<double>(bytes) / 1e6);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Services a syscall without a cluster: MPI calls return immediately
/// (receives yield 0, allreduce returns the local operand) and time-charging
/// calls advance the replay's virtual clock `vt` instead of an engine.
void service_stub(vm::Interpreter& interp, vm::Syscall call, uint32_t rank, uint32_t size,
                  sim::Duration step_cost, sim::Duration& vt) {
  using vm::Syscall;
  switch (call) {
    case Syscall::kPrint:
      (void)interp.pop_value();
      break;
    case Syscall::kRank:
      interp.push_value(vm::Value::integer(rank));
      break;
    case Syscall::kWorldSize:
      interp.push_value(vm::Value::integer(size));
      break;
    case Syscall::kSendTo:
      (void)interp.pop_value();
      (void)interp.pop_value();
      break;
    case Syscall::kRecvFrom:
      (void)interp.pop_value();
      interp.push_value(vm::Value::integer(0));
      break;
    case Syscall::kCheckpoint:
      interp.push_value(vm::Value::unit());
      break;
    case Syscall::kSleepMs:
      vt += sim::milliseconds(std::max<int64_t>(0, interp.pop_value().i));
      break;
    case Syscall::kSpin:
      vt += step_cost * std::max<int64_t>(0, interp.pop_value().i);
      break;
    case Syscall::kBarrier:
      break;
    case Syscall::kAllreduceSum:
      break;  // the operand stays on the stack as the "sum"
  }
  interp.complete_syscall();
}

struct RankReplay {
  uint64_t instructions = 0;
  uint64_t interp_ns = 0;  ///< time inside Interpreter::run and the stub
  sim::Duration vt = 0;    ///< modeled CPU time: steps * step cost + spins
  std::vector<util::Bytes> payloads;
  uint64_t image_encode_ns = 0;
  uint64_t image_decode_ns = 0;
  uint64_t image_bytes = 0;
  bool ok = true;
};

/// Runs one rank to halt in slices of the cluster's VM slice length. When
/// `cadence` > 0, the state is captured (and its image round trip timed)
/// each time the modeled CPU clock crosses a multiple of `cadence`, plus
/// once at halt, up to kMaxSnapshots payloads.
RankReplay replay_rank(const vm::Program& program, const Workload& w, uint32_t rank,
                       sim::Duration cadence) {
  const auto& popts = w.options.process;
  const sim::Machine machine = sim::default_machine();
  vm::Interpreter interp(program, machine);
  RankReplay out;
  sim::Duration next_capture = cadence;

  auto capture = [&] {
    if (out.payloads.size() >= kMaxSnapshots) return;
    const Clock::time_point a = Clock::now();
    ckpt::Image image = ckpt::portable_encode(machine, interp.state());
    const Clock::time_point b = Clock::now();
    auto decoded = ckpt::portable_decode(image, machine);
    const Clock::time_point c = Clock::now();
    out.image_encode_ns += ns_between(a, b);
    out.image_decode_ns += ns_between(b, c);
    out.image_bytes += image.payload.size();
    if (!decoded.ok() || decoded.value().steps_executed != interp.state().steps_executed) {
      out.ok = false;
    }
    out.payloads.push_back(std::move(image.payload));
  };

  interp.start("main");
  for (;;) {
    const Clock::time_point a = Clock::now();
    const uint64_t before = interp.state().steps_executed;
    const vm::RunResult r = interp.run(popts.vm_slice);
    out.vt += popts.vm_step_cost *
              static_cast<sim::Duration>(interp.state().steps_executed - before);
    if (r.status == vm::RunStatus::kSyscall) {
      service_stub(interp, r.syscall, rank, w.job.nprocs, popts.vm_step_cost, out.vt);
    }
    out.interp_ns += ns_between(a, Clock::now());
    if (r.status == vm::RunStatus::kTrap) throw std::runtime_error("replay trap: " + r.trap);
    if (r.status == vm::RunStatus::kHalted) break;
    if (cadence > 0 && out.vt >= next_capture) {
      capture();
      while (next_capture <= out.vt) next_capture += cadence;
    }
  }
  if (cadence > 0) capture();
  out.instructions = interp.state().steps_executed;
  return out;
}

}  // namespace

std::string replay_json(const Workload& w) {
  auto assembled = vm::assemble(w.program);
  if (!assembled.ok()) throw std::runtime_error("replay: program does not assemble");
  const vm::Program program = std::move(assembled).take();

  // Interpreter cost: every rank once, no captures.
  uint64_t instructions = 0, interp_ns = 0;
  sim::Duration rank_vt = 0;
  for (uint32_t r = 0; r < w.job.nprocs; ++r) {
    if (r == kCaptureRank) continue;
    const RankReplay rr = replay_rank(program, w, r, 0);
    instructions += rr.instructions;
    interp_ns += rr.interp_ns;
    rank_vt = rr.vt;
  }
  // Every rank runs the same loop, so any other rank's modeled CPU time
  // spreads the captures evenly over the capture rank's run.
  const RankReplay cap =
      replay_rank(program, w, kCaptureRank,
                  std::max<sim::Duration>(1, rank_vt / static_cast<sim::Duration>(kMaxSnapshots)));
  instructions += cap.instructions;
  interp_ns += cap.interp_ns;
  bool ok = cap.ok;

  // Dirty share between successive payloads, in checkpoint pages.
  uint64_t pages = 0, dirty = 0;
  for (size_t i = 1; i < cap.payloads.size(); ++i) {
    const util::Bytes& cur = cap.payloads[i];
    const util::Bytes& prev = cap.payloads[i - 1];
    for (size_t off = 0; off < cur.size(); off += ckpt::kPageBytes) {
      const size_t len = std::min(ckpt::kPageBytes, cur.size() - off);
      ++pages;
      if (off + len > prev.size() || std::memcmp(cur.data() + off, prev.data() + off, len) != 0) {
        ++dirty;
      }
    }
  }

  // Payload codec and LZ on the successive payloads, coded as the store
  // codes them: snapshot i is epoch i+1, full epochs (ckpt::is_full_epoch)
  // have no base, every other epoch is diffed against its predecessor. A
  // workload that stores raw payloads still reports what delta+lz would
  // cost on them. LZ is timed on the bytes it sees inside the codec: the
  // delta frame for a based delta+lz epoch, the raw payload otherwise.
  const ckpt::CompressMode stored = w.options.ckpt_compress.value_or(ckpt::CompressMode::kOff);
  const ckpt::CompressMode mode =
      stored == ckpt::CompressMode::kOff ? ckpt::CompressMode::kDeltaLz : stored;
  const bool chained = mode == ckpt::CompressMode::kDelta || mode == ckpt::CompressMode::kDeltaLz;
  std::vector<double> enc_pass, dec_pass, lz_pass, delta_pass;
  uint64_t raw_bytes = 0, coded_bytes = 0;
  for (int pass = 0; pass < kCodecPasses; ++pass) {
    uint64_t enc_ns = 0, dec_ns = 0, lz_ns = 0, lz_bytes = 0, bytes = 0, coded = 0;
    uint64_t delta_ns = 0, delta_bytes = 0;
    for (size_t i = 0; i < cap.payloads.size(); ++i) {
      const util::Bytes& payload = cap.payloads[i];
      const util::BytesView raw = util::as_bytes_view(payload);
      const bool based = chained && i > 0 && !ckpt::is_full_epoch(i + 1);
      const util::BytesView base =
          based ? util::as_bytes_view(cap.payloads[i - 1]) : util::BytesView{};
      const Clock::time_point a = Clock::now();
      ckpt::EncodedPayload enc = ckpt::encode_payload(mode, raw, base, nullptr);
      const Clock::time_point b = Clock::now();
      auto dec = ckpt::decode_payload(enc.codec, util::as_bytes_view(enc.bytes), base,
                                      ckpt::kMaxIncrementalStateBytes, nullptr);
      const Clock::time_point c = Clock::now();
      // The delta pass alone, whose output is what LZ compresses next.
      util::Bytes delta;
      if (based) delta = ckpt::encode_payload(ckpt::CompressMode::kDelta, raw, base, nullptr).bytes;
      const Clock::time_point d = Clock::now();
      const util::Bytes& lz_input =
          based && mode == ckpt::CompressMode::kDeltaLz ? delta : payload;
      const util::Bytes frame = util::codec::lz_compress(util::as_bytes_view(lz_input));
      const Clock::time_point e = Clock::now();
      auto unlz = util::codec::lz_decompress(util::as_bytes_view(frame), lz_input.size());
      if (!dec.ok() || dec.value() != payload) ok = false;
      if (!unlz.ok() || unlz.value() != lz_input) ok = false;

      if (based) {
        delta_ns += ns_between(c, d);
        delta_bytes += raw.size();
      }
      enc_ns += ns_between(a, b);
      dec_ns += ns_between(b, c);
      lz_ns += ns_between(d, e);
      lz_bytes += lz_input.size();
      bytes += raw.size();
      coded += enc.bytes.size();
    }
    enc_pass.push_back(ns_per_mb(enc_ns, bytes));
    dec_pass.push_back(ns_per_mb(dec_ns, bytes));
    lz_pass.push_back(ns_per_mb(lz_ns, lz_bytes));
    delta_pass.push_back(ns_per_mb(delta_ns, delta_bytes));
    raw_bytes = bytes;
    coded_bytes = coded;
  }

  JsonObject out;
  out.flag("ok", ok)
      .num("instructions", instructions)
      .num("interp_ns", interp_ns)
      .num("vm_ns_per_instr", instructions == 0 ? 0.0
                                                : static_cast<double>(interp_ns) /
                                                      static_cast<double>(instructions))
      .num("snapshots", static_cast<uint64_t>(cap.payloads.size()))
      .num("payload_bytes", raw_bytes)
      .num("coded_bytes", coded_bytes)
      .str("codec_mode", ckpt::compress_mode_name(mode))
      .str("stored_mode", ckpt::compress_mode_name(stored))
      .num("pages_dirty_ratio",
           pages == 0 ? 0.0 : static_cast<double>(dirty) / static_cast<double>(pages))
      .num("image_encode_ns_per_mb", ns_per_mb(cap.image_encode_ns, cap.image_bytes))
      .num("image_decode_ns_per_mb", ns_per_mb(cap.image_decode_ns, cap.image_bytes))
      .num("codec_encode_ns_per_mb", median(enc_pass))
      .num("codec_decode_ns_per_mb", median(dec_pass))
      .num("lz_compress_ns_per_mb", median(lz_pass))
      .num("delta_encode_ns_per_mb", median(delta_pass));
  return out.text();
}

}  // namespace perfbench
