#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/image.hpp"
#include "ckpt/incremental.hpp"
#include "ckpt/recovery.hpp"
#include "util/rng.hpp"
#include "ckpt/store.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/codec/lz.hpp"
#include "util/simd/simd.hpp"
#include "vm/bytecode.hpp"
#include "vm/interp.hpp"

namespace starfish::ckpt {
namespace {

using sim::Machine;
using sim::microseconds;
using sim::milliseconds;
using sim::seconds;
using vm::Value;

/// Builds a VM state with varied content to exercise every codec branch.
vm::VmState sample_state() {
  vm::VmState s;
  s.globals = {Value::integer(42), Value::real(3.25), Value::boolean(true), Value::unit(),
               Value::reference(1)};
  s.stack = {Value::integer(-7), Value::reference(0)};
  vm::Frame f;
  f.function = 2;
  f.pc = 17;
  f.locals = {Value::integer(1000000), Value::real(-0.5)};
  s.frames.push_back(f);
  vm::HeapObject arr;
  arr.kind = vm::HeapObject::Kind::kArray;
  for (int64_t k = 1; k <= 3; ++k) arr.push_back(Value::integer(k));
  s.heap.push_back(arr);
  vm::HeapObject bytes;
  bytes.kind = vm::HeapObject::Kind::kBytes;
  bytes.bytes = util::Bytes(64, std::byte{0xab});
  s.heap.push_back(bytes);
  s.steps_executed = 123456;
  return s;
}

// ------------------------------------------------------------- images ----

TEST(PortableImage, RoundtripSameMachine) {
  const Machine& m = sim::default_machine();
  auto img = portable_encode(m, sample_state());
  EXPECT_EQ(img.kind, ImageKind::kPortable);
  auto back = portable_decode(img, m);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), sample_state());
}

TEST(PortableImage, FileSizeIncludesVmBase) {
  auto img = portable_encode(sim::default_machine(), vm::VmState{});
  // An empty program's checkpoint is the 260 KB base of Figure 4 (plus a few
  // header bytes).
  EXPECT_GE(img.file_bytes, kPortableBaseBytes);
  EXPECT_LT(img.file_bytes, kPortableBaseBytes + 256);
}

// Table 2 matrix: checkpoint under each machine type, restore under each.
class Table2Matrix : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Table2Matrix, HeterogeneousRestorePreservesState) {
  auto machines = sim::table2_machines();
  const Machine& saver = machines[static_cast<size_t>(std::get<0>(GetParam()))];
  const Machine& target = machines[static_cast<size_t>(std::get<1>(GetParam()))];

  vm::VmState state = sample_state();
  auto img = portable_encode(saver, state);
  EXPECT_EQ(img.repr_code, saver.repr_code());
  auto back = portable_decode(img, target);
  ASSERT_TRUE(back.ok()) << saver.label() << " -> " << target.label() << ": "
                         << back.error().to_string();
  EXPECT_EQ(back.value(), state) << saver.label() << " -> " << target.label();
}

INSTANTIATE_TEST_SUITE_P(AllPairs, Table2Matrix,
                         ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 6)));

TEST(PortableImage, NarrowingOverflowIsCheckedError) {
  auto machines = sim::table2_machines();
  const Machine& alpha = machines[5];  // 64-bit
  const Machine& i686 = machines[0];   // 32-bit
  vm::VmState s;
  s.globals = {Value::integer(1ll << 40)};  // does not fit 32 bits
  auto img = portable_encode(alpha, s);
  auto back = portable_decode(img, i686);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, "narrow");
  // The same value restores fine onto another 64-bit machine.
  auto ok = portable_decode(img, alpha);
  EXPECT_TRUE(ok.ok());
}

TEST(PortableImage, WideningRestoreIsExact) {
  auto machines = sim::table2_machines();
  vm::VmState s;
  s.globals = {Value::integer(INT32_MIN), Value::integer(INT32_MAX)};
  auto img = portable_encode(machines[1], s);  // big-endian 32-bit Sun
  auto back = portable_decode(img, machines[5]);  // little-endian 64-bit Alpha
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().globals[0], Value::integer(INT32_MIN));
  EXPECT_EQ(back.value().globals[1], Value::integer(INT32_MAX));
}

TEST(PortableImage, CorruptPayloadFailsGracefully) {
  auto img = portable_encode(sim::default_machine(), sample_state());
  img.payload.resize(img.payload.size() / 2);  // truncate
  EXPECT_FALSE(portable_decode(img, sim::default_machine()).ok());
  img.payload.clear();
  EXPECT_FALSE(portable_decode(img, sim::default_machine()).ok());
}

TEST(NativeImage, RoundtripSameRepresentation) {
  const Machine& m = sim::default_machine();
  util::Bytes memory(1000, std::byte{0x3c});
  auto img = native_encode(m, util::as_bytes_view(memory));
  EXPECT_EQ(img.file_bytes, kNativeBaseBytes + 1000);
  auto back = native_decode(img, m);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), memory);
}

TEST(NativeImage, CrossRepresentationRefused) {
  auto machines = sim::table2_machines();
  util::Bytes memory(100, std::byte{1});
  auto img = native_encode(machines[0], util::as_bytes_view(memory));  // i686 Linux
  // Same representation, different OS label: allowed (repr is what matters).
  EXPECT_TRUE(native_decode(img, machines[4]).ok());  // WinNT P-II, same repr
  // Big-endian or 64-bit targets: refused.
  EXPECT_FALSE(native_decode(img, machines[1]).ok());
  auto err = native_decode(img, machines[5]);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, "repr-mismatch");
}

TEST(Images, VmProgramSurvivesCrossMachineRestore) {
  // End-to-end: run half a program on a big-endian 32-bit machine,
  // checkpoint, restore on a little-endian 64-bit machine, finish there.
  const std::string src = R"(
func main 0 2
  push_int 0
  store_local 0
  push_int 1
  store_local 1
loop:
  load_local 1
  push_int 50
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
  auto prog = vm::assemble(src);
  ASSERT_TRUE(prog.ok());
  auto machines = sim::table2_machines();
  const Machine& sun = machines[1];
  const Machine& alpha = machines[5];

  vm::Interpreter first(prog.value(), sun);
  first.start();
  (void)first.run(120);
  auto img = portable_encode(sun, first.state());

  auto restored = portable_decode(img, alpha);
  ASSERT_TRUE(restored.ok());
  vm::Interpreter second(prog.value(), alpha);
  second.set_state(std::move(restored).take());
  auto r = second.run();
  ASSERT_EQ(r.status, vm::RunStatus::kHalted);
  EXPECT_EQ(second.mutable_state().stack.back(), Value::integer(1275));  // sum 1..50
}

// -------------------------------------------------------------- store ----

struct StoreFixture {
  sim::Engine eng;
  net::Network net{eng};
  CheckpointStore store{eng};
  StoreFixture() {
    net.add_host("node0");
    net.add_host("node1");
  }
};

TEST(Store, PutChargesDiskTimeMatchingFigure3Anchor) {
  StoreFixture f;
  sim::Time done = -1;
  f.eng.spawn("writer", [&] {
    // Empty-program native checkpoint: 632 KB file.
    auto img = native_encode(sim::default_machine(), {});
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, std::move(img));
    done = f.eng.now();
  });
  f.eng.run();
  // Paper: 0.104061 s for the 632 KB single-node native checkpoint.
  EXPECT_NEAR(sim::to_seconds(done), 0.104, 0.01);
}

TEST(Store, PortablePutMatchesFigure4Anchor) {
  StoreFixture f;
  sim::Time done = -1;
  f.eng.spawn("writer", [&] {
    auto img = portable_encode(sim::default_machine(), vm::VmState{});
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, std::move(img));
    done = f.eng.now();
  });
  f.eng.run();
  // Paper: 0.0077 s for the 260 KB single-node VM checkpoint.
  EXPECT_NEAR(sim::to_seconds(done), 0.0077, 0.002);
}

TEST(Store, GetReturnsWhatWasPut) {
  StoreFixture f;
  bool checked = false;
  f.eng.spawn("rt", [&] {
    auto img = portable_encode(sim::default_machine(), sample_state());
    f.store.put(*f.net.host(0), CkptKey{"app", 2, 5}, img);
    // Read back from a *different* node: shared-store semantics.
    auto got = f.store.get(*f.net.host(1), CkptKey{"app", 2, 5});
    ASSERT_TRUE(got.has_value());
    auto state = portable_decode(*got, sim::default_machine());
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state.value(), sample_state());
    checked = true;
  });
  f.eng.run();
  EXPECT_TRUE(checked);
}

TEST(Store, MissingKeyIsEmpty) {
  StoreFixture f;
  bool checked = false;
  f.eng.spawn("rt", [&] {
    EXPECT_FALSE(f.store.get(*f.net.host(0), CkptKey{"nope", 0, 0}).has_value());
    checked = true;
  });
  f.eng.run();
  EXPECT_TRUE(checked);
}

TEST(Store, CommitIsMonotone) {
  StoreFixture f;
  EXPECT_FALSE(f.store.latest_committed("app").has_value());
  f.store.commit("app", 3);
  f.store.commit("app", 1);  // stale commit ignored
  EXPECT_EQ(f.store.latest_committed("app").value(), 3u);
  f.store.commit("app", 7);
  EXPECT_EQ(f.store.latest_committed("app").value(), 7u);
}

TEST(Store, LatestStoredPerRank) {
  StoreFixture f;
  f.eng.spawn("rt", [&] {
    auto img = [&] { return portable_encode(sim::default_machine(), vm::VmState{}); };
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, img());
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 4}, img());
    f.store.put(*f.net.host(0), CkptKey{"app", 1, 2}, img());
  });
  f.eng.run();
  EXPECT_EQ(f.store.latest_stored("app", 0).value(), 4u);
  EXPECT_EQ(f.store.latest_stored("app", 1).value(), 2u);
  EXPECT_FALSE(f.store.latest_stored("app", 9).has_value());
}

TEST(Store, GcDropsOldEpochs) {
  StoreFixture f;
  f.eng.spawn("rt", [&] {
    auto img = [&] { return portable_encode(sim::default_machine(), vm::VmState{}); };
    for (uint64_t e = 1; e <= 4; ++e) {
      f.store.put(*f.net.host(0), CkptKey{"app", 0, e}, img());
      f.store.put(*f.net.host(0), CkptKey{"other", 0, e}, img());
    }
  });
  f.eng.run();
  EXPECT_EQ(f.store.gc("app", 3), 2u);
  EXPECT_FALSE(f.store.contains(CkptKey{"app", 0, 2}));
  EXPECT_TRUE(f.store.contains(CkptKey{"app", 0, 3}));
  EXPECT_TRUE(f.store.contains(CkptKey{"other", 0, 1}));  // other app untouched
}

// -------------------------------------------------------- incremental ----
//
// Page-delta (incremental) checkpointing has one mechanism: the payload
// delta codec (codec.hpp). A delta frame references the pages a payload
// shares with its base and carries only the changed ones.

EncodedPayload delta_of(const util::Bytes& base, const util::Bytes& cur) {
  return encode_payload(CompressMode::kDelta, util::as_bytes_view(cur), util::as_bytes_view(base),
                        nullptr);
}

util::Result<util::Bytes> apply_delta(const util::Bytes& base, const EncodedPayload& enc) {
  return decode_payload(enc.codec, util::as_bytes_view(enc.bytes), util::as_bytes_view(base),
                        kMaxIncrementalStateBytes, nullptr);
}

TEST(Incremental, IdenticalStateProducesEmptyDelta) {
  util::Bytes state(3 * kPageBytes + 100, std::byte{7});
  const EncodedPayload delta = delta_of(state, state);
  ASSERT_EQ(delta.codec, PayloadCodec::kDelta);
  EXPECT_EQ(delta.delta_page_literals, 0u);
  EXPECT_EQ(delta.delta_page_refs, 4u);
  EXPECT_LT(delta.bytes.size(), 64u);  // header only
  auto back = apply_delta(state, delta);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), state);
}

TEST(Incremental, SinglePageChangeEncodesOnePage) {
  util::Bytes prev(10 * kPageBytes, std::byte{1});
  util::Bytes cur = prev;
  cur[5 * kPageBytes + 17] = std::byte{99};
  const EncodedPayload delta = delta_of(prev, cur);
  ASSERT_EQ(delta.codec, PayloadCodec::kDelta);
  EXPECT_EQ(delta.delta_page_literals, 1u);
  EXPECT_LT(delta.bytes.size(), kPageBytes + 64);
  auto back = apply_delta(prev, delta);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), cur);
}

TEST(Incremental, StateGrowthCoveredByDelta) {
  util::Bytes prev(2 * kPageBytes, std::byte{3});
  util::Bytes cur(5 * kPageBytes + 123, std::byte{3});
  cur.back() = std::byte{42};
  const EncodedPayload delta = delta_of(prev, cur);
  ASSERT_EQ(delta.codec, PayloadCodec::kDelta);
  EXPECT_EQ(delta.delta_page_literals, 4u);  // every page past the base's end
  auto back = apply_delta(prev, delta);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), cur);
}

TEST(Incremental, StateShrinkTruncates) {
  util::Bytes prev(5 * kPageBytes, std::byte{3});
  util::Bytes cur(2 * kPageBytes - 7, std::byte{3});
  const EncodedPayload delta = delta_of(prev, cur);
  ASSERT_EQ(delta.codec, PayloadCodec::kDelta);
  auto back = apply_delta(prev, delta);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), cur);
}

TEST(Incremental, UnalignedTailPageHandled) {
  util::Bytes prev(kPageBytes + 5, std::byte{1});
  util::Bytes cur = prev;
  cur[kPageBytes + 2] = std::byte{8};  // in the partial tail page
  const EncodedPayload delta = delta_of(prev, cur);
  ASSERT_EQ(delta.codec, PayloadCodec::kDelta);
  EXPECT_EQ(delta.delta_page_literals, 1u);
  auto back = apply_delta(prev, delta);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), cur);
}

TEST(Incremental, ChainOfDeltasResolves) {
  util::Rng rng(5);
  util::Bytes state(8 * kPageBytes, std::byte{0});
  const util::Bytes base = state;
  std::vector<EncodedPayload> deltas;
  std::vector<util::Bytes> truth;
  for (int step = 0; step < 5; ++step) {
    util::Bytes next = state;
    for (int k = 0; k < 3; ++k) {
      next[rng.below(next.size())] = static_cast<std::byte>(rng.below(256));
    }
    deltas.push_back(delta_of(state, next));
    EXPECT_EQ(deltas.back().codec, PayloadCodec::kDelta);
    truth.push_back(next);
    state = next;
  }
  util::Bytes resolved = base;
  for (size_t i = 0; i < deltas.size(); ++i) {
    auto r = apply_delta(resolved, deltas[i]);
    ASSERT_TRUE(r.ok());
    resolved = std::move(r).take();
    EXPECT_EQ(resolved, truth[i]);
  }
}

TEST(Incremental, CorruptDeltaFailsGracefully) {
  util::Bytes prev(4 * kPageBytes, std::byte{1});
  util::Bytes cur = prev;
  std::fill(cur.begin(), cur.begin() + kPageBytes, std::byte{2});
  EncodedPayload delta = delta_of(prev, cur);
  ASSERT_EQ(delta.codec, PayloadCodec::kDelta);
  delta.bytes.resize(delta.bytes.size() / 2);
  auto back = apply_delta(prev, delta);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, "codec");
}

// Forged frames, one per structural reject of the delta parser. Each
// carries a valid trailing fingerprint, so the checksum cannot catch it
// first: the parser's own bounds must, before any count or size in the
// frame drives an allocation or a copy.

struct ForgedLiteral {
  uint32_t page = 0;
  size_t len = kPageBytes;
};

/// A "SDL1" frame announcing `raw_len` and `n_literals`, pinned to `base`,
/// carrying `literals` (filler bytes) and `trailing` extra zero bytes,
/// sealed with the fingerprint of everything before it.
util::Bytes forge_delta(uint64_t raw_len, const util::Bytes& base, uint32_t n_literals,
                        const std::vector<ForgedLiteral>& literals, size_t trailing = 0) {
  util::Bytes frame;
  util::Writer w(frame);
  w.u32(0x314C4453);  // "SDL1"
  w.u8(1);
  w.u64(raw_len);
  w.u64(base.size());
  w.u64(util::simd::fingerprint(base.data(), base.size()));
  w.u32(n_literals);
  for (const ForgedLiteral& lit : literals) {
    w.u32(lit.page);
    w.bytes(util::as_bytes_view(util::Bytes(lit.len, std::byte{9})));
  }
  for (size_t i = 0; i < trailing; ++i) w.u8(0);
  w.u64(util::simd::fingerprint(frame.data(), frame.size()));
  return frame;
}

/// The frame is refused with Error{"codec"} by decode_payload under
/// `max_bytes` and, when that is verify_payload's own bound, by
/// verify_payload too; bare and wrapped in lz.
void expect_fails_closed(const util::Bytes& frame, const util::Bytes& base,
                         uint64_t max_bytes = kMaxIncrementalStateBytes) {
  const util::Bytes wrapped = util::codec::lz_compress(util::as_bytes_view(frame));
  for (const auto& [codec, bytes] : {std::pair{PayloadCodec::kDelta, &frame},
                                     std::pair{PayloadCodec::kDeltaLz, &wrapped}}) {
    const util::Status verified = verify_payload(codec, util::as_bytes_view(*bytes));
    if (max_bytes == kMaxIncrementalStateBytes) {
      ASSERT_FALSE(verified.ok()) << static_cast<int>(codec);
      EXPECT_EQ(verified.error().code, "codec");
    }
    auto decoded = decode_payload(codec, util::as_bytes_view(*bytes), util::as_bytes_view(base),
                                  max_bytes, nullptr);
    ASSERT_FALSE(decoded.ok()) << static_cast<int>(codec);
    EXPECT_EQ(decoded.error().code, "codec");
  }
}

TEST(Incremental, ApplyRejectsOversizedTotalBeforeAllocating) {
  // 2^44 bytes announced with 2^32-1 literals and none carried: a 41-byte
  // frame that must not reach an allocation sized from either count.
  const util::Bytes forged = forge_delta(1ull << 44, {}, 0xFFFFFFFFu, {});
  EXPECT_EQ(forged.size(), 41u);
  expect_fails_closed(forged, {});
  expect_fails_closed(forged, {}, 1024 * 1024);
  // A well-formed frame over the caller's tighter bound: verify (which
  // holds sizes to kMaxIncrementalStateBytes) passes, decode refuses.
  const util::Bytes base(4 * kPageBytes, std::byte{1});
  const util::Bytes frame = forge_delta(4 * kPageBytes, base, 1, {{3}});
  EXPECT_TRUE(verify_payload(PayloadCodec::kDelta, util::as_bytes_view(frame)).ok());
  expect_fails_closed(frame, base, 2 * kPageBytes);
  EXPECT_TRUE(decode_payload(PayloadCodec::kDelta, util::as_bytes_view(frame),
                             util::as_bytes_view(base), 4 * kPageBytes, nullptr)
                  .ok());
}

TEST(Incremental, ApplyRejectsMorePagesThanStateHolds) {
  const util::Bytes base(kPageBytes, std::byte{1});
  // One page of payload, three literals announced.
  expect_fails_closed(forge_delta(kPageBytes, base, 3, {}), base);
  // Within the page count, but more literals than the frame's bytes could
  // hold: refused before the literal list is sized from the count.
  const util::Bytes base256(256 * kPageBytes, std::byte{1});
  const util::Bytes frame = forge_delta(256 * kPageBytes, base256, 200, {});
  expect_fails_closed(frame, base256);
  const util::Status verified = verify_payload(PayloadCodec::kDelta, util::as_bytes_view(frame));
  ASSERT_FALSE(verified.ok());
  EXPECT_NE(verified.error().message.find("more literals than the frame holds"), std::string::npos)
      << verified.error().message;
}

TEST(Incremental, ApplyRejectsOutOfRangePageIndex) {
  const util::Bytes base(kPageBytes, std::byte{1});
  expect_fails_closed(forge_delta(kPageBytes, base, 1, {{5, kPageBytes}}), base);
}

TEST(Incremental, ApplyRejectsDuplicatePage) {
  const util::Bytes base(3 * kPageBytes, std::byte{1});
  expect_fails_closed(forge_delta(3 * kPageBytes, base, 2, {{0}, {0}}), base);  // repeated
  expect_fails_closed(forge_delta(3 * kPageBytes, base, 2, {{2}, {1}}), base);  // decreasing
}

TEST(Incremental, ApplyRejectsWrongPageLength) {
  const util::Bytes base(2 * kPageBytes, std::byte{1});
  expect_fails_closed(forge_delta(2 * kPageBytes, base, 1, {{0, 7}}), base);  // not a full page
  // The tail page of a 5-byte-overhanging payload must be exactly 5 bytes.
  const util::Bytes tail_base(kPageBytes + 5, std::byte{1});
  expect_fails_closed(forge_delta(kPageBytes + 5, tail_base, 1, {{1, kPageBytes}}), tail_base);
}

TEST(Incremental, ApplyRejectsTrailingBytes) {
  const util::Bytes base(2 * kPageBytes, std::byte{1});
  expect_fails_closed(forge_delta(2 * kPageBytes, base, 1, {{1}}, 3), base);
}

TEST(Incremental, ApplyRejectsReferenceBeyondBase) {
  // Page 1 is not carried, so it references the base, which ends at page 0.
  const util::Bytes base(kPageBytes, std::byte{1});
  expect_fails_closed(forge_delta(3 * kPageBytes, base, 1, {{2}}), base);
}

// ----------------------------------------------------------- recovery ----

TEST(Recovery, NoMessagesNoRollback) {
  std::map<uint32_t, uint32_t> latest = {{0, 3}, {1, 2}};
  auto line = compute_recovery_line({}, latest);
  EXPECT_EQ(line, latest);
  EXPECT_EQ(rollback_distance(line, latest), 0u);
}

TEST(Recovery, OrphanForcesReceiverBack) {
  // p1's checkpoint 2 depends on a message p0 sent in interval 2, but p0's
  // newest checkpoint is 2 (send in interval 2 happens after checkpoint 2 is
  // taken? no: interval 2 follows checkpoint 2) — dep (0,2) with line(0)=2
  // means orphan, p1 must fall back to checkpoint 1.
  std::vector<CheckpointMeta> metas = {
      {1, 2, {{0, 2}}, {}},
      {1, 1, {}, {}},
  };
  std::map<uint32_t, uint32_t> latest = {{0, 2}, {1, 2}};
  auto line = compute_recovery_line(metas, latest);
  EXPECT_EQ(line[0], 2u);
  EXPECT_EQ(line[1], 1u);
  EXPECT_EQ(rollback_distance(line, latest), 1u);
}

TEST(Recovery, SatisfiedDependencyNeedsNoRollback) {
  // Message sent in p0's interval 1 and p0 restores at checkpoint 2 (> 1):
  // the send is retained, no orphan.
  std::vector<CheckpointMeta> metas = {{1, 2, {{0, 1}}, {}}};
  std::map<uint32_t, uint32_t> latest = {{0, 2}, {1, 2}};
  auto line = compute_recovery_line(metas, latest);
  EXPECT_EQ(line[0], 2u);
  EXPECT_EQ(line[1], 2u);
}

TEST(Recovery, CascadeAcrossThreeProcesses) {
  // p2 depends on p1's interval 2; rolling p1 to 2 is fine, but p1's
  // checkpoint 2 depends on p0's interval 1 while p0 only saved checkpoint 1
  // => p1 falls to 1 => p2's dep (1,2) becomes orphan => p2 falls too.
  std::vector<CheckpointMeta> metas = {
      {2, 3, {{1, 2}}, {}}, {2, 2, {{1, 1}}, {}}, {2, 1, {}, {}},
      {1, 2, {{0, 1}}, {}}, {1, 1, {{0, 0}}, {}},
  };
  std::map<uint32_t, uint32_t> latest = {{0, 1}, {1, 2}, {2, 3}};
  auto line = compute_recovery_line(metas, latest);
  EXPECT_EQ(line[0], 1u);
  EXPECT_EQ(line[1], 1u);  // dep (0,1) >= line(0)=1 -> orphan -> fell to 1
  EXPECT_EQ(line[2], 1u);  // cascade: deps (1,2) then (1,1) orphaned
  EXPECT_EQ(rollback_distance(line, latest), 3u);
}

TEST(Recovery, DominoEffectToInitialState) {
  // Tight ping-pong: every checkpoint of each process depends on the other's
  // immediately preceding interval; losing the last checkpoint unravels all
  // the way to the initial state.
  std::vector<CheckpointMeta> metas;
  for (uint32_t c = 1; c <= 4; ++c) {
    metas.push_back({0, c, {{1, c - 1}, {1, c}}, {}});
    metas.push_back({1, c, {{0, c - 1}, {0, c}}, {}});
  }
  // Process 1 failed and its checkpoint 4 is unusable: latest saved is 3.
  std::map<uint32_t, uint32_t> latest = {{0, 4}, {1, 3}};
  auto line = compute_recovery_line(metas, latest);
  EXPECT_EQ(line[0], 0u);
  EXPECT_EQ(line[1], 0u);
}

TEST(Recovery, LostMessageRollsSenderBack) {
  // Distilled from the chaos sweep: a ring where rank 2 died before its
  // first checkpoint. Rank 1's checkpoints remember sending the round-1
  // token to rank 2, but rank 2 restarts from its initial state — the token
  // is lost, so rank 1 (and transitively rank 0) must roll back past the
  // send or the restored ring deadlocks. The orphan rule alone never fires
  // here (rank 2 stored no receives at all).
  std::vector<CheckpointMeta> metas = {
      {0, 1, {}, {{1, 1}}},       // rank 0 sent the token to rank 1...
      {1, 1, {{0, 0}}, {{2, 1}}}, // ...rank 1 consumed it and relayed to 2
  };
  std::map<uint32_t, uint32_t> latest = {{0, 1}, {1, 1}, {2, 0}, {3, 0}};
  auto line = compute_recovery_line(metas, latest);
  EXPECT_EQ(line[1], 0u);  // lost send to rank 2 undone
  EXPECT_EQ(line[0], 0u);  // cascades: its send to rank 1 is now lost too
  EXPECT_EQ(line[2], 0u);
}

TEST(Recovery, SatisfiedSendCountsNeedNoRollback) {
  // Every message rank 0's checkpoint remembers sending is matched by a
  // consumed receive in rank 1's checkpoint: nothing is lost, the latest
  // checkpoints stand.
  std::vector<CheckpointMeta> metas = {
      {0, 1, {}, {{1, 2}}},
      {1, 1, {{0, 0}, {0, 0}}, {}},
  };
  std::map<uint32_t, uint32_t> latest = {{0, 1}, {1, 1}};
  auto line = compute_recovery_line(metas, latest);
  EXPECT_EQ(line[0], 1u);
  EXPECT_EQ(line[1], 1u);
}

TEST(Recovery, LostMessageResolvedByEarlierSenderCheckpoint) {
  // The sender's newest checkpoint over-sends but its previous one does
  // not: the line backs the sender up exactly one step, not to zero.
  std::vector<CheckpointMeta> metas = {
      {0, 2, {}, {{1, 2}}},
      {0, 1, {}, {{1, 1}}},
      {1, 1, {{0, 0}}, {}},
  };
  std::map<uint32_t, uint32_t> latest = {{0, 2}, {1, 1}};
  auto line = compute_recovery_line(metas, latest);
  EXPECT_EQ(line[0], 1u);
  EXPECT_EQ(line[1], 1u);
}

TEST(Recovery, TrackerPiggybackAndCut) {
  DependencyTracker t(3);
  EXPECT_EQ(t.on_send(), (IntervalId{3, 0}));
  t.on_recv({1, 0});
  auto [idx1, deps1] = t.cut_checkpoint();
  EXPECT_EQ(idx1, 1u);
  ASSERT_EQ(deps1.size(), 1u);
  EXPECT_EQ(deps1[0], (IntervalId{1, 0}));
  EXPECT_EQ(t.on_send(), (IntervalId{3, 1}));
  t.on_recv({2, 5});
  auto [idx2, deps2] = t.cut_checkpoint();
  EXPECT_EQ(idx2, 2u);
  EXPECT_EQ(deps2.size(), 2u);  // cumulative
}

TEST(Recovery, TrackerEncodeDecodeRoundtrip) {
  DependencyTracker t(7);
  t.on_recv({1, 2});
  t.on_recv({3, 4});
  (void)t.cut_checkpoint();
  auto decoded = DependencyTracker::decode(t.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rank(), 7u);
  EXPECT_EQ(decoded.value().current_interval(), 1u);
  EXPECT_EQ(decoded.value().encode(), t.encode());
}

// Regression: decode used to trust the announced dependency count and fill
// truncated reads with value_or(0), silently fabricating an empty (or
// zeroed) dependency set from a corrupt buffer. A dependency set invented
// this way would unconstrain the recovery line. Now every truncation
// surfaces as an error.
TEST(Recovery, TrackerDecodeRejectsTruncatedBuffer) {
  DependencyTracker t(3);
  t.on_recv({1, 5});
  t.on_recv({2, 6});
  (void)t.cut_checkpoint();
  const util::Bytes full = t.encode();

  // Every strict prefix must fail, not decode to a tracker missing deps.
  for (size_t len = 0; len < full.size(); ++len) {
    util::Bytes cut(full.begin(), full.begin() + static_cast<long>(len));
    auto r = DependencyTracker::decode(cut);
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
  EXPECT_TRUE(DependencyTracker::decode(full).ok());
}

// Regression: an over-announced count (header claims more entries than the
// buffer holds) must be rejected up front rather than half-read.
TEST(Recovery, TrackerDecodeRejectsOverAnnouncedCount) {
  util::Bytes buf;
  util::Writer w(buf);
  w.u32(1);           // rank
  w.u32(1);           // interval
  w.u32(0xffffffff);  // announced entries: nowhere near present
  w.u32(9);           // one lonely half-entry
  auto r = DependencyTracker::decode(buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "decode");
}

// Trailing garbage after a well-formed tracker is corruption too.
TEST(Recovery, TrackerDecodeRejectsTrailingBytes) {
  DependencyTracker t(1);
  (void)t.cut_checkpoint();
  util::Bytes buf = t.encode();
  buf.push_back(std::byte{0xab});
  EXPECT_FALSE(DependencyTracker::decode(buf).ok());
}

TEST(Recovery, TrackerSendCountsRoundtrip) {
  DependencyTracker t(2);
  t.note_send(0);
  t.note_send(1);
  t.note_send(1);
  t.on_recv({0, 0});
  (void)t.cut_checkpoint();
  auto decoded = DependencyTracker::decode(t.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rank(), 2u);
  EXPECT_EQ(decoded.value().sent(), (std::map<uint32_t, uint32_t>{{0, 1}, {1, 2}}));
  EXPECT_EQ(decoded.value().received(), t.received());
  EXPECT_EQ(decoded.value().encode(), t.encode());
}

// With sends recorded the layout flag commits the blob to carrying the
// send-count section: truncating it anywhere — including cleanly dropping
// the whole section — must fail instead of decoding to "sent nothing"
// (which would erase lost-message constraints and under-roll the line).
TEST(Recovery, TrackerDecodeRejectsTruncatedSendSection) {
  DependencyTracker t(2);
  t.note_send(0);
  t.on_recv({1, 3});
  (void)t.cut_checkpoint();
  const util::Bytes full = t.encode();
  for (size_t len = 0; len < full.size(); ++len) {
    util::Bytes cut(full.begin(), full.begin() + static_cast<long>(len));
    EXPECT_FALSE(DependencyTracker::decode(cut).ok()) << "prefix of " << len << " bytes decoded";
  }
  EXPECT_TRUE(DependencyTracker::decode(full).ok());
}

// A blob without the layout flag (e.g. written before send tracking, or by
// a tracker that never sent) still decodes, with an empty send ledger.
TEST(Recovery, TrackerDecodeAcceptsLegacyLayoutWithoutSends) {
  util::Bytes buf;
  util::Writer w(buf);
  w.u32(4);  // rank, flag bit clear
  w.u32(2);  // interval
  w.u32(1);  // one dependency
  w.u32(0);
  w.u32(1);
  auto r = DependencyTracker::decode(buf);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().sent().empty());
  ASSERT_EQ(r.value().received().size(), 1u);
}

// The send-count section's announced length is validated like the
// dependency count: an over-announcing header is rejected up front.
TEST(Recovery, TrackerDecodeRejectsOverAnnouncedSendCount) {
  DependencyTracker t(1);
  t.note_send(0);
  util::Bytes buf = t.encode();
  // Patch the send-section count (last 12 bytes: count, peer, count).
  buf[buf.size() - 12] = std::byte{0xff};
  buf[buf.size() - 11] = std::byte{0xff};
  auto r = DependencyTracker::decode(buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "decode");
}

// ---- recovery-line property test -----------------------------------------
//
// Consistent cuts are closed under componentwise max: if cuts A and B are
// both consistent, so is max(A, B) (every dependency satisfied in A or B is
// still satisfied when every component only grows). The set of consistent
// cuts therefore has a unique maximum — and compute_recovery_line must find
// exactly it. On small random instances we can brute-force that maximum by
// enumerating every cut and compare.

bool cut_consistent(const std::map<std::pair<uint32_t, uint32_t>, std::vector<IntervalId>>& deps,
                    const std::map<uint32_t, uint32_t>& cut) {
  for (const auto& [rank, index] : cut) {
    auto it = deps.find({rank, index});
    if (it == deps.end()) continue;  // index 0 or no recorded deps
    for (const auto& d : it->second) {
      auto peer = cut.find(d.rank);
      if (peer == cut.end()) continue;
      if (d.interval >= peer->second) return false;  // orphan receive
    }
  }
  return true;
}

TEST(Recovery, LineIsConsistentAndMaximalOnRandomGraphs) {
  util::Rng rng(0x11e7);  // fixed seed: deterministic corpus
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t procs = 2 + static_cast<uint32_t>(rng.below(3));  // 2..4
    std::map<uint32_t, uint32_t> latest;
    std::vector<CheckpointMeta> metas;
    std::map<std::pair<uint32_t, uint32_t>, std::vector<IntervalId>> deps;
    for (uint32_t p = 0; p < procs; ++p) {
      latest[p] = static_cast<uint32_t>(rng.below(4));  // 0..3 checkpoints
      for (uint32_t c = 1; c <= latest[p]; ++c) {
        CheckpointMeta m;
        m.rank = p;
        m.index = c;
        const uint32_t ndeps = static_cast<uint32_t>(rng.below(4));
        for (uint32_t d = 0; d < ndeps; ++d) {
          uint32_t q = static_cast<uint32_t>(rng.below(procs));
          if (q == p) continue;
          m.depends_on.push_back(
              IntervalId{q, static_cast<uint32_t>(rng.below(4))});
        }
        // Dependency sets are cumulative in the tracker: checkpoint c sees
        // everything c-1 saw.
        auto prev = deps.find({p, c - 1});
        if (prev != deps.end()) {
          m.depends_on.insert(m.depends_on.end(), prev->second.begin(), prev->second.end());
        }
        deps[{p, c}] = m.depends_on;
        metas.push_back(std::move(m));
      }
    }

    const auto line = compute_recovery_line(metas, latest);

    // Brute-force the componentwise-max (join) of all consistent cuts.
    std::map<uint32_t, uint32_t> best;  // join accumulator
    for (uint32_t p = 0; p < procs; ++p) best[p] = 0;
    std::map<uint32_t, uint32_t> cut = best;
    for (;;) {
      if (cut_consistent(deps, cut)) {
        for (auto& [p, c] : best) c = std::max(c, cut[p]);
      }
      // Odometer increment over 0..latest[p] per rank.
      uint32_t p = 0;
      for (; p < procs; ++p) {
        if (cut[p] < latest[p]) {
          ++cut[p];
          for (uint32_t q = 0; q < p; ++q) cut[q] = 0;
          break;
        }
      }
      if (p == procs) break;
    }

    ASSERT_TRUE(cut_consistent(deps, line)) << "trial " << trial;
    EXPECT_EQ(line, best) << "trial " << trial;  // the unique maximum cut
  }
}

// Full consistency (orphans AND lost messages) against a set of metas, with
// the same lookup conventions as compute_recovery_line: index 0 and missing
// metas carry no dependencies and no sends.
bool cut_fully_consistent(const std::vector<CheckpointMeta>& metas,
                          const std::map<uint32_t, uint32_t>& cut) {
  std::map<std::pair<uint32_t, uint32_t>, const CheckpointMeta*> by_key;
  for (const auto& m : metas) by_key[{m.rank, m.index}] = &m;
  auto meta_of = [&](uint32_t rank, uint32_t index) -> const CheckpointMeta* {
    if (index == 0) return nullptr;
    auto it = by_key.find({rank, index});
    return it == by_key.end() ? nullptr : it->second;
  };
  for (const auto& [rank, index] : cut) {
    const auto* m = meta_of(rank, index);
    if (m == nullptr) continue;
    for (const auto& d : m->depends_on) {
      auto peer = cut.find(d.rank);
      if (peer != cut.end() && d.interval >= peer->second) return false;  // orphan
    }
    for (const auto& [peer, sent_count] : m->sent) {
      auto it = cut.find(peer);
      if (it == cut.end()) continue;
      uint32_t consumed = 0;
      const auto* pm = meta_of(peer, it->second);
      if (pm != nullptr) {
        for (const auto& d : pm->depends_on) {
          if (d.rank == rank) ++consumed;
        }
      }
      if (sent_count > consumed) return false;  // lost message
    }
  }
  return true;
}

// Simulated message histories: random processes exchange real messages
// (each send eventually delivered or still in flight) and checkpoint at
// random moments, recording exactly what DependencyTracker records. The
// computed line must match the brute-forced maximum fully-consistent cut —
// and restoring it must lose no delivered-but-unsent message.
TEST(Recovery, LineIsMaximalOnSimulatedMessageHistories) {
  util::Rng rng(0xd031);  // fixed seed: deterministic corpus
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t procs = 2 + static_cast<uint32_t>(rng.below(3));  // 2..4
    std::vector<DependencyTracker> trackers;
    for (uint32_t p = 0; p < procs; ++p) trackers.emplace_back(p);
    struct InFlight {
      uint32_t dst;
      IntervalId tag;
      uint32_t deliver_at;  // step index
    };
    std::vector<InFlight> flying;
    std::vector<CheckpointMeta> metas;
    std::map<uint32_t, uint32_t> latest;
    for (uint32_t p = 0; p < procs; ++p) latest[p] = 0;

    const uint32_t steps = 20 + static_cast<uint32_t>(rng.below(20));
    for (uint32_t step = 0; step < steps; ++step) {
      // Deliveries scheduled for this step.
      for (auto it = flying.begin(); it != flying.end();) {
        if (it->deliver_at == step) {
          trackers[it->dst].on_recv(it->tag);
          it = flying.erase(it);
        } else {
          ++it;
        }
      }
      const uint32_t p = static_cast<uint32_t>(rng.below(procs));
      if (rng.chance(0.25)) {
        // p takes an independent checkpoint.
        auto& t = trackers[p];
        const auto [index, deps] = t.cut_checkpoint();
        metas.push_back({p, index, deps, t.sent()});
        latest[p] = index;
      } else {
        // p sends one message; it lands 1..6 steps later (possibly never:
        // past the horizon = in flight at every cut).
        uint32_t q;
        do {
          q = static_cast<uint32_t>(rng.below(procs));
        } while (q == p);
        auto& t = trackers[p];
        flying.push_back({q, t.on_send(), step + 1 + static_cast<uint32_t>(rng.below(6))});
        t.note_send(q);
      }
    }

    const auto line = compute_recovery_line(metas, latest);

    // Brute-force the join of all fully-consistent cuts.
    std::map<uint32_t, uint32_t> best;
    for (uint32_t p = 0; p < procs; ++p) best[p] = 0;
    std::map<uint32_t, uint32_t> cut = best;
    for (;;) {
      if (cut_fully_consistent(metas, cut)) {
        for (auto& [p, c] : best) c = std::max(c, cut[p]);
      }
      uint32_t p = 0;
      for (; p < procs; ++p) {
        if (cut[p] < latest[p]) {
          ++cut[p];
          for (uint32_t q = 0; q < p; ++q) cut[q] = 0;
          break;
        }
      }
      if (p == procs) break;
    }

    ASSERT_TRUE(cut_fully_consistent(metas, line)) << "trial " << trial;
    EXPECT_EQ(line, best) << "trial " << trial;  // the unique maximum cut
  }
}

}  // namespace
}  // namespace starfish::ckpt
