// One mutation table over every decoder of wire or stored bytes in src/
// (DESIGN.md §18, "Decoding"). A row is a valid encoding plus a function
// that decodes bytes and re-encodes what it decoded; one row per decoder,
// and one per kind where a decoder has kinds. Every row must
//  * round-trip its own bytes exactly;
//  * fail, with its pinned error code, at every truncation point and with
//    one appended byte;
//  * at sampled bit flips, fail with that code or re-encode to exactly the
//    flipped bytes (a decoder that accepts a flip must have read a
//    different, equally canonical message, never filled in a default);
//  * with every 4-byte window forged to 10^6 (in either byte order) and to
//    2^32-1, which covers every count field, fail or re-encode exactly,
//    and never allocate more than a small multiple of the input: a count
//    is checked against the bytes left before anything is sized from it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/image.hpp"
#include "ckpt/incremental.hpp"
#include "ckpt/recovery.hpp"
#include "core/cr.hpp"
#include "daemon/wire.hpp"
#include "gcs/lightweight.hpp"
#include "gcs/wire.hpp"
#include "mpi/datatype.hpp"
#include "mpi/frame.hpp"
#include "mpi/proc.hpp"
#include "util/codec/lz.hpp"
#include "vm/value.hpp"

// Largest single allocation while a decode runs. Replacing the global
// operator new is the one way to see what a forged count sizes; a request
// above kAllocCap is refused, so a decoder that trusts a forged count
// fails this test instead of exhausting memory.
namespace {
size_t g_peak_alloc = 0;
bool g_tracking = false;
constexpr size_t kAllocCap = size_t{1} << 28;
}  // namespace

void* operator new(std::size_t n) {
  if (g_tracking) {
    g_peak_alloc = std::max(g_peak_alloc, n);
    if (n > kAllocCap) throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// GCC pairs the replaced operator new with free() and would warn on every
// inlined delete; the pairing is the point of the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace starfish {
namespace {

using util::Bytes;
using util::BytesView;

struct Row {
  std::string name;
  std::string code;  ///< the error code of every failure
  Bytes bytes;       ///< a valid encoding
  std::function<util::Result<Bytes>(BytesView)> roundtrip;
};

/// A row for a type with encode() and a decoder returning Result<T>.
template <typename T, typename Decode>
Row row(std::string name, const T& sample, Decode decode) {
  return {std::move(name), "decode", Bytes(sample.encode()),
          [decode](BytesView b) -> util::Result<Bytes> {
            auto d = decode(b);
            if (!d.ok()) return d.error();
            return Bytes(d.value().encode());
          }};
}

Bytes text(const std::string& s) {
  return Bytes(reinterpret_cast<const std::byte*>(s.data()),
               reinterpret_cast<const std::byte*>(s.data()) + s.size());
}

// ------------------------------------------------------------------ gcs ----

void gcs_rows(std::vector<Row>& rows) {
  using namespace gcs;
  for (uint8_t k = static_cast<uint8_t>(MsgKind::kHeartbeat);
       k <= static_cast<uint8_t>(MsgKind::kInstallReq); ++k) {
    WireMsg m;
    m.kind = static_cast<MsgKind>(k);
    m.from = MemberId{k, 2};
    m.from_addr = net::NetAddr{k, 1};
    m.msg_id = 1000 + k;
    m.payload = text("payload");
    m.gseq = 77;
    m.origin = MemberId{5, 0};
    m.view_id = 9;
    m.attempt = 2;
    m.members = {Member{MemberId{0, 0}, 0, {0, 1}}, Member{MemberId{4, 3}, 6, {4, 1}}};
    m.coord_delivered = 70;
    m.delivered = 71;
    m.buffered = {OrderedMsg{72, MemberId{1, 0}, 3, text("b1")}};
    m.hb_entries = {HbEntry{MemberId{4, 3}, 9, 71, 123456, false},
                    HbEntry{MemberId{6, 0}, 8, 12, 99, true}};
    m.retransmit = {OrderedMsg{74, MemberId{2, 1}, 4, text("r1")}};
    m.has_state = k % 2 == 0;
    m.state = text("state");
    rows.push_back(row("WireMsg_kind" + std::to_string(k), m, WireMsg::decode));
  }
  const std::pair<LwMsg::Tag, const char*> tags[] = {{LwMsg::Tag::kApp, "App"},
                                                     {LwMsg::Tag::kLwJoin, "Join"},
                                                     {LwMsg::Tag::kLwLeave, "Leave"},
                                                     {LwMsg::Tag::kLwMsg, "Msg"}};
  for (const auto& [tag, name] : tags) {
    const bool named = tag != LwMsg::Tag::kApp;
    const bool body = tag == LwMsg::Tag::kApp || tag == LwMsg::Tag::kLwMsg;
    LwMsg m{tag, named ? "ring" : "", body ? text("body") : Bytes{}};
    rows.push_back(row(std::string("LwMsg_") + name, m, LwMsg::decode));
  }
  LwState state;
  state.groups["alpha"] = {3, {MemberId{0, 0}, MemberId{2, 1}}};
  state.groups["beta"] = {1, {MemberId{1, 4}}};
  rows.push_back(row("LwState_NoApp", state, LwState::decode));
  state.has_app = true;
  state.app = text("daemon snapshot");
  rows.push_back(row("LwState_App", state, LwState::decode));
}

// --------------------------------------------------------------- daemon ----

daemon::JobSpec sample_job() {
  daemon::JobSpec j;
  j.name = "job";
  j.binary = "ring";
  j.nprocs = 4;
  j.policy = daemon::FtPolicy::kRestart;
  j.protocol = daemon::CrProtocol::kChandyLamport;
  j.level = daemon::CkptLevel::kVm;
  j.ckpt_interval = 80'000'000;
  j.forked_ckpt = true;
  j.args = {"-n", "7"};
  j.owner = "ann";
  return j;
}

void daemon_rows(std::vector<Row>& rows) {
  using namespace daemon;
  rows.push_back({"JobSpec", "decode", sample_job().encode(),
                  [](BytesView b) -> util::Result<Bytes> {
                    util::Reader r(b);
                    auto j = JobSpec::decode(r);
                    if (util::Status s = r.finish("a job spec"); !s.ok()) return s.error();
                    return j.value().encode();
                  }});
  for (uint8_t k = 1; k <= static_cast<uint8_t>(HeavyKind::kGrowApp); ++k) {
    HeavyMsg m;
    m.kind = static_cast<HeavyKind>(k);
    m.job = sample_job();
    m.key = "key";
    m.value = "value";
    m.host = 3;
    m.enable = k % 2 == 0;
    m.app = "job";
    m.rank = 2;
    m.epoch = 5;
    m.wepoch = 6;
    rows.push_back(row("HeavyMsg_kind" + std::to_string(k), m,
                       [](BytesView b) { return HeavyMsg::decode(Bytes(b.begin(), b.end())); }));
  }
  for (uint8_t k = 1; k <= static_cast<uint8_t>(AppKind::kCheckpointNow); ++k) {
    AppMsg m{static_cast<AppKind>(k), 3, 1, net::NetAddr{2, 9}, text("coord")};
    rows.push_back(row("AppMsg_kind" + std::to_string(k), m,
                       [](BytesView b) { return AppMsg::decode(Bytes(b.begin(), b.end())); }));
  }
  for (uint8_t k = 1; k <= static_cast<uint8_t>(LinkKind::kSpawnReq); ++k) {
    LinkMsg m;
    m.kind = static_cast<LinkKind>(k);
    m.wiring_epoch = 2;
    m.world = {net::NetAddr{0, 5}, net::NetAddr{1, 5}, net::NetAddr{sim::kInvalidHost, 0}};
    m.restore_epoch = 4;
    m.view_seq = 3;
    m.live_ranks = {0, 1};
    m.payload = text("payload");
    m.vni_addr = net::NetAddr{1, 6};
    m.spawn_extra = 2;
    m.ok = k % 2 == 0;
    m.text = "out";
    rows.push_back(row("LinkMsg_kind" + std::to_string(k), m,
                       [](BytesView b) { return LinkMsg::decode(Bytes(b.begin(), b.end())); }));
  }
  StateSnapshot snap;
  snap.config = {{"placement.strategy", "packed"}, {"quota", "3"}};
  snap.disabled = {2, 5};
  StateSnapshot::App app{sample_job(), AppPhase::kRunning, 3, {}};
  app.placement = {{0, gcs::MemberId{0, 0}}, {1, gcs::MemberId{1, 2}}};
  snap.apps.emplace(app.job.name, app);
  app.job.name = "other";
  app.phase = AppPhase::kSuspended;
  snap.apps.emplace(app.job.name, app);
  rows.push_back(row("StateSnapshot", snap, StateSnapshot::decode));
}

// ----------------------------------------------------------------- core ----

void core_rows(std::vector<Row>& rows) {
  static const Bytes tracker = text("tracker");
  static const Bytes app_state(40, std::byte{0x5a});
  static const Bytes channel = text("channel");
  core::Container c{tracker, app_state, channel, {}};
  for (uint32_t i = 0; i < 2; ++i) {
    mpi::Envelope e;
    e.comm = 7 + i;
    e.src = 2 - i;
    e.tag = -3;
    e.send_interval = 40 + i;
    e.data = Bytes(5 + i, std::byte{0xa0});
    c.recorded.push_back(std::move(e));
  }
  rows.push_back(row("Container", c, core::Container::decode));
  for (uint8_t k = 1; k <= static_cast<uint8_t>(core::CoordMsg::Kind::kCommit); ++k) {
    core::CoordMsg m{static_cast<core::CoordMsg::Kind>(k), 12, 3};
    rows.push_back(row("CoordMsg_kind" + std::to_string(k), m, core::CoordMsg::decode));
  }
  rows.push_back({"MarkerEpoch", "decode", core::encode_marker_epoch(41),
                  [](BytesView b) -> util::Result<Bytes> {
                    auto e = core::decode_marker_epoch(b);
                    if (!e.ok()) return e.error();
                    return core::encode_marker_epoch(e.value());
                  }});
}

// ------------------------------------------------------------------ mpi ----

void mpi_rows(std::vector<Row>& rows) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(mpi::FrameKind::kClMarker); ++k) {
    mpi::Frame f;
    f.kind = static_cast<mpi::FrameKind>(k);
    f.comm = 1;
    f.src_rank = 2;
    f.dst_rank = 3;
    f.tag = -4;
    f.seq = 5;
    f.send_interval = 6;
    f.total_bytes = 7;
    f.payload = text("frame payload");
    rows.push_back({"Frame_kind" + std::to_string(k), "decode", f.encode().to_bytes(),
                    [](BytesView b) -> util::Result<Bytes> {
                      auto d = mpi::Frame::decode(util::SharedBytes::copy(b));
                      if (!d.ok()) return d.error();
                      return d.value().encode().to_bytes();
                    }});
  }
  const auto encode_channel = [](const std::vector<mpi::Envelope>& envs) {
    Bytes out;
    util::Writer w(out);
    w.u32(static_cast<uint32_t>(envs.size()));
    for (const auto& e : envs) mpi::put_envelope(w, e);
    return out;
  };
  std::vector<mpi::Envelope> envs(2);
  envs[0].tag = 3;
  envs[0].data = text("in transit");
  envs[1].src = 1;
  envs[1].send_interval = 2;
  rows.push_back({"ChannelState", "decode", encode_channel(envs),
                  [encode_channel](BytesView b) -> util::Result<Bytes> {
                    auto d = mpi::decode_channel_state(b);
                    if (!d.ok()) return d.error();
                    return encode_channel(d.value());
                  }});
  const auto array_row = [&rows](std::string name, Bytes bytes, auto decode, auto encode) {
    rows.push_back({std::move(name), "decode", std::move(bytes),
                    [decode, encode](BytesView b) -> util::Result<Bytes> {
                      auto d = decode(b);
                      if (!d.ok()) return d.error();
                      return encode(d.value());
                    }});
  };
  const std::vector<int64_t> i64s = {-1, 0, INT64_MAX};
  array_row("I64s", mpi::encode_i64s(i64s), mpi::decode_i64s,
            [](const std::vector<int64_t>& v) { return mpi::encode_i64s(v); });
  const std::vector<double> f64s = {-1.5, 0.25};
  array_row("F64s", mpi::encode_f64s(f64s), mpi::decode_f64s,
            [](const std::vector<double>& v) { return mpi::encode_f64s(v); });
  const std::vector<int32_t> i32s = {INT32_MIN, 7, 9};
  array_row("I32s", mpi::encode_i32s(i32s), mpi::decode_i32s,
            [](const std::vector<int32_t>& v) { return mpi::encode_i32s(v); });
  const std::vector<Bytes> parts = {text("rank 0"), {}, text("rank 2")};
  array_row("Parts", mpi::encode_parts(parts), mpi::decode_parts,
            [](const std::vector<Bytes>& v) { return mpi::encode_parts(v); });
  rows.push_back(row("SplitEntry", mpi::SplitEntry{2, -1, 5}, mpi::SplitEntry::decode));
}

// ----------------------------------------------------------------- ckpt ----

constexpr uint64_t kMaxBytes = 1 << 20;

Bytes structured(size_t n, uint8_t seed) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>((i / 7 + seed) % 11);
  return out;
}

void ckpt_rows(std::vector<Row>& rows) {
  ckpt::DependencyTracker t(3);
  t.on_recv({1, 5});
  t.on_recv({2, 6});
  (void)t.cut_checkpoint();
  rows.push_back(row("Tracker_NoSends", t, ckpt::DependencyTracker::decode));
  t.note_send(0);
  t.note_send(2);
  t.note_send(2);
  rows.push_back(row("Tracker_Sends", t, ckpt::DependencyTracker::decode));

  // A payload of one page plus a 100-byte tail, against a base that
  // differs only in the tail: one small literal.
  static const Bytes base = structured(ckpt::kPageBytes + 100, 1);
  static const Bytes raw = [] {
    Bytes r = base;
    r.back() = std::byte{0x7f};
    return r;
  }();
  const auto delta_row = [&rows](std::string name, ckpt::CompressMode mode,
                                 ckpt::PayloadCodec codec) {
    rows.push_back({std::move(name), "codec", ckpt::encode_payload(mode, raw, base, nullptr).bytes,
                    [mode, codec](BytesView b) -> util::Result<Bytes> {
                      auto d = ckpt::decode_payload(codec, b, base, kMaxBytes, nullptr);
                      if (!d.ok()) return d.error();
                      return ckpt::encode_payload(mode, d.value(), base, nullptr).bytes;
                    }});
  };
  delta_row("DeltaFrame", ckpt::CompressMode::kDelta, ckpt::PayloadCodec::kDelta);
  delta_row("DeltaLzFrame", ckpt::CompressMode::kDeltaLz, ckpt::PayloadCodec::kDeltaLz);

  const auto lz_row = [&rows](std::string name, Bytes payload) {
    rows.push_back({std::move(name), "codec", util::codec::lz_compress(payload),
                    [](BytesView b) -> util::Result<Bytes> {
                      auto d = util::codec::lz_decompress(b, kMaxBytes);
                      if (!d.ok()) return d.error();
                      return util::codec::lz_compress(d.value());
                    }});
  };
  lz_row("LzFrame_TwoBlocks", structured(util::codec::kLzBlockBytes + 3000, 2));
  Bytes noise(200);
  for (size_t i = 0; i < noise.size(); ++i) {
    noise[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  }
  lz_row("LzFrame_Stored", noise);

  vm::VmState s;
  s.globals = {vm::Value::integer(-7), vm::Value::real(2.5), vm::Value::boolean(true)};
  s.stack = {vm::Value::unit(), vm::Value::reference(1)};
  s.frames.push_back(vm::Frame{0, 3, {vm::Value::integer(1 << 20), vm::Value::boolean(false)}});
  s.frames.push_back(vm::Frame{2, 9, {}});
  vm::HeapObject arr;
  for (int64_t k = 0; k < 6; ++k) arr.push_back(k % 2 ? vm::Value::integer(k) : vm::Value::real(k));
  s.heap.push_back(arr);
  vm::HeapObject bytes;
  bytes.kind = vm::HeapObject::Kind::kBytes;
  bytes.bytes = text("heap bytes");
  s.heap.push_back(bytes);
  s.steps_executed = 12345;
  for (const sim::Machine& saver : {sim::Machine{"le64", "", util::Endian::kLittle, 8},
                                    sim::Machine{"be32", "", util::Endian::kBig, 4}}) {
    rows.push_back({"Sfv2_" + saver.arch, "decode", ckpt::portable_encode(saver, s).payload,
                    [saver](BytesView b) -> util::Result<Bytes> {
                      ckpt::Image img;
                      img.kind = ckpt::ImageKind::kPortable;
                      img.repr_code = saver.repr_code();
                      img.payload.assign(b.begin(), b.end());
                      auto d = ckpt::portable_decode(img, saver);
                      if (!d.ok()) return d.error();
                      return ckpt::portable_encode(saver, d.value()).payload;
                    }});
  }
}

// ------------------------------------------------------------------- vm ----

void vm_rows(std::vector<Row>& rows) {
  const std::pair<const char*, vm::Value> values[] = {
      {"Unit", vm::Value::unit()},         {"Int", vm::Value::integer(-42)},
      {"Float", vm::Value::real(-0.5)},    {"Bool", vm::Value::boolean(true)},
      {"Ref", vm::Value::reference(vm::kNullRef)}};
  for (const auto& [name, v] : values) {
    rows.push_back({std::string("WireValue_") + name, "decode", vm::encode_wire_value(v),
                    [](BytesView b) -> util::Result<Bytes> {
                      auto d = vm::decode_wire_value(b);
                      if (!d.ok()) return d.error();
                      return vm::encode_wire_value(d.value());
                    }});
  }
}

std::vector<Row> all_rows() {
  std::vector<Row> rows;
  gcs_rows(rows);
  daemon_rows(rows);
  core_rows(rows);
  mpi_rows(rows);
  ckpt_rows(rows);
  vm_rows(rows);
  return rows;
}

const std::vector<Row>& table() {
  static const std::vector<Row> rows = all_rows();
  return rows;
}

// --------------------------------------------------------------- checks ----

struct Outcome {
  util::Result<Bytes> result;
  size_t peak_alloc = 0;
  bool refused = false;  ///< an allocation over kAllocCap was refused
};

Outcome run(const Row& r, BytesView bytes) {
  g_peak_alloc = 0;
  g_tracking = true;
  try {
    util::Result<Bytes> result = r.roundtrip(bytes);
    g_tracking = false;
    return {std::move(result), g_peak_alloc, false};
  } catch (const std::bad_alloc&) {
    g_tracking = false;
    return {util::Error::make("alloc", "refused"), g_peak_alloc, true};
  }
}

/// Fails with the row's code, or decoded a canonical message: it
/// re-encodes to exactly `bytes`.
void expect_fails_or_canonical(const Row& r, const Outcome& o, const Bytes& bytes,
                               const std::string& what) {
  ASSERT_FALSE(o.refused) << what;
  if (o.result.ok()) {
    EXPECT_EQ(o.result.value(), bytes) << what << " decoded but re-encodes differently";
  } else {
    EXPECT_EQ(o.result.error().code, r.code) << what << ": " << o.result.error().to_string();
  }
}

class DecodeMutation : public ::testing::TestWithParam<size_t> {};

TEST_P(DecodeMutation, FailsClosed) {
  const Row& r = table()[GetParam()];
  const Outcome good = run(r, r.bytes);
  ASSERT_TRUE(good.result.ok()) << good.result.error().to_string();
  ASSERT_EQ(good.result.value(), r.bytes) << "the valid encoding does not round-trip";

  for (size_t n = 0; n < r.bytes.size(); ++n) {
    const Outcome o = run(r, BytesView(r.bytes.data(), n));
    ASSERT_FALSE(o.result.ok()) << "truncated to " << n << " decoded";
    EXPECT_EQ(o.result.error().code, r.code) << "truncated to " << n;
  }
  for (uint8_t extra : {uint8_t{0}, uint8_t{0xa5}}) {
    Bytes longer = r.bytes;
    longer.push_back(std::byte{extra});
    const Outcome o = run(r, longer);
    ASSERT_FALSE(o.result.ok()) << "appended byte " << int{extra} << " decoded";
    EXPECT_EQ(o.result.error().code, r.code);
  }

  const size_t bits = r.bytes.size() * 8;
  const size_t stride = std::max<size_t>(1, bits / 4096);
  for (size_t bit = 0; bit < bits; bit += stride) {
    Bytes flipped = r.bytes;
    flipped[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    expect_fails_or_canonical(r, run(r, flipped), flipped, "bit " + std::to_string(bit));
  }

  const size_t bound = std::max(good.peak_alloc, 32 * r.bytes.size()) + 65536;
  const uint32_t million = 1'000'000;
  const uint32_t million_be = __builtin_bswap32(million);
  for (size_t at = 0; at + 4 <= r.bytes.size(); ++at) {
    for (uint32_t count : {million, million_be, 0xFFFFFFFFu}) {
      Bytes forged = r.bytes;
      std::memcpy(forged.data() + at, &count, 4);
      if (forged == r.bytes) continue;
      const std::string what = "count " + std::to_string(count) + " at " + std::to_string(at);
      const Outcome o = run(r, forged);
      expect_fails_or_canonical(r, o, forged, what);
      EXPECT_LE(o.peak_alloc, bound) << what << " sized an allocation from the count";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryDecoder, DecodeMutation,
                         ::testing::Range<size_t>(0, table().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return table()[info.param].name;
                         });

}  // namespace
}  // namespace starfish
