// Compressed delta checkpoint pipeline (PR 10): LZ codec property tests,
// payload delta framing, corrupt-chain fallback in latest_recoverable, the
// four-mode store differential (restored bytes and content_hash must be
// invariant across off/lz/delta/delta+lz), replica warm-ship accounting,
// cluster-level crash recovery under every mode, exactly sized encoder
// outputs, and byte goldens of what a crashed delta+lz job stores and
// resolves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/incremental.hpp"
#include "ckpt/replica.hpp"
#include "ckpt/store.hpp"
#include "core/cluster.hpp"
#include "core/cr.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "util/codec/lz.hpp"
#include "util/rng.hpp"

namespace starfish::util::codec {
namespace {

Bytes random_bytes(Rng& rng, size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.next() & 0xff);
  return b;
}

Bytes run_heavy_bytes(Rng& rng, size_t n) {
  Bytes b(n);
  size_t i = 0;
  while (i < n) {
    const size_t len = std::min<size_t>(1 + rng.below(300), n - i);
    const auto v = static_cast<std::byte>(rng.below(4) * 0x55);
    std::fill(b.begin() + static_cast<ptrdiff_t>(i), b.begin() + static_cast<ptrdiff_t>(i + len),
              v);
    i += len;
  }
  return b;
}

Bytes structured_bytes(size_t n) {
  // Repeating 32-byte records with a counter field: the shape of container
  // payloads (tracker entries, channel state) the lz matcher exists for.
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t rec = i / 32;
    const size_t field = i % 32;
    b[i] = static_cast<std::byte>(field < 4 ? (rec >> (8 * field)) & 0xff : field * 7);
  }
  return b;
}

// Seeded random + pathological inputs: every generator and size must
// round-trip bit-exactly, verify clean, and announce the right raw size.
TEST(LzCodec, RoundTripsRandomAndPathologicalInputs) {
  Rng rng(0xc0dec);
  const size_t sizes[] = {0, 1, 3, 17, 63, 64, 65, 4095, 4096, 70000, 200001};
  for (size_t n : sizes) {
    const Bytes inputs[] = {Bytes(n, std::byte{0}), random_bytes(rng, n), run_heavy_bytes(rng, n),
                            structured_bytes(n)};
    for (const Bytes& raw : inputs) {
      const Bytes frame = lz_compress(as_bytes_view(raw));
      EXPECT_TRUE(lz_verify(as_bytes_view(frame)).ok()) << "n=" << n;
      auto announced = lz_raw_size(as_bytes_view(frame));
      ASSERT_TRUE(announced.ok()) << "n=" << n;
      EXPECT_EQ(announced.value(), n);
      auto back = lz_decompress(as_bytes_view(frame), n);
      ASSERT_TRUE(back.ok()) << "n=" << n;
      EXPECT_EQ(back.value(), raw) << "n=" << n;
      if (n > 0) {
        auto bounded = lz_decompress(as_bytes_view(frame), n - 1);
        EXPECT_FALSE(bounded.ok()) << "size bound not enforced at n=" << n;
      }
    }
  }
}

TEST(LzCodec, DeterministicAcrossCalls) {
  Rng rng(7);
  const Bytes raw = run_heavy_bytes(rng, 100000);
  EXPECT_EQ(lz_compress(as_bytes_view(raw)), lz_compress(as_bytes_view(raw)));
}

TEST(LzCodec, IncompressibleInputDegradesToStoredBlocks) {
  Rng rng(0xbad);
  const size_t n = 256 * 1024;
  const Bytes raw = random_bytes(rng, n);
  const Bytes frame = lz_compress(as_bytes_view(raw));
  const size_t blocks = (n + kLzBlockBytes - 1) / kLzBlockBytes;
  EXPECT_LE(frame.size(), n + 21 * blocks + 17) << "stored-block fallback blew the bound";
  auto back = lz_decompress(as_bytes_view(frame), n);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(LzCodec, RunHeavyInputCompressesHard) {
  const Bytes raw(128 * 1024, std::byte{0});
  const Bytes frame = lz_compress(as_bytes_view(raw));
  EXPECT_LT(frame.size(), raw.size() / 8);
}

// Robustness: every truncation point and every single-byte flip must be
// caught by verify or decode as a typed codec error — never UB, never a
// silent wrong payload. The frame's header fields and block bodies are all
// covered by structural checks or fingerprints, so detection is total.
TEST(LzCodec, TruncationAndBitFlipsYieldTypedErrors) {
  Rng rng(0x7f);
  const Bytes raw = structured_bytes(70000);  // spans two blocks
  const Bytes frame = lz_compress(as_bytes_view(raw));
  ASSERT_LT(frame.size(), raw.size());
  for (size_t cut = 0; cut < frame.size(); cut += 1 + cut / 3) {
    const BytesView prefix(frame.data(), cut);
    EXPECT_FALSE(lz_verify(prefix).ok()) << "cut=" << cut;
    auto back = lz_decompress(prefix, raw.size());
    ASSERT_FALSE(back.ok()) << "cut=" << cut;
    EXPECT_EQ(back.error().code, "codec");
  }
  for (size_t i = 0; i < frame.size(); i += 1 + rng.below(97)) {
    Bytes mangled = frame;
    mangled[i] ^= static_cast<std::byte>(1u << rng.below(8));
    if (mangled[i] == frame[i]) continue;
    const bool caught = !lz_verify(as_bytes_view(mangled)).ok() ||
                        !lz_decompress(as_bytes_view(mangled), raw.size()).ok();
    EXPECT_TRUE(caught) << "flip at " << i << " went undetected";
  }
}

}  // namespace
}  // namespace starfish::util::codec

namespace starfish::ckpt {
namespace {

using sim::milliseconds;
using sim::seconds;
using util::Bytes;

Bytes rand_payload(util::Rng& rng, size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.next() & 0xff);
  return b;
}

// ------------------------------------------------------ payload framing ----

TEST(PayloadCodec, DeltaEncodesOnlyDirtyPagesAsLiterals) {
  util::Rng rng(1);
  const Bytes base = rand_payload(rng, 64 * kPageBytes);
  Bytes raw = base;
  for (size_t i = 0; i < 64; ++i) {
    raw[5 * kPageBytes + i] ^= std::byte{0xff};
    raw[40 * kPageBytes + i] ^= std::byte{0x0f};
  }
  obs::Hub hub;
  const EncodedPayload enc = encode_payload(CompressMode::kDelta, util::as_bytes_view(raw),
                                            util::as_bytes_view(base), &hub);
  EXPECT_EQ(enc.codec, PayloadCodec::kDelta);
  EXPECT_EQ(enc.delta_page_literals, 2u);
  EXPECT_EQ(enc.delta_page_refs, 62u);
  EXPECT_LT(enc.bytes.size(), 3 * kPageBytes) << "two dirty pages should cost ~two pages";
  const auto* refs = hub.metrics.find_counter("ckpt.codec.delta_page_refs");
  const auto* literals = hub.metrics.find_counter("ckpt.codec.delta_page_literals");
  ASSERT_NE(refs, nullptr);
  ASSERT_NE(literals, nullptr);
  EXPECT_EQ(refs->value(), 62u);
  EXPECT_EQ(literals->value(), 2u);

  auto back = decode_payload(enc.codec, util::as_bytes_view(enc.bytes), util::as_bytes_view(base),
                             raw.size(), &hub);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(PayloadCodec, DeltaLzShrinksCompressibleLiterals) {
  // Compressible dirty pages: delta+lz must beat plain delta (the lz pass
  // squeezes the literal pages), and both must reconstruct bit-exactly.
  const Bytes base = util::codec::structured_bytes(32 * kPageBytes);
  Bytes raw = base;
  std::fill(raw.begin() + 3 * kPageBytes, raw.begin() + 5 * kPageBytes, std::byte{0x11});
  const EncodedPayload delta = encode_payload(CompressMode::kDelta, util::as_bytes_view(raw),
                                              util::as_bytes_view(base), nullptr);
  const EncodedPayload both = encode_payload(CompressMode::kDeltaLz, util::as_bytes_view(raw),
                                             util::as_bytes_view(base), nullptr);
  ASSERT_EQ(delta.codec, PayloadCodec::kDelta);
  ASSERT_EQ(both.codec, PayloadCodec::kDeltaLz);
  EXPECT_LT(both.bytes.size(), delta.bytes.size());
  for (const EncodedPayload* e : {&delta, &both}) {
    auto back = decode_payload(e->codec, util::as_bytes_view(e->bytes), util::as_bytes_view(base),
                               raw.size(), nullptr);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), raw);
  }
}

TEST(PayloadCodec, FallsBackToRawWhenCodingDoesNotPay) {
  util::Rng rng(2);
  const Bytes raw = rand_payload(rng, 8 * kPageBytes);
  // Incompressible input under lz: stored blocks would inflate, so raw wins.
  const EncodedPayload lz =
      encode_payload(CompressMode::kLz, util::as_bytes_view(raw), {}, nullptr);
  EXPECT_EQ(lz.codec, PayloadCodec::kRaw);
  EXPECT_EQ(lz.bytes, raw);
  // Delta without a base (first epoch) degrades to raw.
  const EncodedPayload cold =
      encode_payload(CompressMode::kDelta, util::as_bytes_view(raw), {}, nullptr);
  EXPECT_EQ(cold.codec, PayloadCodec::kRaw);
  // Delta against a base every page differs from: all-literal frame > raw.
  const Bytes unrelated = rand_payload(rng, raw.size());
  const EncodedPayload futile = encode_payload(CompressMode::kDelta, util::as_bytes_view(raw),
                                               util::as_bytes_view(unrelated), nullptr);
  EXPECT_EQ(futile.codec, PayloadCodec::kRaw);
  EXPECT_EQ(futile.bytes, raw);
}

/// A seeded state with every value tag, several frames, long homogeneous
/// runs, and heap arrays and byte objects.
vm::VmState seeded_state(util::Rng& rng) {
  const auto value = [&rng](uint64_t kind) {
    switch (kind % 5) {
      case 0: return vm::Value::unit();
      case 1: return vm::Value::integer(static_cast<int32_t>(rng.next()));
      case 2: return vm::Value::real(static_cast<double>(rng.below(1000)) / 7.0);
      case 3: return vm::Value::boolean(rng.below(2) == 1);
      default: return vm::Value::reference(static_cast<uint32_t>(rng.below(4)));
    }
  };
  const auto values = [&](size_t n) {
    std::vector<vm::Value> out;
    while (out.size() < n) {
      const uint64_t kind = rng.below(5);
      for (size_t run = 1 + rng.below(40); run > 0 && out.size() < n; --run) {
        out.push_back(value(kind));
      }
    }
    return out;
  };
  vm::VmState s;
  s.globals = values(1 + rng.below(50));
  s.stack = values(rng.below(30));
  for (int f = 0; f < 3; ++f) {
    s.frames.push_back(vm::Frame{static_cast<uint32_t>(f), static_cast<uint32_t>(rng.below(99)),
                                 values(rng.below(12))});
  }
  for (int h = 0; h < 4; ++h) {
    vm::HeapObject obj;
    if (h % 2 == 0) {
      for (const vm::Value& v : values(1000 + rng.below(9000))) obj.push_back(v);
    } else {
      obj.kind = vm::HeapObject::Kind::kBytes;
      obj.bytes = rand_payload(rng, rng.below(5000));
    }
    s.heap.push_back(std::move(obj));
  }
  s.steps_executed = rng.next();
  return s;
}

// Every encoder on the checkpoint path allocates its output once, at its
// exact size: no growth slack rides into a capture, a container or a
// stored frame.
TEST(PayloadCodec, EncodersReturnExactlySizedBuffers) {
  util::Rng rng(0x51ce);
  const sim::Machine le64 = {"x86-64", "Linux", util::Endian::kLittle, 8};
  const sim::Machine be32 = {"SPARC", "Solaris", util::Endian::kBig, 4};
  for (int round = 0; round < 4; ++round) {
    const vm::VmState state = seeded_state(rng);
    for (const sim::Machine* saver : {&le64, &be32}) {
      const Image img = portable_encode(*saver, state);
      EXPECT_EQ(img.payload.capacity(), img.payload.size()) << saver->arch;
      auto back = portable_decode(img, le64);
      ASSERT_TRUE(back.ok()) << back.error().to_string();
      EXPECT_EQ(back.value(), state) << saver->arch;
    }
  }

  const Bytes tracker = rand_payload(rng, 40);
  const Bytes app_state = rand_payload(rng, 3 * kPageBytes + 17);
  core::Container container{tracker, app_state, {}, {}};
  mpi::Envelope recorded;
  recorded.data = rand_payload(rng, 100);
  container.recorded.push_back(recorded);
  const Bytes payload = container.encode();
  EXPECT_EQ(payload.capacity(), payload.size());

  const Bytes base = util::codec::structured_bytes(40 * kPageBytes + 99);
  Bytes raw = base;
  for (int k = 0; k < 6; ++k) raw[rng.below(raw.size())] ^= std::byte{0x33};
  Bytes noise = rand_payload(rng, 9 * kPageBytes);
  for (CompressMode mode :
       {CompressMode::kOff, CompressMode::kLz, CompressMode::kDelta, CompressMode::kDeltaLz}) {
    // Coded against a close base, and falling back to raw on noise.
    for (const Bytes* in : {&raw, &noise}) {
      const EncodedPayload enc =
          encode_payload(mode, util::as_bytes_view(*in), util::as_bytes_view(base), nullptr);
      EXPECT_EQ(enc.bytes.capacity(), enc.bytes.size())
          << compress_mode_name(mode) << " codec " << static_cast<int>(enc.codec);
    }
  }

  for (size_t n : {size_t{0}, size_t{1}, size_t{4096}, size_t{65536}, size_t{200001}}) {
    for (const Bytes& in : {rand_payload(rng, n), util::codec::run_heavy_bytes(rng, n),
                            util::codec::structured_bytes(n)}) {
      const Bytes frame = util::codec::lz_compress(util::as_bytes_view(in));
      EXPECT_EQ(frame.capacity(), frame.size()) << "n=" << n;
    }
  }
}

TEST(PayloadCodec, DecodeRejectsBaseMismatchTruncationAndCorruption) {
  util::Rng rng(3);
  const Bytes base = rand_payload(rng, 16 * kPageBytes);
  Bytes raw = base;
  raw[7 * kPageBytes + 9] ^= std::byte{0x80};
  obs::Hub hub;
  const EncodedPayload enc = encode_payload(CompressMode::kDelta, util::as_bytes_view(raw),
                                            util::as_bytes_view(base), nullptr);
  ASSERT_EQ(enc.codec, PayloadCodec::kDelta);
  ASSERT_TRUE(verify_payload(enc.codec, util::as_bytes_view(enc.bytes)).ok());

  // Wrong base: structural verify still passes (it is base-independent) but
  // the decode must refuse via the pinned base fingerprint.
  Bytes wrong_base = base;
  wrong_base[123] ^= std::byte{1};
  auto mismatch = decode_payload(enc.codec, util::as_bytes_view(enc.bytes),
                                 util::as_bytes_view(wrong_base), raw.size(), &hub);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.error().code, "codec");
  EXPECT_NE(mismatch.error().message.find("base"), std::string::npos);

  // Announced-size bound: a frame may never drive an oversized allocation.
  EXPECT_FALSE(decode_payload(enc.codec, util::as_bytes_view(enc.bytes),
                              util::as_bytes_view(base), raw.size() - 1, &hub)
                   .ok());

  // Truncation and bit flips: the trailing frame fingerprint covers every
  // body byte, so all damage is caught by verify and decode alike.
  for (size_t cut = 0; cut < enc.bytes.size(); cut += 1 + cut / 2) {
    const util::BytesView prefix(enc.bytes.data(), cut);
    EXPECT_FALSE(verify_payload(enc.codec, prefix).ok()) << "cut=" << cut;
    EXPECT_FALSE(
        decode_payload(enc.codec, prefix, util::as_bytes_view(base), raw.size(), &hub).ok());
  }
  for (size_t i = 0; i < enc.bytes.size(); i += 1 + rng.below(61)) {
    Bytes mangled = enc.bytes;
    mangled[i] ^= std::byte{0x20};
    EXPECT_FALSE(verify_payload(enc.codec, util::as_bytes_view(mangled)).ok()) << "flip at " << i;
    EXPECT_FALSE(decode_payload(enc.codec, util::as_bytes_view(mangled),
                                util::as_bytes_view(base), raw.size(), &hub)
                     .ok())
        << "flip at " << i;
  }
  const auto* errors = hub.metrics.find_counter("ckpt.codec.decode_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_GT(errors->value(), 0u);

  // delta+lz wraps the same frame; a truncated outer stream must fail too.
  const EncodedPayload wrapped = encode_payload(CompressMode::kDeltaLz, util::as_bytes_view(raw),
                                                util::as_bytes_view(base), nullptr);
  ASSERT_EQ(wrapped.codec, PayloadCodec::kDeltaLz);
  const util::BytesView half(wrapped.bytes.data(), wrapped.bytes.size() / 2);
  EXPECT_FALSE(verify_payload(wrapped.codec, half).ok());
  EXPECT_FALSE(
      decode_payload(wrapped.codec, half, util::as_bytes_view(base), raw.size(), nullptr).ok());
}

// ------------------------------------------------- store differential ----

// Epoch payloads that are mostly stable across epochs: per-(rank, page)
// pattern with two stamped pages plus a partial tail page per epoch, so the
// delta modes see O(dirty pages) while every mode must restore identically.
Bytes epoch_payload(uint32_t rank, uint64_t epoch) {
  constexpr size_t kPages = 48;
  Bytes b(kPages * kPageBytes + 1234);
  for (size_t i = 0; i < b.size(); ++i) {
    const size_t p = i / kPageBytes;
    b[i] = static_cast<std::byte>((rank * 131 + p * 17 + i % 251) & 0xff);
  }
  const size_t d1 = (epoch % kPages) * kPageBytes;
  const size_t d2 = ((epoch * 7 + 3) % kPages) * kPageBytes;
  for (size_t i = 0; i < 64; ++i) {
    b[d1 + i] = static_cast<std::byte>((epoch * 31 + i) & 0xff);
    b[d2 + i] ^= std::byte{0x5a};
  }
  b[b.size() - 1] = static_cast<std::byte>(epoch & 0xff);
  return b;
}

Image payload_image(Bytes payload) {
  Image img;
  img.kind = ImageKind::kPortable;
  img.file_bytes = kPortableBaseBytes + payload.size();
  img.payload = std::move(payload);
  return img;
}

struct StoreRun {
  std::vector<Bytes> restored;  // get() payloads, key order
  uint64_t content_hash = 0;
  uint64_t bytes_written = 0;
};

StoreRun disk_run(CompressMode mode) {
  constexpr uint32_t kRanks = 2;
  constexpr uint64_t kEpochs = 7;
  sim::Engine eng;
  net::Network net{eng};
  for (int i = 0; i < 2; ++i) net.add_host("node" + std::to_string(i));
  CheckpointStore store{eng};
  store.set_compress_mode(mode);
  StoreRun out;
  net.host(0)->spawn("writer", [&] {
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      for (uint32_t r = 0; r < kRanks; ++r) {
        store.put(*net.host(0), CkptKey{"app", r, e}, payload_image(epoch_payload(r, e)));
      }
      store.commit("app", e);
    }
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      for (uint32_t r = 0; r < kRanks; ++r) {
        auto got = store.get(*net.host(1), CkptKey{"app", r, e});
        ASSERT_TRUE(got.has_value()) << compress_mode_name(mode) << " r" << r << " e" << e;
        EXPECT_EQ(got->codec, PayloadCodec::kRaw) << "store leaked coded bytes upward";
        out.restored.push_back(std::move(got->payload));
      }
    }
  });
  eng.run();
  out.content_hash = store.content_hash();
  out.bytes_written = store.bytes_written();
  return out;
}

// The acceptance differential: every mode restores bit-identical payloads
// and hashes to the same store content; the chained modes write less disk.
TEST(StoreCompressDifferential, AllModesRestoreIdenticalBytesAndHash) {
  const StoreRun off = disk_run(CompressMode::kOff);
  ASSERT_EQ(off.restored.size(), 14u);
  for (size_t i = 0; i < off.restored.size(); ++i) {
    EXPECT_EQ(off.restored[i], epoch_payload(static_cast<uint32_t>(i % 2), 1 + i / 2));
  }
  for (CompressMode mode :
       {CompressMode::kLz, CompressMode::kDelta, CompressMode::kDeltaLz}) {
    const StoreRun run = disk_run(mode);
    EXPECT_EQ(run.restored, off.restored) << compress_mode_name(mode);
    EXPECT_EQ(run.content_hash, off.content_hash) << compress_mode_name(mode);
    EXPECT_LT(run.bytes_written, off.bytes_written) << compress_mode_name(mode);
  }
  // Warm delta epochs are O(dirty pages): across 7 epochs x 2 ranks the
  // chained modes must write far less than half of what off writes beyond
  // the per-image base cost.
  const StoreRun delta = disk_run(CompressMode::kDeltaLz);
  const uint64_t base_cost = 14 * kPortableBaseBytes;
  EXPECT_LT(delta.bytes_written - base_cost, (off.bytes_written - base_cost) / 2);
}

// ------------------------------------------------ fault-injection tests ----

// Satellite (b): a corrupted or truncated coded chunk must surface as a
// typed decode failure and move latest_recoverable to the next epoch whose
// chain still verifies — never an abort, never a poisoned restore.
TEST(StoreFaultInjection, CorruptedChunksFallBackToOlderEpochs) {
  sim::Engine eng;
  obs::Hub hub;
  eng.set_obs(&hub);
  net::Network net{eng};
  net.add_host("node0");
  CheckpointStore store{eng};
  store.set_compress_mode(CompressMode::kDeltaLz);
  net.host(0)->spawn("writer", [&] {
    for (uint64_t e = 1; e <= 7; ++e) {
      store.put(*net.host(0), CkptKey{"app", 0, e}, payload_image(epoch_payload(0, e)));
      store.commit("app", e);
    }
  });
  eng.run();
  ASSERT_EQ(store.latest_recoverable("app", 1), 7u);

  // Flip a byte mid-frame in the newest epoch: its chain alone breaks.
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 7}, 33));
  EXPECT_EQ(store.latest_recoverable("app", 1), 6u);

  // Truncate epoch 6: both 6 and (already-corrupt) 7 are gone; 5 is the
  // full anchor of this kFullEvery window and still verifies.
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 6}, 4, /*truncate=*/true));
  EXPECT_EQ(store.latest_recoverable("app", 1), 5u);

  // Corrupt the full anchor itself: every delta hanging off it (6, 7) was
  // already dead; the previous window's chain 4 -> 3 -> 2 -> 1 survives.
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 5}, 1000));
  EXPECT_EQ(store.latest_recoverable("app", 1), 4u);

  bool checked = false;
  net.host(0)->spawn("reader", [&] {
    // Reads of the damaged epochs fail soft (nullopt, counted) ...
    EXPECT_FALSE(store.get(*net.host(0), CkptKey{"app", 0, 7}).has_value());
    EXPECT_FALSE(store.get(*net.host(0), CkptKey{"app", 0, 5}).has_value());
    // ... and the fallback epoch restores bit-exactly through its chain.
    auto got = store.get(*net.host(0), CkptKey{"app", 0, 4});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, epoch_payload(0, 4));
    checked = true;
  });
  eng.run();
  EXPECT_TRUE(checked);
  const auto* errors = hub.metrics.find_counter("ckpt.codec.decode_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_GT(errors->value(), 0u);
}

// A stored payload is verified once and the pass recorded on it, so repeat
// recoverability checks skip the verify. Damaging the payload must drop the
// record: a link corrupted after one passing check is rejected by the next.
TEST(StoreFaultInjection, LinkCorruptedAfterAPassingCheckIsStillRejected) {
  sim::Engine eng;
  net::Network net{eng};
  net.add_host("node0");
  CheckpointStore store{eng};
  store.set_compress_mode(CompressMode::kDeltaLz);
  net.host(0)->spawn("writer", [&] {
    for (uint64_t e = 1; e <= 7; ++e) {
      store.put(*net.host(0), CkptKey{"app", 0, e}, payload_image(epoch_payload(0, e)));
      store.commit("app", e);
    }
  });
  eng.run();
  ASSERT_EQ(store.latest_recoverable("app", 1), 7u);  // verifies 7 -> 6 -> 5
  ASSERT_EQ(store.latest_recoverable("app", 1), 7u);
  // Damage the middle link of 7's chain: 7 and 6 go, the anchor 5 stays.
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 6}, 33));
  EXPECT_EQ(store.latest_recoverable("app", 1), 5u);
  EXPECT_EQ(store.latest_recoverable("app", 1), 5u);
  // And the anchor itself, after it passed twice: the previous window.
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 5}, 1000));
  EXPECT_EQ(store.latest_recoverable("app", 1), 4u);
}

TEST(ReplicaFaultInjection, LinkCorruptedAfterAPassingCheckIsStillRejected) {
  sim::Engine eng;
  net::Network net{eng};
  for (int i = 0; i < 4; ++i) net.add_host("node" + std::to_string(i));
  CheckpointStore store{eng};
  store.enable_replica_backend(net);
  store.set_backend(CkptBackend::kReplica);
  store.set_compress_mode(CompressMode::kDeltaLz);
  net.host(0)->spawn("writer", [&] {
    for (uint64_t e = 1; e <= 3; ++e) {
      store.put(*net.host(0), CkptKey{"app", 0, e}, payload_image(epoch_payload(0, e)), {1, 2});
      store.commit("app", e);
    }
  });
  eng.run();
  ASSERT_EQ(store.latest_recoverable("app", 1), 3u);  // verifies 3 -> 2 -> 1
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 2}, 21));
  EXPECT_EQ(store.latest_recoverable("app", 1), 1u);
  EXPECT_EQ(store.latest_recoverable("app", 1), 1u);
}

TEST(ReplicaFaultInjection, CorruptedReplicaChunkMovesTheRecoveryLine) {
  sim::Engine eng;
  net::Network net{eng};
  for (int i = 0; i < 4; ++i) net.add_host("node" + std::to_string(i));
  CheckpointStore store{eng};
  store.enable_replica_backend(net);
  store.set_backend(CkptBackend::kReplica);
  store.set_compress_mode(CompressMode::kDelta);
  net.host(0)->spawn("writer", [&] {
    for (uint64_t e = 1; e <= 3; ++e) {
      store.put(*net.host(0), CkptKey{"app", 0, e}, payload_image(epoch_payload(0, e)), {1, 2});
      store.commit("app", e);
    }
  });
  eng.run();
  ASSERT_EQ(store.latest_recoverable("app", 1), 3u);
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 3}, 21));
  EXPECT_EQ(store.latest_recoverable("app", 1), 2u)
      << "a corrupt replica chunk must disqualify its chain, not abort";
  bool checked = false;
  net.host(3)->spawn("reader", [&] {
    EXPECT_FALSE(store.get(*net.host(3), CkptKey{"app", 0, 3}).has_value());
    auto got = store.get(*net.host(3), CkptKey{"app", 0, 2});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, epoch_payload(0, 2));
    checked = true;
  });
  eng.run();
  EXPECT_TRUE(checked);
}

// --------------------------------------------------- replica warm ship ----

// The replica tier ships each payload as stored, so with the delta codec
// on the coded frame is the warm ship: a warm epoch ships O(dirty pages)
// bytes to each holder, visible both in bytes_shipped and in the
// ckpt.codec.* counters.
TEST(ReplicaWarmShip, DeltaEpochsShipOnlyDirtyPages) {
  sim::Engine eng;
  obs::Hub hub;
  eng.set_obs(&hub);
  net::Network net{eng};
  for (int i = 0; i < 4; ++i) net.add_host("node" + std::to_string(i));
  CheckpointStore store{eng};
  store.enable_replica_backend(net);
  store.set_backend(CkptBackend::kReplica);
  store.set_compress_mode(CompressMode::kDelta);
  util::Rng rng(9);
  const Bytes cold_payload = rand_payload(rng, 64 * kPageBytes);  // incompressible
  Bytes warm_payload = cold_payload;
  for (size_t i = 0; i < kPageBytes; ++i) {
    warm_payload[11 * kPageBytes + i] = static_cast<std::byte>(rng.next() & 0xff);
  }
  uint64_t cold = 0, warm = 0;
  net.host(0)->spawn("writer", [&] {
    store.put(*net.host(0), CkptKey{"app", 0, 1}, payload_image(cold_payload), {1, 2});
    cold = store.replicas()->bytes_shipped();
    store.put(*net.host(0), CkptKey{"app", 0, 2}, payload_image(warm_payload), {1, 2});
    warm = store.replicas()->bytes_shipped() - cold;
  });
  eng.run();
  // Epoch 1 is the full anchor (no base): raw, 64 pages per holder.
  EXPECT_EQ(cold, 2 * (kReplicaHeaderBytes + 64 * kPageBytes));
  // Epoch 2 is a delta with exactly one literal page: the transfer is the
  // dirty page plus framing, per holder — two orders below the cold ship.
  EXPECT_LE(warm, 2 * (kReplicaHeaderBytes + 2 * kPageBytes));
  EXPECT_LT(warm * 20, cold);
  const auto* refs = hub.metrics.find_counter("ckpt.codec.delta_page_refs");
  const auto* literals = hub.metrics.find_counter("ckpt.codec.delta_page_literals");
  ASSERT_NE(refs, nullptr);
  ASSERT_NE(literals, nullptr);
  EXPECT_EQ(refs->value(), 63u);
  EXPECT_EQ(literals->value(), 1u);

  // And the warm epoch restores bit-exactly through its delta chain.
  bool checked = false;
  net.host(3)->spawn("reader", [&] {
    auto got = store.get(*net.host(3), CkptKey{"app", 0, 2});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, warm_payload);
    checked = true;
  });
  eng.run();
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace starfish::ckpt

// ------------------------------------------------------ cluster level ----

namespace starfish::core {
namespace {

using sim::milliseconds;
using sim::seconds;

std::string ring_program(int rounds, int spin) {
  return R"(
func main 0 2
  syscall rank
  store_local 0
  syscall world_size
  store_local 1
  push_int 0
  store_global 0
  push_int 0
  store_global 1
loop:
  load_global 0
  push_int )" + std::to_string(rounds) + R"(
  ge
  jmp_if_false body
  jmp done
body:
  push_int )" + std::to_string(spin) + R"(
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
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
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
}

int64_t expected_token(uint32_t n, int rounds) {
  int64_t per = 0;
  for (uint32_t r = 1; r < n; ++r) per += r;
  return per * rounds;
}

bool output_contains(const std::vector<std::string>& lines, const std::string& needle) {
  return std::any_of(lines.begin(), lines.end(), [&](const std::string& l) {
    return l.find(needle) != std::string::npos;
  });
}

daemon::JobSpec ring_job(const std::string& name, uint32_t nprocs) {
  daemon::JobSpec j;
  j.name = name;
  j.binary = "ring";
  j.nprocs = nprocs;
  j.policy = daemon::FtPolicy::kRestart;
  j.protocol = daemon::CrProtocol::kStopAndSync;
  j.level = daemon::CkptLevel::kVm;
  j.ckpt_interval = milliseconds(50);
  return j;
}

std::vector<std::string> crash_recovery_run(ckpt::CompressMode mode) {
  ClusterOptions opts;
  opts.nodes = 4;
  opts.ckpt_compress = mode;
  Cluster cluster(std::move(opts));
  cluster.registry().register_vm("ring", ring_program(30, 100000));
  cluster.submit(ring_job("codec", 4));
  cluster.run_for(milliseconds(300));
  EXPECT_TRUE(cluster.store().latest_committed("codec").has_value())
      << ckpt::compress_mode_name(mode) << ": nothing committed before the crash";
  cluster.crash_node(2);
  EXPECT_TRUE(cluster.run_until_done("codec", seconds(240.0))) << ckpt::compress_mode_name(mode);
  return cluster.output("codec");
}

// Crash mid-chain under every mode: recovery restores from a committed
// epoch whose payload travelled through the mode's codec, and the
// application result is identical across all four pipelines.
TEST(ClusterCompressDifferential, CrashRecoveryIsModeInvariant) {
  const std::vector<std::string> off = crash_recovery_run(ckpt::CompressMode::kOff);
  EXPECT_TRUE(output_contains(off, std::to_string(expected_token(4, 30))));
  for (ckpt::CompressMode mode : {ckpt::CompressMode::kLz, ckpt::CompressMode::kDelta,
                                  ckpt::CompressMode::kDeltaLz}) {
    EXPECT_EQ(crash_recovery_run(mode), off) << ckpt::compress_mode_name(mode);
  }
}

// Mixed-endianness SFV2 payloads through the coded pipeline: the crash
// moves rank placement across representations, so restore decompresses a
// delta+lz frame and then converts endianness/word size.
TEST(ClusterCompressHeterogeneous, DeltaLzRestoresAcrossRepresentations) {
  ClusterOptions opts;
  auto machines = sim::table2_machines();
  opts.machines = {machines[0], machines[1], machines[5], machines[2]};  // LE32, BE32, LE64, BE32
  opts.nodes = 4;
  opts.ckpt_compress = ckpt::CompressMode::kDeltaLz;
  Cluster cluster(std::move(opts));
  cluster.registry().register_vm("ring", ring_program(40, 100000));
  cluster.submit(ring_job("hetero", 4));
  cluster.run_for(milliseconds(130));
  cluster.crash_node(0);  // the little-endian 32-bit node dies
  ASSERT_TRUE(cluster.run_until_done("hetero", seconds(240.0)));
  EXPECT_TRUE(
      output_contains(cluster.output("hetero"), std::to_string(expected_token(4, 40))));
}

// ------------------------------------------------------ payload golden ----

// Byte goldens for the checkpoint path under delta+lz: every image either
// tier stores and the raw payload each one resolves to, for a 4-rank
// stop-and-sync job that crashes once. Recorded before the payload path
// stopped copying (moved captures, exact-size frames, shared stored
// images); ownership changes must leave every byte, codec, base epoch and
// read charge untouched.
//
// Regenerating (only for an intentional image, codec or cost change):
//   STARFISH_GOLDEN_DUMP=1 ./ckpt_codec_test --gtest_filter='PayloadGolden.*'
// prints the actuals to paste below.

constexpr int64_t kGoldenCells = 8192;
constexpr int64_t kGoldenSteps = 120;

/// Each rank fills an 8k-cell array (a 19-page payload), then per 5 ms
/// step bumps one cell, 37 cells past the last; rank 0 prints the array's
/// sum at the end. The touches dirty a page or two per epoch, so every
/// warm epoch is a delta+lz link a few KB long.
std::string sparse_cells_program() {
  return R"(
func main 0 6
  syscall rank
  store_local 0
  push_int )" + std::to_string(kGoldenCells) + R"(
  new_array
  store_local 1
  push_int 0
  store_local 2
fill:
  load_local 2
  push_int )" + std::to_string(kGoldenCells) + R"(
  lt
  jmp_if_false filled
  load_local 1
  load_local 2
  load_local 2
  push_int 31
  mul
  load_local 0
  add
  astore
  load_local 2
  push_int 1
  add
  store_local 2
  jmp fill
filled:
  push_int 0
  store_local 3
step:
  load_local 3
  push_int )" + std::to_string(kGoldenSteps) + R"(
  lt
  jmp_if_false stepped
  push_int 100000
  syscall spin
  load_local 3
  push_int 37
  mul
  load_local 0
  push_int 11
  mul
  add
  push_int )" + std::to_string(kGoldenCells) + R"(
  mod
  store_local 4
  load_local 1
  load_local 4
  load_local 1
  load_local 4
  aload
  load_local 3
  add
  push_int 1
  add
  astore
  load_local 3
  push_int 1
  add
  store_local 3
  jmp step
stepped:
  push_int 0
  store_local 5
  push_int 0
  store_local 2
sum:
  load_local 2
  push_int )" + std::to_string(kGoldenCells) + R"(
  lt
  jmp_if_false summed
  load_local 5
  load_local 1
  load_local 2
  aload
  add
  store_local 5
  load_local 2
  push_int 1
  add
  store_local 2
  jmp sum
summed:
  load_local 0
  push_int 0
  eq
  jmp_if_false finish
  load_local 5
  syscall print
finish:
  halt
)";
}

int64_t sparse_cells_sum() {
  int64_t sum = 0;
  for (int64_t i = 0; i < kGoldenCells; ++i) sum += i * 31;
  for (int64_t s = 0; s < kGoldenSteps; ++s) sum += s + 1;
  return sum;
}

struct FnvHash {
  uint64_t h = 1469598103934665603ull;
  void mix(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void mix(util::BytesView bytes) { mix(bytes.data(), bytes.size()); }
  void mix_u64(uint64_t v) { mix(&v, sizeof v); }
};

struct PayloadGoldenRun {
  uint64_t stored = 0;  ///< key, codec, codec base epoch, file size, stored bytes
  uint64_t raw = 0;     ///< key and the raw payload each stored image resolves to
  uint64_t logical = 0;  ///< content_hash() as it changes: disk images as the store resolves them
  uint64_t reads = 0;   ///< read counts, bytes and virtual time; finish ms; output
  uint64_t images = 0;  ///< distinct stored images seen
};

/// Runs the job, polling both tiers every virtual ms (for_each_stored and
/// content_hash are zero-cost, so polling does not perturb the run). An
/// image is hashed when first seen or when its stored bytes change under
/// the same key (a re-taken epoch after the rollback); its raw payload is
/// decoded here through the public codec from the raw payload of its
/// base. content_hash adds the store's own chain resolution of the disk
/// tier, and the read counters pin what restores fetched and were charged.
PayloadGoldenRun payload_golden_run(ckpt::CkptBackend backend) {
  ClusterOptions opts;
  opts.nodes = 4;
  opts.ckpt_backend = backend;
  opts.ckpt_compress = ckpt::CompressMode::kDeltaLz;
  Cluster cluster(std::move(opts));
  obs::Hub hub;
  cluster.engine().set_obs(&hub);
  cluster.registry().register_vm("cells", sparse_cells_program());
  daemon::JobSpec job = ring_job("golden", 4);
  job.binary = "cells";
  job.ckpt_interval = milliseconds(40);
  cluster.submit(job);

  FnvHash stored, raw, logical;
  uint64_t last_content = 0;
  std::map<ckpt::CkptKey, uint64_t> seen;
  std::map<ckpt::CkptKey, util::Bytes> raws;
  uint64_t images = 0;
  const auto poll = [&] {
    cluster.store().for_each_stored([&](const ckpt::CkptKey& key, const auto& img) {
      const util::BytesView bytes = util::as_bytes_view(img.payload);
      FnvHash one;
      one.mix_u64(static_cast<uint64_t>(img.codec));
      one.mix_u64(img.codec_base_epoch);
      one.mix_u64(img.file_bytes);
      one.mix(bytes);
      if (auto it = seen.find(key); it != seen.end() && it->second == one.h) return;
      seen[key] = one.h;
      ++images;
      stored.mix(key.app.data(), key.app.size());
      stored.mix_u64(key.rank);
      stored.mix_u64(key.epoch);
      stored.mix_u64(one.h);
      util::BytesView base;
      if (img.codec == ckpt::PayloadCodec::kDelta || img.codec == ckpt::PayloadCodec::kDeltaLz) {
        auto b = raws.find({key.app, key.rank, img.codec_base_epoch});
        ASSERT_NE(b, raws.end()) << "base of e" << key.epoch << " never seen";
        base = util::as_bytes_view(b->second);
      }
      auto decoded =
          ckpt::decode_payload(img.codec, bytes, base, ckpt::kMaxIncrementalStateBytes, nullptr);
      ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
      raw.mix_u64(key.rank);
      raw.mix_u64(key.epoch);
      raw.mix(util::as_bytes_view(decoded.value()));
      raws[key] = std::move(decoded).take();
    });
    if (const uint64_t h = cluster.store().content_hash(); h != last_content) {
      last_content = h;
      logical.mix_u64(h);
    }
  };

  int ms = 0;
  for (; ms < 140; ++ms) {
    cluster.run_for(milliseconds(1));
    poll();
  }
  EXPECT_TRUE(cluster.store().latest_committed("golden").has_value());
  cluster.crash_node(2);
  for (; ms < 20000 && cluster.phase("golden") != daemon::AppPhase::kCompleted; ++ms) {
    cluster.run_for(milliseconds(1));
    poll();
  }
  EXPECT_EQ(cluster.phase("golden"), daemon::AppPhase::kCompleted);
  EXPECT_EQ(cluster.daemon_at(0).restarts_performed(), 1u);
  EXPECT_TRUE(output_contains(cluster.output("golden"), std::to_string(sparse_cells_sum())));

  FnvHash reads;
  for (const char* name : {"ckpt.store.images_read", "ckpt.store.bytes_read",
                           "ckpt.replica.gets", "ckpt.replica.bytes_fetched"}) {
    const auto* c = hub.metrics.find_counter(name);
    reads.mix_u64(c != nullptr ? c->value() : 0);
  }
  for (const char* name : {"ckpt.store.read_ns", "ckpt.replica.get_ns"}) {
    const auto* h = hub.metrics.find_histogram(name);
    reads.mix_u64(h != nullptr ? h->count() : 0);
    reads.mix_u64(h != nullptr ? h->sum() : 0);
  }
  for (const char* name : {"ckpt.codec.decode_errors", "ckpt.codec.chain_breaks"}) {
    const auto* c = hub.metrics.find_counter(name);
    EXPECT_TRUE(c == nullptr || c->value() == 0) << name;
  }
  reads.mix_u64(static_cast<uint64_t>(ms));
  for (const std::string& line : cluster.output("golden")) reads.mix(line.data(), line.size());
  cluster.engine().set_obs(nullptr);
  return {stored.h, raw.h, logical.h, reads.h, images};
}

void check_payload_golden(const char* name, ckpt::CkptBackend backend,
                          const PayloadGoldenRun& want) {
  const PayloadGoldenRun got = payload_golden_run(backend);
  if (std::getenv("STARFISH_GOLDEN_DUMP") != nullptr) {
    std::printf(
        "golden %s: {.stored = %lluull, .raw = %lluull, .logical = %lluull, .reads = %lluull, "
        ".images = %llu}\n",
        name, static_cast<unsigned long long>(got.stored), static_cast<unsigned long long>(got.raw),
        static_cast<unsigned long long>(got.logical), static_cast<unsigned long long>(got.reads),
        static_cast<unsigned long long>(got.images));
    GTEST_SKIP() << "STARFISH_GOLDEN_DUMP set: printed actuals";
  }
  EXPECT_EQ(got.stored, want.stored) << name;
  EXPECT_EQ(got.raw, want.raw) << name;
  EXPECT_EQ(got.logical, want.logical) << name;
  EXPECT_EQ(got.reads, want.reads) << name;
  EXPECT_EQ(got.images, want.images) << name;
}

TEST(PayloadGolden, DeltaLzDiskBackend) {
  check_payload_golden("disk", ckpt::CkptBackend::kDisk,
                       {.stored = 17494528211289953188ull,
                        .raw = 16936880468425953331ull,
                        .logical = 397152419855208414ull,
                        .reads = 5619754215676970128ull,
                        .images = 32});
}

TEST(PayloadGolden, DeltaLzReplicaBackend) {
  check_payload_golden("replica", ckpt::CkptBackend::kReplica,
                       {.stored = 5065925468006996066ull,
                        .raw = 5484719473996350188ull,
                        .logical = 13421826419662196555ull,
                        .reads = 2044772771826516665ull,
                        .images = 32});
}

}  // namespace
}  // namespace starfish::core
