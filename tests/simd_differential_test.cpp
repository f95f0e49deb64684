// Seeded differential suite for the runtime-dispatched SIMD kernels.
//
// The dispatch contract (util/simd/simd.hpp) is that every kernel is
// bit-identical across ISA levels, so checkpoint fingerprints, portable
// image payloads and packed MPI messages never depend on the host CPU.
// These tests pin that by running every kernel at every level the binary
// carries against the scalar reference, over randomized sizes, contents
// and (mis)alignments, and by re-encoding the same VM state and datatype
// layouts under each forced level.
//
// The whole binary is registered twice with ctest: once normally and once
// with STARFISH_SIMD=scalar (SimdDifferentialScalarForced), so the image,
// datatype and LZ frame goldens, and the LZ matcher's byte-for-byte
// comparison against its pre-rewrite reference (lz_reference.cpp), are
// also re-checked under a scalar-forced dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/image.hpp"
#include "ckpt/incremental.hpp"
#include "mpi/datatype.hpp"
#include "sim/machine.hpp"
#include "util/codec/lz.hpp"
#include "util/rng.hpp"
#include "util/simd/simd.hpp"
#include "vm/value.hpp"
#include "lz_reference.hpp"

namespace starfish {
namespace {

namespace simd = util::simd;
using simd::Isa;
using vm::Value;

/// Levels beyond scalar that this binary + CPU can run.
std::vector<Isa> vector_levels() {
  std::vector<Isa> out;
  for (Isa isa : simd::available()) {
    if (isa != Isa::kScalar) out.push_back(isa);
  }
  return out;
}

/// Restores the dispatched table on scope exit (force() is process-global).
class ForceGuard {
 public:
  ForceGuard() : prev_(simd::level()) {}
  ~ForceGuard() { simd::force(prev_); }

 private:
  Isa prev_;
};

util::Bytes random_bytes(util::Rng& rng, size_t n) {
  util::Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.next() & 0xff);
  return b;
}

/// Sizes that straddle every tail-handling boundary of the kernels: the
/// 64-byte stripe, the vector register widths, and the 8/4/1-byte epilogue.
std::vector<size_t> boundary_sizes() {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 130; ++n) sizes.push_back(n);
  for (size_t base : {256u, 512u, 4096u}) {
    sizes.push_back(base - 1);
    sizes.push_back(base);
    sizes.push_back(base + 1);
  }
  return sizes;
}

// ------------------------------------------------------------ kernels ----

TEST(SimdDifferential, FingerprintMatchesScalarOnBoundarySizes) {
  const simd::Ops* scalar = simd::table(Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  util::Rng rng(0x51f15a01);
  util::Bytes buf = random_bytes(rng, 4096 + 1 + 16);
  for (Isa isa : vector_levels()) {
    const simd::Ops* t = simd::table(isa);
    ASSERT_NE(t, nullptr);
    for (size_t n : boundary_sizes()) {
      for (size_t mis : {size_t{0}, size_t{1}, size_t{7}, size_t{13}}) {
        const std::byte* p = buf.data() + mis;
        EXPECT_EQ(t->fingerprint(p, n), scalar->fingerprint(p, n))
            << simd::isa_name(isa) << " n=" << n << " mis=" << mis;
      }
    }
  }
}

TEST(SimdDifferential, FingerprintMatchesScalarOnRandomSlices) {
  const simd::Ops* scalar = simd::table(Isa::kScalar);
  util::Rng rng(0x51f15a02);
  util::Bytes buf = random_bytes(rng, 1 << 16);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t n = rng.next() % (1 << 14);
    const size_t off = rng.next() % (buf.size() - n);
    const std::byte* p = buf.data() + off;
    const uint64_t want = scalar->fingerprint(p, n);
    for (Isa isa : vector_levels()) {
      EXPECT_EQ(simd::table(isa)->fingerprint(p, n), want)
          << simd::isa_name(isa) << " iter=" << iter << " n=" << n;
    }
  }
}

TEST(SimdDifferential, FingerprintDistinguishesContent) {
  // Sanity on the hash itself (any level; they are identical per the tests
  // above): distinct content and distinct lengths produce distinct values.
  util::Bytes a(4096, std::byte{0});
  util::Bytes b = a;
  b[1234] = std::byte{1};
  EXPECT_NE(simd::fingerprint(a.data(), a.size()), simd::fingerprint(b.data(), b.size()));
  EXPECT_NE(simd::fingerprint(a.data(), 4095), simd::fingerprint(a.data(), 4096));
  EXPECT_NE(simd::fingerprint(a.data(), 0), simd::fingerprint(a.data(), 1));
}

template <size_t kElem>
void check_bswap(void (*vec_fn)(std::byte*, const std::byte*, size_t),
                 void (*ref_fn)(std::byte*, const std::byte*, size_t), const char* name,
                 util::Rng& rng) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{15}, size_t{16}, size_t{17},
                   size_t{63}, size_t{64}, size_t{65}, size_t{500}, size_t{2000}}) {
    const size_t mis = rng.next() % 8;
    util::Bytes src = random_bytes(rng, n * kElem + mis);
    util::Bytes want(n * kElem + mis), got(n * kElem + mis);
    ref_fn(want.data() + mis, src.data() + mis, n);
    vec_fn(got.data() + mis, src.data() + mis, n);
    EXPECT_EQ(want, got) << name << " out-of-place n=" << n << " mis=" << mis;
    // In-place form (the Reader converts wire slices in place).
    util::Bytes inplace = src;
    vec_fn(inplace.data() + mis, inplace.data() + mis, n);
    EXPECT_TRUE(std::equal(want.begin() + mis, want.end(), inplace.begin() + mis))
        << name << " in-place n=" << n << " mis=" << mis;
  }
}

TEST(SimdDifferential, ByteswapMatchesScalar) {
  const simd::Ops* scalar = simd::table(Isa::kScalar);
  util::Rng rng(0x51f15a03);
  for (Isa isa : vector_levels()) {
    const simd::Ops* t = simd::table(isa);
    check_bswap<2>(t->bswap16, scalar->bswap16, simd::isa_name(isa), rng);
    check_bswap<4>(t->bswap32, scalar->bswap32, simd::isa_name(isa), rng);
    check_bswap<8>(t->bswap64, scalar->bswap64, simd::isa_name(isa), rng);
  }
}

TEST(SimdDifferential, ByteswapIsAnInvolutionAndReversesBytes) {
  util::Rng rng(0x51f15a04);
  util::Bytes src = random_bytes(rng, 64 * 8);
  util::Bytes once(src.size()), twice(src.size());
  simd::bswap64(once.data(), src.data(), 64);
  simd::bswap64(twice.data(), once.data(), 64);
  EXPECT_EQ(twice, src);
  for (size_t e = 0; e < 64; ++e) {
    for (size_t b = 0; b < 8; ++b) {
      EXPECT_EQ(once[e * 8 + b], src[e * 8 + 7 - b]) << "elem " << e << " byte " << b;
    }
  }
}

TEST(SimdDifferential, WidenNarrowMatchScalar) {
  const simd::Ops* scalar = simd::table(Isa::kScalar);
  util::Rng rng(0x51f15a05);
  for (Isa isa : vector_levels()) {
    const simd::Ops* t = simd::table(isa);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{100},
                     size_t{1000}}) {
      const size_t mis = rng.next() % 8;
      util::Bytes narrow = random_bytes(rng, n * 4 + mis);
      util::Bytes wide_want(n * 8), wide_got(n * 8);
      scalar->widen_i32_i64(wide_want.data(), narrow.data() + mis, n);
      t->widen_i32_i64(wide_got.data(), narrow.data() + mis, n);
      EXPECT_EQ(wide_want, wide_got) << simd::isa_name(isa) << " widen n=" << n;

      util::Bytes wide = random_bytes(rng, n * 8 + mis);
      util::Bytes narrow_want(n * 4), narrow_got(n * 4);
      scalar->narrow_i64_i32(narrow_want.data(), wide.data() + mis, n);
      t->narrow_i64_i32(narrow_got.data(), wide.data() + mis, n);
      EXPECT_EQ(narrow_want, narrow_got) << simd::isa_name(isa) << " narrow n=" << n;
    }
  }
}

TEST(SimdDifferential, WidenSignExtendsAndNarrowTruncates) {
  const int32_t in[] = {0, 1, -1, INT32_MIN, INT32_MAX, -123456};
  int64_t wide[6];
  simd::widen_i32_i64(reinterpret_cast<std::byte*>(wide),
                      reinterpret_cast<const std::byte*>(in), 6);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(wide[i], static_cast<int64_t>(in[i])) << i;
  int32_t back[6];
  simd::narrow_i64_i32(reinterpret_cast<std::byte*>(back),
                       reinterpret_cast<const std::byte*>(wide), 6);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(back[i], in[i]) << i;
}

TEST(SimdDifferential, CopyMatchesSourceAtEveryLevel) {
  util::Rng rng(0x51f15a06);
  for (Isa isa : simd::available()) {
    const simd::Ops* t = simd::table(isa);
    for (int iter = 0; iter < 200; ++iter) {
      const size_t n = rng.next() % 3000;
      const size_t mis_s = rng.next() % 16, mis_d = rng.next() % 16;
      util::Bytes src = random_bytes(rng, n + mis_s);
      util::Bytes dst(n + mis_d, std::byte{0xcd});
      t->copy(dst.data() + mis_d, src.data() + mis_s, n);
      EXPECT_EQ(std::memcmp(dst.data() + mis_d, src.data() + mis_s, n), 0)
          << simd::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdDifferential, MismatchMatchesScalarAtPlantedPositions) {
  const simd::Ops* scalar = simd::table(Isa::kScalar);
  util::Rng rng(0x51f15a07);
  for (size_t n : boundary_sizes()) {
    util::Bytes a = random_bytes(rng, n + 16);
    util::Bytes b = a;
    // Equal ranges first, then a planted difference at every boundary-ish
    // position (start, end, register edges, random interior).
    std::vector<size_t> positions = {0, n / 2, n > 0 ? n - 1 : 0, rng.next() % (n + 1)};
    for (size_t limit : {n, n / 3}) {
      EXPECT_EQ(scalar->mismatch(a.data(), b.data(), limit), limit);
      for (Isa isa : vector_levels()) {
        EXPECT_EQ(simd::table(isa)->mismatch(a.data(), b.data(), limit), limit)
            << simd::isa_name(isa) << " equal n=" << limit;
      }
    }
    for (size_t pos : positions) {
      if (pos >= n) continue;
      util::Bytes c = a;
      c[pos] = static_cast<std::byte>(static_cast<uint8_t>(c[pos]) ^ 0x80);
      const size_t want = scalar->mismatch(a.data(), c.data(), n);
      ASSERT_EQ(want, pos);
      for (Isa isa : vector_levels()) {
        EXPECT_EQ(simd::table(isa)->mismatch(a.data(), c.data(), n), want)
            << simd::isa_name(isa) << " n=" << n << " pos=" << pos;
      }
      // Misaligned views of the same planted difference.
      for (size_t mis : {size_t{1}, size_t{7}, size_t{13}}) {
        const size_t m = n;  // buffers carry 16 spare bytes
        const size_t w = scalar->mismatch(a.data() + mis, c.data() + mis, m);
        for (Isa isa : vector_levels()) {
          EXPECT_EQ(simd::table(isa)->mismatch(a.data() + mis, c.data() + mis, m), w)
              << simd::isa_name(isa) << " mis=" << mis;
        }
      }
    }
  }
}

// ----------------------------------------------------------- dispatch ----

TEST(SimdDifferential, DispatchInvariants) {
  auto avail = simd::available();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), Isa::kScalar);  // scalar is always present
  EXPECT_NE(simd::table(Isa::kScalar), nullptr);
  // The dispatched level is one of the available ones and self-consistent.
  EXPECT_EQ(simd::ops().isa, simd::level());
  EXPECT_NE(std::find(avail.begin(), avail.end(), simd::level()), avail.end());
  // The probe is coherent with table availability on this host.
  if (simd::cpu_features().avx2 && simd::table(Isa::kAvx2) != nullptr) {
    EXPECT_EQ(simd::table(Isa::kAvx2)->isa, Isa::kAvx2);
  }
}

TEST(SimdDifferential, ForceOverridesAndRestores) {
  const Isa before = simd::level();
  {
    ForceGuard guard;
    simd::force(Isa::kScalar);
    EXPECT_EQ(simd::level(), Isa::kScalar);
    EXPECT_EQ(simd::ops().isa, Isa::kScalar);
  }
  EXPECT_EQ(simd::level(), before);
}

// ------------------------------------------------- portable image ----

/// A state big and varied enough that every column kernel sees real work.
vm::VmState fuzz_state(uint64_t seed) {
  util::Rng rng(seed);
  vm::VmState s;
  auto rand_value = [&rng]() {
    switch (rng.next() % 5) {
      case 0: return Value::unit();
      case 1: return Value::integer(static_cast<int32_t>(rng.next()));
      case 2: return Value::real(static_cast<double>(rng.next()) * 0x1.0p-32);
      case 3: return Value::boolean(rng.chance(0.5));
      default: return Value::reference(static_cast<uint32_t>(rng.next() % 7));
    }
  };
  for (int i = 0; i < 600; ++i) s.globals.push_back(rand_value());
  for (int i = 0; i < 200; ++i) s.stack.push_back(rand_value());
  for (int fi = 0; fi < 5; ++fi) {
    vm::Frame f;
    f.function = static_cast<uint32_t>(rng.next() % 100);
    f.pc = static_cast<uint32_t>(rng.next() % 1000);
    for (int i = 0; i < 50; ++i) f.locals.push_back(rand_value());
    s.frames.push_back(std::move(f));
  }
  for (int hi = 0; hi < 7; ++hi) {
    vm::HeapObject obj;
    if (hi % 2 == 0) {
      obj.kind = vm::HeapObject::Kind::kArray;
      for (int i = 0; i < 80; ++i) obj.push_back(rand_value());
    } else {
      obj.kind = vm::HeapObject::Kind::kBytes;
      obj.bytes = util::Bytes(333, std::byte{static_cast<uint8_t>(hi)});
    }
    s.heap.push_back(std::move(obj));
  }
  s.steps_executed = rng.next();
  return s;
}

TEST(SimdDifferential, ImagePayloadBytesInvariantAcrossLevels) {
  const vm::VmState state = fuzz_state(0x1111a6e5);
  ForceGuard guard;
  for (const sim::Machine& saver : sim::table2_machines()) {
    simd::force(Isa::kScalar);
    const ckpt::Image want = ckpt::portable_encode(saver, state);
    for (Isa isa : vector_levels()) {
      simd::force(isa);
      const ckpt::Image got = ckpt::portable_encode(saver, state);
      EXPECT_EQ(got.payload, want.payload)
          << saver.label() << " encoded differently under " << simd::isa_name(isa);
      // Decode back on a 64-bit little-endian target at this level too.
      auto back = ckpt::portable_decode(want, sim::default_machine());
      ASSERT_TRUE(back.ok()) << back.error().to_string();
      EXPECT_EQ(back.value(), state) << saver.label() << " via " << simd::isa_name(isa);
    }
  }
}

TEST(SimdDifferential, MixedEndianRoundTripGolden) {
  // Encode on a big-endian 32-bit machine, decode on a little-endian 64-bit
  // one — the full byteswap + widen path. Registered a second time with
  // STARFISH_SIMD=scalar so the golden also runs under forced-scalar dispatch.
  sim::Machine big32{"sparc", "sunos", util::Endian::kBig, 4};
  sim::Machine little64{"alpha", "osf1", util::Endian::kLittle, 8};

  vm::VmState s;
  s.globals = {Value::integer(0x01020304), Value::integer(-2), Value::real(6.5),
               Value::boolean(true), Value::reference(3), Value::unit()};
  s.steps_executed = 0x1122334455667788ull;

  const ckpt::Image img = ckpt::portable_encode(big32, s);
  EXPECT_EQ(img.repr_code, big32.repr_code());
  auto back = ckpt::portable_decode(img, little64);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().globals[0], Value::integer(0x01020304));
  EXPECT_EQ(back.value().globals[1], Value::integer(-2));
  EXPECT_EQ(back.value().globals[2], Value::real(6.5));
  EXPECT_EQ(back.value().globals[3], Value::boolean(true));
  EXPECT_EQ(back.value().globals[4], Value::reference(3));
  EXPECT_EQ(back.value().globals[5], Value::unit());
  EXPECT_EQ(back.value().steps_executed, 0x1122334455667788ull);

  // And the reverse direction narrows: 64-bit saver, 32-bit target.
  const ckpt::Image img64 = ckpt::portable_encode(little64, back.value());
  auto back32 = ckpt::portable_decode(img64, big32);
  ASSERT_TRUE(back32.ok()) << back32.error().to_string();
  EXPECT_EQ(back32.value(), back.value());
}

// ------------------------------------------------------- datatype ----

TEST(SimdDifferential, DatatypePackBytesInvariantAcrossLevels) {
  util::Rng rng(0x9ac4);
  ForceGuard guard;
  for (int iter = 0; iter < 30; ++iter) {
    // Random indexed layout, zero-length blocks included.
    std::vector<std::pair<size_t, size_t>> blocks;
    size_t off = rng.next() % 32;
    const size_t n_blocks = 1 + rng.next() % 12;
    for (size_t b = 0; b < n_blocks; ++b) {
      const size_t len = rng.next() % 200;  // 0 allowed
      blocks.emplace_back(off, len);
      off += len + rng.next() % 64;
    }
    const mpi::Datatype dt = mpi::Datatype::indexed(blocks);
    util::Bytes buffer = random_bytes(rng, dt.extent() + 8);

    simd::force(Isa::kScalar);
    auto want = dt.pack(buffer);
    ASSERT_TRUE(want.ok());
    for (Isa isa : vector_levels()) {
      simd::force(isa);
      auto got = dt.pack(buffer);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), want.value()) << simd::isa_name(isa) << " iter=" << iter;

      util::Bytes scattered(dt.extent() + 8, std::byte{0});
      ASSERT_TRUE(dt.unpack(got.value(), scattered).ok());
      auto repacked = dt.pack(scattered);
      ASSERT_TRUE(repacked.ok());
      EXPECT_EQ(repacked.value(), want.value()) << "unpack/pack round trip, iter=" << iter;
    }
  }
}

// ------------------------------------------------------- lz frames ----

enum class LzInput { kZeros, kRandom, kRunHeavy, kStructured, kNarrowColumn };

/// The corpus input of one kind and size; seeded by both, so every input
/// is fixed independently of the others.
util::Bytes lz_input(LzInput kind, size_t n) {
  util::Rng rng(0x12c0de00 + static_cast<uint64_t>(kind) * 1000003 + n);
  util::Bytes b(n, std::byte{0});
  switch (kind) {
    case LzInput::kZeros:
      break;
    case LzInput::kRandom:
      b = random_bytes(rng, n);
      break;
    case LzInput::kRunHeavy:
      for (size_t i = 0; i < n;) {
        const size_t len = std::min<size_t>(1 + rng.below(300), n - i);
        std::fill_n(b.begin() + static_cast<ptrdiff_t>(i), len,
                    static_cast<std::byte>(rng.below(4) * 0x55));
        i += len;
      }
      break;
    case LzInput::kStructured:
      // Repeating 32-byte records with a counter field.
      for (size_t i = 0; i < n; ++i) {
        const size_t rec = i / 32;
        const size_t field = i % 32;
        b[i] = static_cast<std::byte>(field < 4 ? (rec >> (8 * field)) & 0xff : field * 7);
      }
      break;
    case LzInput::kNarrowColumn:
      // An SFV2 column of narrowed integers: 32-bit little-endian values
      // below 2^20, which almost never repeat a 4-byte window.
      for (size_t i = 0; i < n; i += 4) {
        const uint64_t v = rng.below(uint64_t{1} << 20);
        for (size_t k = 0; k < 4 && i + k < n; ++k) {
          b[i + k] = static_cast<std::byte>((v >> (8 * k)) & 0xff);
        }
      }
      break;
  }
  return b;
}

TEST(SimdDifferential, LzFrameBytesInvariantAcrossLevels) {
  // Fingerprints of lz_compress frames, recorded from the plain hash-chain
  // matcher (no presence filter), so a filter that changed any token fails
  // here. The frames must stay byte-identical on every host and ISA level:
  // checkpoint content hashes and replica copies are compared across
  // machines.
  struct Golden {
    LzInput kind;
    size_t n;
    uint64_t frame_fingerprint;
  };
  static constexpr Golden kGoldens[] = {
      {LzInput::kZeros, 0, 0xfdb867cf608fe1d6},
      {LzInput::kZeros, 1, 0xb845137d8589c521},
      {LzInput::kZeros, 4, 0x97fa55a3d6278130},
      {LzInput::kZeros, 65535, 0x9fd975d17516956c},
      {LzInput::kZeros, 65536, 0x1202c94b2adc84c6},
      {LzInput::kZeros, 65537, 0x040923129003860a},
      {LzInput::kZeros, 200001, 0x0f7c3e6a57d1d40a},
      {LzInput::kRandom, 0, 0xfdb867cf608fe1d6},
      {LzInput::kRandom, 1, 0xe344cbc9c0e42aab},
      {LzInput::kRandom, 4, 0x45f0125ac938d4c0},
      {LzInput::kRandom, 65535, 0xd781a83ff8d47271},
      {LzInput::kRandom, 65536, 0xd2bdacf5d053adc3},
      {LzInput::kRandom, 65537, 0xfc61edafbef85704},
      {LzInput::kRandom, 200001, 0xf0359fe621142aa5},
      {LzInput::kRunHeavy, 0, 0xfdb867cf608fe1d6},
      {LzInput::kRunHeavy, 1, 0x2672b3183faf31b8},
      {LzInput::kRunHeavy, 4, 0x2268088ae2ad0de6},
      {LzInput::kRunHeavy, 65535, 0xa6334b4c556ca725},
      {LzInput::kRunHeavy, 65536, 0xb31812f9db945783},
      {LzInput::kRunHeavy, 65537, 0xe0b97522a55275c1},
      {LzInput::kRunHeavy, 200001, 0x3c6bceedb3a13a6b},
      {LzInput::kStructured, 0, 0xfdb867cf608fe1d6},
      {LzInput::kStructured, 1, 0xb845137d8589c521},
      {LzInput::kStructured, 4, 0x97fa55a3d6278130},
      {LzInput::kStructured, 65535, 0x2c8ae4b0c7bd4094},
      {LzInput::kStructured, 65536, 0x368f4d0af0511a70},
      {LzInput::kStructured, 65537, 0x0759375c6604e999},
      {LzInput::kStructured, 200001, 0x7e66d357ad079048},
      {LzInput::kNarrowColumn, 0, 0xfdb867cf608fe1d6},
      {LzInput::kNarrowColumn, 1, 0x59ac9875f2b9c565},
      {LzInput::kNarrowColumn, 4, 0x6c7dab10971edbe7},
      {LzInput::kNarrowColumn, 65535, 0x131d9a407596bfac},
      {LzInput::kNarrowColumn, 65536, 0xc11becc1f6131299},
      {LzInput::kNarrowColumn, 65537, 0xf889e77e22b305bc},
      {LzInput::kNarrowColumn, 200001, 0x127c6023127db3db},
  };
  ForceGuard guard;
  for (Isa isa : simd::available()) {
    simd::force(isa);
    for (const Golden& g : kGoldens) {
      const util::Bytes raw = lz_input(g.kind, g.n);
      const util::Bytes frame = util::codec::lz_compress(util::as_bytes_view(raw));
      EXPECT_EQ(simd::fingerprint(frame.data(), frame.size()), g.frame_fingerprint)
          << simd::isa_name(isa) << " kind=" << static_cast<int>(g.kind) << " n=" << g.n;
    }
  }
}


// ------------------------------------------------- lz matcher oracle ----
//
// The matcher's tokens are part of the stored format: lz_compress must
// write exactly the frames of the pre-rewrite matcher (lz_reference.cpp,
// kept verbatim), at every ISA level. The corpus is every lz_input kind, an
// SFV2 column of narrowed ints and a delta frame of literal pages at sizes
// around zero, a page and a block, plus adversarial blocks aimed at each
// token rule the rewrite must keep.

using util::codec::kLzBlockBytes;

/// One decoded sequence of an LZ block: `lit_len` literals, then a match of
/// `match_len` bytes (0 = none) starting at raw position `at`.
struct LzSeq {
  size_t at = 0;
  size_t lit_len = 0;
  size_t match_len = 0;
  size_t offset = 0;
};

/// The sequences of a frame's first block; empty when that block is stored.
std::vector<LzSeq> lz_block_sequences(const util::Bytes& frame) {
  constexpr size_t kHeader = 17, kBlockHeader = 17;
  std::vector<LzSeq> out;
  if (frame.size() <= kHeader + kBlockHeader || frame[kHeader] != std::byte{1}) return out;
  const auto byte = [&](size_t i) { return static_cast<size_t>(frame[i]); };
  size_t enc_len = 0;
  for (int k = 3; k >= 0; --k) enc_len = enc_len << 8 | byte(kHeader + 5 + k);
  size_t ip = kHeader + kBlockHeader;
  const size_t end = ip + enc_len;
  size_t op = 0;
  auto ext = [&](size_t& v) {
    for (size_t b = 255; b == 255; v += b) b = byte(ip++);
  };
  while (ip < end) {
    LzSeq seq;
    const size_t token = byte(ip++);
    seq.lit_len = token >> 4;
    if (seq.lit_len == 15) ext(seq.lit_len);
    ip += seq.lit_len;
    op += seq.lit_len;
    seq.at = op;
    if ((token & 15) != 0) {
      seq.offset = byte(ip) | byte(ip + 1) << 8;
      ip += 2;
      seq.match_len = (token & 15) + 3;
      if ((token & 15) == 15) ext(seq.match_len);
      op += seq.match_len;
    }
    out.push_back(seq);
  }
  return out;
}

bool has_match_at(const std::vector<LzSeq>& seqs, size_t at) {
  return std::any_of(seqs.begin(), seqs.end(),
                     [&](const LzSeq& s) { return s.match_len != 0 && s.at == at; });
}

/// `count` distinct 4-byte windows (as little-endian values), none equal
/// to `avoid`, whose 14-bit chain hash equals `avoid`'s.
std::vector<uint32_t> colliding_windows(uint32_t avoid, size_t count) {
  const auto hash14 = [](uint32_t v) { return (v * 2654435761u) >> 18; };
  std::vector<uint32_t> out;
  for (uint32_t v = 0x9e3779b9; out.size() < count; v += 0x01000193) {
    if (v != avoid && hash14(v) == hash14(avoid)) out.push_back(v);
  }
  return out;
}

/// `n` bytes of an SFV2 image of one array of narrowed ints, the shape of
/// sparse8_ckpt's rank state (the image is built long enough, then cut).
util::Bytes sfv2_column(size_t n) {
  util::Rng rng(0x5f2c01);
  vm::VmState s;
  vm::HeapObject arr;
  arr.assign(n / 4 + 64, Value::unit());
  for (size_t i = 0; i < n / 4 + 64; ++i) {
    arr.set(i, Value::integer(static_cast<int64_t>(rng.below(uint64_t{1} << 20))));
  }
  s.heap.push_back(std::move(arr));
  util::Bytes payload = ckpt::portable_encode(sim::default_machine(), s).payload;
  payload.resize(n);
  return payload;
}

/// `n` bytes of a payload delta frame whose every page is a literal.
util::Bytes delta_literal_frame(size_t n) {
  util::Rng rng(0xde17a);
  const size_t pages = n / ckpt::kPageBytes + 2;
  util::Bytes base(pages * ckpt::kPageBytes);
  for (size_t i = 0; i < base.size(); i += 4) {
    const auto v = static_cast<uint32_t>(rng.below(uint64_t{1} << 20));
    std::memcpy(base.data() + i, &v, 4);
  }
  util::Bytes raw = base;
  for (size_t page = 0; page < pages; ++page) {
    raw[page * ckpt::kPageBytes + rng.below(ckpt::kPageBytes)] ^= std::byte{0x5a};
  }
  util::Bytes frame = ckpt::encode_payload(ckpt::CompressMode::kDelta, util::as_bytes_view(raw),
                                           util::as_bytes_view(base), nullptr)
                          .bytes;
  frame.resize(n);
  return frame;
}

struct LzCase {
  std::string name;
  util::Bytes raw;
};

/// Blocks aimed at one token rule each; `checks` below pins that each
/// hits the rule it is named after.
std::vector<LzCase> lz_adversarial_cases() {
  util::Rng rng(0xadd5);
  std::vector<LzCase> out;
  const auto random = [&](size_t n) { return random_bytes(rng, n); };
  const auto append = [](util::Bytes& to, const util::Bytes& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  const util::Bytes zeros(4096, std::byte{0});

  // A window, then `k` windows of its 14-bit hash, then the window again
  // with the same 8-byte tail: the walk at the repeat reaches the first
  // copy only while collisions leave it inside the 16-entry cap.
  for (size_t k : {15, 16, 17, 20}) {
    const util::Bytes head = random(12);
    util::Bytes b = head;
    uint32_t w0 = 0;
    std::memcpy(&w0, head.data(), 4);
    util::Writer w(b);
    for (uint32_t v : colliding_windows(w0, k)) w.u32(v);
    append(b, head);
    append(b, zeros);
    out.push_back({"collisions=" + std::to_string(k), std::move(b)});
  }
  // Ties: three copies of one window with different continuations; the
  // third keeps the newest candidate.
  {
    const util::Bytes w = random(4);
    util::Bytes b;
    for (int copy = 0; copy < 3; ++copy) {
      append(b, w);
      append(b, random(5));
    }
    append(b, zeros);
    out.push_back({"tie", std::move(b)});
  }
  // Self-overlapping runs: periods 1, 3 and 7, each to the block's end.
  for (size_t period : {1, 3, 7}) {
    util::Bytes b = random(period);
    while (b.size() < 700) b.push_back(b[b.size() - period]);
    out.push_back({"overlap period=" + std::to_string(period), std::move(b)});
  }
  // Literal runs at the extension boundaries, before a match and at the
  // block's end.
  for (size_t lit : {14, 15, 16, 269, 270}) {
    util::Bytes b = random(lit);
    b.insert(b.end(), b.begin(), b.begin() + 8);
    append(b, zeros);
    out.push_back({"literals before match=" + std::to_string(lit), std::move(b)});
    util::Bytes tail = zeros;
    append(tail, random(lit));
    out.push_back({"trailing literals=" + std::to_string(lit), std::move(tail)});
  }
  // Match lengths at the extension boundaries.
  for (size_t len : {17, 18, 272, 273}) {
    util::Bytes b = random(300);
    b.insert(b.end(), b.begin(), b.begin() + static_cast<ptrdiff_t>(len));
    b.push_back(b[len] ^ std::byte{0xff});
    append(b, zeros);
    out.push_back({"match=" + std::to_string(len), std::move(b)});
  }
  // Tokens exactly at the raw size (stored), and one byte under it (lz).
  for (size_t match : {4, 5}) {
    util::Bytes b = random(8);
    b.insert(b.end(), b.begin(), b.begin() + static_cast<ptrdiff_t>(match));
    b.push_back(b[match] ^ std::byte{0xff});
    append(b, random(4));
    out.push_back({"tokens=raw" + std::string(match == 4 ? "" : "-1"), std::move(b)});
  }
  // A match ending 1, 2 or 3 bytes before a full block's end, where those
  // bytes and the next block's first ones repeat an earlier window: the
  // last three positions must not be searched (or inserted).
  for (size_t t : {1, 2, 3}) {
    const util::Bytes seg = random(64);
    util::Bytes quad = random(4);
    if (quad[0] == seg[16]) quad[0] ^= std::byte{1};
    util::Bytes b(1000, std::byte{0});
    append(b, seg);
    append(b, quad);
    append(b, random(4));
    b.resize(kLzBlockBytes - 16 - t, std::byte{0});
    b.insert(b.end(), seg.begin(), seg.begin() + 16);
    append(b, quad);  // t bytes in this block, 4 - t in the next
    append(b, random(100));
    append(b, zeros);
    out.push_back({"match ends " + std::to_string(t) + " before block end", std::move(b)});
  }
  return out;
}

TEST(SimdDifferential, LzMatcherWritesTheReferenceFrames) {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 8; ++n) sizes.push_back(n);
  for (size_t n = 4095; n <= 4097; ++n) sizes.push_back(n);
  for (size_t n = 65531; n <= 65537; ++n) sizes.push_back(n);
  sizes.push_back(131072);
  sizes.push_back(200001);

  std::vector<LzCase> corpus;
  for (LzInput kind : {LzInput::kZeros, LzInput::kRandom, LzInput::kRunHeavy,
                       LzInput::kStructured, LzInput::kNarrowColumn}) {
    for (size_t n : sizes) {
      corpus.push_back({"kind=" + std::to_string(static_cast<int>(kind)) + " n=" +
                            std::to_string(n),
                        lz_input(kind, n)});
    }
  }
  const util::Bytes column = sfv2_column(sizes.back());
  const util::Bytes delta = delta_literal_frame(sizes.back());
  for (size_t n : sizes) {
    corpus.push_back({"sfv2 n=" + std::to_string(n), util::Bytes(column.begin(), column.begin() + static_cast<ptrdiff_t>(n))});
    corpus.push_back({"delta n=" + std::to_string(n), util::Bytes(delta.begin(), delta.begin() + static_cast<ptrdiff_t>(n))});
  }
  for (LzCase& c : lz_adversarial_cases()) corpus.push_back(std::move(c));

  ForceGuard guard;
  for (Isa isa : simd::available()) {
    simd::force(isa);
    for (const LzCase& c : corpus) {
      const util::BytesView raw = util::as_bytes_view(c.raw);
      const util::Bytes want = util::codec::reference::lz_compress(raw);
      const util::Bytes got = util::codec::lz_compress(raw);
      if (got != want) {
        const auto diff = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
        ADD_FAILURE() << simd::isa_name(isa) << " " << c.name << ": frame of " << got.size()
                      << " bytes differs from the reference's " << want.size()
                      << " at byte " << (diff.first - got.begin());
        continue;
      }
      auto back = util::codec::lz_decompress(util::as_bytes_view(got), c.raw.size());
      ASSERT_TRUE(back.ok()) << c.name;
      EXPECT_TRUE(back.value() == c.raw) << c.name;
    }
  }
}

// The adversarial blocks hit the rules they are named after (on the
// reference's frames, so a failure here means the corpus lost its aim).
TEST(SimdDifferential, LzAdversarialBlocksHitTheirRules) {
  for (const LzCase& c : lz_adversarial_cases()) {
    const util::Bytes frame = util::codec::reference::lz_compress(util::as_bytes_view(c.raw));
    const std::vector<LzSeq> seqs = lz_block_sequences(frame);
    const auto lit_run = [&](size_t len) {
      return std::any_of(seqs.begin(), seqs.end(), [&](const LzSeq& s) { return s.lit_len == len; });
    };
    const auto match_of = [&](size_t len) {
      return std::any_of(seqs.begin(), seqs.end(), [&](const LzSeq& s) { return s.match_len == len; });
    };
    const std::string& name = c.name;
    if (name.starts_with("collisions=")) {
      const size_t k = std::stoul(name.substr(11));
      const size_t repeat = 12 + 4 * k;
      EXPECT_EQ(has_match_at(seqs, repeat), k < 16) << name;
      EXPECT_TRUE(has_match_at(seqs, repeat + 1) || k < 16) << name;
    } else if (name == "tie") {
      ASSERT_TRUE(has_match_at(seqs, 18)) << name;
      for (const LzSeq& s : seqs) {
        if (s.at == 18) {
          EXPECT_EQ(s.offset, 9u) << name;
        }
      }
    } else if (name.starts_with("overlap")) {
      const size_t period = std::stoul(name.substr(15));
      ASSERT_FALSE(seqs.empty()) << name;
      EXPECT_EQ(seqs.back().offset, period) << name;
      EXPECT_EQ(seqs.back().at + seqs.back().match_len, c.raw.size()) << name;
    } else if (name.starts_with("literals before match=")) {
      EXPECT_TRUE(lit_run(std::stoul(name.substr(22)))) << name;
    } else if (name.starts_with("trailing literals=")) {
      ASSERT_FALSE(seqs.empty()) << name;
      EXPECT_EQ(seqs.back().lit_len, std::stoul(name.substr(18))) << name;
      EXPECT_EQ(seqs.back().match_len, 0u) << name;
    } else if (name.starts_with("match=")) {
      EXPECT_TRUE(match_of(std::stoul(name.substr(6)))) << name;
    } else if (name == "tokens=raw") {
      EXPECT_EQ(frame[17], std::byte{0}) << name << ": must be stored";
      EXPECT_EQ(frame.size(), 17 + 17 + c.raw.size()) << name;
    } else if (name == "tokens=raw-1") {
      EXPECT_EQ(frame[17], std::byte{1}) << name;
      EXPECT_EQ(frame.size(), 17 + 17 + c.raw.size() - 1) << name;
    } else if (name.starts_with("match ends")) {
      const size_t t = std::stoul(name.substr(11));
      ASSERT_FALSE(seqs.empty()) << name;
      // The block's last sequence: the repeated segment, then t literals.
      ASSERT_GE(seqs.size(), 2u) << name;
      EXPECT_EQ(seqs.back().lit_len, t) << name;
      EXPECT_EQ(seqs.back().match_len, 0u) << name;
      const LzSeq& last_match = seqs[seqs.size() - 2];
      EXPECT_EQ(last_match.at + last_match.match_len, kLzBlockBytes - t) << name;
    }
  }
}

}  // namespace
}  // namespace starfish
