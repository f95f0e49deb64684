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
// datatype and LZ frame goldens are also re-checked under a scalar-forced
// dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "ckpt/image.hpp"
#include "mpi/datatype.hpp"
#include "sim/machine.hpp"
#include "util/codec/lz.hpp"
#include "util/rng.hpp"
#include "util/simd/simd.hpp"
#include "vm/value.hpp"

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

}  // namespace
}  // namespace starfish
