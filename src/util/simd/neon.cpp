// NEON backend: 2 x 64-bit lanes per register. Advanced SIMD is baseline on
// aarch64, so the TU needs no extra compile flags; on other targets it is a
// nullptr stub. Untested on x86 CI — kept deliberately close to the generic
// kernel shapes so the differential suite on an arm host is the proof.
#include "util/simd/backends.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "util/simd/kernels.hpp"

namespace starfish::util::simd {
namespace {

struct Neon {
  using vec = uint64x2_t;
  static constexpr size_t kLanes = 2;

  static vec loadu(const std::byte* p) {
    return vreinterpretq_u64_u8(vld1q_u8(reinterpret_cast<const uint8_t*>(p)));
  }
  static void storeu(std::byte* p, vec v) {
    vst1q_u8(reinterpret_cast<uint8_t*>(p), vreinterpretq_u8_u64(v));
  }
  static vec load64(const uint64_t* p) { return vld1q_u64(p); }
  static void storeu64(uint64_t* p, vec v) { vst1q_u64(p, v); }
  static vec xor_(vec a, vec b) { return veorq_u64(a, b); }
  static vec add64(vec a, vec b) { return vaddq_u64(a, b); }
  static vec mul_lo32_hi32(vec v) {
    const uint32x2_t lo = vmovn_u64(v);
    const uint32x2_t hi = vshrn_n_u64(v, 32);
    return vmull_u32(lo, hi);
  }
  static vec swap_pairs(vec v) { return vextq_u64(v, v, 1); }

  template <unsigned kElem>
  static vec bswap(vec v) {
    const uint8x16_t b = vreinterpretq_u8_u64(v);
    if constexpr (kElem == 2) {
      return vreinterpretq_u64_u8(vrev16q_u8(b));
    } else if constexpr (kElem == 4) {
      return vreinterpretq_u64_u8(vrev32q_u8(b));
    } else {
      return vreinterpretq_u64_u8(vrev64q_u8(b));
    }
  }
};

uint64_t fingerprint_neon(const std::byte* p, size_t n) {
  return detail::fingerprint_shell(p, n, detail::fp_accumulate_vec<Neon>);
}

void copy_neon(std::byte* dst, const std::byte* src, size_t n) {
  detail::copy_vec<Neon>(dst, src, n);
}

template <unsigned kElem>
void bswap_neon(std::byte* dst, const std::byte* src, size_t n) {
  detail::bswap_vec<Neon, kElem>(dst, src, n);
}

void widen_neon(std::byte* dst, const std::byte* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int32x2_t in = vld1_s32(reinterpret_cast<const int32_t*>(src + 4 * i));
    vst1q_s64(reinterpret_cast<int64_t*>(dst + 8 * i), vmovl_s32(in));
  }
  for (; i < n; ++i) detail::widen_one(dst + 8 * i, src + 4 * i);
}

void narrow_neon(std::byte* dst, const std::byte* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2_t in = vld1q_s64(reinterpret_cast<const int64_t*>(src + 8 * i));
    vst1_s32(reinterpret_cast<int32_t*>(dst + 4 * i), vmovn_s64(in));
  }
  for (; i < n; ++i) detail::narrow_one(dst + 4 * i, src + 8 * i);
}

size_t mismatch_neon(const std::byte* a, const std::byte* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t va = vld1q_u8(reinterpret_cast<const uint8_t*>(a + i));
    const uint8x16_t vb = vld1q_u8(reinterpret_cast<const uint8_t*>(b + i));
    const uint64x2_t eq = vreinterpretq_u64_u8(vceqq_u8(va, vb));
    const uint64_t lo = vgetq_lane_u64(eq, 0);
    if (lo != ~0ull) return i + static_cast<size_t>(std::countr_zero(~lo)) / 8;
    const uint64_t hi = vgetq_lane_u64(eq, 1);
    if (hi != ~0ull) return i + 8 + static_cast<size_t>(std::countr_zero(~hi)) / 8;
  }
  return detail::mismatch_tail(a, b, i, n);
}

constexpr Ops kNeonTable = {
    Isa::kNeon,    fingerprint_neon, copy_neon,   bswap_neon<2>,
    bswap_neon<4>, bswap_neon<8>,    widen_neon,  narrow_neon,
    mismatch_neon,
};

}  // namespace

const Ops* neon_ops() { return &kNeonTable; }

}  // namespace starfish::util::simd

#else  // !__aarch64__

namespace starfish::util::simd {
const Ops* neon_ops() { return nullptr; }
}  // namespace starfish::util::simd

#endif
