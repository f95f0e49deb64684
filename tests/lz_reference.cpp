// Verbatim copy of the pre-rewrite LZ matcher and frame writer (see
// lz_reference.hpp). Do not optimize or restyle: its only job is to be
// the old code.
#include "lz_reference.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "util/codec/lz.hpp"
#include "util/simd/simd.hpp"

namespace starfish::util::codec::reference {

namespace {

// Token byte: high nibble = literal run length (15 = extended), low nibble
// = match length code (0 = no match; 1..14 = match of code+3 bytes; 15 =
// 18 + extension bytes). Extensions are runs of 0xff plus a final <255
// byte, LZ4-style. A match is followed by its u16 little-endian in-block
// offset. Matches never cross a block boundary, so blocks decode (and
// corrupt) independently.
constexpr size_t kMinMatch = 4;
constexpr size_t kShortMatchMax = 17;  // low nibble 14 -> 3 + 14
constexpr int kHashBits = 14;
constexpr int kSeenBitsMax = 19;  // presence bitmap of a full block: 2^19 bits, 64 KB
constexpr int kChainCap = 16;
constexpr size_t kBlockHeaderBytes = 1 + 4 + 4 + 8;
constexpr size_t kFrameHeaderBytes = 4 + 1 + 8 + 4;

uint32_t load_le32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

/// The top `bits` bits of a multiplicative hash of a 4-byte window.
uint32_t hash4(uint32_t v, int bits) { return (v * 2654435761u) >> (32 - bits); }

/// log2 of the presence bitmap's size for an n-byte block: 8 bits per
/// byte, so at most an eighth of them are set, and a small block clears a
/// small bitmap.
int seen_bits(size_t n) {
  return std::clamp(static_cast<int>(std::bit_width(n)) + 3, 6, kSeenBitsMax);
}

void put_ext(Bytes& out, size_t v) {
  while (v >= 255) {
    out.push_back(std::byte{0xff});
    v -= 255;
  }
  out.push_back(static_cast<std::byte>(v));
}

/// Token-compresses one block. Returns false (and an undefined `out`
/// prefix beyond `out_start`) when the tokens would not beat the raw
/// block, in which case the caller emits a stored block instead.
///
/// `seen` has one bit per hash4(window, seen_bits(n)) slot, set for every
/// window inserted into the chains. A clear bit proves no chain holds the
/// window, so the walk, which only accepts candidates equal to it, is
/// skipped: the tokens are the same as with every walk taken. A set bit may
/// be a collision; the walk decides.
bool compress_block(const std::byte* p, size_t n, Bytes& out, size_t out_start,
                    std::vector<int32_t>& head, std::vector<int32_t>& prev,
                    std::vector<uint64_t>& seen) {
  const simd::Ops& simd = simd::ops();
  std::fill(head.begin(), head.end(), -1);
  const int slot_bits = seen_bits(n);
  std::fill_n(seen.begin(), size_t{1} << (slot_bits - 6), uint64_t{0});
  // No reset: a position's link is written when it is inserted, before any
  // chain can reach it.
  prev.resize(n);
  size_t pos = 0;
  size_t lit_start = 0;

  auto insert = [&](size_t q, uint32_t v) {
    const uint32_t h = hash4(v, kHashBits);
    prev[q] = head[h];
    head[h] = static_cast<int32_t>(q);
    const uint32_t s = hash4(v, slot_bits);
    seen[s >> 6] |= uint64_t{1} << (s & 63);
  };

  auto emit_seq = [&](size_t lit_len, size_t match_len, size_t offset) {
    const size_t lit_code = lit_len < 15 ? lit_len : 15;
    size_t match_code = 0;
    if (match_len != 0) {
      match_code = match_len - 3 < 15 ? match_len - 3 : 15;
    }
    out.push_back(static_cast<std::byte>((lit_code << 4) | match_code));
    if (lit_code == 15) put_ext(out, lit_len - 15);
    if (lit_len != 0) {
      const size_t at = out.size();
      out.resize(at + lit_len);
      simd.copy(out.data() + at, p + lit_start, lit_len);
    }
    if (match_len != 0) {
      out.push_back(static_cast<std::byte>(offset & 0xff));
      out.push_back(static_cast<std::byte>((offset >> 8) & 0xff));
      if (match_code == 15) put_ext(out, match_len - (kShortMatchMax + 1));
    }
  };

  while (pos + kMinMatch <= n) {
    const uint32_t here = load_le32(p + pos);
    const uint32_t s = hash4(here, slot_bits);
    size_t best_len = 0;
    size_t best_off = 0;
    const size_t max_len = n - pos;
    int32_t cand = (seen[s >> 6] >> (s & 63)) & 1 ? head[hash4(here, kHashBits)] : -1;
    for (int depth = 0; cand >= 0 && depth < kChainCap; ++depth, cand = prev[cand]) {
      if (load_le32(p + static_cast<size_t>(cand)) != here) continue;
      // Self-referential overlap (cand + i >= pos) is fine: the decoder
      // replicates the pattern byte-by-byte, exactly what the forward
      // comparison below proves equal.
      const size_t len =
          4 + simd.mismatch(p + static_cast<size_t>(cand) + 4, p + pos + 4, max_len - 4);
      if (len > best_len) {
        best_len = len;
        best_off = pos - static_cast<size_t>(cand);
      }
    }
    if (best_len >= kMinMatch) {
      emit_seq(pos - lit_start, best_len, best_off);
      const size_t end = pos + best_len;
      for (size_t q = pos; q < end && q + kMinMatch <= n; ++q) insert(q, load_le32(p + q));
      pos = end;
      lit_start = pos;
      if (out.size() - out_start >= n) return false;  // not profitable, bail early
    } else {
      insert(pos, here);
      ++pos;
    }
  }
  if (lit_start < n) emit_seq(n - lit_start, 0, 0);
  return out.size() - out_start < n;
}

}  // namespace

Bytes lz_compress(BytesView raw) {
  const uint64_t n_blocks = raw.empty() ? 0 : (raw.size() + kLzBlockBytes - 1) / kLzBlockBytes;
  // Token-compress every block first, into one scratch run, so the frame
  // is allocated once at its exact size. A block whose tokens do not beat
  // it is stored verbatim (its partial tokens are dropped).
  std::vector<int32_t> head(size_t{1} << kHashBits);
  std::vector<int32_t> prev;
  std::vector<uint64_t> seen(size_t{1} << (seen_bits(std::min(raw.size(), kLzBlockBytes)) - 6));
  Bytes tokens;
  std::vector<size_t> token_end(n_blocks);  // == the block's start when it is stored
  size_t frame_bytes = kFrameHeaderBytes;
  for (uint64_t b = 0; b < n_blocks; ++b) {
    const size_t off = static_cast<size_t>(b) * kLzBlockBytes;
    const size_t len = std::min(kLzBlockBytes, raw.size() - off);
    const size_t start = tokens.size();
    if (!compress_block(raw.data() + off, len, tokens, start, head, prev, seen)) {
      tokens.resize(start);
    }
    token_end[b] = tokens.size();
    frame_bytes += kBlockHeaderBytes + (tokens.size() > start ? tokens.size() - start : len);
  }

  Bytes out;
  Writer w(out);
  w.reserve(frame_bytes);
  w.u32(kLzMagic);
  w.u8(kLzVersion);
  w.u64(raw.size());
  w.u32(static_cast<uint32_t>(n_blocks));
  for (uint64_t b = 0; b < n_blocks; ++b) {
    const size_t off = static_cast<size_t>(b) * kLzBlockBytes;
    const size_t len = std::min(kLzBlockBytes, raw.size() - off);
    const size_t start = b == 0 ? 0 : token_end[b - 1];
    const bool lz = token_end[b] > start;
    const BytesView enc =
        lz ? BytesView(tokens).subspan(start, token_end[b] - start) : raw.subspan(off, len);
    w.u8(lz ? 1 : 0);
    w.u32(static_cast<uint32_t>(len));
    w.u32(static_cast<uint32_t>(enc.size()));
    w.u64(simd::fingerprint(enc.data(), enc.size()));
    w.raw(enc);
  }
  return out;
}

}  // namespace starfish::util::codec::reference
