#include "util/codec/lz.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/simd/simd.hpp"

namespace starfish::util::codec {

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
constexpr uint32_t kHashMul = 2654435761u;
constexpr int kSeenBitsMax = 20;  // presence bitmap of a full block: 2^20 bits, 128 KB
constexpr int kChainCap = 16;
constexpr size_t kBlockHeaderBytes = 1 + 4 + 4 + 8;
constexpr size_t kFrameHeaderBytes = 4 + 1 + 8 + 4;
// Chain links hold position + 1 in 16 bits, 0 ending a chain: a block's
// last inserted position is kLzBlockBytes - kMinMatch.
static_assert(kLzBlockBytes - kMinMatch + 1 <= UINT16_MAX);

uint32_t load_le32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

/// log2 of the presence bitmap's size for an n-byte block: 16 bits per
/// byte, so at most a sixteenth of them are set, and a small block clears a
/// small bitmap.
int seen_bits(size_t n) {
  return std::clamp(static_cast<int>(std::bit_width(n)) + 4, 6, kSeenBitsMax);
}

/// Sets presence bit `s`; returns whether it was set already.
bool test_and_set(uint64_t* seen, uint32_t s) {
  uint64_t& word = seen[s >> 6];
  const uint64_t bit = uint64_t{1} << (s & 63);
  const bool was_set = (word & bit) != 0;
  word |= bit;
  return was_set;
}

/// Bytes put_ext(v) writes.
size_t ext_bytes(size_t v) { return v / 255 + 1; }

std::byte* put_ext(std::byte* o, size_t v) {
  for (; v >= 255; v -= 255) *o++ = std::byte{0xff};
  *o++ = static_cast<std::byte>(v);
  return o;
}

Error codec_error(const std::string& what) { return Error::make("codec", "lz: " + what); }

/// The matcher's tables, allocated once per lz_compress call for its
/// largest block and never zeroed here: compress_block clears the heads
/// and the bitmap span it uses, and writes each link before a chain can
/// reach it. 288 KB for a full block.
struct MatchTables {
  explicit MatchTables(size_t block)
      : head(new uint16_t[size_t{1} << kHashBits]),
        prev(new uint16_t[block + 1]),
        seen(new uint64_t[size_t{1} << (seen_bits(block) - 6)]) {}
  /// Newest position + 1 per 14-bit window hash; 0 = empty chain.
  std::unique_ptr<uint16_t[]> head;
  /// prev[q + 1] = the next older position + 1 in q's chain.
  std::unique_ptr<uint16_t[]> prev;
  /// One bit per hash of an inserted window, seen_bits(n) bits wide.
  std::unique_ptr<uint64_t[]> seen;
};

/// Token-compresses one n-byte block into `out`, which has room for n - 1
/// bytes. Returns the token byte count, or 0 when the tokens would reach n
/// bytes, in which case the caller stores the block verbatim. Each
/// sequence is sized before it is written, so a stored block stops at the
/// sequence that would reach n, before copying its literals. The token
/// rules this must keep are listed in lz.hpp. One multiply per window gives
/// both the chain hash (its top 14 bits) and the presence slot (its top
/// seen_bits(n) bits). A clear presence bit proves no chain holds the
/// window, and a walk only accepts candidates equal to it, so such a
/// position is only linked in (the literal loop).
size_t compress_block(const std::byte* p, size_t n, std::byte* out, MatchTables& t) {
  const simd::Ops& simd = simd::ops();
  uint16_t* const head = t.head.get();
  uint16_t* const prev = t.prev.get();
  uint64_t* const seen = t.seen.get();
  const int slot_bits = seen_bits(n);
  const int seen_shift = 32 - slot_bits;
  std::fill_n(head, size_t{1} << kHashBits, uint16_t{0});
  std::fill_n(seen, size_t{1} << (slot_bits - 6), uint64_t{0});
  // Positions below `end_pos` have a whole window in the block.
  const size_t end_pos = n >= kMinMatch ? n - kMinMatch + 1 : 0;
  std::byte* o = out;
  size_t pos = 0;
  size_t lit_start = 0;

  auto link = [&](size_t q, uint32_t m) {
    const uint32_t h = m >> (32 - kHashBits);
    prev[q + 1] = head[h];
    head[h] = static_cast<uint16_t>(q + 1);
  };

  // Writes one sequence, or returns false when it would bring the tokens
  // to n bytes.
  auto emit = [&](size_t lit_len, size_t match_len, size_t offset) -> bool {
    size_t bytes = 1 + lit_len + (lit_len >= 15 ? ext_bytes(lit_len - 15) : 0);
    if (match_len != 0) {
      bytes += 2 + (match_len > kShortMatchMax ? ext_bytes(match_len - (kShortMatchMax + 1)) : 0);
    }
    if (bytes >= n - static_cast<size_t>(o - out)) return false;
    const size_t lit_code = lit_len < 15 ? lit_len : 15;
    const size_t match_code = match_len == 0 ? 0 : std::min<size_t>(match_len - 3, 15);
    *o++ = static_cast<std::byte>((lit_code << 4) | match_code);
    if (lit_code == 15) o = put_ext(o, lit_len - 15);
    simd.copy(o, p + lit_start, lit_len);
    o += lit_len;
    if (match_len != 0) {
      *o++ = static_cast<std::byte>(offset & 0xff);
      *o++ = static_cast<std::byte>((offset >> 8) & 0xff);
      if (match_code == 15) o = put_ext(o, match_len - (kShortMatchMax + 1));
    }
    return true;
  };

  while (pos < end_pos) {
    uint32_t here = load_le32(p + pos);
    uint32_t m = here * kHashMul;
    // The literal loop: leaves only on a set presence bit.
    while (!test_and_set(seen, m >> seen_shift)) {
      link(pos, m);
      if (++pos == end_pos) break;
      here = load_le32(p + pos);
      m = here * kHashMul;
    }
    if (pos == end_pos) break;

    const size_t max_len = n - pos;
    size_t best_len = 0;
    size_t best_off = 0;
    uint32_t c = head[m >> (32 - kHashBits)];
    for (int depth = 0; c != 0 && depth < kChainCap; ++depth, c = prev[c]) {
      const std::byte* cand = p + (c - 1);
      if (load_le32(cand) != here) continue;
      // Self-referential overlap (cand + i >= pos) is fine: the decoder
      // replicates the pattern byte-by-byte, exactly what the forward
      // comparison below proves equal.
      const size_t len =
          kMinMatch + simd.mismatch(cand + kMinMatch, p + pos + kMinMatch, max_len - kMinMatch);
      if (len > best_len) {
        best_len = len;
        best_off = pos + 1 - c;
      }
    }
    link(pos, m);
    if (best_len == 0) {
      ++pos;
      continue;
    }
    if (!emit(pos - lit_start, best_len, best_off)) return 0;
    const size_t end = pos + best_len;
    for (size_t q = pos + 1; q < std::min(end, end_pos); ++q) {
      const uint32_t mq = load_le32(p + q) * kHashMul;
      test_and_set(seen, mq >> seen_shift);
      link(q, mq);
    }
    pos = end;
    lit_start = end;
  }
  if (lit_start < n && !emit(n - lit_start, 0, 0)) return 0;
  return static_cast<size_t>(o - out);
}

enum class BlockKind : uint8_t { kStored = 0, kLz = 1 };

struct BlockRef {
  BlockKind kind = BlockKind::kStored;
  uint32_t raw_len = 0;
  BytesView enc;
};

/// Reads the frame header's magic, version and raw length.
uint64_t read_header(Reader& r) {
  if (r.u32() != kLzMagic) r.fail("lz: bad magic");
  if (r.u8() != kLzVersion) r.fail("lz: unsupported version");
  return r.u64();
}

/// Parses and checksum-verifies the frame scaffolding shared by verify and
/// decompress. On success `blocks` holds one entry per block and the
/// announced raw length is returned. The header is bounded before it sizes
/// anything: the raw length by `max_bytes`, the block count by the block
/// headers the frame has room for.
Result<uint64_t> parse_frame(BytesView frame, uint64_t max_bytes, std::vector<BlockRef>& blocks) {
  Reader r(frame, util::Endian::kLittle, "codec");
  const uint64_t raw_len = read_header(r);
  if (raw_len > max_bytes) {
    r.fail("lz: frame announces oversized payload (" + std::to_string(raw_len) + " > " +
           std::to_string(max_bytes) + " bytes)");
  }
  blocks.resize(r.count(kBlockHeaderBytes, "lz: block count exceeds the frame"));
  const uint64_t want_blocks = raw_len == 0 ? 0 : (raw_len + kLzBlockBytes - 1) / kLzBlockBytes;
  if (blocks.size() != want_blocks) r.fail("lz: block count mismatch");
  uint64_t raw_total = 0;
  for (BlockRef& blk : blocks) {
    blk.kind = r.enum_u8(BlockKind::kStored, BlockKind::kLz, "lz block kind");
    blk.raw_len = r.u32();
    const uint32_t enc_len = r.u32();
    const uint64_t check = r.u64();
    blk.enc = r.raw_view(enc_len);
    if (blk.raw_len == 0 || blk.raw_len > kLzBlockBytes) {
      r.fail("lz: bad block raw length");
    } else if (blk.kind == BlockKind::kStored && blk.enc.size() != blk.raw_len) {
      r.fail("lz: stored block length mismatch");
    } else if (simd::fingerprint(blk.enc.data(), blk.enc.size()) != check) {
      r.fail("lz: block checksum mismatch");
    }
    raw_total += blk.raw_len;
  }
  if (raw_total != raw_len) r.fail("lz: block raw lengths disagree with header");
  if (Status s = r.finish("an lz frame"); !s.ok()) return s.error();
  return raw_len;
}

Status decode_block(const BlockRef& blk, std::byte* dst) {
  const simd::Ops& simd = simd::ops();
  const std::byte* in = blk.enc.data();
  const size_t in_len = blk.enc.size();
  const size_t out_len = blk.raw_len;
  size_t ip = 0;
  size_t op = 0;
  auto read_ext = [&](size_t& v) -> bool {
    for (;;) {
      if (ip >= in_len) return false;
      const auto b = static_cast<uint8_t>(in[ip++]);
      v += b;
      if (b != 0xff) return true;
    }
  };
  while (op < out_len) {
    if (ip >= in_len) return codec_error("token stream exhausted");
    const auto token = static_cast<uint8_t>(in[ip++]);
    size_t lit_len = token >> 4;
    if (lit_len == 15 && !read_ext(lit_len)) return codec_error("truncated literal length");
    if (lit_len > in_len - ip || lit_len > out_len - op) {
      return codec_error("literal run out of bounds");
    }
    simd.copy(dst + op, in + ip, lit_len);
    ip += lit_len;
    op += lit_len;
    const size_t match_code = token & 0x0f;
    if (match_code == 0) continue;
    if (in_len - ip < 2) return codec_error("truncated match offset");
    const size_t off =
        static_cast<size_t>(static_cast<uint8_t>(in[ip])) |
        (static_cast<size_t>(static_cast<uint8_t>(in[ip + 1])) << 8);
    ip += 2;
    size_t match_len = match_code < 15 ? match_code + 3 : kShortMatchMax + 1;
    if (match_code == 15 && !read_ext(match_len)) return codec_error("truncated match length");
    if (off == 0 || off > op) return codec_error("match offset out of bounds");
    if (match_len > out_len - op) return codec_error("match run out of bounds");
    const std::byte* src = dst + op - off;
    if (off >= match_len) {
      simd.copy(dst + op, src, match_len);
    } else {
      for (size_t i = 0; i < match_len; ++i) dst[op + i] = src[i];  // overlapping replicate
    }
    op += match_len;
  }
  if (ip != in_len) return codec_error("trailing bytes in block");
  return Status::ok_status();
}

}  // namespace

Bytes lz_compress(BytesView raw) {
  const uint64_t n_blocks = raw.empty() ? 0 : (raw.size() + kLzBlockBytes - 1) / kLzBlockBytes;
  // Token-compress every block first, into one scratch run, so the frame
  // is allocated once at its exact size. A block's tokens are shorter than
  // the block, so raw.size() bytes hold them all; the run is never zeroed.
  // A block whose tokens would not beat it is stored verbatim.
  MatchTables tables(std::min(raw.size(), kLzBlockBytes));
  const std::unique_ptr<std::byte[]> tokens(new std::byte[raw.size()]);
  std::vector<size_t> token_len(n_blocks);  // 0 when the block is stored
  size_t frame_bytes = kFrameHeaderBytes;
  size_t used = 0;
  for (uint64_t b = 0; b < n_blocks; ++b) {
    const size_t off = static_cast<size_t>(b) * kLzBlockBytes;
    const size_t len = std::min(kLzBlockBytes, raw.size() - off);
    token_len[b] = compress_block(raw.data() + off, len, tokens.get() + used, tables);
    used += token_len[b];
    frame_bytes += kBlockHeaderBytes + (token_len[b] != 0 ? token_len[b] : len);
  }

  Bytes out;
  Writer w(out);
  w.reserve(frame_bytes);
  w.u32(kLzMagic);
  w.u8(kLzVersion);
  w.u64(raw.size());
  w.u32(static_cast<uint32_t>(n_blocks));
  const std::byte* enc_at = tokens.get();
  for (uint64_t b = 0; b < n_blocks; ++b) {
    const size_t off = static_cast<size_t>(b) * kLzBlockBytes;
    const size_t len = std::min(kLzBlockBytes, raw.size() - off);
    const bool lz = token_len[b] != 0;
    const BytesView enc = lz ? BytesView(enc_at, token_len[b]) : raw.subspan(off, len);
    enc_at += token_len[b];
    w.u8(lz ? 1 : 0);
    w.u32(static_cast<uint32_t>(len));
    w.u32(static_cast<uint32_t>(enc.size()));
    w.u64(simd::fingerprint(enc.data(), enc.size()));
    w.raw(enc);
  }
  return out;
}

Result<uint64_t> lz_raw_size(BytesView frame) {
  Reader r(frame, util::Endian::kLittle, "codec");
  const uint64_t raw_len = read_header(r);
  return r.result(raw_len);
}

Status lz_verify(BytesView frame) {
  std::vector<BlockRef> blocks;
  auto parsed = parse_frame(frame, UINT64_MAX, blocks);
  if (!parsed) return parsed.error();
  return Status::ok_status();
}

Result<Bytes> lz_decompress(BytesView frame, uint64_t max_bytes) {
  std::vector<BlockRef> blocks;
  auto parsed = parse_frame(frame, max_bytes, blocks);
  if (!parsed) return parsed.error();
  Bytes out(static_cast<size_t>(parsed.value()));
  size_t off = 0;
  for (const BlockRef& blk : blocks) {
    if (blk.kind == BlockKind::kStored) {
      simd::copy(out.data() + off, blk.enc.data(), blk.enc.size());
    } else {
      auto st = decode_block(blk, out.data() + off);
      if (!st.ok()) return st.error();
    }
    off += blk.raw_len;
  }
  return out;
}

}  // namespace starfish::util::codec
