// Deterministic LZ block codec for the checkpoint byte path.
//
// An LZ4-shaped format — token-coded literal runs and back-references —
// chosen over a real entropy coder because checkpoint payloads are
// dominated by runs and repeated structure, and because decode speed and
// *determinism* matter more than the last few percent of ratio: the same
// input must produce the same compressed bytes on every host and ISA level
// (checkpoint content hashes and replica transfers are compared across
// machines). The matcher is a fixed-parameter greedy hash-chain search with
// no heuristics keyed on timing, addresses or ISA; the hot copy/compare
// loops route through the util/simd dispatch table, whose kernels are
// bit-identical across levels by contract.
//
// The tokens are therefore part of the stored format, and the matcher's
// rules cannot change without changing stored bytes and every content hash
// over them: one greedy search per position over at most 16 entries of the
// window's 14-bit hash chain, newest first and collisions included; the
// first longest match wins; every position but a block's last three is
// inserted, match interiors included; a match may overlap itself; a block
// whose tokens reach its raw size is stored. Only the speed of reaching
// those tokens is free. The tables, 288 KB for a full block: 2^14 chain
// heads and one chain link per position, both 16-bit (position + 1, 0 ends
// a chain), and a presence bitmap of 16 bits per block byte, sized to the
// block. One multiply per 4-byte window gives both the chain hash and the
// bitmap slot. Inserting a window sets its bit, so a clear bit proves no
// chain holds the window, and the walk only accepts candidates equal to
// it: such a position is only linked into its chain, in a tight literal
// loop that leaves on a set bit. The bitmap changes speed, never tokens.
// Each sequence is sized before it is written, so a block that ends up
// stored stops before copying the literals that decide it. On checkpoint
// payloads most blocks are stored: SFV2 columns of narrowed ints almost
// never repeat a 4-byte window (77% of sparse8_ckpt's LZ input bytes, 542
// of its 724 blocks, at seed 1), so the matcher's cost is its per-position
// bookkeeping, not its matching.
//
// Frame layout (all little-endian, independent blocks of 64 KB raw):
//   u32 magic "SLZ1"   u8 version   u64 raw_len   u32 n_blocks
//   per block: u8 kind (0 stored / 1 lz)   u32 block_raw_len
//              u32 enc_len   u64 check (fingerprint of the enc bytes)
//              enc bytes
// The per-block checksum makes verification cheap (one fingerprint pass,
// no decode) and localizes corruption; stored blocks keep incompressible
// input within a few dozen bytes of its raw size. Decode failures are
// typed Error{"codec", ...} — callers fall back, never abort.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::util::codec {

inline constexpr uint32_t kLzMagic = 0x315A4C53;  // "SLZ1" little-endian
inline constexpr uint8_t kLzVersion = 1;
inline constexpr size_t kLzBlockBytes = 64 * 1024;

/// Compresses raw into a framed stream. Deterministic: same input, same
/// output, on every host/ISA. Incompressible input degrades to stored
/// blocks (output ≈ raw + 21·ceil(n/64K) + 17 bytes), never fails.
Bytes lz_compress(BytesView raw);

/// The raw size a frame announces, without decoding (header peek).
Result<uint64_t> lz_raw_size(BytesView frame);

/// Structural + checksum validation without materializing the output:
/// header sanity, block bounds, per-block fingerprints. A frame that
/// verifies clean decodes clean (token-level corruption is covered by the
/// checksums, which hash the encoded bytes). A header announcing more
/// blocks than the frame has room for is refused before anything is sized
/// from it.
Status lz_verify(BytesView frame);

/// Decompresses a frame. `max_bytes` guards against forged headers
/// announcing absurd sizes; it is checked, like the block count, before
/// anything is sized from the header. Any corruption or truncation yields
/// a typed Error{"codec", ...}.
Result<Bytes> lz_decompress(BytesView frame, uint64_t max_bytes);

}  // namespace starfish::util::codec
