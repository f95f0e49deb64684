// Checkpoint payload compression: the epoch transfer codec (PR 10).
//
// Between the image encoders (image.hpp, incremental.hpp) and the storage
// backends (store.hpp, replica.hpp) sits an optional payload codec that
// shrinks what an epoch actually writes to disk or ships to replica
// holders. Two orthogonal reducers compose:
//
//   - "lz": the deterministic block codec of util/codec/lz.hpp, applied to
//     the payload bytes. Wins on run- and structure-heavy container bytes.
//   - "delta": pages of the payload that are byte-identical (same offset,
//     same bytes) to the previous durable epoch's payload are encoded as
//     references; only changed pages travel as literals. This is the
//     payload-level analogue of incremental checkpointing, but it applies
//     to the *stored/shipped* bytes, so it also collapses the parts of the
//     container that incremental app-state deltas cannot (tracker, channel
//     state, replay log framing).
//
// The mode is a CheckpointStore-level setting (STARFISH_CKPT_COMPRESS env
// or ClusterOptions), default off; encode falls back to raw whenever a
// coded payload would not beat the raw bytes, so enabling a mode never
// inflates an epoch. Every decode failure is a typed Error{"codec", ...}:
// callers fall back to the next recoverable epoch, never abort.
//
// Delta frame layout (little-endian; pages are ckpt::kPageBytes):
//   u32 magic "SDL1"   u8 version   u64 raw_len   u64 base_len
//   u64 base_check (fingerprint of the base payload)
//   u32 n_literals   per literal: u32 page_index; u32 len; page bytes
//   u64 check (fingerprint of every frame byte before this field)
// Pages absent from the literal list are references into the base payload
// at the same offset. "delta+lz" is lz(delta frame). The trailing
// fingerprint makes verification a single hash pass; the base fingerprint
// pins a delta to the exact payload it was diffed against, so a chain
// walker can detect a wrong or corrupted base before reconstruction.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::obs {
struct Hub;
}

namespace starfish::ckpt {

/// Store-level compression policy (what encode_payload tries).
enum class CompressMode : uint8_t { kOff = 0, kLz = 1, kDelta = 2, kDeltaLz = 3 };

/// How one stored payload is actually coded (what decode_payload needs).
/// A mode is a policy; a codec is a fact about one image's bytes — under
/// any mode an image degrades to kRaw when coding would not pay.
enum class PayloadCodec : uint8_t { kRaw = 0, kLz = 1, kDelta = 2, kDeltaLz = 3 };

const char* compress_mode_name(CompressMode mode);
/// Parses "off" | "lz" | "delta" | "delta+lz" (also accepts "delta_lz").
std::optional<CompressMode> parse_compress_mode(std::string_view text);
/// STARFISH_CKPT_COMPRESS, default kOff; unparseable values mean kOff.
CompressMode compress_mode_from_env();

/// Result of one encode_payload call.
struct EncodedPayload {
  util::Bytes bytes;                           ///< the stored/shipped bytes
  PayloadCodec codec = PayloadCodec::kRaw;     ///< how `bytes` is coded
  uint64_t raw_len = 0;                        ///< length of the raw payload
  uint64_t delta_page_refs = 0;                ///< pages coded as base references
  uint64_t delta_page_literals = 0;            ///< pages carried as literals
};

/// Encodes `raw` under `mode`. `base` is the previous durable epoch's raw
/// payload for the delta modes (pass {} when there is none — delta then
/// degrades to lz or raw). Falls back to PayloadCodec::kRaw whenever the
/// coded bytes would not be smaller than the raw bytes, so the result
/// never inflates. Deterministic for fixed inputs on every host/ISA.
/// `hub` (nullable) receives ckpt.codec.* counters and the ratio histogram.
EncodedPayload encode_payload(CompressMode mode, util::BytesView raw, util::BytesView base,
                              obs::Hub* hub);

/// Reconstructs the raw payload. `base` must be the raw payload of the
/// epoch the delta was diffed against (ignored for kRaw/kLz). `max_bytes`
/// bounds the announced raw size against forged headers. Corruption,
/// truncation or a base mismatch yields Error{"codec", ...} (and bumps
/// ckpt.codec.decode_errors when `hub` is set) — never an abort.
util::Result<util::Bytes> decode_payload(PayloadCodec codec, util::BytesView encoded,
                                         util::BytesView base, uint64_t max_bytes, obs::Hub* hub);

/// Structural + checksum validation without reconstructing the payload and
/// without the base: frame sanity, literal bounds, fingerprints. A kDeltaLz
/// frame is LZ-decompressed in full to parse its inner delta frame; the
/// other codecs verify without decoding. A frame that verifies clean
/// decodes clean against its matching base.
util::Status verify_payload(PayloadCodec codec, util::BytesView encoded);

/// The raw payload size a coded frame announces (header peek; trivially
/// encoded.size() for kRaw).
util::Result<uint64_t> payload_raw_size(PayloadCodec codec, util::BytesView encoded);

}  // namespace starfish::ckpt
