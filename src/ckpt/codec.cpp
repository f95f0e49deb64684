#include "ckpt/codec.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "ckpt/incremental.hpp"
#include "obs/obs.hpp"
#include "util/codec/lz.hpp"
#include "util/simd/simd.hpp"

namespace starfish::ckpt {

namespace {

using util::Bytes;
using util::BytesView;
using util::Error;
using util::Reader;
using util::Result;
using util::Status;
using util::Writer;
namespace simd = util::simd;

constexpr uint32_t kDeltaMagic = 0x314C4453;  // "SDL1" little-endian
constexpr uint8_t kDeltaVersion = 1;

Error codec_error(const std::string& what) { return Error::make("codec", "payload: " + what); }

size_t page_count(uint64_t len) { return static_cast<size_t>((len + kPageBytes - 1) / kPageBytes); }

void note_encode(obs::Hub* hub, uint64_t raw_len, uint64_t enc_len, uint64_t refs,
                 uint64_t literals) {
  if (hub == nullptr) return;
  hub->metrics.counter("ckpt.codec.raw_bytes").add(raw_len);
  hub->metrics.counter("ckpt.codec.encoded_bytes").add(enc_len);
  if (refs != 0) hub->metrics.counter("ckpt.codec.delta_page_refs").add(refs);
  if (literals != 0) hub->metrics.counter("ckpt.codec.delta_page_literals").add(literals);
  if (enc_len != 0) {
    // Compression ratio x100 (100 = pass-through, 300 = 3x smaller).
    hub->metrics
        .histogram("ckpt.codec.ratio_x100", obs::HistogramSpec::exponential(25, 2.0, 10))
        .record(raw_len * 100 / enc_len);
  }
}

Error note_decode_error(obs::Hub* hub, Error e) {
  if (hub != nullptr) hub->metrics.counter("ckpt.codec.decode_errors").add(1);
  return e;
}

/// Diffs `raw` against `base` page-by-page into a delta frame. Reference
/// pages must be byte-identical at the same offset — the compare is exact
/// (simd mismatch), not fingerprint-trusting, because the stored bytes
/// must reconstruct bit-identically and both payloads are in memory here.
/// The scan runs before anything is written, so the frame is allocated
/// once at its exact size.
Bytes delta_encode(BytesView raw, BytesView base, uint64_t* refs, uint64_t* literals) {
  const simd::Ops& simd = simd::ops();
  const size_t n_pages = page_count(raw.size());
  std::vector<uint32_t> dirty;
  size_t literal_bytes = 0;
  for (size_t p = 0; p < n_pages; ++p) {
    const size_t off = p * kPageBytes;
    const size_t len = std::min(kPageBytes, raw.size() - off);
    const bool same = off + len <= base.size() &&
                      simd.mismatch(base.data() + off, raw.data() + off, len) == len;
    if (same) continue;
    dirty.push_back(static_cast<uint32_t>(p));
    literal_bytes += 4 + 4 + len;
  }

  Bytes out;
  Writer w(out);
  w.reserve(4 + 1 + 8 + 8 + 8 + 4 + literal_bytes + 8);
  w.u32(kDeltaMagic);
  w.u8(kDeltaVersion);
  w.u64(raw.size());
  w.u64(base.size());
  w.u64(simd::fingerprint(base.data(), base.size()));
  w.u32(static_cast<uint32_t>(dirty.size()));
  for (const uint32_t p : dirty) {
    const size_t off = p * kPageBytes;
    w.u32(p);
    w.bytes(raw.subspan(off, std::min(kPageBytes, raw.size() - off)));
  }
  w.u64(simd::fingerprint(out.data(), out.size()));
  if (refs != nullptr) *refs = n_pages - dirty.size();
  if (literals != nullptr) *literals = dirty.size();
  return out;
}

struct DeltaHeader {
  uint64_t raw_len = 0;
  uint64_t base_len = 0;
  uint64_t base_check = 0;
};

struct DeltaLiteral {
  uint32_t page = 0;
  BytesView bytes;
};

/// Smallest encoding of one literal: its u32 page index and u32 length.
constexpr size_t kLiteralHeaderBytes = 8;

/// Parses and checksum-verifies a delta frame; fills the header and the
/// literal list (views into `frame`). Base-independent: everything except
/// "does my base match" is validated here. The announced payload size is
/// checked against `max_bytes`, and the literal count against the bytes
/// left in the frame, before anything is sized from them.
Result<DeltaHeader> parse_delta(BytesView frame, uint64_t max_bytes,
                                std::vector<DeltaLiteral>& literals) {
  if (frame.size() < sizeof(uint64_t)) return codec_error("delta frame too short");
  const size_t body_len = frame.size() - sizeof(uint64_t);
  Reader tail(frame.subspan(body_len));
  const uint64_t want = tail.u64().value();
  if (simd::fingerprint(frame.data(), body_len) != want) {
    return codec_error("delta frame checksum mismatch");
  }
  Reader r(frame.subspan(0, body_len));
  auto magic = r.u32();
  if (!magic || magic.value() != kDeltaMagic) return codec_error("bad delta magic");
  auto version = r.u8();
  if (!version || version.value() != kDeltaVersion) {
    return codec_error("unsupported delta version");
  }
  auto raw_len = r.u64();
  auto base_len = r.u64();
  auto base_check = r.u64();
  auto n_literals = r.u32();
  if (!raw_len || !base_len || !base_check || !n_literals) {
    return codec_error("truncated delta header");
  }
  if (raw_len.value() > max_bytes) {
    return codec_error("delta announces oversized payload (" + std::to_string(raw_len.value()) +
                       " > " + std::to_string(max_bytes) + " bytes)");
  }
  const size_t n_pages = page_count(raw_len.value());
  if (n_literals.value() > n_pages) return codec_error("delta carries more pages than the payload");
  if (n_literals.value() > r.remaining() / kLiteralHeaderBytes) {
    return codec_error("delta announces more literals than the frame holds");
  }
  literals.clear();
  literals.reserve(n_literals.value());
  uint32_t prev_page = 0;
  for (uint32_t i = 0; i < n_literals.value(); ++i) {
    auto page = r.u32();
    if (!page) return codec_error("truncated delta literal");
    if (page.value() >= n_pages) return codec_error("delta literal page beyond payload");
    if (i != 0 && page.value() <= prev_page) {
      return codec_error("delta literal pages not strictly increasing");
    }
    prev_page = page.value();
    auto data = r.view();
    if (!data) return codec_error("truncated delta literal");
    const size_t off = static_cast<size_t>(page.value()) * kPageBytes;
    const size_t expected = std::min<size_t>(kPageBytes, static_cast<size_t>(raw_len.value()) - off);
    if (data.value().size() != expected) return codec_error("delta literal has wrong length");
    literals.push_back({page.value(), data.value()});
  }
  if (!r.exhausted()) return codec_error("trailing bytes in delta frame");
  // Every non-literal page is a base reference; references past the base's
  // end could never have been emitted by the encoder.
  size_t li = 0;
  for (size_t p = 0; p < n_pages; ++p) {
    if (li < literals.size() && literals[li].page == p) {
      ++li;
      continue;
    }
    const size_t off = p * kPageBytes;
    const size_t len = std::min<size_t>(kPageBytes, static_cast<size_t>(raw_len.value()) - off);
    if (off + len > base_len.value()) return codec_error("delta references page beyond base");
  }
  return DeltaHeader{raw_len.value(), base_len.value(), base_check.value()};
}

Result<Bytes> delta_decode(BytesView frame, BytesView base, uint64_t max_bytes) {
  std::vector<DeltaLiteral> literals;
  auto header = parse_delta(frame, max_bytes, literals);
  if (!header) return header.error();
  if (header.value().base_len != base.size() ||
      header.value().base_check != simd::fingerprint(base.data(), base.size())) {
    return codec_error("delta base payload mismatch");
  }
  const size_t raw_len = static_cast<size_t>(header.value().raw_len);
  const size_t n_pages = page_count(raw_len);
  Bytes out(raw_len);
  size_t li = 0;
  for (size_t p = 0; p < n_pages; ++p) {
    const size_t off = p * kPageBytes;
    const size_t len = std::min(kPageBytes, raw_len - off);
    if (li < literals.size() && literals[li].page == p) {
      simd::copy(out.data() + off, literals[li].bytes.data(), len);
      ++li;
    } else {
      simd::copy(out.data() + off, base.data() + off, len);
    }
  }
  return out;
}

}  // namespace

const char* compress_mode_name(CompressMode mode) {
  switch (mode) {
    case CompressMode::kOff: return "off";
    case CompressMode::kLz: return "lz";
    case CompressMode::kDelta: return "delta";
    case CompressMode::kDeltaLz: return "delta+lz";
  }
  return "off";
}

std::optional<CompressMode> parse_compress_mode(std::string_view text) {
  if (text == "off") return CompressMode::kOff;
  if (text == "lz") return CompressMode::kLz;
  if (text == "delta") return CompressMode::kDelta;
  if (text == "delta+lz" || text == "delta_lz") return CompressMode::kDeltaLz;
  return std::nullopt;
}

CompressMode compress_mode_from_env() {
  const char* v = std::getenv("STARFISH_CKPT_COMPRESS");
  if (v == nullptr) return CompressMode::kOff;
  return parse_compress_mode(v).value_or(CompressMode::kOff);
}

EncodedPayload encode_payload(CompressMode mode, BytesView raw, BytesView base, obs::Hub* hub) {
  EncodedPayload result;
  result.raw_len = raw.size();
  const bool want_delta =
      (mode == CompressMode::kDelta || mode == CompressMode::kDeltaLz) && !base.empty();
  const bool want_lz = mode == CompressMode::kLz || mode == CompressMode::kDeltaLz;

  Bytes candidate;
  PayloadCodec codec = PayloadCodec::kRaw;
  uint64_t refs = 0;
  uint64_t literals = 0;
  if (want_delta) {
    candidate = delta_encode(raw, base, &refs, &literals);
    codec = PayloadCodec::kDelta;
    if (mode == CompressMode::kDeltaLz) {
      candidate = util::codec::lz_compress(util::as_bytes_view(candidate));
      codec = PayloadCodec::kDeltaLz;
    }
  } else if (want_lz) {
    candidate = util::codec::lz_compress(raw);
    codec = PayloadCodec::kLz;
  }

  if (codec != PayloadCodec::kRaw && candidate.size() < raw.size()) {
    result.bytes = std::move(candidate);
    result.codec = codec;
    result.delta_page_refs = refs;
    result.delta_page_literals = literals;
  } else {
    result.bytes.assign(raw.begin(), raw.end());
  }
  if (mode != CompressMode::kOff) {
    note_encode(hub, result.raw_len, result.bytes.size(), result.delta_page_refs,
                result.delta_page_literals);
  }
  return result;
}

Result<Bytes> decode_payload(PayloadCodec codec, BytesView encoded, BytesView base,
                             uint64_t max_bytes, obs::Hub* hub) {
  switch (codec) {
    case PayloadCodec::kRaw:
      if (encoded.size() > max_bytes) {
        return note_decode_error(hub, codec_error("raw payload exceeds size bound"));
      }
      return Bytes(encoded.begin(), encoded.end());
    case PayloadCodec::kLz: {
      auto out = util::codec::lz_decompress(encoded, max_bytes);
      if (!out) return note_decode_error(hub, out.error());
      return std::move(out).take();
    }
    case PayloadCodec::kDelta: {
      auto out = delta_decode(encoded, base, max_bytes);
      if (!out) return note_decode_error(hub, out.error());
      return std::move(out).take();
    }
    case PayloadCodec::kDeltaLz: {
      // The delta frame is at most raw + per-page framing; bound it loosely
      // against the same cap the payload itself carries.
      auto frame = util::codec::lz_decompress(encoded, max_bytes + max_bytes / 2 + 4096);
      if (!frame) return note_decode_error(hub, frame.error());
      auto out = delta_decode(util::as_bytes_view(frame.value()), base, max_bytes);
      if (!out) return note_decode_error(hub, out.error());
      return std::move(out).take();
    }
  }
  return note_decode_error(hub, codec_error("unknown payload codec"));
}

Status verify_payload(PayloadCodec codec, BytesView encoded) {
  switch (codec) {
    case PayloadCodec::kRaw:
      return Status::ok_status();
    case PayloadCodec::kLz:
      return util::codec::lz_verify(encoded);
    case PayloadCodec::kDelta: {
      std::vector<DeltaLiteral> literals;
      auto header = parse_delta(encoded, kMaxIncrementalStateBytes, literals);
      if (!header) return header.error();
      return Status::ok_status();
    }
    case PayloadCodec::kDeltaLz: {
      // Verifying the inner delta needs the decompressed frame; the lz
      // layer's block checksums already cover the bytes, so a clean outer
      // verify plus a parseable inner frame is the full structural check.
      auto frame = util::codec::lz_decompress(encoded, kMaxIncrementalStateBytes);
      if (!frame) return frame.error();
      std::vector<DeltaLiteral> literals;
      auto header =
          parse_delta(util::as_bytes_view(frame.value()), kMaxIncrementalStateBytes, literals);
      if (!header) return header.error();
      return Status::ok_status();
    }
  }
  return codec_error("unknown payload codec");
}

}  // namespace starfish::ckpt
