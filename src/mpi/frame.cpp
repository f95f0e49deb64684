#include "mpi/frame.hpp"

namespace starfish::mpi {

namespace {
/// Fixed bytes of the wire header: kind(1) + comm/src/dst/tag(4 each) +
/// seq(8) + interval(4) + total(8) + payload length prefix(4).
constexpr size_t kHeaderBytes = 1 + 4 * 4 + 8 + 4 + 8;
}  // namespace

util::SharedBytes Frame::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.reserve(kHeaderBytes + payload.size());
  w.u8(static_cast<uint8_t>(kind));
  w.u32(comm);
  w.u32(src_rank);
  w.u32(dst_rank);
  w.i32(tag);
  w.u64(seq);
  w.u32(send_interval);
  w.u64(total_bytes);
  w.bytes(payload.view());
  return out;
}

util::Result<Frame> Frame::decode(const util::SharedBytes& bytes) {
  util::Reader r(bytes.view());
  Frame f;
  f.kind = r.enum_u8(FrameKind::kEager, FrameKind::kClMarker, "frame kind");
  f.comm = r.u32();
  f.src_rank = r.u32();
  f.dst_rank = r.u32();
  f.tag = r.i32();
  f.seq = r.u64();
  f.send_interval = r.u32();
  f.total_bytes = r.u64();
  // The payload aliases the wire buffer instead of being copied out.
  const util::BytesView payload = r.view();
  f.payload = bytes.slice(r.position() - payload.size(), payload.size());
  return r.finish(std::move(f), "an mpi frame");
}

}  // namespace starfish::mpi
