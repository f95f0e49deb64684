#include "mpi/datatype.hpp"

#include <cstring>
#include <type_traits>

#include "util/simd/simd.hpp"

namespace starfish::mpi {

Datatype Datatype::contiguous(size_t count, size_t elem_bytes) {
  Datatype d;
  if (count > 0) d.blocks_.emplace_back(0, count * elem_bytes);
  d.packed_bytes_ = count * elem_bytes;
  d.extent_ = count * elem_bytes;
  d.build_plan();
  return d;
}

Datatype Datatype::vector(size_t count, size_t block_elems, size_t stride_elems,
                          size_t elem_bytes) {
  Datatype d;
  for (size_t i = 0; i < count; ++i) {
    d.blocks_.emplace_back(i * stride_elems * elem_bytes, block_elems * elem_bytes);
  }
  d.packed_bytes_ = count * block_elems * elem_bytes;
  d.extent_ = count == 0 ? 0
                         : (count - 1) * stride_elems * elem_bytes + block_elems * elem_bytes;
  d.build_plan();
  return d;
}

Datatype Datatype::indexed(std::vector<std::pair<size_t, size_t>> blocks) {
  Datatype d;
  d.blocks_ = std::move(blocks);
  for (const auto& [off, len] : d.blocks_) {
    d.packed_bytes_ += len;
    d.extent_ = std::max(d.extent_, off + len);
  }
  d.build_plan();
  return d;
}

void Datatype::build_plan() {
  size_t dst = 0;
  for (const auto& [off, len] : blocks_) {
    if (len == 0) continue;  // zero-length blocks contribute no bytes
    if (!plan_.empty() && plan_.back().src + plan_.back().len == off) {
      plan_.back().len += len;  // touches the previous run in the buffer too
    } else {
      plan_.push_back(Run{off, dst, len});
    }
    dst += len;
  }
}

util::Result<util::Bytes> Datatype::pack(std::span<const std::byte> buffer) const {
  if (buffer.size() < extent_) {
    return util::Error::make("pack", "buffer smaller than the datatype extent");
  }
  util::Bytes out(packed_bytes_);
  // Contiguous types (and vectors whose stride equals the block) compiled to
  // a single run, so this loop *is* the one-bulk-copy fast path for them;
  // strided layouts execute the merged gather plan with the SIMD copy.
  for (const Run& r : plan_) {
    util::simd::copy(out.data() + r.dst, buffer.data() + r.src, r.len);
  }
  return out;
}

util::Status Datatype::unpack(std::span<const std::byte> message,
                              std::span<std::byte> buffer) const {
  if (message.size() != packed_bytes_) {
    return util::Error::make("unpack", "message size does not match the datatype");
  }
  if (buffer.size() < extent_) {
    return util::Error::make("unpack", "buffer smaller than the datatype extent");
  }
  for (const Run& r : plan_) {
    util::simd::copy(buffer.data() + r.src, message.data() + r.dst, r.len);
  }
  return util::Status::ok_status();
}

// The typed codecs write the same little-endian wire bytes as per-element
// loops; the bulk Writer/Reader paths just retire whole arrays through one
// SIMD copy/byteswap pass.

namespace {

template <typename T>
util::Bytes encode_array(std::span<const T> values) {
  util::Bytes out;
  util::Writer w(out);
  w.u32(static_cast<uint32_t>(values.size()));
  if constexpr (std::is_same_v<T, int64_t>) {
    w.i64s(values);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64s(values);
  } else {
    w.i32s(values);
  }
  return out;
}

template <typename T>
util::Result<std::vector<T>> decode_array(util::BytesView bytes) {
  util::Reader r(bytes);
  std::vector<T> out(r.count(sizeof(T), "array count exceeds the payload"));
  if constexpr (std::is_same_v<T, int64_t>) {
    r.read_i64s(out);
  } else if constexpr (std::is_same_v<T, double>) {
    r.read_f64s(out);
  } else {
    r.read_i32s(out);
  }
  return r.finish(std::move(out), "an array");
}

}  // namespace

util::Bytes encode_i64s(std::span<const int64_t> values) { return encode_array(values); }

util::Result<std::vector<int64_t>> decode_i64s(util::BytesView bytes) {
  return decode_array<int64_t>(bytes);
}

util::Bytes encode_f64s(std::span<const double> values) { return encode_array(values); }

util::Result<std::vector<double>> decode_f64s(util::BytesView bytes) {
  return decode_array<double>(bytes);
}

util::Bytes encode_i32s(std::span<const int32_t> values) { return encode_array(values); }

util::Result<std::vector<int32_t>> decode_i32s(util::BytesView bytes) {
  return decode_array<int32_t>(bytes);
}

util::Bytes encode_parts(const std::vector<util::Bytes>& parts) {
  util::Bytes out;
  util::Writer w(out);
  w.u32(static_cast<uint32_t>(parts.size()));
  for (const auto& b : parts) w.bytes(util::as_bytes_view(b));
  return out;
}

util::Result<std::vector<util::Bytes>> decode_parts(util::BytesView bytes) {
  util::Reader r(bytes);
  std::vector<util::Bytes> out(r.count(4, "part count exceeds the payload"));
  for (util::Bytes& b : out) b = r.bytes();
  return r.finish(std::move(out), "a part list");
}

util::Bytes SplitEntry::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.i32(color);
  w.i32(key);
  w.u32(world);
  return out;
}

util::Result<SplitEntry> SplitEntry::decode(util::BytesView bytes) {
  util::Reader r(bytes);
  SplitEntry e;
  e.color = r.i32();
  e.key = r.i32();
  e.world = r.u32();
  return r.finish(e, "a split entry");
}

}  // namespace starfish::mpi
