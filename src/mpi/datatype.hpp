// Derived datatypes and pack/unpack (the MPI datatype machinery, simplified
// to the layouts message-passing codes actually use).
//
// A Datatype describes a memory layout over a byte buffer: contiguous runs,
// strided vectors (e.g. a matrix column), or an explicit indexed list of
// blocks. pack() gathers the described bytes into a contiguous wire buffer;
// unpack() scatters them back. Typed helpers cover the common scalar-array
// cases with explicit little-endian wire order, so heterogeneous ranks in a
// simulated mixed cluster exchange bytes portably.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::mpi {

class Datatype {
 public:
  /// `count` elements of `elem_bytes` each, back to back from offset 0.
  static Datatype contiguous(size_t count, size_t elem_bytes);
  /// `count` blocks of `block_elems` elements, the start of consecutive
  /// blocks `stride_elems` elements apart (MPI_Type_vector).
  static Datatype vector(size_t count, size_t block_elems, size_t stride_elems,
                         size_t elem_bytes);
  /// Explicit (offset, length) byte extents (MPI_Type_indexed flavor).
  static Datatype indexed(std::vector<std::pair<size_t, size_t>> blocks);

  /// Total bytes the layout reads/writes (the packed size).
  size_t packed_bytes() const { return packed_bytes_; }
  /// Smallest buffer size the layout fits into.
  size_t extent() const { return extent_; }

  /// Gathers the described bytes of `buffer` into a contiguous message.
  util::Result<util::Bytes> pack(std::span<const std::byte> buffer) const;
  /// Scatters `message` back into `buffer` according to the layout.
  util::Status unpack(std::span<const std::byte> message,
                      std::span<std::byte> buffer) const;

  /// True when the layout collapses to one contiguous byte run (pack is a
  /// single bulk copy; includes vectors whose stride equals the block).
  bool is_contiguous() const { return plan_.size() <= 1; }

 private:
  Datatype() = default;

  /// Compiles blocks_ into the flattened copy plan pack/unpack execute:
  /// zero-length blocks dropped, adjacent blocks merged (the message side is
  /// always contiguous, so runs merge whenever the buffer offsets touch).
  /// Called once by every factory; blocks_ stays as the descriptive layout.
  void build_plan();

  /// One copy run: `len` bytes at buffer offset `src`, message offset `dst`.
  struct Run {
    size_t src;
    size_t dst;
    size_t len;
  };

  std::vector<std::pair<size_t, size_t>> blocks_;  // (byte offset, byte length)
  std::vector<Run> plan_;                          // merged, zero-runs dropped
  size_t packed_bytes_ = 0;
  size_t extent_ = 0;
};

// --- typed codecs (explicit little-endian wire order; every decoder fails
// closed with Error{"decode"}). The scalar arrays are a u32 count, then
// the elements; the collectives carry their payloads in them. ---

util::Bytes encode_i64s(std::span<const int64_t> values);
util::Result<std::vector<int64_t>> decode_i64s(util::BytesView bytes);
util::Bytes encode_f64s(std::span<const double> values);
util::Result<std::vector<double>> decode_f64s(util::BytesView bytes);
util::Bytes encode_i32s(std::span<const int32_t> values);
util::Result<std::vector<int32_t>> decode_i32s(util::BytesView bytes);
/// A list of byte strings (allgather's result): a u32 count, then each
/// string behind its u32 length.
util::Bytes encode_parts(const std::vector<util::Bytes>& parts);
util::Result<std::vector<util::Bytes>> decode_parts(util::BytesView bytes);

/// One member's contribution to Comm::split: i32 color, i32 key, u32
/// world rank.
struct SplitEntry {
  int32_t color = 0;
  int32_t key = 0;
  uint32_t world = 0;

  util::Bytes encode() const;
  static util::Result<SplitEntry> decode(util::BytesView bytes);
};

}  // namespace starfish::mpi
