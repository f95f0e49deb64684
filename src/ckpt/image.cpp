#include "ckpt/image.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <optional>

namespace starfish::ckpt {

namespace {

using util::Endian;
using util::Reader;
using util::Writer;
using vm::Tag;
using vm::Value;

// "SFV2": the columnar portable layout (PR 9). Value sequences are stored
// struct-of-arrays — a tag byte per value, then the integer words, floats,
// bools and refs each as one contiguous homogeneous array — so the
// endianness and word-size conversion of heterogeneous checkpointing runs
// through the util/simd bulk kernels (byteswap, widen/narrow) instead of a
// per-value switch. The bytes are ISA-invariant: every kernel is
// bit-identical across scalar/AVX2/AVX-512/NEON (DESIGN.md §16).
//
// A heap array already holds that layout in memory (a tag column and a
// payload-word column, vm/value.hpp), so the codec below reads and writes
// it column to column. Globals, the stack and locals are split into the
// same two columns on capture and rebuilt into Values on restore.
constexpr uint32_t kPortableMagic = 0x53465632;

constexpr size_t kTagCount = 5;
/// Elements of each tag in one sequence, indexed by Tag.
using TagCounts = std::array<size_t, kTagCount>;
/// The payload columns in write order.
constexpr Tag kPayloadTags[] = {Tag::kInt, Tag::kFloat, Tag::kBool, Tag::kRef};

size_t index_of(Tag t) { return static_cast<size_t>(t); }

/// Counts each tag of `tags`; nullopt when a byte names no Tag. A
/// single-tag sequence, the common heap array, costs one OR-reduction.
std::optional<TagCounts> count_tags(std::span<const Tag> tags) {
  TagCounts counts{};
  if (tags.empty()) return counts;
  const auto first = static_cast<uint8_t>(tags[0]);
  uint8_t diff = 0;
  for (Tag t : tags) diff |= static_cast<uint8_t>(static_cast<uint8_t>(t) ^ first);
  if (diff == 0) {
    if (first >= kTagCount) return std::nullopt;
    counts[first] = tags.size();
    return counts;
  }
  for (Tag t : tags) {
    if (static_cast<uint8_t>(t) >= kTagCount) return std::nullopt;
    ++counts[index_of(t)];
  }
  return counts;
}

/// Bytes a sequence of `n` values with tag counts `c` takes in the payload
/// after its count: tags, then the saver-word ints, floats, bools and refs.
size_t columns_bytes(size_t n, const TagCounts& c, uint8_t word_bytes) {
  return n + c[index_of(Tag::kInt)] * (word_bytes >= 8 ? 8 : 4) + c[index_of(Tag::kFloat)] * 8 +
         c[index_of(Tag::kBool)] + c[index_of(Tag::kRef)] * 4;
}

std::span<const int64_t> as_i64(std::span<const uint64_t> w) {
  return {reinterpret_cast<const int64_t*>(w.data()), w.size()};
}
std::span<int64_t> as_i64(std::span<uint64_t> w) {
  return {reinterpret_cast<int64_t*>(w.data()), w.size()};
}

/// Calls `fn(k, end)` for each maximal run [k, end) of tag `t` in `tags`,
/// left to right.
template <typename Fn>
void for_each_run(std::span<const Tag> tags, Tag t, Fn&& fn) {
  const size_t n = tags.size();
  for (size_t k = 0; k < n;) {
    size_t end = k + 1;
    while (end < n && tags[end] == tags[k]) ++end;
    if (tags[k] == t) fn(k, end);
    k = end;
  }
}

/// Appends `words`, the payloads of values of tag `t`, to t's column.
void put_words(Writer& w, Tag t, std::span<const uint64_t> words, uint8_t word_bytes) {
  switch (t) {
    case Tag::kInt:
      if (word_bytes >= 8) {
        w.u64s(words);
      } else {
        w.i32s_narrowed(as_i64(words));  // VM arithmetic already wrapped to 32 bits
      }
      break;
    case Tag::kFloat:
      w.u64s(words);
      break;
    case Tag::kBool:
      for (uint64_t b : words) w.u8(b != 0 ? 1 : 0);
      break;
    case Tag::kRef:
      w.i32s_narrowed(as_i64(words));  // a ref word is a zero-extended u32
      break;
    case Tag::kUnit:
      break;
  }
}

/// Writes one sequence as u32 count, u8 tags[count], then its ints
/// (saver-word-sized each, in value order), f64 floats, u8 bools and u32
/// refs. A single-tag sequence writes its one column in one call; a mixed
/// one appends each column run by run.
void put_columns(Writer& w, const vm::HeapObject& cols, const TagCounts& c, uint8_t word_bytes) {
  const size_t n = cols.size();
  w.u32(static_cast<uint32_t>(n));
  w.raw(std::as_bytes(std::span<const Tag>(cols.tags)));
  const std::span<const uint64_t> words(cols.words);
  for (Tag t : kPayloadTags) {
    if (c[index_of(t)] == 0) continue;
    if (c[index_of(t)] == n) {
      put_words(w, t, words, word_bytes);
    } else {
      for_each_run(cols.tags, t, [&](size_t k, size_t end) {
        put_words(w, t, words.subspan(k, end - k), word_bytes);
      });
    }
  }
}

/// Reads the next words of t's column into `out`, converting the saver's
/// word size (ints) and widening u32 refs. A bool byte must be 0 or 1.
void get_words(Reader& r, Tag t, std::span<uint64_t> out, uint8_t saver_word) {
  switch (t) {
    case Tag::kInt:
      if (saver_word >= 8) {
        r.read_u64s(out);
      } else {
        r.read_i64s_widened(as_i64(out));
      }
      return;
    case Tag::kFloat:
      r.read_u64s(out);
      return;
    case Tag::kBool: {
      const util::BytesView b = r.raw_view(out.size());
      uint8_t seen = 0;
      for (size_t j = 0; j < b.size(); ++j) {
        out[j] = static_cast<uint8_t>(b[j]);
        seen |= static_cast<uint8_t>(b[j]);
      }
      if (seen > 1) r.fail("bool byte not 0/1");
      return;
    }
    case Tag::kRef:
      r.read_i64s_widened(as_i64(out));
      for (uint64_t& ref : out) ref &= 0xffffffffu;  // zero-extend, not sign-extend
      return;
    case Tag::kUnit:
      return;
  }
}

/// Reads a sequence written by put_columns into the columns of `cols`,
/// converting the saver's word size, and checks every integer against the
/// target machine's word. Fails closed on a byte that names no tag.
void get_columns(Reader& r, uint8_t saver_word, const sim::Machine& target,
                 vm::HeapObject& cols) {
  const util::BytesView tag_bytes = r.raw_view(r.count(1, "value count exceeds the image"));
  const size_t n = tag_bytes.size();
  cols.tags.resize(n);
  if (n != 0) std::memcpy(cols.tags.data(), tag_bytes.data(), n);
  const std::optional<TagCounts> counted = count_tags(cols.tags);
  if (!counted) {
    r.fail("bad value tag");
    cols.tags.clear();  // no words to pair with
    return;
  }
  const TagCounts& c = *counted;
  cols.words.assign(n, 0);  // unit payloads; every other element is read below
  const std::span<uint64_t> words(cols.words);
  for (Tag t : kPayloadTags) {
    if (c[index_of(t)] == 0) continue;
    if (c[index_of(t)] == n) {
      get_words(r, t, words, saver_word);
    } else {
      for_each_run(cols.tags, t, [&](size_t k, size_t end) {
        get_words(r, t, words.subspan(k, end - k), saver_word);
      });
    }
  }
  // Checked after every column is read, so a truncated payload reports the
  // short read whatever its ints hold; hoisted out on 64-bit targets.
  if (target.word_bytes < 8 && c[index_of(Tag::kInt)] != 0) {
    for (size_t k = 0; k < n; ++k) {
      const auto v = static_cast<int64_t>(words[k]);
      if (cols.tags[k] == Tag::kInt && !vm::fits_word(v, target)) {
        r.fail(util::Error::make("narrow", "integer " + std::to_string(v) +
                                               " does not fit the target machine's " +
                                               std::to_string(target.word_bytes * 8) +
                                               "-bit word"));
        return;
      }
    }
  }
}

/// A Value sequence (globals, stack, locals) as array columns, and back.
vm::HeapObject split(std::span<const Value> vals) {
  vm::HeapObject cols;
  cols.tags.resize(vals.size());
  cols.words.resize(vals.size());
  for (size_t k = 0; k < vals.size(); ++k) {
    cols.tags[k] = vals[k].tag;
    cols.words[k] = vals[k].word();
  }
  return cols;
}

std::vector<Value> rebuild(const vm::HeapObject& cols) {
  std::vector<Value> out;
  out.reserve(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) out.push_back(cols.get(k));
  return out;
}

std::vector<Value> get_values(Reader& r, uint8_t saver_word, const sim::Machine& target) {
  vm::HeapObject cols;
  get_columns(r, saver_word, target, cols);
  return rebuild(cols);
}

}  // namespace

util::SharedBytes damaged_copy(util::BytesView payload, size_t offset, bool truncate) {
  util::Bytes out(payload.begin(), payload.end());
  if (truncate) {
    out.resize(std::min(offset, out.size() - 1));
  } else {
    out[offset % out.size()] ^= std::byte{0x40};
  }
  return out;
}

bool verify_stored(const StoredImage& image) {
  if (!image.verified) {
    image.verified = verify_payload(image.codec, util::as_bytes_view(image.payload)).ok();
  }
  return image.verified;
}

bool chain_complete(uint64_t epoch, const StoredLookup& lookup) {
  for (;;) {
    const StoredImage* image = lookup(epoch);
    // A stored-but-corrupt link is as unrecoverable as a missing one.
    if (image == nullptr || !verify_stored(*image)) return false;
    if (!is_delta(image->codec)) return true;
    if (image->codec_base_epoch >= epoch) return false;
    epoch = image->codec_base_epoch;
  }
}

util::Endian repr_endian(uint16_t code) { return static_cast<Endian>(code >> 8); }
uint8_t repr_word_bytes(uint16_t code) { return static_cast<uint8_t>(code & 0xff); }

// ------------------------------------------------------------- native ----

Image native_encode(const sim::Machine& saver, std::span<const std::byte> memory) {
  Image img;
  img.kind = ImageKind::kNative;
  img.repr_code = saver.repr_code();
  img.payload.assign(memory.begin(), memory.end());
  img.file_bytes = kNativeBaseBytes + memory.size();
  return img;
}

util::Result<util::Bytes> native_decode(const Image& image, const sim::Machine& target) {
  if (image.kind != ImageKind::kNative) {
    return util::Error::make("kind", "not a native image");
  }
  if (image.repr_code != target.repr_code()) {
    return util::Error::make(
        "repr-mismatch",
        "native checkpoint requires an identical machine representation "
        "(saved repr=" + std::to_string(image.repr_code) +
            ", target repr=" + std::to_string(target.repr_code()) + ")");
  }
  return image.payload;
}

// ----------------------------------------------------------- portable ----

Image portable_encode(const sim::Machine& saver, const vm::VmState& state) {
  Image img;
  img.kind = ImageKind::kPortable;
  img.repr_code = saver.repr_code();
  const uint8_t word = saver.word_bytes;

  // Split the Value sequences and count every sequence's tags in write
  // order, so the payload is allocated once at its exact size.
  const vm::HeapObject globals = split(state.globals);
  const vm::HeapObject stack = split(state.stack);
  std::vector<vm::HeapObject> locals;
  locals.reserve(state.frames.size());
  for (const auto& f : state.frames) locals.push_back(split(f.locals));
  std::vector<TagCounts> counts;
  size_t size = 4 + 4 + 4 + 4 + 4 + 8;  // magic, 4 counts (globals to heap), steps
  const auto count = [&](const vm::HeapObject& cols) {
    counts.push_back(*count_tags(cols.tags));
    size += columns_bytes(cols.size(), counts.back(), word);
  };
  count(globals);
  count(stack);
  for (const auto& l : locals) {
    size += 4 + 4 + 4;
    count(l);
  }
  for (const auto& obj : state.heap) {
    size += 1 + 4;
    if (obj.kind == vm::HeapObject::Kind::kArray) {
      count(obj);
    } else {
      size += obj.bytes.size();
    }
  }

  Writer w(img.payload, saver.endian);
  w.reserve(size);
  w.u32(kPortableMagic);
  size_t seq = 0;
  put_columns(w, globals, counts[seq++], word);
  put_columns(w, stack, counts[seq++], word);
  w.u32(static_cast<uint32_t>(state.frames.size()));
  for (size_t i = 0; i < state.frames.size(); ++i) {
    w.u32(state.frames[i].function);
    w.u32(state.frames[i].pc);
    put_columns(w, locals[i], counts[seq++], word);
  }
  w.u32(static_cast<uint32_t>(state.heap.size()));
  for (const auto& obj : state.heap) {
    w.u8(static_cast<uint8_t>(obj.kind));
    if (obj.kind == vm::HeapObject::Kind::kArray) {
      put_columns(w, obj, counts[seq++], word);
    } else {
      w.bytes(util::as_bytes_view(obj.bytes));
    }
  }
  w.u64(state.steps_executed);

  img.file_bytes = kPortableBaseBytes + img.payload.size();
  return img;
}

util::Result<vm::VmState> portable_decode(const Image& image, const sim::Machine& target) {
  if (image.kind != ImageKind::kPortable) {
    return util::Error::make("kind", "not a portable image");
  }
  const uint8_t word = repr_word_bytes(image.repr_code);
  Reader r(util::as_bytes_view(image.payload), repr_endian(image.repr_code));
  if (r.u32() != kPortableMagic) r.fail("bad portable image magic");

  vm::VmState state;
  state.globals = get_values(r, word, target);
  state.stack = get_values(r, word, target);
  state.frames.resize(r.count(4 + 4 + 4, "frame count exceeds the image"));
  for (vm::Frame& f : state.frames) {
    f.function = r.u32();
    f.pc = r.u32();
    f.locals = get_values(r, word, target);
  }
  state.heap.resize(r.count(1 + 4, "heap object count exceeds the image"));
  for (vm::HeapObject& obj : state.heap) {
    obj.kind = r.enum_u8(vm::HeapObject::Kind::kArray, vm::HeapObject::Kind::kBytes,
                         "heap object kind");
    if (obj.kind == vm::HeapObject::Kind::kArray) {
      get_columns(r, word, target, obj);
    } else {
      obj.bytes = r.bytes();
    }
  }
  state.steps_executed = r.u64();
  return r.finish(std::move(state), "a portable image");
}

}  // namespace starfish::ckpt
