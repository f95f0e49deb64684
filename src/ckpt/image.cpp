#include "ckpt/image.hpp"

#include <algorithm>
#include <cstddef>

#include "util/simd/simd.hpp"

namespace starfish::ckpt {

namespace simd = util::simd;

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
constexpr uint32_t kPortableMagic = 0x53465632;

/// The gathered columns of every value sequence of one image (encode
/// side), back to back in write order, with the end of each sequence's
/// slice of every column. portable_encode gathers all sequences before it
/// writes a byte, so it can allocate the payload once at its exact size.
struct Columns {
  struct Ends {
    size_t tags, ints, floats, bools, refs;
  };
  util::Bytes tags;
  std::vector<int64_t> ints;
  std::vector<double> floats;
  util::Bytes bools;
  std::vector<uint32_t> refs;
  std::vector<Ends> ends;  ///< one per gathered sequence

  void gather(std::span<const Value> vals);
  /// Bytes the gathered sequences take in the payload (counts excluded).
  size_t payload_bytes(uint8_t word_bytes) const {
    return tags.size() + ints.size() * (word_bytes >= 8 ? 8 : 4) + floats.size() * 8 +
           bools.size() + refs.size() * 4;
  }
};

/// Appends `vals` as the next sequence: its tags, then its integer words,
/// floats, bools and refs each to their column, in value order.
///
/// Single pass of tag-run-length gather: real sequences are long
/// homogeneous runs (a stack of ints, a heap array of floats), so the run
/// pre-pass turns the per-value tag switch + push_back into one dispatch
/// per run, a bulk std::fill of the run's tag bytes, and a tight
/// single-tag fill loop with no capacity checks. One streaming pass over
/// the (16-byte-stride) value array — a second full pass would be
/// memory-bound, not branch-bound, and cost more than the switch it
/// saves. The bytes are identical to the naive per-value walk: runs are
/// processed left to right, so each column keeps value order.
void Columns::gather(std::span<const Value> vals) {
  const size_t n = vals.size();
  const size_t tag_at = tags.size();
  tags.resize(tag_at + n);
  // Runs are capped so the detection scan and the gather that re-reads the
  // same values stay L2-resident together (4096 values = 64 KB of Value);
  // an uncapped run over a multi-MB sequence would stream the array from
  // DRAM twice. Splitting a run changes nothing downstream — the fills and
  // appends are position-exact.
  constexpr size_t kRunCap = 4096;
  for (size_t k = 0; k < n;) {
    const Tag t = vals[k].tag;
    const size_t cap = std::min(n, k + kRunCap);
    size_t end = k + 1;
    while (end < cap && vals[end].tag == t) ++end;
    std::fill(tags.begin() + static_cast<ptrdiff_t>(tag_at + k),
              tags.begin() + static_cast<ptrdiff_t>(tag_at + end), static_cast<std::byte>(t));
    const size_t len = end - k;
    switch (t) {
      case Tag::kUnit:
        break;
      case Tag::kInt: {
        ints.resize(ints.size() + len);
        simd::gather64(reinterpret_cast<std::byte*>(ints.data() + (ints.size() - len)),
                       reinterpret_cast<const std::byte*>(&vals[k]) + offsetof(Value, i),
                       sizeof(Value), len);
        break;
      }
      case Tag::kFloat: {
        floats.resize(floats.size() + len);
        simd::gather64(reinterpret_cast<std::byte*>(floats.data() + (floats.size() - len)),
                       reinterpret_cast<const std::byte*>(&vals[k]) + offsetof(Value, f),
                       sizeof(Value), len);
        break;
      }
      case Tag::kBool: {
        bools.resize(bools.size() + len);
        std::byte* bp = bools.data() + (bools.size() - len);
        for (size_t j = k; j < end; ++j) {
          *bp++ = std::byte{vals[j].i ? uint8_t{1} : uint8_t{0}};
        }
        break;
      }
      case Tag::kRef: {
        refs.resize(refs.size() + len);
        uint32_t* rp = refs.data() + (refs.size() - len);
        for (size_t j = k; j < end; ++j) *rp++ = vals[j].ref;
        break;
      }
    }
    k = end;
  }
  ends.push_back({tags.size(), ints.size(), floats.size(), bools.size(), refs.size()});
}

/// Writes gathered sequence `seq` as u32 count, u8 tags[count], then its
/// ints (saver-word-sized each, in value order), f64 floats, u8 bools and
/// u32 refs.
void put_values(Writer& w, const Columns& c, size_t seq, uint8_t word_bytes) {
  const Columns::Ends from = seq == 0 ? Columns::Ends{} : c.ends[seq - 1];
  const Columns::Ends& to = c.ends[seq];
  w.u32(static_cast<uint32_t>(to.tags - from.tags));
  w.raw(util::BytesView(c.tags).subspan(from.tags, to.tags - from.tags));
  const std::span<const int64_t> ints(c.ints.data() + from.ints, to.ints - from.ints);
  if (word_bytes >= 8) {
    w.i64s(ints);
  } else {
    w.i32s_narrowed(ints);  // VM arithmetic already wrapped to 32 bits
  }
  w.f64s(std::span<const double>(c.floats.data() + from.floats, to.floats - from.floats));
  w.raw(util::BytesView(c.bools).subspan(from.bools, to.bools - from.bools));
  w.u32s(std::span<const uint32_t>(c.refs.data() + from.refs, to.refs - from.refs));
}

/// Reads `count` values written by put_values, converting the saver's word
/// size and checking every integer against the target machine's word.
util::Result<std::vector<Value>> get_values(Reader& r, uint32_t count, uint8_t saver_word,
                                            const sim::Machine& target) {
  auto tags = r.raw_view(count);
  if (!tags) return tags.error();
  size_t n_ints = 0, n_floats = 0, n_bools = 0, n_refs = 0;
  for (std::byte t : tags.value()) {
    switch (static_cast<Tag>(t)) {
      case Tag::kUnit: break;
      case Tag::kInt: ++n_ints; break;
      case Tag::kFloat: ++n_floats; break;
      case Tag::kBool: ++n_bools; break;
      case Tag::kRef: ++n_refs; break;
      default: return util::Error::make("decode", "bad value tag");
    }
  }
  std::vector<int64_t> ints(n_ints);
  if (saver_word >= 8) {
    if (auto s = r.read_i64s(ints); !s.ok()) return s.error();
  } else {
    if (auto s = r.read_i64s_widened(ints); !s.ok()) return s.error();
  }
  std::vector<double> floats(n_floats);
  if (auto s = r.read_f64s(floats); !s.ok()) return s.error();
  auto bools = r.raw_view(n_bools);
  if (!bools) return bools.error();
  std::vector<uint32_t> refs(n_refs);
  if (auto s = r.read_u32s(refs); !s.ok()) return s.error();

  // Run-length stitch: tags were validated above, so the reassembly walks
  // homogeneous tag runs (the tag bytes are contiguous in the payload —
  // run detection is a cheap byte scan) and appends each column span with
  // a tight single-tag loop instead of a per-value switch. Unit runs
  // bulk-append default (kUnit) values via resize. The narrowing check
  // hoists out entirely on 64-bit targets, where every i64 fits.
  std::vector<Value> out;
  out.reserve(count);
  const std::byte* tp = tags.value().data();
  const bool check_narrow = target.word_bytes < 8;
  size_t ii = 0, fi = 0, bi = 0, ri = 0;
  for (size_t k = 0; k < count;) {
    const Tag t = static_cast<Tag>(tp[k]);
    size_t end = k + 1;
    while (end < count && static_cast<Tag>(tp[end]) == t) ++end;
    switch (t) {
      case Tag::kUnit:
        out.resize(end - k + out.size());
        break;
      case Tag::kInt:
        if (check_narrow) {
          for (size_t j = k; j < end; ++j) {
            const int64_t v = ints[ii++];
            if (!vm::fits_word(v, target)) {
              return util::Error::make(
                  "narrow", "integer " + std::to_string(v) +
                                " does not fit the target machine's " +
                                std::to_string(target.word_bytes * 8) + "-bit word");
            }
            out.push_back(Value::integer(v));
          }
        } else {
          for (size_t j = k; j < end; ++j) out.push_back(Value::integer(ints[ii++]));
        }
        break;
      case Tag::kFloat:
        for (size_t j = k; j < end; ++j) out.push_back(Value::real(floats[fi++]));
        break;
      case Tag::kBool:
        for (size_t j = k; j < end; ++j) {
          out.push_back(Value::boolean(bools.value()[bi++] != std::byte{0}));
        }
        break;
      default:  // kRef (tags pre-validated)
        for (size_t j = k; j < end; ++j) out.push_back(Value::reference(refs[ri++]));
        break;
    }
    k = end;
  }
  return out;
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

  // Gather every value sequence in write order and size the fixed fields,
  // then write into one buffer of exactly that size.
  Columns c;
  size_t fixed = 4 + 4 + 4 + 4 + 4 + 8;  // magic, 4 counts (globals to heap), steps
  c.gather(state.globals);
  c.gather(state.stack);
  for (const auto& f : state.frames) {
    fixed += 4 + 4 + 4;
    c.gather(f.locals);
  }
  for (const auto& obj : state.heap) {
    fixed += 1 + 4;
    if (obj.kind == vm::HeapObject::Kind::kArray) {
      c.gather(obj.fields);
    } else {
      fixed += obj.bytes.size();
    }
  }

  const uint8_t word = saver.word_bytes;
  Writer w(img.payload, saver.endian);
  w.reserve(fixed + c.payload_bytes(word));
  w.u32(kPortableMagic);
  size_t seq = 0;
  put_values(w, c, seq++, word);
  put_values(w, c, seq++, word);
  w.u32(static_cast<uint32_t>(state.frames.size()));
  for (const auto& f : state.frames) {
    w.u32(f.function);
    w.u32(f.pc);
    put_values(w, c, seq++, word);
  }
  w.u32(static_cast<uint32_t>(state.heap.size()));
  for (const auto& obj : state.heap) {
    w.u8(static_cast<uint8_t>(obj.kind));
    if (obj.kind == vm::HeapObject::Kind::kArray) {
      put_values(w, c, seq++, word);
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
  const Endian endian = repr_endian(image.repr_code);
  const uint8_t word = repr_word_bytes(image.repr_code);
  Reader r(util::as_bytes_view(image.payload), endian);

  auto magic = r.u32();
  if (!magic) return magic.error();
  if (magic.value() != kPortableMagic) {
    return util::Error::make("decode", "bad portable image magic");
  }

  vm::VmState state;
  auto n_globals = r.u32();
  if (!n_globals) return n_globals.error();
  auto globals = get_values(r, n_globals.value(), word, target);
  if (!globals) return globals.error();
  state.globals = std::move(globals).take();
  auto n_stack = r.u32();
  if (!n_stack) return n_stack.error();
  auto stack = get_values(r, n_stack.value(), word, target);
  if (!stack) return stack.error();
  state.stack = std::move(stack).take();
  auto n_frames = r.u32();
  if (!n_frames) return n_frames.error();
  for (uint32_t i = 0; i < n_frames.value(); ++i) {
    vm::Frame f;
    auto fn = r.u32();
    if (!fn) return fn.error();
    f.function = fn.value();
    auto pc = r.u32();
    if (!pc) return pc.error();
    f.pc = pc.value();
    auto n_locals = r.u32();
    if (!n_locals) return n_locals.error();
    auto locals = get_values(r, n_locals.value(), word, target);
    if (!locals) return locals.error();
    f.locals = std::move(locals).take();
    state.frames.push_back(std::move(f));
  }
  auto n_heap = r.u32();
  if (!n_heap) return n_heap.error();
  for (uint32_t i = 0; i < n_heap.value(); ++i) {
    vm::HeapObject obj;
    auto kind = r.u8();
    if (!kind) return kind.error();
    obj.kind = static_cast<vm::HeapObject::Kind>(kind.value());
    if (obj.kind == vm::HeapObject::Kind::kArray) {
      auto n = r.u32();
      if (!n) return n.error();
      auto fields = get_values(r, n.value(), word, target);
      if (!fields) return fields.error();
      obj.fields = std::move(fields).take();
    } else {
      auto b = r.bytes();
      if (!b) return b.error();
      obj.bytes = std::move(b).take();
    }
    state.heap.push_back(std::move(obj));
  }
  auto steps = r.u64();
  if (!steps) return steps.error();
  state.steps_executed = steps.value();
  return state;
}

}  // namespace starfish::ckpt
