// Value and state model of the Starfish virtual machine.
//
// The paper checkpoints OCaml bytecode programs at the virtual-machine level
// so that a state saved on one architecture restores on another (section 4,
// [2]). We reproduce the essential property with a small stack VM: its
// complete execution state — globals, operand stack, call frames, heap — is
// a plain data structure with *no* host pointers, so it can be serialized in
// the saving machine's native representation and converted on restore.
//
// Word-size semantics matter for heterogeneity: integer arithmetic wraps to
// the simulated machine's word length (32- or 64-bit), exactly the hazard
// heterogeneous checkpointing has to preserve and check.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::vm {

using HeapIndex = uint32_t;
constexpr HeapIndex kNullRef = UINT32_MAX;

enum class Tag : uint8_t { kUnit = 0, kInt = 1, kFloat = 2, kBool = 3, kRef = 4 };

/// One VM value: 16 bytes. Only the payload the tag names is live — `i`
/// for kInt and kBool, `f` for kFloat, `ref` for kRef — and the factories
/// keep the rest canonical: the union is zero on kUnit and kRef, `ref` is
/// kNullRef on every other tag. Equality compares the tag and its live
/// payload only, with the payload's own `==` (so real(+0.0) == real(-0.0)
/// and a NaN never equals itself).
struct Value {
  Tag tag = Tag::kUnit;
  HeapIndex ref = kNullRef;  ///< kRef
  union {
    int64_t i = 0;  ///< kInt (wrapped to machine word) / kBool (0 or 1)
    double f;       ///< kFloat
  };

  static Value unit() { return {}; }
  static Value integer(int64_t v) {
    Value x;
    x.tag = Tag::kInt;
    x.i = v;
    return x;
  }
  static Value real(double v) {
    Value x;
    x.tag = Tag::kFloat;
    x.f = v;
    return x;
  }
  static Value boolean(bool v) {
    Value x;
    x.tag = Tag::kBool;
    x.i = v ? 1 : 0;
    return x;
  }
  static Value reference(HeapIndex h) {
    Value x;
    x.tag = Tag::kRef;
    x.ref = h;
    return x;
  }
  /// Inverse of word(): the value `tag` names with payload `word`, built
  /// through the factories, so the inactive payload stays canonical.
  static Value from_parts(Tag tag, uint64_t word) {
    switch (tag) {
      case Tag::kInt: return integer(static_cast<int64_t>(word));
      case Tag::kFloat: return real(std::bit_cast<double>(word));
      case Tag::kBool: return boolean(word != 0);
      case Tag::kRef: return reference(static_cast<HeapIndex>(word));
      case Tag::kUnit: break;
    }
    return unit();
  }

  /// The live payload as one 64-bit word: `i` (kInt, kBool), the bits of
  /// `f` (kFloat), `ref` (kRef), 0 (kUnit). Heap arrays store this.
  uint64_t word() const {
    switch (tag) {
      case Tag::kFloat: return std::bit_cast<uint64_t>(f);
      case Tag::kRef: return ref;
      default: return static_cast<uint64_t>(i);  // kInt, kBool; zero on kUnit
    }
  }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.tag != b.tag) return false;
    switch (a.tag) {
      case Tag::kInt:
      case Tag::kBool:
        return a.i == b.i;
      case Tag::kFloat:
        return a.f == b.f;
      case Tag::kRef:
        return a.ref == b.ref;
      case Tag::kUnit:
        break;
    }
    return true;
  }
  std::string to_string() const;
};
static_assert(sizeof(Value) == 16, "vm::Value must stay 16 bytes");

/// The application wire form of one value (the send_to/recv_from payload):
/// u8 tag, i64 integer payload, f64 float payload, little-endian. The
/// payload a tag does not use is written as zero; a reference's heap index
/// does not travel (a received kRef is a null reference).
constexpr size_t kWireValueBytes = 17;
util::Bytes encode_wire_value(const Value& v);
/// Fails closed with Error{"decode"} unless `bytes` is exactly one wire
/// value with a known tag; the result is built through the factories.
util::Result<Value> decode_wire_value(util::BytesView bytes);

/// Heap object: an array of values or a byte string.
///
/// An array is stored as two columns, one tag and one payload word
/// (Value::word()) per element: 9 bytes an element instead of a 16-byte
/// Value. The interpreter reads and writes elements only through get()
/// and set(), which rebuild and split a Value; the image codec copies the
/// columns directly. Equality compares elements as Values (DESIGN.md
/// section 12, "Array layout").
struct HeapObject {
  enum class Kind : uint8_t { kArray = 0, kBytes = 1 };
  Kind kind = Kind::kArray;
  std::vector<Tag> tags;        ///< kArray: one per element
  std::vector<uint64_t> words;  ///< kArray: one per element
  util::Bytes bytes;            ///< kBytes

  size_t size() const { return tags.size(); }
  /// from_parts(tags[i], words[i]), with the common int case tested first.
  Value get(size_t i) const {
    const Tag t = tags[i];
    if (t == Tag::kInt) return Value::integer(static_cast<int64_t>(words[i]));
    return Value::from_parts(t, words[i]);
  }
  void set(size_t i, const Value& v) {
    tags[i] = v.tag;
    words[i] = v.word();
  }
  void push_back(const Value& v) {
    tags.push_back(v.tag);
    words.push_back(v.word());
  }
  /// `n` elements, each `v`.
  void assign(size_t n, const Value& v) {
    tags.assign(n, v.tag);
    words.assign(n, v.word());
  }

  friend bool operator==(const HeapObject& a, const HeapObject& b);
};

/// One call frame: function index, program counter, locals.
struct Frame {
  uint32_t function = 0;
  uint32_t pc = 0;
  std::vector<Value> locals;

  bool operator==(const Frame&) const = default;
};

/// The complete machine-independent execution state (plus the machine whose
/// word semantics currently govern arithmetic).
struct VmState {
  std::vector<Value> globals;
  std::vector<Value> stack;
  std::vector<Frame> frames;
  std::vector<HeapObject> heap;
  uint64_t steps_executed = 0;

  bool operator==(const VmState&) const = default;
};

/// Wraps an integer to the word length of `machine` (two's complement).
int64_t wrap_to_word(int64_t v, const sim::Machine& machine);
/// True iff `v` is representable in `machine`'s word.
bool fits_word(int64_t v, const sim::Machine& machine);

}  // namespace starfish::vm
