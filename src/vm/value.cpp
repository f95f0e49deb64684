#include "vm/value.hpp"

namespace starfish::vm {

std::string Value::to_string() const {
  switch (tag) {
    case Tag::kUnit: return "()";
    case Tag::kInt: return std::to_string(i);
    case Tag::kFloat: return std::to_string(f);
    case Tag::kBool: return i ? "true" : "false";
    case Tag::kRef: return "ref#" + std::to_string(ref);
  }
  return "?";
}

util::Bytes encode_wire_value(const Value& v) {
  util::Bytes data;
  util::Writer w(data);
  w.reserve(kWireValueBytes);
  w.u8(static_cast<uint8_t>(v.tag));
  w.i64(v.tag == Tag::kInt || v.tag == Tag::kBool ? v.i : 0);
  w.f64(v.tag == Tag::kFloat ? v.f : 0.0);
  return data;
}

util::Result<Value> decode_wire_value(util::BytesView bytes) {
  util::Reader r(bytes);
  const Tag tag = r.enum_u8(Tag::kUnit, Tag::kRef, "wire value tag");
  const int64_t i = r.i64();
  const uint64_t f_bits = r.u64();
  // Only the encoding encode_wire_value writes is accepted: the payload
  // field the tag does not use is zero, and a bool is 0 or 1.
  const bool int_payload = tag == Tag::kInt || tag == Tag::kBool;
  if ((!int_payload && i != 0) || (tag == Tag::kBool && (i & ~int64_t{1}) != 0) ||
      (tag != Tag::kFloat && f_bits != 0)) {
    r.fail("non-canonical wire value");
  }
  Value v = Value::unit();
  switch (tag) {
    case Tag::kUnit: break;
    case Tag::kInt: v = Value::integer(i); break;
    case Tag::kFloat: v = Value::real(std::bit_cast<double>(f_bits)); break;
    case Tag::kBool: v = Value::boolean(i != 0); break;
    case Tag::kRef: v = Value::reference(kNullRef); break;
  }
  return r.finish(v, "a wire value");
}

bool operator==(const HeapObject& a, const HeapObject& b) {
  if (a.kind != b.kind || a.tags != b.tags || a.bytes != b.bytes) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (!(a.get(k) == b.get(k))) return false;
  }
  return true;
}

int64_t wrap_to_word(int64_t v, const sim::Machine& machine) {
  if (machine.word_bytes >= 8) return v;
  return static_cast<int64_t>(static_cast<int32_t>(static_cast<uint64_t>(v) & 0xffffffffu));
}

bool fits_word(int64_t v, const sim::Machine& machine) {
  if (machine.word_bytes >= 8) return true;
  return v >= INT32_MIN && v <= INT32_MAX;
}

}  // namespace starfish::vm
