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
  if (bytes.size() != kWireValueBytes) {
    return util::Error::make("decode", "wire value of " + std::to_string(bytes.size()) +
                                           " bytes, want " + std::to_string(kWireValueBytes));
  }
  util::Reader r(bytes);
  const uint8_t tag = r.u8().value();
  const int64_t i = r.i64().value();
  const double f = r.f64().value();
  switch (static_cast<Tag>(tag)) {
    case Tag::kUnit: return Value::unit();
    case Tag::kInt: return Value::integer(i);
    case Tag::kFloat: return Value::real(f);
    case Tag::kBool: return Value::boolean(i != 0);
    case Tag::kRef: return Value::reference(kNullRef);
  }
  return util::Error::make("decode", "bad wire value tag " + std::to_string(tag));
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
