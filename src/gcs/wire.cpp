#include "gcs/wire.hpp"

namespace starfish::gcs {

namespace {

// Smallest encodings of the repeated entries, for the count bounds.
constexpr size_t kMemberBytes = 4 + 4 + 4 + 4 + 4;
constexpr size_t kOrderedBytes = 8 + 4 + 4 + 8 + 4;
constexpr size_t kHbEntryBytes = 4 + 4 + 8 + 8 + 8 + 1;

void put_member(util::Writer& w, const Member& m) {
  m.id.write(w);
  w.u32(m.rank);
  m.addr.write(w);
}

Member get_member(util::Reader& r) {
  Member m;
  m.id = MemberId::read(r);
  m.rank = r.u32();
  m.addr = net::NetAddr::read(r);
  return m;
}

void put_ordered(util::Writer& w, const OrderedMsg& m) {
  w.u64(m.gseq);
  m.origin.write(w);
  w.u64(m.msg_id);
  w.bytes(util::as_bytes_view(m.payload));
}

OrderedMsg get_ordered(util::Reader& r) {
  OrderedMsg m;
  m.gseq = r.u64();
  m.origin = MemberId::read(r);
  m.msg_id = r.u64();
  m.payload = r.bytes();
  return m;
}

void put_hb_entry(util::Writer& w, const HbEntry& e) {
  e.member.write(w);
  w.u64(e.view_id);
  w.u64(e.delivered);
  w.u64(e.heard_at);
  w.boolean(e.suspected);
}

HbEntry get_hb_entry(util::Reader& r) {
  HbEntry e;
  e.member = MemberId::read(r);
  e.view_id = r.u64();
  e.delivered = r.u64();
  e.heard_at = r.u64();
  e.suspected = r.flag("suspected");
  return e;
}

}  // namespace

util::Bytes WireMsg::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u8(static_cast<uint8_t>(kind));
  from.write(w);
  from_addr.write(w);
  w.u64(msg_id);
  w.bytes(util::as_bytes_view(payload));
  w.u64(gseq);
  origin.write(w);
  w.u64(view_id);
  w.u32(attempt);
  w.u32(static_cast<uint32_t>(members.size()));
  for (const auto& m : members) put_member(w, m);
  w.u64(coord_delivered);
  w.u64(delivered);
  w.u32(static_cast<uint32_t>(buffered.size()));
  for (const auto& m : buffered) put_ordered(w, m);
  w.u32(static_cast<uint32_t>(hb_entries.size()));
  for (const auto& e : hb_entries) put_hb_entry(w, e);
  w.u32(static_cast<uint32_t>(retransmit.size()));
  for (const auto& m : retransmit) put_ordered(w, m);
  w.boolean(has_state);
  w.bytes(util::as_bytes_view(state));
  return out;
}

util::Result<WireMsg> WireMsg::decode(util::BytesView bytes) {
  util::Reader r(bytes);
  WireMsg m;
  m.kind = r.enum_u8(MsgKind::kHeartbeat, MsgKind::kInstallReq, "gcs message kind");
  m.from = MemberId::read(r);
  m.from_addr = net::NetAddr::read(r);
  m.msg_id = r.u64();
  m.payload = r.bytes();
  m.gseq = r.u64();
  m.origin = MemberId::read(r);
  m.view_id = r.u64();
  m.attempt = r.u32();
  m.members.resize(r.count(kMemberBytes, "gcs member count exceeds the message"));
  for (Member& mem : m.members) mem = get_member(r);
  m.coord_delivered = r.u64();
  m.delivered = r.u64();
  m.buffered.resize(r.count(kOrderedBytes, "gcs buffered count exceeds the message"));
  for (OrderedMsg& om : m.buffered) om = get_ordered(r);
  m.hb_entries.resize(r.count(kHbEntryBytes, "gcs heartbeat entry count exceeds the message"));
  for (HbEntry& e : m.hb_entries) e = get_hb_entry(r);
  m.retransmit.resize(r.count(kOrderedBytes, "gcs retransmit count exceeds the message"));
  for (OrderedMsg& om : m.retransmit) om = get_ordered(r);
  m.has_state = r.flag("has_state");
  m.state = r.bytes();
  return r.finish(std::move(m), "a gcs message");
}

}  // namespace starfish::gcs
