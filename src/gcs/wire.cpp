#include "gcs/wire.hpp"

#include <string>

namespace starfish::gcs {

namespace {

/// Flags are encoded as exactly 0 or 1; any other byte is corruption, not
/// "true" (Reader::boolean would accept it and re-encode it differently).
util::Result<bool> get_flag(util::Reader& r, const char* what) {
  auto v = r.u8();
  if (!v) return v.error();
  if (v.value() > 1) {
    return util::Error::make("decode", std::string("gcs flag ") + what + " is " +
                                           std::to_string(v.value()) + ", not 0/1");
  }
  return v.value() == 1;
}

void put_member_id(util::Writer& w, const MemberId& id) {
  w.u32(id.host);
  w.u32(id.incarnation);
}

util::Result<MemberId> get_member_id(util::Reader& r) {
  auto host = r.u32();
  if (!host) return host.error();
  auto inc = r.u32();
  if (!inc) return inc.error();
  return MemberId{host.value(), inc.value()};
}

void put_addr(util::Writer& w, const net::NetAddr& a) {
  w.u32(a.host);
  w.u32(a.port);
}

util::Result<net::NetAddr> get_addr(util::Reader& r) {
  auto host = r.u32();
  if (!host) return host.error();
  auto port = r.u32();
  if (!port) return port.error();
  return net::NetAddr{host.value(), port.value()};
}

void put_member(util::Writer& w, const Member& m) {
  put_member_id(w, m.id);
  w.u32(m.rank);
  put_addr(w, m.addr);
}

util::Result<Member> get_member(util::Reader& r) {
  auto id = get_member_id(r);
  if (!id) return id.error();
  auto rank = r.u32();
  if (!rank) return rank.error();
  auto addr = get_addr(r);
  if (!addr) return addr.error();
  return Member{id.value(), rank.value(), addr.value()};
}

void put_ordered(util::Writer& w, const OrderedMsg& m) {
  w.u64(m.gseq);
  put_member_id(w, m.origin);
  w.u64(m.msg_id);
  w.bytes(util::as_bytes_view(m.payload));
}

util::Result<OrderedMsg> get_ordered(util::Reader& r) {
  OrderedMsg m;
  auto gseq = r.u64();
  if (!gseq) return gseq.error();
  m.gseq = gseq.value();
  auto origin = get_member_id(r);
  if (!origin) return origin.error();
  m.origin = origin.value();
  auto id = r.u64();
  if (!id) return id.error();
  m.msg_id = id.value();
  auto payload = r.bytes();
  if (!payload) return payload.error();
  m.payload = std::move(payload).take();
  return m;
}

void put_hb_entry(util::Writer& w, const HbEntry& e) {
  put_member_id(w, e.member);
  w.u64(e.view_id);
  w.u64(e.delivered);
  w.u64(e.heard_at);
  w.boolean(e.suspected);
}

util::Result<HbEntry> get_hb_entry(util::Reader& r) {
  HbEntry e;
  auto member = get_member_id(r);
  if (!member) return member.error();
  e.member = member.value();
  auto view_id = r.u64();
  if (!view_id) return view_id.error();
  e.view_id = view_id.value();
  auto delivered = r.u64();
  if (!delivered) return delivered.error();
  e.delivered = delivered.value();
  auto heard_at = r.u64();
  if (!heard_at) return heard_at.error();
  e.heard_at = heard_at.value();
  auto suspected = get_flag(r, "suspected");
  if (!suspected) return suspected.error();
  e.suspected = suspected.value();
  return e;
}

}  // namespace

util::Bytes WireMsg::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u8(static_cast<uint8_t>(kind));
  put_member_id(w, from);
  put_addr(w, from_addr);
  w.u64(msg_id);
  w.bytes(util::as_bytes_view(payload));
  w.u64(gseq);
  put_member_id(w, origin);
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
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (kind.value() < static_cast<uint8_t>(MsgKind::kHeartbeat) ||
      kind.value() > static_cast<uint8_t>(MsgKind::kInstallReq)) {
    return util::Error::make("decode",
                             "unknown gcs message kind " + std::to_string(kind.value()));
  }
  m.kind = static_cast<MsgKind>(kind.value());
  auto from = get_member_id(r);
  if (!from) return from.error();
  m.from = from.value();
  auto from_addr = get_addr(r);
  if (!from_addr) return from_addr.error();
  m.from_addr = from_addr.value();
  auto msg_id = r.u64();
  if (!msg_id) return msg_id.error();
  m.msg_id = msg_id.value();
  auto payload = r.bytes();
  if (!payload) return payload.error();
  m.payload = std::move(payload).take();
  auto gseq = r.u64();
  if (!gseq) return gseq.error();
  m.gseq = gseq.value();
  auto origin = get_member_id(r);
  if (!origin) return origin.error();
  m.origin = origin.value();
  auto view_id = r.u64();
  if (!view_id) return view_id.error();
  m.view_id = view_id.value();
  auto attempt = r.u32();
  if (!attempt) return attempt.error();
  m.attempt = attempt.value();
  auto n_members = r.u32();
  if (!n_members) return n_members.error();
  for (uint32_t i = 0; i < n_members.value(); ++i) {
    auto mem = get_member(r);
    if (!mem) return mem.error();
    m.members.push_back(mem.value());
  }
  auto coord_delivered = r.u64();
  if (!coord_delivered) return coord_delivered.error();
  m.coord_delivered = coord_delivered.value();
  auto delivered = r.u64();
  if (!delivered) return delivered.error();
  m.delivered = delivered.value();
  auto n_buffered = r.u32();
  if (!n_buffered) return n_buffered.error();
  for (uint32_t i = 0; i < n_buffered.value(); ++i) {
    auto om = get_ordered(r);
    if (!om) return om.error();
    m.buffered.push_back(std::move(om).take());
  }
  auto n_hb = r.u32();
  if (!n_hb) return n_hb.error();
  for (uint32_t i = 0; i < n_hb.value(); ++i) {
    auto e = get_hb_entry(r);
    if (!e) return e.error();
    m.hb_entries.push_back(e.value());
  }
  auto n_retransmit = r.u32();
  if (!n_retransmit) return n_retransmit.error();
  for (uint32_t i = 0; i < n_retransmit.value(); ++i) {
    auto om = get_ordered(r);
    if (!om) return om.error();
    m.retransmit.push_back(std::move(om).take());
  }
  auto has_state = get_flag(r, "has_state");
  if (!has_state) return has_state.error();
  m.has_state = has_state.value();
  auto state = r.bytes();
  if (!state) return state.error();
  m.state = std::move(state).take();
  if (!r.exhausted()) {
    return util::Error::make("decode", std::to_string(r.remaining()) +
                                           " trailing bytes after a gcs message");
  }
  return m;
}

}  // namespace starfish::gcs
