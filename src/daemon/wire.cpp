#include "daemon/wire.hpp"

namespace starfish::daemon {

namespace {

void put_addr(util::Writer& w, const net::NetAddr& a) {
  w.u32(a.host);
  w.u32(a.port);
}

net::NetAddr get_addr(util::Reader& r) {
  net::NetAddr a;
  a.host = r.u32().value_or(sim::kInvalidHost);
  a.port = r.u32().value_or(0);
  return a;
}

}  // namespace

// ------------------------------------------------------------------ job ----

util::Bytes JobSpec::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.str(name);
  w.str(binary);
  w.u32(nprocs);
  w.u8(static_cast<uint8_t>(policy));
  w.u8(static_cast<uint8_t>(protocol));
  w.u8(static_cast<uint8_t>(level));
  w.i64(ckpt_interval);
  w.u32(static_cast<uint32_t>(args.size()));
  for (const auto& a : args) w.str(a);
  w.str(owner);
  w.boolean(forked_ckpt);
  return out;
}

util::Result<JobSpec> JobSpec::decode(util::Reader& r) {
  // Reads an enum or flag byte and rejects values above `max`, so no
  // out-of-range enum value reaches the code that switches on it.
  const auto bounded = [&r](uint8_t max, const char* what) -> util::Result<uint8_t> {
    auto v = r.u8();
    if (!v) return v.error();
    if (v.value() > max) {
      return util::Error::make("decode", std::string("job spec ") + what + " byte out of range");
    }
    return v.value();
  };
  JobSpec j;
  auto name = r.str();
  if (!name) return name.error();
  j.name = std::move(name).take();
  auto binary = r.str();
  if (!binary) return binary.error();
  j.binary = std::move(binary).take();
  auto nprocs = r.u32();
  if (!nprocs) return nprocs.error();
  j.nprocs = nprocs.value();
  auto policy = bounded(static_cast<uint8_t>(FtPolicy::kNotifyViews), "policy");
  if (!policy) return policy.error();
  j.policy = static_cast<FtPolicy>(policy.value());
  auto protocol = bounded(static_cast<uint8_t>(CrProtocol::kUncoordinated), "protocol");
  if (!protocol) return protocol.error();
  j.protocol = static_cast<CrProtocol>(protocol.value());
  auto level = bounded(static_cast<uint8_t>(CkptLevel::kVm), "level");
  if (!level) return level.error();
  j.level = static_cast<CkptLevel>(level.value());
  auto interval = r.i64();
  if (!interval) return interval.error();
  j.ckpt_interval = interval.value();
  auto n_args = r.u32();
  if (!n_args) return n_args.error();
  for (uint32_t i = 0; i < n_args.value(); ++i) {
    auto arg = r.str();
    if (!arg) return arg.error();
    j.args.push_back(std::move(arg).take());
  }
  auto owner = r.str();
  if (!owner) return owner.error();
  j.owner = std::move(owner).take();
  auto forked = bounded(1, "forked_ckpt");
  if (!forked) return forked.error();
  j.forked_ckpt = forked.value() != 0;
  return j;
}

const char* policy_name(FtPolicy p) {
  switch (p) {
    case FtPolicy::kKill: return "kill";
    case FtPolicy::kRestart: return "restart";
    case FtPolicy::kNotifyViews: return "notify";
  }
  return "?";
}

const char* protocol_name(CrProtocol p) {
  switch (p) {
    case CrProtocol::kNone: return "none";
    case CrProtocol::kStopAndSync: return "stop-and-sync";
    case CrProtocol::kChandyLamport: return "chandy-lamport";
    case CrProtocol::kUncoordinated: return "uncoordinated";
  }
  return "?";
}

// ---------------------------------------------------------------- heavy ----

util::Bytes HeavyMsg::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u8(static_cast<uint8_t>(kind));
  w.bytes(util::as_bytes_view(job.encode()));
  w.str(key);
  w.str(value);
  w.u32(host);
  w.boolean(enable);
  w.str(app);
  w.u32(rank);
  w.u64(epoch);
  w.u32(wepoch);
  return out;
}

util::Result<HeavyMsg> HeavyMsg::decode(const util::Bytes& bytes) {
  util::Reader r(util::as_bytes_view(bytes));
  HeavyMsg m;
  m.kind = static_cast<HeavyKind>(r.u8().value_or(0));
  auto job_bytes = r.bytes();
  if (!job_bytes) return job_bytes.error();
  util::Reader jr(util::as_bytes_view(job_bytes.value()));
  auto job = JobSpec::decode(jr);
  if (!job) return job.error();
  m.job = std::move(job).take();
  m.key = r.str().value_or("");
  m.value = r.str().value_or("");
  m.host = r.u32().value_or(0);
  m.enable = r.boolean().value_or(true);
  m.app = r.str().value_or("");
  m.rank = r.u32().value_or(0);
  m.epoch = r.u64().value_or(0);
  m.wepoch = r.u32().value_or(0);
  return m;
}

// ------------------------------------------------------------------ app ----

util::Bytes AppMsg::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u8(static_cast<uint8_t>(kind));
  w.u32(wiring_epoch);
  w.u32(rank);
  put_addr(w, addr);
  w.bytes(util::as_bytes_view(payload));
  return out;
}

util::Result<AppMsg> AppMsg::decode(const util::Bytes& bytes) {
  util::Reader r(util::as_bytes_view(bytes));
  AppMsg m;
  m.kind = static_cast<AppKind>(r.u8().value_or(0));
  m.wiring_epoch = r.u32().value_or(0);
  m.rank = r.u32().value_or(0);
  m.addr = get_addr(r);
  auto payload = r.bytes();
  if (!payload) return payload.error();
  m.payload = std::move(payload).take();
  return m;
}

// ----------------------------------------------------------------- link ----

util::Bytes LinkMsg::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u8(static_cast<uint8_t>(kind));
  w.u32(wiring_epoch);
  w.u32(static_cast<uint32_t>(world.size()));
  for (const auto& a : world) put_addr(w, a);
  w.u64(restore_epoch);
  w.u64(view_seq);
  w.u32(static_cast<uint32_t>(live_ranks.size()));
  for (uint32_t r : live_ranks) w.u32(r);
  w.bytes(util::as_bytes_view(payload));
  put_addr(w, vni_addr);
  w.boolean(ok);
  w.str(text);
  w.u32(spawn_extra);
  return out;
}

util::Result<LinkMsg> LinkMsg::decode(const util::Bytes& bytes) {
  util::Reader r(util::as_bytes_view(bytes));
  LinkMsg m;
  m.kind = static_cast<LinkKind>(r.u8().value_or(0));
  m.wiring_epoch = r.u32().value_or(0);
  const uint32_t nw = r.u32().value_or(0);
  for (uint32_t i = 0; i < nw; ++i) m.world.push_back(get_addr(r));
  m.restore_epoch = r.u64().value_or(kNoRestore);
  m.view_seq = r.u64().value_or(0);
  const uint32_t nl = r.u32().value_or(0);
  for (uint32_t i = 0; i < nl; ++i) m.live_ranks.push_back(r.u32().value_or(0));
  auto payload = r.bytes();
  if (!payload) return payload.error();
  m.payload = std::move(payload).take();
  m.vni_addr = get_addr(r);
  m.ok = r.boolean().value_or(true);
  m.text = r.str().value_or("");
  m.spawn_extra = r.u32().value_or(0);
  return m;
}

}  // namespace starfish::daemon
