#include "daemon/wire.hpp"

namespace starfish::daemon {

namespace {
constexpr size_t kAddrBytes = 4 + 4;
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
  JobSpec j;
  j.name = r.str();
  j.binary = r.str();
  j.nprocs = r.u32();
  j.policy = r.enum_u8(FtPolicy::kKill, FtPolicy::kNotifyViews, "job spec policy");
  j.protocol = r.enum_u8(CrProtocol::kNone, CrProtocol::kUncoordinated, "job spec protocol");
  j.level = r.enum_u8(CkptLevel::kNative, CkptLevel::kVm, "job spec level");
  j.ckpt_interval = r.i64();
  j.args.resize(r.count(4, "job spec argument count exceeds the spec"));
  for (std::string& arg : j.args) arg = r.str();
  j.owner = r.str();
  j.forked_ckpt = r.flag("forked_ckpt");
  return r.result(std::move(j));
}

JobSpec JobSpec::decode_framed(util::Reader& r) {
  util::Reader jr(r.view());
  auto job = decode(jr);
  if (util::Status s = jr.finish("a job spec"); !s.ok()) {
    r.fail(s.error());
    return {};
  }
  return std::move(job).take();
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
  m.kind = r.enum_u8(HeavyKind::kSubmit, HeavyKind::kGrowApp, "heavy message kind");
  m.job = JobSpec::decode_framed(r);
  m.key = r.str();
  m.value = r.str();
  m.host = r.u32();
  m.enable = r.flag("enable");
  m.app = r.str();
  m.rank = r.u32();
  m.epoch = r.u64();
  m.wepoch = r.u32();
  return r.finish(std::move(m), "a heavy message");
}

// ------------------------------------------------------------------ app ----

util::Bytes AppMsg::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u8(static_cast<uint8_t>(kind));
  w.u32(wiring_epoch);
  w.u32(rank);
  addr.write(w);
  w.bytes(util::as_bytes_view(payload));
  return out;
}

util::Result<AppMsg> AppMsg::decode(const util::Bytes& bytes) {
  util::Reader r(util::as_bytes_view(bytes));
  AppMsg m;
  m.kind = r.enum_u8(AppKind::kAddr, AppKind::kCheckpointNow, "app message kind");
  m.wiring_epoch = r.u32();
  m.rank = r.u32();
  m.addr = net::NetAddr::read(r);
  m.payload = r.bytes();
  return r.finish(std::move(m), "an app message");
}

// ----------------------------------------------------------------- link ----

util::Bytes LinkMsg::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u8(static_cast<uint8_t>(kind));
  w.u32(wiring_epoch);
  w.u32(static_cast<uint32_t>(world.size()));
  for (const auto& a : world) a.write(w);
  w.u64(restore_epoch);
  w.u64(view_seq);
  w.u32(static_cast<uint32_t>(live_ranks.size()));
  for (uint32_t r : live_ranks) w.u32(r);
  w.bytes(util::as_bytes_view(payload));
  vni_addr.write(w);
  w.boolean(ok);
  w.str(text);
  w.u32(spawn_extra);
  return out;
}

util::Result<LinkMsg> LinkMsg::decode(const util::Bytes& bytes) {
  util::Reader r(util::as_bytes_view(bytes));
  LinkMsg m;
  m.kind = r.enum_u8(LinkKind::kConfigure, LinkKind::kSpawnReq, "link message kind");
  m.wiring_epoch = r.u32();
  m.world.resize(r.count(kAddrBytes, "link world count exceeds the message"));
  for (net::NetAddr& a : m.world) a = net::NetAddr::read(r);
  m.restore_epoch = r.u64();
  m.view_seq = r.u64();
  m.live_ranks.resize(r.count(4, "link live rank count exceeds the message"));
  r.read_u32s(m.live_ranks);
  m.payload = r.bytes();
  m.vni_addr = net::NetAddr::read(r);
  m.ok = r.flag("ok");
  m.text = r.str();
  m.spawn_extra = r.u32();
  return r.finish(std::move(m), "a link message");
}

// ------------------------------------------------------------- snapshot ----

namespace {
/// Smallest encodings of the snapshot's entries, for the count bounds.
constexpr size_t kConfigEntryBytes = 4 + 4;
constexpr size_t kAppEntryBytes = 4 + 1 + 4 + 4;
constexpr size_t kPlacementBytes = 4 + 4 + 4;
}  // namespace

util::Bytes StateSnapshot::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u32(static_cast<uint32_t>(config.size()));
  for (const auto& [k, v] : config) {
    w.str(k);
    w.str(v);
  }
  w.u32(static_cast<uint32_t>(disabled.size()));
  for (uint32_t h : disabled) w.u32(h);
  w.u32(static_cast<uint32_t>(apps.size()));
  for (const auto& [name, app] : apps) {
    w.bytes(util::as_bytes_view(app.job.encode()));
    w.u8(static_cast<uint8_t>(app.phase));
    w.u32(app.wiring_epoch);
    w.u32(static_cast<uint32_t>(app.placement.size()));
    for (const auto& [rank, member] : app.placement) {
      w.u32(rank);
      member.write(w);
    }
  }
  return out;
}

util::Result<StateSnapshot> StateSnapshot::decode(util::BytesView bytes) {
  util::Reader r(bytes);
  StateSnapshot s;
  const uint32_t n_cfg = r.count(kConfigEntryBytes, "config count exceeds the snapshot");
  for (uint32_t i = 0; i < n_cfg; ++i) {
    std::string key = r.str();
    r.insert_sorted(s.config, "config", std::move(key), r.str());
  }
  const uint32_t n_dis = r.count(4, "disabled node count exceeds the snapshot");
  for (uint32_t i = 0; i < n_dis; ++i) r.insert_sorted(s.disabled, "disabled node", r.u32());
  const uint32_t n_apps = r.count(kAppEntryBytes, "app count exceeds the snapshot");
  for (uint32_t i = 0; i < n_apps; ++i) {
    App app;
    app.job = JobSpec::decode_framed(r);
    app.phase = r.enum_u8(AppPhase::kPlacing, AppPhase::kDeleted, "app phase");
    app.wiring_epoch = r.u32();
    const uint32_t n_place = r.count(kPlacementBytes, "placement count exceeds the snapshot");
    for (uint32_t k = 0; k < n_place; ++k) {
      const uint32_t rank = r.u32();
      r.insert_sorted(app.placement, "placement", rank, gcs::MemberId::read(r));
    }
    std::string name = app.job.name;
    r.insert_sorted(s.apps, "app", std::move(name), std::move(app));
  }
  return r.finish(std::move(s), "a daemon state snapshot");
}

}  // namespace starfish::daemon
