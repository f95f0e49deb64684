#include "daemon/daemon.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace starfish::daemon {

namespace {
constexpr const char* kLog = "daemon";
constexpr uint32_t kMaxRestarts = 3;
}  // namespace

const char* phase_name(AppPhase p) {
  switch (p) {
    case AppPhase::kPlacing: return "placing";
    case AppPhase::kRunning: return "running";
    case AppPhase::kSuspended: return "suspended";
    case AppPhase::kCompleted: return "completed";
    case AppPhase::kFailed: return "failed";
    case AppPhase::kDeleted: return "deleted";
  }
  return "?";
}

Daemon::Daemon(net::Network& net, sim::Host& host, ckpt::CheckpointStore& store,
               ProcessLauncher& launcher, DaemonConfig config)
    : net_(net), host_(host), store_(store), launcher_(launcher), config_(std::move(config)) {
  group_ = std::make_unique<gcs::GroupEndpoint>(net, host, config_.group, gcs::Callbacks{});
  gcs::Callbacks heavy;
  heavy.on_view = [this](const gcs::View& v) { on_heavy_view(v); };
  heavy.on_message = [this](gcs::MemberId origin, const util::Bytes& payload) {
    on_heavy_message(origin, payload);
  };
  heavy.get_state = [this] {
    // Replicated-state snapshot for daemons joining the cluster: the cluster
    // configuration plus every app record.
    StateSnapshot snap{cluster_config_, disabled_nodes_, {}};
    for (const auto& [name, app] : apps_) {
      snap.apps.emplace(name, StateSnapshot::App{app.job, app.phase, app.wiring_epoch,
                                                 app.placement});
    }
    return snap.encode();
  };
  heavy.set_state = [this](const util::Bytes& blob) {
    auto snap = StateSnapshot::decode(util::as_bytes_view(blob));
    if (!snap.ok()) {
      drop_undecodable("state snapshot", snap.error());
      return;
    }
    cluster_config_ = std::move(snap.value().config);
    disabled_nodes_ = std::move(snap.value().disabled);
    for (auto& [name, app] : snap.value().apps) {
      AppState state;
      state.job = std::move(app.job);
      state.phase = app.phase;
      state.wiring_epoch = app.wiring_epoch;
      state.placement = std::move(app.placement);
      apps_[name] = std::move(state);
    }
  };
  lw_ = std::make_unique<gcs::LightweightGroups>(*group_, std::move(heavy));

  mgmt_acceptor_ = net.listen(host.id(), config_.mgmt_port, net::TransportKind::kTcpIp);
  accept_fiber_ = host.spawn("mgmt-accept", [this] { accept_loop(); });
}

Daemon::~Daemon() {
  shut_down_ = true;
  if (mgmt_acceptor_) mgmt_acceptor_->close();
}

void Daemon::drop_undecodable(const char* what, const util::Error& error) {
  if (obs::Hub* hub = net_.engine().obs()) hub->metrics.counter("daemon.decode_errors").add(1);
  STARFISH_LOG(kWarn, kLog) << "daemon " << host_.id() << " dropping undecodable " << what << ": "
                            << error.to_string();
}

void Daemon::start_founding(const std::vector<net::NetAddr>& founders) {
  group_->start_founding(founders);
}

void Daemon::start_joining(const std::vector<net::NetAddr>& seeds) {
  group_->start_joining(seeds);
}

// --------------------------------------------------------- client ops ----

void Daemon::submit(const JobSpec& job) {
  HeavyMsg msg;
  msg.kind = HeavyKind::kSubmit;
  msg.job = job;
  lw_->heavy_multicast(msg.encode());
}

void Daemon::delete_app(const std::string& app) {
  HeavyMsg msg;
  msg.kind = HeavyKind::kDeleteApp;
  msg.app = app;
  lw_->heavy_multicast(msg.encode());
}

void Daemon::suspend_app(const std::string& app) {
  HeavyMsg msg;
  msg.kind = HeavyKind::kSuspendApp;
  msg.app = app;
  lw_->heavy_multicast(msg.encode());
}

void Daemon::resume_app(const std::string& app) {
  HeavyMsg msg;
  msg.kind = HeavyKind::kResumeApp;
  msg.app = app;
  lw_->heavy_multicast(msg.encode());
}

void Daemon::set_config(const std::string& key, const std::string& value) {
  HeavyMsg msg;
  msg.kind = HeavyKind::kSetConfig;
  msg.key = key;
  msg.value = value;
  lw_->heavy_multicast(msg.encode());
}

std::optional<std::string> Daemon::get_config(const std::string& key) const {
  auto it = cluster_config_.find(key);
  if (it == cluster_config_.end()) return std::nullopt;
  return it->second;
}

void Daemon::node_ctl(sim::HostId host, bool enable) {
  HeavyMsg msg;
  msg.kind = HeavyKind::kNodeCtl;
  msg.host = host;
  msg.enable = enable;
  lw_->heavy_multicast(msg.encode());
}

void Daemon::migrate(const std::string& app, uint32_t rank, sim::HostId dest) {
  auto it = apps_.find(app);
  if (it == apps_.end() || !it->second.hosting ||
      it->second.job.protocol == CrProtocol::kNone ||
      it->second.job.protocol == CrProtocol::kUncoordinated) {
    STARFISH_LOG(kWarn, kLog) << "migrate: '" << app
                              << "' not hosted here or lacks a coordinated C/R protocol";
    return;
  }
  const uint64_t before = store_.latest_committed(app).value_or(0);
  // Phase 1: drive a fresh coordinated checkpoint through the app's group.
  AppMsg now;
  now.kind = AppKind::kCheckpointNow;
  lw_->lw_multicast(app, now.encode());

  host_.spawn("migrate", [this, app, rank, dest, before] {
    // Phase 2: wait for the new recovery line to commit.
    const sim::Time deadline = net_.engine().now() + sim::seconds(30.0);
    while (net_.engine().now() < deadline) {
      net_.engine().sleep(sim::milliseconds(10));
      auto committed = store_.latest_committed(app);
      auto it2 = apps_.find(app);
      if (it2 == apps_.end() || it2->second.phase == AppPhase::kCompleted) return;
      if (committed && *committed > before) {
        // Phase 3: execute the move cluster-wide.
        HeavyMsg msg;
        msg.kind = HeavyKind::kMigrateExec;
        msg.app = app;
        msg.rank = rank;
        msg.host = dest;
        msg.epoch = *committed;
        msg.wepoch = it2->second.wiring_epoch + 1;
        lw_->heavy_multicast(msg.encode());
        return;
      }
    }
    STARFISH_LOG(kWarn, kLog) << "migrate: checkpoint for '" << app << "' never committed";
  });
}

AppPhase Daemon::app_phase(const std::string& app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? AppPhase::kDeleted : it->second.phase;
}

std::vector<uint32_t> Daemon::local_ranks(const std::string& app) const {
  std::vector<uint32_t> out;
  auto it = apps_.find(app);
  if (it == apps_.end()) return out;
  for (const auto& [rank, proc] : it->second.locals) out.push_back(rank);
  return out;
}

std::map<uint32_t, uint64_t> Daemon::local_restore_epochs(const std::string& app) const {
  std::map<uint32_t, uint64_t> out;
  auto it = apps_.find(app);
  if (it == apps_.end()) return out;
  for (const auto& [rank, proc] : it->second.locals) out[rank] = proc.restore_epoch;
  return out;
}

const std::vector<std::string>& Daemon::app_output(const std::string& app) const {
  static const std::vector<std::string> kEmpty;
  auto it = apps_.find(app);
  return it == apps_.end() ? kEmpty : it->second.output;
}

// ----------------------------------------------------- heavy handlers ----

void Daemon::on_heavy_view(const gcs::View& view) {
  last_heavy_view_ = view;
}

void Daemon::on_heavy_message(gcs::MemberId origin, const util::Bytes& payload) {
  (void)origin;
  auto decoded = HeavyMsg::decode(payload);
  if (!decoded.ok()) {
    drop_undecodable("heavy message", decoded.error());
    return;
  }
  const HeavyMsg& msg = decoded.value();
  switch (msg.kind) {
    case HeavyKind::kSubmit:
      handle_submit(msg.job);
      return;
    case HeavyKind::kSetConfig:
      cluster_config_[msg.key] = msg.value;
      return;
    case HeavyKind::kNodeCtl:
      if (msg.enable) {
        disabled_nodes_.erase(msg.host);
      } else {
        disabled_nodes_.insert(msg.host);
      }
      return;
    case HeavyKind::kDeleteApp: {
      auto it = apps_.find(msg.app);
      if (it == apps_.end()) return;
      AppState& state = it->second;
      retire_locals(state);
      if (state.hosting) lw_->lw_leave(msg.app);
      state.hosting = false;
      state.phase = AppPhase::kDeleted;
      return;
    }
    case HeavyKind::kSuspendApp: {
      auto it = apps_.find(msg.app);
      if (it == apps_.end() || it->second.phase != AppPhase::kRunning) return;
      it->second.phase = AppPhase::kSuspended;
      LinkMsg suspend;
      suspend.kind = LinkKind::kSuspend;
      broadcast_to_procs(it->second, suspend);
      return;
    }
    case HeavyKind::kResumeApp: {
      auto it = apps_.find(msg.app);
      if (it == apps_.end() || it->second.phase != AppPhase::kSuspended) return;
      it->second.phase = AppPhase::kRunning;
      LinkMsg resume;
      resume.kind = LinkKind::kResume;
      broadcast_to_procs(it->second, resume);
      return;
    }
    case HeavyKind::kMigrateExec: {
      auto it = apps_.find(msg.app);
      if (it == apps_.end()) return;
      AppState& state = it->second;
      // Stale move (a restart raced the migration) — drop it.
      if (state.hosting && msg.wepoch != state.wiring_epoch + 1) return;
      if (msg.rank >= state.job.nprocs) return;
      const gcs::Member* dest = nullptr;
      for (const auto& m : last_heavy_view_.members) {
        if (m.id.host == msg.host) dest = &m;
      }
      if (dest == nullptr) return;  // destination node is gone

      state.wiring_epoch = msg.wepoch;
      state.addrs.clear();
      state.placement[msg.rank] = dest->id;
      const gcs::MemberId self = group_->self();
      const bool now_hosting = std::any_of(
          state.placement.begin(), state.placement.end(),
          [&](const auto& kv) { return kv.second == self; });
      if (now_hosting && !state.hosting) {
        // This daemon joins the application's lightweight group.
        const std::string name = msg.app;
        gcs::LwCallbacks cbs;
        cbs.on_view = [this, name](const gcs::LwView& v) { on_lw_view(name, v); };
        cbs.on_message = [this, name](gcs::MemberId origin, const util::Bytes& payload) {
          on_lw_message(name, origin, payload);
        };
        lw_->lw_join(name, std::move(cbs));
      } else if (!now_hosting && state.hosting) {
        lw_->lw_leave(msg.app);
      }
      state.hosting = now_hosting;

      // The whole application rolls back to the freshly committed epoch
      // under the new placement (the moved rank restores on its new node).
      retire_locals(state);
      if (!state.hosting) return;
      for (const auto& [rank, member] : state.placement) {
        if (member != self || state.done_ranks.contains(rank)) continue;
        launch_rank(state, rank, msg.epoch);
      }
      // The moved rank's replica holders are derived from its host; the
      // migration changed that, so re-replicate toward the new ring.
      rebalance_replicas(state);
      if (state.phase == AppPhase::kRunning) state.phase = AppPhase::kPlacing;
      return;
    }
    case HeavyKind::kGrowApp: {
      auto it = apps_.find(msg.app);
      if (it == apps_.end() || msg.rank == 0) return;
      AppState& state = it->second;
      if (state.hosting && msg.wepoch != state.wiring_epoch + 1) return;  // stale
      if (state.phase != AppPhase::kRunning && state.phase != AppPhase::kPlacing) return;
      auto eligible = eligible_members();
      if (eligible.empty()) return;

      const uint32_t old_nprocs = state.job.nprocs;
      state.job.nprocs += msg.rank;
      state.wiring_epoch = msg.wepoch;
      state.addrs.clear();
      for (uint32_t r = old_nprocs; r < state.job.nprocs; ++r) {
        state.placement[r] = eligible[r % eligible.size()].id;
      }
      const gcs::MemberId self = group_->self();
      const bool now_hosting = std::any_of(
          state.placement.begin(), state.placement.end(),
          [&](const auto& kv) { return kv.second == self; });
      if (now_hosting && !state.hosting) {
        const std::string name = msg.app;
        gcs::LwCallbacks cbs;
        cbs.on_view = [this, name](const gcs::LwView& v) { on_lw_view(name, v); };
        cbs.on_message = [this, name](gcs::MemberId origin, const util::Bytes& payload) {
          on_lw_message(name, origin, payload);
        };
        lw_->lw_join(name, std::move(cbs));
      }
      state.hosting = now_hosting;
      if (!state.hosting) return;

      // Re-announce existing local processes under the new wiring epoch and
      // launch the freshly spawned ranks.
      for (auto& [rank, proc] : state.locals) {
        if (!proc.ready || proc.done) continue;
        AppMsg addr;
        addr.kind = AppKind::kAddr;
        addr.wiring_epoch = state.wiring_epoch;
        addr.rank = rank;
        addr.addr = proc.vni_addr;
        lw_->lw_multicast(msg.app, addr.encode());
      }
      for (uint32_t r = old_nprocs; r < state.job.nprocs; ++r) {
        if (state.placement[r] == self) launch_rank(state, r, kNoRestore);
      }
      return;
    }
  }
}

bool Daemon::node_enabled(sim::HostId host) const { return !disabled_nodes_.contains(host); }

std::vector<gcs::Member> Daemon::eligible_members() const {
  std::vector<gcs::Member> out;
  for (const auto& m : last_heavy_view_.members) {
    if (node_enabled(m.id.host)) out.push_back(m);
  }
  return out;
}

void Daemon::handle_submit(const JobSpec& job) {
  if (apps_.contains(job.name)) {
    STARFISH_LOG(kWarn, kLog) << "duplicate submission of '" << job.name << "' ignored";
    return;
  }
  if (obs::Hub* hub = net_.engine().obs()) hub->metrics.counter("daemon.jobs_submitted").add(1);
  AppState state;
  state.job = job;
  // Deterministic placement: every daemon computes the same map from the
  // same replicated inputs (heavy view at delivery + disabled set).
  auto eligible = eligible_members();
  if (eligible.empty()) {
    STARFISH_LOG(kError, kLog) << "no eligible nodes for '" << job.name << "'";
    state.phase = AppPhase::kFailed;
    apps_[job.name] = std::move(state);
    return;
  }
  // Placement strategy comes from the replicated cluster configuration, so
  // every daemon computes the identical map. "roundrobin" (default) spreads
  // ranks; "packed" fills nodes in order (capacity from "placement.slots",
  // default 2 ranks per node before spilling to the next).
  const std::string strategy =
      get_config("placement.strategy").value_or("roundrobin");
  if (strategy == "packed") {
    uint32_t slots = 2;
    if (auto s = get_config("placement.slots")) {
      if (auto v = util::parse_int(*s); v && *v > 0) slots = static_cast<uint32_t>(*v);
    }
    for (uint32_t rank = 0; rank < job.nprocs; ++rank) {
      state.placement[rank] = eligible[(rank / slots) % eligible.size()].id;
    }
  } else {
    for (uint32_t rank = 0; rank < job.nprocs; ++rank) {
      state.placement[rank] = eligible[rank % eligible.size()].id;
    }
  }
  const gcs::MemberId self = group_->self();
  state.hosting = std::any_of(state.placement.begin(), state.placement.end(),
                              [&](const auto& kv) { return kv.second == self; });
  auto [it, inserted] = apps_.emplace(job.name, std::move(state));
  AppState& app = it->second;
  if (!app.hosting) return;

  const std::string name = job.name;
  gcs::LwCallbacks cbs;
  cbs.on_view = [this, name](const gcs::LwView& v) { on_lw_view(name, v); };
  cbs.on_message = [this, name](gcs::MemberId origin, const util::Bytes& payload) {
    on_lw_message(name, origin, payload);
  };
  lw_->lw_join(name, std::move(cbs));

  for (const auto& [rank, member] : app.placement) {
    if (member == self) launch_rank(app, rank, kNoRestore);
  }
}

// ------------------------------------------------------- lw handlers ----

void Daemon::on_lw_view(const std::string& app, const gcs::LwView& view) {
  auto it = apps_.find(app);
  if (it == apps_.end() || !it->second.hosting) return;
  AppState& state = it->second;

  // Members lost since the last view we saw (ignore gradual formation:
  // only members previously *present* can be lost).
  std::set<gcs::MemberId> lost;
  for (const auto& m : state.lw_present) {
    if (!view.contains(m)) lost.insert(m);
  }
  for (const auto& m : view.members) state.lw_present.insert(m);
  for (const auto& m : lost) state.lw_present.erase(m);

  if (lost.empty()) return;
  std::set<uint32_t> newly_dead;
  for (const auto& [rank, member] : state.placement) {
    if (state.done_ranks.contains(rank) || state.dead_ranks.contains(rank)) continue;
    if (lost.contains(member)) newly_dead.insert(rank);
  }
  if (!newly_dead.empty()) failure_event(app, newly_dead);
}

void Daemon::on_lw_message(const std::string& app, gcs::MemberId origin,
                           const util::Bytes& payload) {
  (void)origin;
  auto it = apps_.find(app);
  if (it == apps_.end() || !it->second.hosting) return;
  AppState& state = it->second;
  auto decoded = AppMsg::decode(payload);
  if (!decoded.ok()) {
    drop_undecodable("app message", decoded.error());
    return;
  }
  const AppMsg& msg = decoded.value();
  switch (msg.kind) {
    case AppKind::kAddr:
      if (msg.wiring_epoch != state.wiring_epoch) return;  // stale exchange
      state.addrs[msg.rank] = msg.addr;
      maybe_configure(state);
      return;
    case AppKind::kCoord: {
      LinkMsg relay;
      relay.kind = LinkKind::kCoord;
      relay.payload = msg.payload;
      broadcast_to_procs(state, relay);
      return;
    }
    case AppKind::kProcFailed:
      failure_event(app, {msg.rank});
      return;
    case AppKind::kCheckpointNow: {
      LinkMsg relay;
      relay.kind = LinkKind::kCheckpointNow;
      broadcast_to_procs(state, relay);
      return;
    }
    case AppKind::kRankDone:
      state.done_ranks.insert(msg.rank);
      if (state.done_ranks.size() + state.dead_ranks.size() >= state.job.nprocs &&
          state.phase == AppPhase::kRunning) {
        state.phase = AppPhase::kCompleted;
      }
      return;
  }
}

// -------------------------------------------------------- local procs ----

void Daemon::launch_rank(AppState& state, uint32_t rank, uint64_t restore_epoch) {
  if (obs::Hub* hub = net_.engine().obs()) {
    hub->metrics.counter("daemon.launches").add(1);
    if (restore_epoch != kNoRestore) hub->metrics.counter("daemon.restores").add(1);
    if (hub->tracer.enabled()) {
      hub->tracer.instant(static_cast<uint64_t>(net_.engine().now()), "daemon",
                          "launch " + state.job.name + "/r" + std::to_string(rank), host_.id());
    }
  }
  LaunchRequest req;
  req.job = state.job;
  req.rank = rank;
  req.wiring_epoch = state.wiring_epoch;
  req.restore_epoch = restore_epoch;
  const std::string app = state.job.name;
  const uint32_t token = next_proc_token_++;
  auto uplink = [this, app, rank, token](const LinkMsg& msg) {
    // Local link latency, process -> daemon direction. Messages from an
    // older launch of this rank (killed during a restart/migration) carry a
    // stale token and are dropped.
    net_.engine().schedule(config_.link_delay, [this, app, rank, token, msg] {
      if (shut_down_ || !host_.alive()) return;
      auto it = apps_.find(app);
      if (it == apps_.end()) return;
      auto local = it->second.locals.find(rank);
      if (local == it->second.locals.end() || local->second.token != token) return;
      handle_uplink(app, rank, msg);
    });
  };
  LocalProc proc;
  proc.rank = rank;
  proc.restore_epoch = restore_epoch;
  proc.token = token;
  proc.handle = launcher_.launch(host_, req, std::move(uplink));
  state.locals[rank] = std::move(proc);
}

void Daemon::send_to_proc(AppState& state, LocalProc& proc, LinkMsg msg) {
  if (!proc.handle || !proc.handle->alive()) return;
  ProcessHandle* handle = proc.handle.get();
  (void)state;
  net_.engine().schedule(config_.link_delay, [handle, msg = std::move(msg)] {
    if (handle->alive()) handle->deliver(msg);
  });
}

void Daemon::broadcast_to_procs(AppState& state, const LinkMsg& msg) {
  for (auto& [rank, proc] : state.locals) send_to_proc(state, proc, msg);
}

void Daemon::maybe_configure(AppState& state) {
  // Configure once every *live* rank's data-path address is known.
  size_t expected = 0;
  for (const auto& [rank, member] : state.placement) {
    if (!state.dead_ranks.contains(rank) && !state.done_ranks.contains(rank)) ++expected;
  }
  if (state.addrs.size() < expected || expected == 0) return;

  std::vector<net::NetAddr> world(state.job.nprocs);
  for (const auto& [rank, addr] : state.addrs) world[rank] = addr;
  for (auto& [rank, proc] : state.locals) {
    LinkMsg cfg;
    cfg.kind = LinkKind::kConfigure;
    cfg.wiring_epoch = state.wiring_epoch;
    cfg.world = world;
    cfg.restore_epoch = proc.restore_epoch;
    send_to_proc(state, proc, std::move(cfg));
  }
  if (state.phase == AppPhase::kPlacing) state.phase = AppPhase::kRunning;
}

void Daemon::handle_uplink(const std::string& app, uint32_t rank, const LinkMsg& msg) {
  auto it = apps_.find(app);
  if (it == apps_.end()) return;
  AppState& state = it->second;
  auto local = state.locals.find(rank);
  if (local == state.locals.end()) return;

  switch (msg.kind) {
    case LinkKind::kReady: {
      local->second.ready = true;
      local->second.vni_addr = msg.vni_addr;
      AppMsg addr;
      addr.kind = AppKind::kAddr;
      addr.wiring_epoch = state.wiring_epoch;
      addr.rank = rank;
      addr.addr = msg.vni_addr;
      lw_->lw_multicast(app, addr.encode());
      return;
    }
    case LinkKind::kCoordSend: {
      AppMsg coord;
      coord.kind = AppKind::kCoord;
      coord.payload = msg.payload;
      lw_->lw_multicast(app, coord.encode());
      return;
    }
    case LinkKind::kDone: {
      local->second.done = true;
      AppMsg done;
      done.kind = msg.ok ? AppKind::kRankDone : AppKind::kProcFailed;
      done.rank = rank;
      if (!msg.ok) {
        state.output.push_back("rank " + std::to_string(rank) + " failed: " + msg.text);
      }
      lw_->lw_multicast(app, done.encode());
      return;
    }
    case LinkKind::kOutput:
      state.output.push_back(msg.text);
      return;
    case LinkKind::kSpawnReq: {
      // MPI-2 dynamic process management: grow the world. Routed through
      // the totally ordered heavy group so every daemon applies the same
      // placement at the same point in the event stream.
      HeavyMsg grow;
      grow.kind = HeavyKind::kGrowApp;
      grow.app = app;
      grow.rank = msg.spawn_extra;
      grow.wepoch = state.wiring_epoch + 1;
      lw_->heavy_multicast(grow.encode());
      return;
    }
    default:
      return;
  }
}

// ------------------------------------------------------------ failure ----

void Daemon::failure_event(const std::string& app, const std::set<uint32_t>& newly_dead) {
  auto it = apps_.find(app);
  if (it == apps_.end() || !it->second.hosting) return;
  AppState& state = it->second;
  if (state.phase == AppPhase::kDeleted || state.phase == AppPhase::kFailed ||
      state.phase == AppPhase::kCompleted) {
    return;
  }
  std::set<uint32_t> fresh;
  for (uint32_t r : newly_dead) {
    if (!state.dead_ranks.contains(r) && !state.done_ranks.contains(r)) fresh.insert(r);
  }
  if (fresh.empty()) return;
  STARFISH_LOG(kInfo, kLog) << "host" << host_.id() << ": app '" << app << "' lost "
                            << fresh.size() << " process(es), policy "
                            << policy_name(state.job.policy);

  switch (state.job.policy) {
    case FtPolicy::kKill:
      retire_locals(state);
      state.phase = AppPhase::kFailed;
      return;

    case FtPolicy::kNotifyViews: {
      state.dead_ranks.insert(fresh.begin(), fresh.end());
      ++state.view_seq;
      LinkMsg view;
      view.kind = LinkKind::kAppView;
      view.view_seq = state.view_seq;
      for (uint32_t r = 0; r < state.job.nprocs; ++r) {
        if (!state.dead_ranks.contains(r) && !state.done_ranks.contains(r)) {
          view.live_ranks.push_back(r);
        }
      }
      broadcast_to_procs(state, view);
      return;
    }

    case FtPolicy::kRestart: {
      // Mark the dead ranks so placement reassigns them, then roll the whole
      // application back to the recovery line. The cap breaks deterministic
      // crash loops (e.g. a trap that replays identically from the image).
      if (state.restart_count >= kMaxRestarts) {
        state.phase = AppPhase::kFailed;
        return;
      }
      state.dead_ranks.insert(fresh.begin(), fresh.end());
      restart_app(state);
      return;
    }
  }
}

std::map<uint32_t, uint64_t> Daemon::compute_restore_epochs(const AppState& state) const {
  std::map<uint32_t, uint64_t> out;
  const std::string& app = state.job.name;
  if (state.job.protocol == CrProtocol::kUncoordinated) {
    // Recovery line over the stored independent checkpoints.
    std::vector<ckpt::CheckpointMeta> metas;
    std::map<uint32_t, uint32_t> newest;  // per rank, as stored
    std::map<uint32_t, uint32_t> latest;  // per rank, the newest line candidate
    for (uint32_t rank = 0; rank < state.job.nprocs; ++rank) {
      const auto stored = store_.latest_stored(app, rank);
      newest[rank] = stored ? static_cast<uint32_t>(*stored) : 0;
      latest[rank] = newest[rank];
      for (uint32_t idx = 1; idx <= newest[rank]; ++idx) {
        // The blob is a DependencyTracker encoding. compute_recovery_line
        // reads a checkpoint without a meta as one with no recorded
        // constraints, which would fabricate a line the dependencies never
        // supported. So a checkpoint whose meta is missing (a crash between
        // its image and its meta) or corrupt is no line candidate: the rank
        // rolls back below it.
        const auto meta_blob = store_.checkpoint_meta(ckpt::CkptKey{app, rank, idx});
        if (!meta_blob) {
          latest[rank] = idx - 1;
          break;
        }
        auto tracker = ckpt::DependencyTracker::decode(*meta_blob);
        if (!tracker.ok()) {
          if (obs::Hub* hub = net_.engine().obs()) {
            hub->metrics.counter("ckpt.decode_errors").add(1);
          }
          STARFISH_LOG(kWarn, kLog) << "daemon " << host_.id() << " dropping undecodable tracker"
                                    << " of rank " << rank << " checkpoint " << idx << ": "
                                    << tracker.error().to_string();
          latest[rank] = idx - 1;
          break;
        }
        ckpt::CheckpointMeta meta;
        meta.rank = rank;
        meta.index = idx;
        meta.depends_on = tracker.value().received();
        meta.sent = tracker.value().sent();
        metas.push_back(std::move(meta));
      }
    }
    auto line = ckpt::compute_recovery_line(metas, latest);
    if (obs::Hub* hub = net_.engine().obs()) {
      hub->metrics.counter("ckpt.recovery_lines").add(1);
      hub->metrics.counter("ckpt.rollback_intervals")
          .add(ckpt::rollback_distance(line, newest));
    }
    for (const auto& [rank, idx] : line) {
      out[rank] = idx == 0 ? kNoRestore : idx;
    }
    return out;
  }
  // Coordinated protocols: the committed epoch is the recovery line — but
  // only if it can still be read back. Under the disk backend that is
  // always latest_committed; under the replica backend host crashes may
  // have destroyed copies, so the line drops to the newest epoch whose
  // chains survive in some tier, or to a from-scratch restart (kNoRestore)
  // when nothing does — never a deadlock on unreadable images.
  auto committed = store_.latest_recoverable(app, state.job.nprocs);
  for (uint32_t rank = 0; rank < state.job.nprocs; ++rank) {
    out[rank] = committed.value_or(kNoRestore);
  }
  return out;
}

void Daemon::rebalance_replicas(AppState& state) {
  if (store_.backend() != ckpt::CkptBackend::kReplica || store_.replicas() == nullptr) {
    return;
  }
  // The new placement's rank -> host map, identical at every daemon (the
  // placement itself is the deterministically agreed state).
  std::vector<sim::HostId> hosts(state.job.nprocs, sim::kInvalidHost);
  for (const auto& [rank, member] : state.placement) {
    if (rank < hosts.size()) hosts[rank] = member.host;
  }
  const gcs::MemberId self = group_->self();
  const uint32_t replication = store_.replicas()->options().replication;
  for (const auto& [rank, member] : state.placement) {
    if (member != self || state.done_ranks.contains(rank)) continue;
    auto holders = ckpt::replica_holders(hosts, rank, replication);
    // Background fiber: re-replication rides the network alongside the
    // restart and must not delay relaunch (recovery reads existing copies).
    host_.spawn("replica-rebalance",
                [this, app = state.job.name, rank, holders = std::move(holders)] {
                  store_.replicas()->rebalance(host_, app, rank, holders);
                });
  }
}

void Daemon::retire_locals(AppState& state) {
  for (auto& [rank, proc] : state.locals) {
    if (!proc.handle) continue;
    proc.handle->terminate();
    // Park the handle: kill-unwinds of its fibers land after this call, so
    // the object must outlive them. terminate() has already released its
    // VM state; the parked shell goes with the daemon.
    graveyard_.push_back(std::move(proc.handle));
  }
  state.locals.clear();
}

void Daemon::restart_app(AppState& state) {
  if (obs::Hub* hub = net_.engine().obs()) {
    hub->metrics.counter("daemon.restarts").add(1);
    if (hub->tracer.enabled()) {
      hub->tracer.instant(static_cast<uint64_t>(net_.engine().now()), "daemon",
                          "restart " + state.job.name, host_.id());
    }
  }
  ++restarts_performed_;
  ++state.restart_count;
  ++state.wiring_epoch;
  state.addrs.clear();

  // Reassign dead ranks over the surviving lightweight members,
  // deterministically (same computation at every surviving daemon).
  auto view = lw_->lw_view(state.job.name);
  if (!view || view->members.empty()) {
    state.phase = AppPhase::kFailed;
    return;
  }
  std::vector<gcs::MemberId> survivors = view->members;
  std::sort(survivors.begin(), survivors.end());
  std::vector<uint32_t> to_reassign(state.dead_ranks.begin(), state.dead_ranks.end());
  for (size_t i = 0; i < to_reassign.size(); ++i) {
    state.placement[to_reassign[i]] = survivors[i % survivors.size()];
  }
  state.dead_ranks.clear();

  // A checkpoint wave in flight at the crash is aborted by the restart;
  // drop its begin timestamps so a re-initiated epoch records fresh ones
  // (epoch_duration must not span the crash).
  store_.note_abort(state.job.name);

  const auto restore = compute_restore_epochs(state);

  // Kill every local process and relaunch my slice of the new placement
  // from the recovery line.
  retire_locals(state);
  const gcs::MemberId self = group_->self();
  for (const auto& [rank, member] : state.placement) {
    if (member != self || state.done_ranks.contains(rank)) continue;
    auto it = restore.find(rank);
    launch_rank(state, rank, it == restore.end() ? kNoRestore : it->second);
  }
  // Surviving copies of ranks moving to new hosts must regain full
  // replication under the new placement (view-change re-balance).
  rebalance_replicas(state);
  state.phase = AppPhase::kPlacing;
}

}  // namespace starfish::daemon
