// The Starfish daemon (paper sections 2.1 and 3).
//
// One daemon per node. All daemons form the Starfish group (gcs); each
// running application corresponds to a lightweight group whose members are
// the daemons hosting its processes. The daemon is built from the paper's
// modules:
//  * management module — replicated cluster configuration and job records,
//    kept coherent by totally ordered heavy-group messages; serves the ASCII
//    management/user protocol on the management port.
//  * lightweight membership module — the LightweightGroups layer.
//  * lightweight endpoint modules — one per local application process: the
//    local link, address exchange, coordination relay, failure reporting.
//
// Failure handling is initiator-free: every daemon of an affected
// application observes the same totally ordered event stream (lightweight
// views + messages), so all of them deterministically compute the same new
// placement / recovery line and act on their local slice of it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/recovery.hpp"
#include "ckpt/store.hpp"
#include "daemon/launcher.hpp"
#include "daemon/wire.hpp"
#include "gcs/endpoint.hpp"
#include "gcs/lightweight.hpp"

namespace starfish::daemon {

struct DaemonConfig {
  gcs::GroupConfig group;
  net::Port mgmt_port = 2;
  std::string admin_password = "starfish";
  /// One-way latency of the local daemon<->process link (local TCP).
  sim::Duration link_delay = sim::microseconds(50);
};

const char* phase_name(AppPhase p);

class Daemon {
 public:
  Daemon(net::Network& net, sim::Host& host, ckpt::CheckpointStore& store,
         ProcessLauncher& launcher, DaemonConfig config = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start_founding(const std::vector<net::NetAddr>& founder_control_addrs);
  void start_joining(const std::vector<net::NetAddr>& seeds);

  // --- programmatic client operations (the ASCII protocol calls these) ---
  void submit(const JobSpec& job);
  void delete_app(const std::string& app);
  void suspend_app(const std::string& app);
  void resume_app(const std::string& app);
  void set_config(const std::string& key, const std::string& value);
  std::optional<std::string> get_config(const std::string& key) const;
  void node_ctl(sim::HostId host, bool enable);

  /// Migrates one rank to another node (paper section 3.2.1): requests a
  /// coordinated checkpoint, waits for it to commit, then moves the rank by
  /// restoring the whole application with the new placement. Must be called
  /// on a daemon currently hosting part of the app; requires a coordinated
  /// C/R protocol. Asynchronous — drives itself on a fiber.
  void migrate(const std::string& app, uint32_t rank, sim::HostId dest);

  // --- introspection ---
  sim::HostId host_id() const { return host_.id(); }
  gcs::GroupEndpoint& group() { return *group_; }
  gcs::LightweightGroups& lightweight() { return *lw_; }
  AppPhase app_phase(const std::string& app) const;
  bool knows_app(const std::string& app) const { return apps_.contains(app); }
  /// Ranks this daemon currently hosts for `app`.
  std::vector<uint32_t> local_ranks(const std::string& app) const;
  /// The epoch each rank this daemon hosts for `app` was launched to
  /// restore, as launch_rank received it (kNoRestore: started from scratch).
  std::map<uint32_t, uint64_t> local_restore_epochs(const std::string& app) const;
  /// Console output collected from local processes of `app`.
  const std::vector<std::string>& app_output(const std::string& app) const;
  uint32_t restarts_performed() const { return restarts_performed_; }

  /// Management/user session entry point for an already-accepted
  /// connection; normally driven by the internal acceptor fiber. Public so
  /// tests can drive the protocol directly over a manual connection.
  void serve_session(net::ConnectionPtr conn);

 private:
  struct LocalProc {
    uint32_t rank = 0;
    std::unique_ptr<ProcessHandle> handle;
    uint64_t restore_epoch = kNoRestore;
    net::NetAddr vni_addr;  ///< cached from kReady (re-announced on growth)
    /// Identity of this launch: uplink messages from an older (terminated)
    /// process of the same rank carry a stale token and are dropped.
    uint32_t token = 0;
    bool ready = false;
    bool done = false;
  };

  struct AppState {
    JobSpec job;
    AppPhase phase = AppPhase::kPlacing;
    uint32_t wiring_epoch = 1;
    /// rank -> daemon member hosting it (identical at every daemon).
    std::map<uint32_t, gcs::MemberId> placement;
    std::map<uint32_t, LocalProc> locals;          ///< my ranks
    std::map<uint32_t, net::NetAddr> addrs;        ///< collected this epoch
    std::set<uint32_t> done_ranks;
    std::set<uint32_t> dead_ranks;                 ///< cumulative (notify policy)
    /// Lightweight members we have actually seen in the group; loss is only
    /// meaningful for members that had joined (the group forms gradually).
    std::set<gcs::MemberId> lw_present;
    uint32_t restart_count = 0;
    uint64_t view_seq = 0;
    std::vector<std::string> output;
    bool hosting = false;
  };

  /// Counts a received message or state blob that failed to decode in
  /// `daemon.decode_errors`; the caller drops it.
  void drop_undecodable(const char* what, const util::Error& error);

  // Heavy-group plumbing.
  void on_heavy_view(const gcs::View& view);
  void on_heavy_message(gcs::MemberId origin, const util::Bytes& payload);
  void handle_submit(const JobSpec& job);
  // Lightweight-group plumbing (one subscription per hosted app).
  void on_lw_view(const std::string& app, const gcs::LwView& view);
  void on_lw_message(const std::string& app, gcs::MemberId origin, const util::Bytes& payload);

  // Local process management.
  void launch_rank(AppState& state, uint32_t rank, uint64_t restore_epoch);
  void handle_uplink(const std::string& app, uint32_t rank, const LinkMsg& msg);
  void send_to_proc(AppState& state, LocalProc& proc, LinkMsg msg);
  void broadcast_to_procs(AppState& state, const LinkMsg& msg);
  void maybe_configure(AppState& state);

  // Failure machinery.
  void failure_event(const std::string& app, const std::set<uint32_t>& newly_dead);
  void restart_app(AppState& state);
  /// Replica backend only: after a placement change, re-replicate my local
  /// ranks' surviving checkpoint chains toward the holder sets the new
  /// placement implies (background fibers; replica.hpp rebalance).
  void rebalance_replicas(AppState& state);
  /// Terminates every local process of `state` and parks the handles.
  void retire_locals(AppState& state);
  std::map<uint32_t, uint64_t> compute_restore_epochs(const AppState& state) const;

  bool node_enabled(sim::HostId host) const;
  std::vector<gcs::Member> eligible_members() const;

  // Management protocol.
  void accept_loop();
  std::string handle_command(const std::string& line, bool& admin, bool& logged_in,
                             std::string& user, bool& quit);

  net::Network& net_;
  sim::Host& host_;
  ckpt::CheckpointStore& store_;
  ProcessLauncher& launcher_;
  DaemonConfig config_;

  std::unique_ptr<gcs::GroupEndpoint> group_;
  std::unique_ptr<gcs::LightweightGroups> lw_;
  net::AcceptorPtr mgmt_acceptor_;
  sim::FiberPtr accept_fiber_;

  /// Replicated cluster configuration (totally ordered updates).
  std::map<std::string, std::string> cluster_config_;
  std::set<sim::HostId> disabled_nodes_;
  std::map<std::string, AppState> apps_;
  gcs::View last_heavy_view_;
  /// Terminated process handles are parked here instead of destroyed:
  /// fiber kill-unwinds are asynchronous, so a handle must stay alive until
  /// the simulation drains (destroyed with the daemon). Only the shell is
  /// parked: terminate() already freed the incarnation's VM state.
  std::vector<std::unique_ptr<ProcessHandle>> graveyard_;
  uint32_t restarts_performed_ = 0;
  uint32_t next_proc_token_ = 1;
  bool shut_down_ = false;
};

}  // namespace starfish::daemon
