// Cluster: the whole Starfish deployment in one object.
//
// Builds the simulated workstations, boots one daemon per node (founding the
// Starfish group), owns the shared checkpoint store and the application
// registry, and offers the operations a user of the real system would have:
// submit jobs, open management sessions, pull results — plus the fault
// injection levers the evaluation needs.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "core/process.hpp"
#include "daemon/daemon.hpp"

namespace starfish::core {

struct ClusterOptions {
  size_t nodes = 4;
  /// Machine type per node (cycled if shorter than `nodes`); defaults to the
  /// paper's homogeneous PII/Linux cluster.
  std::vector<sim::Machine> machines;
  ProcessOptions process;
  daemon::DaemonConfig daemon;
  /// Seed of the engine's RNG (fault-injection draws; 0 is a valid seed).
  /// Two clusters built with the same options and seed replay identically.
  uint64_t seed = 0;
  /// Must be 1: the engine runs one event loop on one thread, and Cluster
  /// throws std::invalid_argument for any other value. Kept so callers that
  /// pin it keep compiling.
  unsigned shards = 1;
  /// Checkpoint storage backend (DESIGN.md section 14). Unset: disk, unless
  /// STARFISH_CKPT_BACKEND=replica is exported — the CI lever that drives
  /// whole suites through the diskless path. Set explicitly to pin a
  /// backend regardless of environment.
  std::optional<ckpt::CkptBackend> ckpt_backend;
  /// Copies per checkpoint image under the replica backend.
  uint32_t ckpt_replication = 2;
  /// Checkpoint payload compression (DESIGN.md section 17). Unset: off,
  /// unless STARFISH_CKPT_COMPRESS=lz|delta|delta+lz is exported — the CI
  /// lever that drives whole suites through the coded epoch pipeline. Set
  /// explicitly to pin a mode regardless of environment.
  std::optional<ckpt::CompressMode> ckpt_compress;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() { return engine_; }
  net::Network& network() { return network_; }
  ckpt::CheckpointStore& store() { return store_; }
  AppRegistry& registry() { return registry_; }
  daemon::Daemon& daemon_at(size_t i) { return *daemons_[i]; }
  /// The daemon running on a given host (host ids and daemon indices
  /// diverge once the client workstation and late-added nodes exist).
  daemon::Daemon& daemon_for_host(sim::HostId host) {
    for (auto& d : daemons_) {
      if (d->host_id() == host) return *d;
    }
    return *daemons_.front();
  }
  size_t node_count() const { return daemons_.size(); }

  /// Founds the daemon group and lets the initial view settle.
  void boot();

  /// Adds a fresh workstation at runtime; its daemon joins the group.
  sim::HostId add_node();

  void submit(const daemon::JobSpec& job);

  /// Advances virtual time until the app completes/fails or `timeout`
  /// elapses. Returns true if it completed cleanly.
  bool run_until_done(const std::string& app, sim::Duration timeout = sim::seconds(120.0));
  void run_for(sim::Duration d) { engine_.run_for(d); }

  /// Most advanced phase reported by any live daemon.
  daemon::AppPhase phase(const std::string& app) const;
  /// Application output lines merged across all live daemons.
  std::vector<std::string> output(const std::string& app) const;

  /// Fail-stop node crash (kills the daemon and every hosted process).
  void crash_node(sim::HostId id) { network_.crash_host(id); }

  // --- message-level fault injection (chaos harness) ---
  net::FaultInjector& faults() { return network_.faults(); }
  /// Cuts every link between group `a` and group `b` (both directions when
  /// `symmetric`); heal() reconnects. Scoped sugar over faults().
  void partition(const std::vector<sim::HostId>& a, const std::vector<sim::HostId>& b,
                 bool symmetric = true) {
    network_.faults().partition(a, b, symmetric);
  }
  void heal() { network_.faults().heal(); }

  /// Runs an ASCII management-protocol session against node `via` from the
  /// dedicated client workstation; returns one response per command line
  /// (plus the greeting as element 0).
  std::vector<std::string> client_session(sim::HostId via, std::vector<std::string> lines);

 private:
  ClusterOptions options_;
  sim::Engine engine_;
  net::Network network_;
  ckpt::CheckpointStore store_;
  AppRegistry registry_;
  std::unique_ptr<Launcher> launcher_;
  std::vector<std::unique_ptr<daemon::Daemon>> daemons_;
  sim::HostPtr client_host_;
  bool booted_ = false;
};

}  // namespace starfish::core
