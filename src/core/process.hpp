// The assembled application process (paper figure 1): group handler,
// application module (native C++ function or VM program), checkpoint/restart
// module, MPI module and VNI, glued by the object bus — with the fast data
// path (mpi::Proc over the VNI) bypassing the bus entirely.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "core/app_api.hpp"
#include "core/bus.hpp"
#include "core/cr.hpp"
#include "daemon/launcher.hpp"
#include "mpi/comm.hpp"
#include "mpi/proc.hpp"
#include "vm/interp.hpp"

namespace starfish::core {

struct ProcessOptions {
  net::TransportKind data_transport = net::TransportKind::kBipMyrinet;
  bool polling = true;
  mpi::ProcConfig mpi;
  /// Virtual CPU cost of one VM bytecode instruction (PII-300 bytecode).
  sim::Duration vm_step_cost = sim::nanoseconds(50);
  /// Instructions per scheduling slice.
  uint64_t vm_slice = 20'000;
};

class ApplicationProcess : public daemon::ProcessHandle {
 public:
  ApplicationProcess(net::Network& net, sim::Host& host, ckpt::CheckpointStore& store,
                     const AppRegistry& registry, const daemon::LaunchRequest& request,
                     std::function<void(const daemon::LinkMsg&)> uplink,
                     ProcessOptions options = {});
  ~ApplicationProcess() override;

  // --- daemon::ProcessHandle ---
  void deliver(const daemon::LinkMsg& msg) override;
  void terminate() override;
  bool alive() const override { return alive_; }

  // --- module access (AppContext / CrModule) ---
  const daemon::JobSpec& job() const { return request_.job; }
  uint32_t rank() const { return request_.rank; }
  /// Current world size — grows on MPI-2 dynamic spawn.
  uint32_t nprocs() const { return configured_ ? proc_->size() : request_.job.nprocs; }
  mpi::Proc& proc() { return *proc_; }
  mpi::Comm& world() { return *world_; }
  ckpt::CheckpointStore& store() { return store_; }
  /// Each world rank's current host, from this process's own configured
  /// wiring (empty before the first kConfigure). Deterministic input to
  /// the replica-placement function.
  std::vector<sim::HostId> rank_hosts() const {
    std::vector<sim::HostId> out;
    if (!configured_) return out;
    for (const net::NetAddr& peer : proc_->peers()) out.push_back(peer.host);
    return out;
  }
  sim::Host& host() { return host_; }
  sim::Engine& engine() { return net_.engine(); }
  ObjectBus& bus() { return bus_; }
  CrModule& cr() { return *cr_; }
  void send_uplink(daemon::LinkMsg msg);

  /// Serializes the application module's state (VM portable payload or the
  /// native capture hook's blob). Called by the C/R module at safe points.
  util::Bytes capture_app_state();

  /// True once the process finished (cleanly or not).
  bool done() const { return done_; }
  bool is_vm_app() const { return interp_ != nullptr; }
  bool restored_from_checkpoint() const { return restored_; }
  const std::vector<uint32_t>& live_ranks() const { return live_ranks_; }

  // AppContext support (native apps).
  void set_view_handler(std::function<void(const std::vector<uint32_t>&)> fn) {
    view_handler_ = std::move(fn);
  }
  void set_state_capture(std::function<util::Bytes()> fn) { state_capture_ = std::move(fn); }
  void set_state_restore(std::function<void(const util::Bytes&)> fn);
  const std::vector<std::string>& app_args() const { return request_.job.args; }
  void gate_check();  ///< parks while suspended
  void fail_app(const std::string& reason);

  /// Spawns a fiber owned by this process: terminate() kills it, so no
  /// module fiber can outlive (and dangle into) a dead process.
  sim::FiberPtr spawn_owned(std::string name, std::function<void()> body) {
    auto f = host_.spawn(std::move(name), std::move(body));
    owned_fibers_.push_back(f);
    return f;
  }

 private:
  void group_handler_loop();
  void handle_link(const daemon::LinkMsg& msg);
  void app_main();
  void run_vm_app(const vm::Program& program);
  void run_native_app(const NativeAppFn& fn);
  bool apply_restore();
  void service_syscall(vm::Interpreter& interp, vm::Syscall syscall);

  net::Network& net_;
  sim::Host& host_;
  ckpt::CheckpointStore& store_;
  const AppRegistry& registry_;
  daemon::LaunchRequest request_;
  std::function<void(const daemon::LinkMsg&)> uplink_;
  ProcessOptions options_;

  ObjectBus bus_;
  std::unique_ptr<mpi::Proc> proc_;
  std::optional<mpi::Comm> world_;
  std::unique_ptr<CrModule> cr_;
  std::unique_ptr<vm::Interpreter> interp_;  ///< VM apps only

  sim::Channel<daemon::LinkMsg> inbox_;
  std::vector<sim::FiberPtr> owned_fibers_;
  sim::CondVar state_cv_;

  bool configured_ = false;
  uint32_t config_epoch_ = 0;
  bool suspended_ = false;
  bool alive_ = true;
  bool done_ = false;
  bool restored_ = false;
  util::Bytes pending_restore_blob_;  ///< native apps: blob awaiting the hook
  bool have_pending_restore_ = false;
  std::vector<uint32_t> live_ranks_;
  std::function<void(const std::vector<uint32_t>&)> view_handler_;
  std::function<util::Bytes()> state_capture_;
};

/// The launcher the daemons use; owned by the Cluster.
class Launcher : public daemon::ProcessLauncher {
 public:
  Launcher(net::Network& net, ckpt::CheckpointStore& store, const AppRegistry& registry,
           ProcessOptions options = {})
      : net_(net), store_(store), registry_(registry), options_(options) {}

  std::unique_ptr<daemon::ProcessHandle> launch(
      sim::Host& host, const daemon::LaunchRequest& request,
      std::function<void(const daemon::LinkMsg&)> uplink) override {
    return std::make_unique<ApplicationProcess>(net_, host, store_, registry_, request,
                                                std::move(uplink), options_);
  }

  ProcessOptions& options() { return options_; }

 private:
  net::Network& net_;
  ckpt::CheckpointStore& store_;
  const AppRegistry& registry_;
  ProcessOptions options_;
};

}  // namespace starfish::core
