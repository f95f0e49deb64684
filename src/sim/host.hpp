// A simulated workstation: a named node with a machine type, a local disk,
// and the set of fibers running on it. Crashing a host kills all its fibers
// (stacks unwind via FiberKilled) and flips it dead so the network layer
// drops traffic to and from it — the failure model daemons must detect.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/disk.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace starfish::sim {

using HostId = uint32_t;
constexpr HostId kInvalidHost = UINT32_MAX;

class Host {
 public:
  Host(Engine& engine, HostId id, std::string name, Machine machine,
       DiskParams disk_params = ide_disk_params())
      : engine_(engine),
        id_(id),
        name_(std::move(name)),
        machine_(std::move(machine)),
        disk_(engine, disk_params),
        node_(engine.register_node()) {}

  Engine& engine() const { return engine_; }
  HostId id() const { return id_; }
  /// The host's engine node (see DESIGN.md section 13); all of the host's
  /// fibers and deliveries execute under it.
  NodeId node() const { return node_; }
  const std::string& name() const { return name_; }
  const Machine& machine() const { return machine_; }
  Disk& disk() { return disk_; }
  bool alive() const { return alive_; }

  /// Spawns a fiber that belongs to this host (homed on its node); it
  /// dies with the host.
  FiberPtr spawn(std::string fiber_name, std::function<void()> body, Duration delay = 0) {
    auto f = engine_.spawn_on(node_, name_ + "/" + std::move(fiber_name), std::move(body), delay);
    fibers_.push_back(f);
    return f;
  }

  /// Fail-stop crash: kill every fiber on the host and go dead.
  void crash() {
    if (!alive_) return;
    alive_ = false;
    ++incarnation_;
    for (auto& f : fibers_) engine_.kill(f);
    fibers_.clear();
  }

  /// Brings a crashed host back (empty: a rebooted node rejoins the cluster
  /// by starting a fresh daemon on it).
  void reboot() { alive_ = true; }

  /// Incremented on every crash; lets protocols distinguish a rebooted node
  /// from the old incarnation.
  uint32_t incarnation() const { return incarnation_; }

 private:
  Engine& engine_;
  HostId id_;
  std::string name_;
  Machine machine_;
  Disk disk_;
  NodeId node_;
  bool alive_ = true;
  uint32_t incarnation_ = 0;
  std::vector<FiberPtr> fibers_;
};

using HostPtr = std::shared_ptr<Host>;

}  // namespace starfish::sim
