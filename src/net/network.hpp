// The cluster fabric: hosts wired by two networks (TCP/IP and BIP/Myrinet).
//
// Two communication abstractions are provided on top of the fabric:
//   * Connection — reliable bidirectional framed stream (the paper's "TCP
//     connections": daemon<->application process, client<->daemon management
//     sessions, daemon<->daemon control links).
//   * DatagramEndpoint — the raw port abstraction the VNI builds the MPI
//     fast data path on.
// Both lose traffic when an endpoint's host crashes (fail-stop); in-flight
// packets to/from a dead host are dropped, connections break, and blocked
// readers wake with kClosed — exactly the failure surface the daemons'
// failure detector and the C/R protocols must handle.
//
// Routing state is kept per host. Send-side work (fault verdicts, FIFO
// clamps, obs) runs on the source host's node against source-host state;
// arrival-side work (binding/listener lookups, inbox delivery) is an event
// that runs under the destination host's node, so what it schedules draws
// its order keys from that node (DESIGN.md section 13).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/faults.hpp"
#include "net/model_params.hpp"
#include "sim/host.hpp"
#include "sim/sync.hpp"
#include "util/buffer.hpp"

namespace starfish::net {

using Port = uint32_t;

struct NetAddr {
  sim::HostId host = sim::kInvalidHost;
  Port port = 0;
  auto operator<=>(const NetAddr&) const = default;
  std::string to_string() const;

  /// Wire form: u32 host, u32 port.
  void write(util::Writer& w) const {
    w.u32(host);
    w.u32(port);
  }
  static NetAddr read(util::Reader& r) {
    const sim::HostId h = r.u32();
    return {h, r.u32()};
  }
};

struct Packet {
  NetAddr src;
  NetAddr dst;
  /// Refcounted and immutable: forwarding, queueing and decoding a packet
  /// never duplicates the body (the zero-copy data path).
  util::SharedBytes payload;
};

class Network;

/// Raw datagram port. Bound to (host, port); recv blocks on the inbox.
class DatagramEndpoint {
 public:
  ~DatagramEndpoint();
  DatagramEndpoint(const DatagramEndpoint&) = delete;
  DatagramEndpoint& operator=(const DatagramEndpoint&) = delete;

  NetAddr addr() const { return addr_; }
  TransportKind transport() const { return kind_; }

  /// Fire-and-forget: puts the payload on the wire. Nothing is charged
  /// here; only the wire transit is modeled, so a caller that models send
  /// CPU charges it itself. Returns false if the endpoint is closed or the
  /// local host is dead.
  bool send(NetAddr dst, util::SharedBytes payload);

  sim::RecvResult<Packet> recv(sim::Time deadline = -1) { return inbox_.recv(deadline); }
  std::optional<Packet> try_recv() { return inbox_.try_recv(); }
  void close();
  bool closed() const { return inbox_.closed(); }
  size_t pending() const { return inbox_.pending(); }

 private:
  friend class Network;
  DatagramEndpoint(Network& net, NetAddr addr, TransportKind kind);

  Network& net_;
  NetAddr addr_;
  TransportKind kind_;
  sim::Channel<Packet> inbox_;
};

using DatagramEndpointPtr = std::shared_ptr<DatagramEndpoint>;

/// One end of a reliable framed stream. Both ends share a ConnState.
class Connection {
 public:
  /// Sends one framed message; returns false if this end is broken.
  bool send(util::SharedBytes payload);
  /// Blocks for the next message; kClosed once broken/closed and drained.
  sim::RecvResult<util::SharedBytes> recv(sim::Time deadline = -1);
  std::optional<util::SharedBytes> try_recv();
  /// Graceful close: peer recv drains then reports kClosed; the peer end
  /// observes the break one one-way latency later (FIN on the wire).
  void close();
  /// This end's view: broken once it closed/reset locally, the peer's
  /// FIN/RST arrived, or an endpoint host crashed.
  bool broken() const;
  sim::HostId local_host() const { return local_; }
  sim::HostId peer_host() const { return remote_; }

 private:
  friend class Network;
  struct State;
  Connection(Network& net, std::shared_ptr<State> state, sim::HostId local, sim::HostId remote,
             int side);

  Network& net_;
  std::shared_ptr<State> state_;
  sim::HostId local_;
  sim::HostId remote_;
  int side_;  // 0 = connecting side, 1 = accepting side
};

using ConnectionPtr = std::shared_ptr<Connection>;

/// Listening socket: accept() yields server-side Connection ends.
class Acceptor {
 public:
  ~Acceptor();
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  NetAddr addr() const { return addr_; }
  /// Blocks until a peer connects (kClosed if the acceptor is closed or the
  /// host died).
  sim::RecvResult<ConnectionPtr> accept(sim::Time deadline = -1) {
    return backlog_.recv(deadline);
  }
  void close();

 private:
  friend class Network;
  Acceptor(Network& net, NetAddr addr, TransportKind kind);

  Network& net_;
  NetAddr addr_;
  TransportKind kind_;
  sim::Channel<ConnectionPtr> backlog_;
};

using AcceptorPtr = std::shared_ptr<Acceptor>;

class Network {
 public:
  explicit Network(sim::Engine& engine) : engine_(engine) {}

  sim::Engine& engine() const { return engine_; }

  // --- topology ---
  sim::HostPtr add_host(std::string name,
                        const sim::Machine& machine = sim::default_machine(),
                        sim::DiskParams disk = sim::ide_disk_params());
  sim::HostPtr host(sim::HostId id) const;
  size_t host_count() const { return hosts_.size(); }
  const std::vector<sim::HostPtr>& hosts() const { return hosts_; }

  /// Fail-stop crash: kills the host's fibers, drops its bindings, breaks
  /// its connections. The authoritative way to inject a node failure.
  void crash_host(sim::HostId id);

  /// Registers a callback run at the end of every crash_host, after the
  /// fabric state is consistent. Lets fate-sharing state
  /// outside the fabric — e.g. in-memory checkpoint replicas, a process's
  /// VM — invalidate what the dead host held. A hook must be removed
  /// before anything it captures is destroyed, or outlive the network's
  /// last crash, and must not add or remove hooks itself.
  using CrashHookId = uint64_t;
  CrashHookId add_crash_hook(std::function<void(sim::HostId)> hook);
  void remove_crash_hook(CrashHookId id);

  /// Message-level fault injection (loss, delay, duplication, partitions);
  /// consulted on every transmit/connect once configured. Fault-free by
  /// default, in which case every path is byte-identical to a fabric
  /// without the injector.
  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }

  // --- datagram API ---
  DatagramEndpointPtr bind(sim::HostId host, Port port, TransportKind kind);
  /// Picks an unused port on the host (ports are per-host, so two hosts can
  /// share an auto port number; an address is always the (host, port) pair).
  DatagramEndpointPtr bind_auto(sim::HostId host, TransportKind kind);

  // --- stream API ---
  AcceptorPtr listen(sim::HostId host, Port port, TransportKind kind);
  /// Blocks ~1 RTT; nullptr if nobody listens at dst or a host is dead. The
  /// SYN travels as an event to the server host, where the listener table
  /// is examined.
  ConnectionPtr connect(sim::HostId from, NetAddr dst, TransportKind kind);

  /// Total messages put on the wire (for tests/benches).
  uint64_t packets_sent() const { return packets_sent_; }

 private:
  friend class DatagramEndpoint;
  friend class Connection;
  friend class Acceptor;

  struct PairClock {
    Port src_port;
    Port dst_port;
    sim::Time last;
  };
  /// Mutable fabric state owned by one host.
  struct HostNet {
    std::map<Port, DatagramEndpoint*> bindings;
    std::map<Port, Acceptor*> listeners;
    /// Last scheduled arrival per (src, dst) address pair with src on this
    /// host, enforcing per-pair FIFO: indexed by destination host, then a
    /// few port-pair lanes (a host talks to another on a handful of ports).
    std::vector<std::vector<PairClock>> pair_clocks;
    Port next_auto_port = 1 << 16;
    /// Connections with an end on this host (clients at creation, servers
    /// at SYN arrival); crash_host scans these.
    std::vector<std::weak_ptr<Connection::State>> conns;
    /// Cached obs instruments for this host's sends, keyed by the hub they
    /// were resolved against.
    obs::Hub* obs_hub = nullptr;
    obs::Counter* obs_packets = nullptr;
    obs::Counter* obs_bytes = nullptr;
    std::vector<obs::Histogram*> obs_links;  ///< by destination host; null until used
  };

  HostNet& per_host(sim::HostId id) {
    assert(id < per_host_.size());
    return *per_host_[id];
  }
  bool host_alive(sim::HostId id) const;
  /// The last scheduled arrival on the (src, dst) pair (0 before the
  /// first); dst.host must be a host of this fabric.
  static sim::Time& last_arrival(HostNet& src_net, NetAddr src, NetAddr dst);
  /// Observability: counts one wire packet and records its transit latency
  /// into the per-link histogram. No-op without an attached hub; resolved
  /// lazily so a hub attached after construction is still picked up.
  void note_packet(const Packet& packet, sim::Duration latency, bool delivered);
  /// Schedules wire transit and delivery into the bound inbox (dropped if
  /// either host dies first or nothing is bound on arrival).
  void transmit(TransportKind kind, Packet packet);
  /// Arrival-time half of transmit, executing on the destination host's
  /// node: hands the packet to the bound inbox.
  void deliver_packet(Packet packet);
  void unbind(NetAddr addr);
  void unlisten(NetAddr addr);

  sim::Engine& engine_;
  FaultInjector faults_{engine_};
  std::vector<std::pair<CrashHookId, std::function<void(sim::HostId)>>> crash_hooks_;
  CrashHookId next_crash_hook_ = 0;
  std::vector<sim::HostPtr> hosts_;
  /// unique_ptr for address stability: add_host may grow the vector while
  /// a caller holds a HostNet reference.
  std::vector<std::unique_ptr<HostNet>> per_host_;
  uint64_t packets_sent_ = 0;
};

}  // namespace starfish::net
