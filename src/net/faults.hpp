// Deterministic network fault injection.
//
// The fabric's only built-in failure is fail-stop (`Network::crash_host`);
// real clusters also lose, delay, duplicate and partition traffic. The
// FaultInjector sits inside `Network` and is consulted on every datagram
// transmit, stream frame and connection attempt.
//
// Randomness is split per *source host*: lane `src` owns an independent
// xoshiro stream seeded from (engine seed, src), its own counters and its
// own trace lines. Every fault decision executes on the sending host's
// node, so a fault schedule is a pure function of (seed, per-host event
// order): a host's draws do not move when another host's traffic changes.
// The same seed replays the identical run, which is what lets the chaos
// harness assert liveness and safety against a fault-free reference
// execution (deterministic-simulation testing in the FoundationDB style —
// see DESIGN.md sections 9 and 13). The lanes also pin the chaos goldens.
//
// When no faults are configured (`enabled() == false`) the injector is a
// single branch on the send paths: no RNG draws, no counter updates, and
// bit-identical simulations to a build without it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/model_params.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "util/rng.hpp"

namespace starfish::net {

struct Packet;

/// Per-link fault knobs. Semantics differ slightly by path:
///  * datagrams: `drop` loses the packet, `duplicate` delivers it twice,
///    `delay`+`jitter` add latency (per-pair FIFO is preserved);
///  * streams (reliable, TCP-like): `drop` charges a retransmission delay
///    instead of losing the frame, `duplicate` is a no-op (the stream
///    dedups), `delay`+`jitter` add latency.
struct LinkFaults {
  double drop = 0.0;       ///< probability in [0,1] per packet/frame
  double duplicate = 0.0;  ///< probability in [0,1] per datagram
  sim::Duration delay = 0;           ///< fixed extra one-way latency
  sim::Duration jitter = 0;          ///< extra uniform latency in [0, jitter)
  bool any() const { return drop > 0 || duplicate > 0 || delay > 0 || jitter > 0; }
};

/// Monotonic per-injector totals; tests assert against these.
struct FaultCounters {
  uint64_t datagrams_dropped = 0;     ///< lost to the `drop` probability
  uint64_t datagrams_duplicated = 0;  ///< extra copies delivered
  uint64_t datagrams_delayed = 0;     ///< given nonzero extra latency
  uint64_t partition_drops = 0;       ///< datagrams lost to an active partition
  uint64_t stream_retransmits = 0;    ///< stream frames charged a resend delay
  uint64_t stream_resets = 0;         ///< connections broken by a partition
  uint64_t connects_blocked = 0;      ///< connect() attempts across a partition
  uint64_t filter_drops = 0;          ///< datagrams dropped by the test filter
  uint64_t total() const {
    return datagrams_dropped + datagrams_duplicated + datagrams_delayed + partition_drops +
           stream_retransmits + stream_resets + connects_blocked + filter_drops;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(sim::Engine& engine) : engine_(engine) {}

  /// True once any fault source (plan, partition or filter) is configured.
  /// The fast paths check only this flag.
  bool enabled() const { return enabled_; }

  // --- plan configuration --------------------------------------------------

  /// Faults applied to every inter-host link (loopback is always exempt).
  void set_default(LinkFaults f) {
    default_ = f;
    refresh_enabled();
  }
  /// Per-transport override (e.g. shake the TCP control plane while the
  /// BIP data path stays clean). Wins over the default.
  void set_transport(TransportKind kind, LinkFaults f) {
    transport_[static_cast<size_t>(kind)] = f;
    refresh_enabled();
  }
  /// Directional per-link override; wins over transport and default.
  void set_link(sim::HostId src, sim::HostId dst, LinkFaults f) {
    links_[{src, dst}] = f;
    refresh_enabled();
  }

  /// Deterministic drop hook for surgical tests: return true to drop the
  /// datagram. Evaluated before any probabilistic fault, with no RNG draw.
  void set_filter(std::function<bool(const Packet&, TransportKind)> drop_if) {
    filter_ = std::move(drop_if);
    refresh_enabled();
  }

  /// Cuts traffic between the two host sets (every pair with one endpoint
  /// in each). `symmetric == false` blocks only side-a -> side-b traffic.
  /// Partitions stack; `heal()` removes them all.
  void partition(const std::vector<sim::HostId>& a, const std::vector<sim::HostId>& b,
                 bool symmetric = true);
  void heal();
  bool partitioned() const { return !blocked_.empty(); }

  /// Back to a fault-free fabric (plan, partitions, filter and trace; the
  /// counters survive so post-run assertions still see the totals).
  void clear();

  /// Network::add_host() calls this so lane `src` exists before
  /// host `src` can send. Lane seeds depend only on (engine seed, src).
  void on_host_added(size_t host_count);

  // --- observability --------------------------------------------------------

  /// Totals merged across the per-source-host lanes.
  const FaultCounters& counters() const;
  /// Every fault decision as "<sim-ns> <what> <src>-><dst>", merged across
  /// lanes in (time, source host, per-lane order); two runs with the same
  /// seed produce identical traces.
  const std::vector<std::string>& trace() const;

  // --- queries from Network (call only when enabled()) --------------------
  // Each query runs on the *source* host's node and touches only that
  // host's lane.

  bool link_blocked(sim::HostId src, sim::HostId dst) const {
    return blocked_.contains({src, dst});
  }

  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    sim::Duration extra = 0;
  };
  /// Fault decision for one datagram (draws from the source host's stream).
  Verdict datagram_verdict(const Packet& packet, TransportKind kind);
  /// Extra latency for one reliable-stream frame; `reset` is set when an
  /// active partition should break the connection instead.
  sim::Duration stream_penalty(sim::HostId src, sim::HostId dst, TransportKind kind,
                               size_t bytes, bool& reset);
  /// Partition check for connection establishment (either direction of the
  /// handshake blocked => the connect times out).
  bool connect_blocked(sim::HostId from, sim::HostId to);

 private:
  /// One source host's fault state; only that host's sends touch it.
  struct Lane {
    explicit Lane(uint64_t seed) : rng(seed) {}
    util::Rng rng;
    FaultCounters counters;
    /// (decision time, trace line) in emission order; times are monotone
    /// because the lane's host executes events in key order.
    std::vector<std::pair<sim::Time, std::string>> trace;
    /// Per-lane cache of "net.fault.<what>" counter handles: note() runs per
    /// faulted packet, and an uncached lookup allocates the name and searches
    /// the registry every time. Keyed by the literal's address (the
    /// `what` strings are string literals) and invalidated when the engine's
    /// hub changes.
    obs::Hub* obs_hub = nullptr;
    std::map<const void*, obs::Counter*> obs_counters;
  };

  Lane& lane(sim::HostId src) {
    assert(src < lanes_.size() && "fault decision for an unregistered host");
    return lanes_[src];
  }
  const LinkFaults& faults_for(sim::HostId src, sim::HostId dst, TransportKind kind) const;
  sim::Duration latency_extra(Lane& ln, const LinkFaults& f, sim::HostId src, sim::HostId dst,
                              const char* what);
  /// Records one fault decision: appends a lane trace line, bumps the
  /// "net.fault.<what>" obs counter by `count` (keeping obs tallies equal to
  /// the FaultCounters, which add whole retransmit streaks at once) and
  /// emits an instant trace event when tracing is on.
  void note(Lane& ln, const char* what, sim::HostId src, sim::HostId dst, uint64_t count = 1);
  void refresh_enabled();

  sim::Engine& engine_;
  bool enabled_ = false;
  LinkFaults default_;
  std::optional<LinkFaults> transport_[kTransportCount];
  std::map<std::pair<sim::HostId, sim::HostId>, LinkFaults> links_;
  std::set<std::pair<sim::HostId, sim::HostId>> blocked_;
  std::function<bool(const Packet&, TransportKind)> filter_;
  std::vector<Lane> lanes_;
  /// Merge scratch for counters()/trace(); rebuilt on each read.
  mutable FaultCounters merged_counters_;
  mutable std::vector<std::string> merged_trace_;
};

}  // namespace starfish::net
