// Group communication core types: members, views, configuration.
//
// starfish::gcs reimplements the subset of the Ensemble toolkit [20,38] that
// Starfish relies on: process-group membership with virtually synchronous
// view changes, and reliable totally ordered multicast within a view. All
// Starfish daemons form one such group (the "Starfish group", paper fig. 1);
// lightweight groups (gcs/lightweight.hpp) are layered on top of it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/time.hpp"
#include "util/buffer.hpp"

namespace starfish::gcs {

/// Identifies one group endpoint incarnation. A rebooted node gets a new
/// incarnation, so protocols never confuse it with its previous life.
struct MemberId {
  sim::HostId host = sim::kInvalidHost;
  uint32_t incarnation = 0;
  auto operator<=>(const MemberId&) const = default;
  std::string to_string() const {
    return "m" + std::to_string(host) + "." + std::to_string(incarnation);
  }

  /// Wire form: u32 host, u32 incarnation.
  void write(util::Writer& w) const {
    w.u32(host);
    w.u32(incarnation);
  }
  static MemberId read(util::Reader& r) {
    const sim::HostId h = r.u32();
    return {h, r.u32()};
  }
};

struct Member {
  MemberId id;
  uint32_t rank = 0;  ///< join order; the lowest rank in a view coordinates
  net::NetAddr addr;  ///< control endpoint of the member's daemon
  auto operator<=>(const Member&) const = default;
};

/// A membership view. Members are sorted by rank; members[0] coordinates
/// (the paper's "oldest member" rule).
struct View {
  uint64_t view_id = 0;
  std::vector<Member> members;

  const Member& coordinator() const { return members.front(); }
  bool contains(MemberId id) const {
    for (const auto& m : members) {
      if (m.id == id) return true;
    }
    return false;
  }
  int index_of(MemberId id) const {
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i].id == id) return static_cast<int>(i);
    }
    return -1;
  }
  size_t size() const { return members.size(); }
  std::string to_string() const;
};

/// Dissemination topology for ordered multicast and heartbeats.
///
/// kFlat: the sequencer fans ORDER out to every member and each member
/// heartbeats every other member — O(n) wire messages per multicast at the
/// sequencer, O(n^2) heartbeats per period group-wide.
/// kTree: ordered messages propagate down a deterministic k-ary tree over
/// the rank-sorted view (rebuilt on every view change) and heartbeats
/// aggregate at interior nodes, so the sequencer sends O(k) per multicast
/// and the coordinator sees O(k) heartbeat summaries. Both topologies
/// deliver byte-identical ordered streams (tests/gcs_differential_test.cpp).
enum class Topology : uint8_t {
  kFlat = 0,
  kTree = 1,
};

struct GroupConfig {
  net::Port control_port = 1;  ///< every daemon's gcs endpoint binds this port
  net::TransportKind transport = net::TransportKind::kTcpIp;
  /// Dissemination topology. nullopt: read STARFISH_GCS_TOPOLOGY=flat|tree
  /// from the environment (the CI lever), defaulting to flat. Set explicitly
  /// to pin a topology regardless of environment.
  std::optional<Topology> topology;
  /// Fan-out k of the dissemination tree (ignored under kFlat).
  uint32_t tree_fanout = 4;
  sim::Duration heartbeat_period = sim::milliseconds(50);
  sim::Duration suspect_timeout = sim::milliseconds(250);
  /// How long a member in the flush phase waits for INSTALL before assuming
  /// the (new) coordinator also died and restarting the view change.
  sim::Duration flush_timeout = sim::milliseconds(400);
  /// Period between JOIN_REQ retries while not yet in a view.
  sim::Duration join_retry = sim::milliseconds(100);
};

/// Upcalls. Invoked from the endpoint's receive fiber: handlers may block
/// briefly but long work should be handed to another fiber via a channel.
struct Callbacks {
  /// A new view was installed (including the first).
  std::function<void(const View&)> on_view;
  /// A totally ordered, virtually synchronous group message.
  std::function<void(MemberId origin, const util::Bytes& payload)> on_message;
  /// Coordinator-side: snapshot replicated state for a joining member.
  std::function<util::Bytes()> get_state;
  /// Joiner-side: install the snapshot before the first view is delivered.
  /// A blob that fails to decode is counted and dropped whole: the
  /// installed state is the old one or the new one, never a mix.
  std::function<void(const util::Bytes&)> set_state;
};

}  // namespace starfish::gcs
