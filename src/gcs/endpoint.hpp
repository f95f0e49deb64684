// GroupEndpoint: virtually synchronous group membership with reliable,
// totally ordered multicast — the Ensemble subset Starfish builds on.
//
// Protocol summary (DESIGN.md section 5.1):
//  * The lowest-ranked live member of the current view coordinates.
//  * multicast(): sender -> coordinator ORDER_REQ; coordinator stamps a
//    global sequence number and fans out ORDER to all members; members
//    deliver in sequence order. FIFO links (the fabric guarantees per-pair
//    ordering) make each member's received sequence a prefix.
//  * Heartbeats feed a timeout failure detector: all-to-all under
//    Topology::kFlat, aggregated up and down the dissemination tree under
//    kTree. Each beat also advertises the sender's delivered gseq, which
//    prunes the retransmission log (gc_stable) and lets the sequencer
//    repair a member stalled behind a lost ORDER.
//  * Suspicion can be false: the fault injector (net/faults.hpp) drops,
//    delays and partitions control traffic, and tree gossip lags by up to a
//    beat per level. A falsely suspected member is still excluded; the
//    INSTALL that excludes it is sent to it as well, so it rejoins under
//    the same incarnation instead of wedging (finish_change_if_ready).
//  * View change: coordinator sends PREPARE; members stop acquiring new
//    orderings, reply FLUSH_OK carrying their delivered sequence number and
//    any sequenced messages the coordinator is missing; the coordinator
//    merges (virtual synchrony: every message delivered by any survivor is
//    delivered by all) and sends INSTALL with the retransmission tail, the
//    new membership, and — for joiners — the replicated state snapshot.
//  * Senders keep unacknowledged multicasts and re-submit them to the new
//    coordinator after a view change; per-origin message ids make
//    re-sequencing idempotent.
//  * Every fan-out (heartbeats, ORDER, tree relays, PREPARE, INSTALL) is
//    encoded once and the same util::SharedBytes is handed to each
//    recipient's send. The buffer is shared and immutable from then on: a
//    layer that wants to alter one recipient's copy (a future `corrupt`
//    fault, say) must copy it before flipping bits.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "gcs/types.hpp"
#include "gcs/wire.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/host.hpp"

namespace starfish::obs {
struct Hub;
}

namespace starfish::gcs {

class GroupEndpoint {
 public:
  GroupEndpoint(net::Network& net, sim::Host& host, GroupConfig config, Callbacks callbacks);
  ~GroupEndpoint();
  GroupEndpoint(const GroupEndpoint&) = delete;
  GroupEndpoint& operator=(const GroupEndpoint&) = delete;

  /// Replaces the upcall set. Must be called before start_founding /
  /// start_joining (used by layers that interpose on the raw group stream,
  /// e.g. LightweightGroups).
  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  /// Founding boot: every founder is given the same address list (in the
  /// same order) and installs the identical initial view without running
  /// the protocol. Only valid on fresh hosts at cluster start.
  void start_founding(const std::vector<net::NetAddr>& founders);

  /// Late join: keeps sending JOIN_REQ to the seed addresses until some
  /// coordinator admits us via a view change.
  void start_joining(const std::vector<net::NetAddr>& seeds);

  /// Graceful departure: asks the coordinator to exclude us. The endpoint
  /// stops delivering once a view without us is installed.
  void leave();

  /// Totally ordered, virtually synchronous multicast to the current view.
  /// Must be called from a fiber on this endpoint's host.
  void multicast(util::Bytes payload);

  MemberId self() const { return self_; }
  net::NetAddr addr() const { return endpoint_->addr(); }
  const View& view() const { return view_; }
  bool in_view() const { return in_view_; }
  bool is_coordinator() const {
    return in_view_ && !view_.members.empty() && view_.coordinator().id == self_;
  }

  /// Counts one received message or state blob of this group's layers
  /// that failed to decode in `gcs.decode_errors`; the caller drops it.
  void drop_undecodable(const char* what, const util::Error& error);

  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t views_installed() const { return views_installed_; }
  /// Size of the per-view retransmission log (bounded by stability GC).
  size_t retransmission_log_size() const { return delivered_.size(); }
  /// Resolved dissemination topology (config or STARFISH_GCS_TOPOLOGY).
  Topology topology() const { return topology_; }
  /// Our depth in the dissemination tree of the current view (0 under kFlat
  /// or at the root).
  uint32_t tree_depth() const {
    return !in_view_ || self_slot_ <= 0 ? 0 : node_depth(self_slot_);
  }

  /// Stops fibers and closes the control endpoint (used by tests; a host
  /// crash achieves the same through the fabric).
  void shutdown();

 private:
  enum class Phase : uint8_t { kNormal, kFlushing };

  /// Per-peer failure-detector and stability state. peers_[i] describes
  /// view_.members[i] (our own slot is unused); every install rebuilds it,
  /// so a datagram costs one slot lookup instead of a tree lookup per field.
  struct Peer {
    sim::Time last_heard = 0;
    /// Latest delivered gseq the peer advertised (heartbeats, relayed
    /// ORDERs); log entries below the view-wide minimum are stable and can
    /// be pruned (messages everyone delivered are never needed in a flush).
    uint64_t delivered = 0;
    /// Sequencer-side stall detector: the peer's advertised delivered gseq
    /// and our own at its previous heartbeat ({0, 0}: none, which never
    /// reads as stalled). A peer whose advertised value repeats while it was
    /// already behind us a full beat ago is stuck behind a lost ORDER and
    /// gets the missing suffix resent.
    uint64_t prev_advertised = 0;
    uint64_t prev_ours = 0;
    bool suspected = false;
  };

  void rx_loop();
  void tick_loop();
  void handle(const WireMsg& msg);
  /// `slot` is the sender's index in view_.members, or -1 for a non-member.
  void handle_heartbeat(const WireMsg& msg, int slot);
  void handle_join_req(const WireMsg& msg);
  void handle_leave_req(const WireMsg& msg, int slot);
  void handle_order_req(const WireMsg& msg, int slot);
  void handle_order(const WireMsg& msg, int slot);
  void handle_prepare(const WireMsg& msg);
  void handle_flush_ok(const WireMsg& msg);
  void handle_install(const WireMsg& msg);
  void handle_install_req(const WireMsg& msg);
  /// The sender's slot in view_.members, or -1. An unknown sender that is
  /// the live incarnation of a member recorded under an older one of the
  /// same host/address upgrades that member first (founding views record
  /// peers as incarnation 0 until first contact); only this path scans.
  int resolve_sender(const WireMsg& msg);
  void adopt_incarnation(Member& m, MemberId fresh);
  /// `id`'s slot in view_.members, or -1: one table read for every member
  /// but an older incarnation still listed beside its host's newer one.
  int slot_of(MemberId id) const;
  /// Marks member `slot` suspected; false if it already was.
  bool suspect(size_t slot);

  void deliver_ready();
  void deliver(const OrderedMsg& msg);
  void sequence_and_fanout(MemberId origin, uint64_t msg_id, util::Bytes payload);
  /// Tree mode: relay a freshly received ORDER to our tree children.
  void forward_order(const WireMsg& msg);
  /// Updates member `slot`'s progress bookkeeping and, on the sequencer,
  /// resends the missing ORDER suffix to a member whose advertised
  /// delivered gseq is stuck (the flat heartbeat repair path, shared with
  /// tree gossip). No-op for slot -1.
  void note_progress_and_repair(int slot, uint64_t advertised);
  /// Prunes the retransmission log below the view-wide stable gseq.
  void gc_stable();
  /// Merges one gossiped liveness entry (tree mode); returns true when the
  /// observation is fresher than what we already held.
  bool merge_hb_entry(const HbEntry& e);
  /// Tree mode: one up-summary to the nearest live ancestor plus the full
  /// table down to each child, instead of n-1 point-to-point beats.
  void send_tree_heartbeats(const WireMsg& hb);
  void check_failures();
  void maybe_initiate_change();
  void initiate_change();
  void finish_change_if_ready();
  void install_view(const View& v, const std::vector<OrderedMsg>& retransmit);
  void resend_pending();
  /// The one send path: callers encode a WireMsg once and hand the bytes
  /// to every recipient of a fan-out (see the file comment on sharing).
  void send_to(const net::NetAddr& addr, util::SharedBytes bytes);
  void send_to_member(const Member& m, util::SharedBytes bytes) {
    send_to(m.addr, std::move(bytes));
  }
  WireMsg base_msg(MsgKind kind) const;
  bool self_is_change_coordinator() const;

  /// Re-derives everything indexed by view position after the view or a
  /// member id changed: our slot, the host -> slot table and, under kTree,
  /// the dissemination tree. peers_ is sized by the caller.
  void index_view();

  // --- dissemination tree (Topology::kTree) over the rank-sorted view ---
  // Array-heap layout: member index i has parent (i-1)/k and children
  // k*i+1 .. k*i+k; index 0 is the coordinator/sequencer at the root.
  uint32_t node_depth(size_t index) const;
  /// Our parent in the tree, or nullptr at the root / under kFlat.
  const Member* tree_parent() const;
  /// Nearest unsuspected ancestor for up-heartbeats (skips over crashed
  /// interior nodes so orphaned subtrees stay visible at the root).
  const Member* up_target() const;
  /// Parent or direct child — members we exchange direct beats with.
  bool tree_neighbor(size_t slot) const;
  /// Lazily (re-)resolves cached metric handles when the engine's hub
  /// changes; one pointer compare on the hot path (net/vni.cpp idiom).
  void obs_refresh();

  net::Network& net_;
  sim::Host& host_;
  GroupConfig config_;
  Callbacks callbacks_;
  MemberId self_;
  /// Resolved once at construction (config override, else environment).
  Topology topology_ = Topology::kFlat;
  uint32_t fanout_ = 4;
  net::DatagramEndpointPtr endpoint_;
  sim::FiberPtr rx_fiber_;
  sim::FiberPtr tick_fiber_;
  bool shut_down_ = false;

  // Membership.
  View view_;
  bool in_view_ = false;
  bool leaving_ = false;
  std::vector<net::NetAddr> join_seeds_;

  // Delivery state (reset per view).
  uint64_t delivered_gseq_ = 0;
  std::map<uint64_t, OrderedMsg> holdback_;   ///< received, not yet deliverable
  std::map<uint64_t, OrderedMsg> delivered_;  ///< this view's log (flush retransmission)
  /// Highest msg_id delivered per origin (survives view changes): makes
  /// post-view-change re-sequencing idempotent.
  std::map<MemberId, uint64_t> last_delivered_msg_id_;

  // Sender state.
  uint64_t next_msg_id_ = 0;
  std::deque<std::pair<uint64_t, util::Bytes>> pending_;  ///< not yet self-delivered
  /// When the pending queue was last (re)submitted to the sequencer; a queue
  /// outstanding for multiple beats means the ORDER_REQ was lost on the wire.
  sim::Time pending_sent_at_ = 0;

  // Coordinator (sequencer) state.
  uint64_t next_gseq_ = 0;
  std::map<MemberId, uint64_t> last_sequenced_msg_id_;

  // Failure detection and stability, one slot per view member.
  std::vector<Peer> peers_;
  size_t suspect_count_ = 0;  ///< slots of peers_ with `suspected` set
  /// Our index in view_.members (-1 when not listed); under kTree also our
  /// index in the dissemination tree while in_view_.
  int self_slot_ = -1;
  /// slot_by_host_[h] is 1 + the slot of host h's member (0: none); the
  /// newest incarnation's when a view lists a host twice.
  std::vector<uint32_t> slot_by_host_;
  /// Since when heartbeats advertise a view newer than ours (0 = not
  /// behind); after a beat of grace we ask a peer to resend the INSTALL.
  sim::Time behind_since_ = 0;

  // Dissemination tree (rebuilt on every view install; empty under kFlat).
  uint32_t tree_depth_ = 0;             ///< depth of the deepest tree node
  std::vector<Member> tree_children_;   ///< our direct children
  std::vector<MemberId> tree_subtree_;  ///< members at/below us (incl. self)
  /// Aggregated liveness/progress table (tree mode): one slot per view
  /// member, refreshed by direct beats and gossiped summaries. Up-beats
  /// carry our subtree's rows, down-beats the whole table.
  std::map<MemberId, HbEntry> hb_table_;

  // View change state.
  Phase phase_ = Phase::kNormal;
  uint64_t change_view_id_ = 0;
  uint32_t change_attempt_ = 0;
  MemberId change_coordinator_;
  sim::Time flush_started_ = 0;
  sim::Time flush_deadline_ = 0;
  /// INSTALL of the current view (state snapshot stripped), kept to re-teach
  /// members whose copy was lost on the wire.
  WireMsg last_install_;
  // As change coordinator:
  std::map<MemberId, net::NetAddr> joiners_;
  std::set<MemberId> leavers_;
  /// Joiners/leavers snapshotted into the in-flight change.
  std::map<MemberId, net::NetAddr> change_joiners_;
  std::set<MemberId> change_leavers_;
  std::vector<Member> proposed_members_;
  std::set<MemberId> flush_waiting_;  ///< old members we still need FLUSH_OK from
  uint64_t flush_min_delivered_ = 0;

  // Stats.
  uint64_t messages_delivered_ = 0;
  uint64_t views_installed_ = 0;

  // Cached observability handles. Registry lookups are string-keyed map
  // lookups (and the histogram one builds a bucket spec), so per-message
  // paths resolve them once per hub and re-resolve only when the hub
  // pointer changes.
  obs::Hub* obs_hub_ = nullptr;
  obs::Counter* obs_delivered_ = nullptr;
  obs::Histogram* obs_holdback_depth_ = nullptr;
  obs::Counter* obs_seq_sends_ = nullptr;
  obs::Counter* obs_tree_forwards_ = nullptr;
  obs::Counter* obs_hb_up_ = nullptr;
  obs::Counter* obs_hb_down_ = nullptr;
  obs::Counter* obs_repairs_ = nullptr;
  obs::Counter* obs_install_retransmit_ = nullptr;
  obs::Counter* obs_decode_errors_ = nullptr;  ///< control datagrams dropped undecoded
};

}  // namespace starfish::gcs
