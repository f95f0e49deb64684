#include "gcs/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "util/log.hpp"

namespace starfish::gcs {

namespace {
constexpr const char* kLog = "gcs";

/// STARFISH_GCS_TOPOLOGY=flat|tree picks the dissemination topology for
/// every endpoint whose config did not pin one explicitly. Topology never
/// changes the delivered stream (tests/gcs_differential_test.cpp), so CI
/// tiers use this to drive the whole suite down the tree path without
/// editing each test.
Topology topology_from_env(const std::optional<Topology>& from_config) {
  if (from_config) return *from_config;
  const char* env = std::getenv("STARFISH_GCS_TOPOLOGY");
  if (env != nullptr && std::string_view(env) == "tree") return Topology::kTree;
  return Topology::kFlat;
}

std::pair<uint64_t, uint32_t> marker(uint64_t view_id, uint32_t attempt) {
  return {view_id, attempt};
}

/// Cap on ORDER resends per heartbeat when repairing a stalled member, so a
/// huge gap is streamed out a window at a time instead of in one burst.
constexpr int kMaxGapRepair = 64;

/// Moves m[from] to m[to], keeping the larger value if both keys exist.
template <typename V>
void remap_key(std::map<MemberId, V>& m, const MemberId& from, const MemberId& to) {
  auto it = m.find(from);
  if (it == m.end()) return;
  V& slot = m[to];
  slot = std::max(slot, it->second);
  m.erase(from);
}
}  // namespace

std::string View::to_string() const {
  std::string s = "view" + std::to_string(view_id) + "{";
  for (size_t i = 0; i < members.size(); ++i) {
    if (i) s += ",";
    s += members[i].id.to_string();
  }
  return s + "}";
}

GroupEndpoint::GroupEndpoint(net::Network& net, sim::Host& host, GroupConfig config,
                             Callbacks callbacks)
    : net_(net),
      host_(host),
      config_(config),
      callbacks_(std::move(callbacks)),
      self_{host.id(), host.incarnation()},
      topology_(topology_from_env(config.topology)),
      fanout_(config.tree_fanout),
      endpoint_(net.bind(host.id(), config.control_port, config.transport)) {
  obs_refresh();
}

GroupEndpoint::~GroupEndpoint() { shutdown(); }

void GroupEndpoint::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  endpoint_->close();
  // close() only *schedules* the parked rx fiber; it resumes at a later
  // engine step, by which time this object may already be destroyed (a
  // graceful teardown-and-rebind does exactly that). Kill both fibers so
  // they unwind via FiberKilled at their blocking points instead of
  // re-entering loops that read freed members. The rx fiber's spawn
  // lambda pins the datagram endpoint, so its wait-list self-removal on
  // the unwind path touches a live channel even after we are gone.
  if (rx_fiber_) net_.engine().kill(rx_fiber_);
  if (tick_fiber_) net_.engine().kill(tick_fiber_);
}

void GroupEndpoint::start_founding(const std::vector<net::NetAddr>& founders) {
  View v;
  v.view_id = 1;
  for (size_t i = 0; i < founders.size(); ++i) {
    // Our own entry carries our real incarnation (a founder restarted after
    // a crash is not incarnation 0); peers start at 0 and are upgraded by
    // resolve_sender() on first contact.
    const MemberId id =
        founders[i] == addr() ? self_ : MemberId{founders[i].host, 0};
    v.members.push_back(Member{id, static_cast<uint32_t>(i), founders[i]});
  }
  assert(v.contains(self_) && "founding list must include this endpoint");
  // Synthesize the INSTALL of the founding view so laggard re-teaching
  // (kInstallReq / stale kPrepare) works from view 1 onwards.
  last_install_ = base_msg(MsgKind::kInstall);
  last_install_.view_id = v.view_id;
  last_install_.members = v.members;
  view_ = v;
  in_view_ = true;
  change_view_id_ = v.view_id;
  change_attempt_ = 0;
  peers_.assign(view_.members.size(), Peer{.last_heard = net_.engine().now()});
  suspect_count_ = 0;
  views_installed_ = 1;
  index_view();

  // `ep` pins the channel the fiber parks on: a shutdown-then-destroy from
  // control code must leave the wait-list alive until the killed fiber
  // resumes and removes its own entry (see shutdown()).
  rx_fiber_ = host_.spawn("gcs-rx", [this, ep = endpoint_] {
    if (callbacks_.on_view) callbacks_.on_view(view_);
    rx_loop();
  });
  tick_fiber_ = host_.spawn("gcs-tick", [this] { tick_loop(); });
}

void GroupEndpoint::start_joining(const std::vector<net::NetAddr>& seeds) {
  join_seeds_ = seeds;
  rx_fiber_ = host_.spawn("gcs-rx", [this, ep = endpoint_] { rx_loop(); });
  tick_fiber_ = host_.spawn("gcs-tick", [this] { tick_loop(); });
}

void GroupEndpoint::leave() {
  if (!in_view_ || leaving_) return;
  leaving_ = true;
  if (is_coordinator()) {
    leavers_.insert(self_);
    if (phase_ == Phase::kNormal) initiate_change();
    return;
  }
  WireMsg msg = base_msg(MsgKind::kLeaveReq);
  msg.view_id = view_.view_id;  // lets the coordinator discard stale copies
  send_to_member(view_.coordinator(), msg.encode());
  // tick_loop() re-sends every beat until the view without us installs, so
  // a LEAVE_REQ lost on the wire cannot wedge the departure forever.
}

void GroupEndpoint::multicast(util::Bytes payload) {
  const uint64_t id = ++next_msg_id_;
  pending_.emplace_back(id, payload);
  pending_sent_at_ = net_.engine().now();
  if (in_view_ && phase_ == Phase::kNormal) {
    WireMsg msg = base_msg(MsgKind::kOrderReq);
    msg.msg_id = id;
    msg.payload = std::move(payload);
    send_to_member(view_.coordinator(), msg.encode());
  }
  // Otherwise held; resend_pending() submits it after the next install.
}

// ------------------------------------------------------------- fibers ----

void GroupEndpoint::rx_loop() {
  for (;;) {
    auto r = endpoint_->recv();
    if (!r.ok()) return;  // endpoint closed: shutdown or host crash
    auto decoded = WireMsg::decode(r.value->payload);
    if (!decoded.ok()) {
      drop_undecodable("control message", decoded.error());
      continue;
    }
    handle(decoded.value());
  }
}

void GroupEndpoint::tick_loop() {
  while (!shut_down_) {
    net_.engine().sleep(config_.heartbeat_period);
    if (shut_down_) return;
    const sim::Time now = net_.engine().now();

    if (!in_view_) {
      if (!join_seeds_.empty() && !leaving_) {
        const util::SharedBytes req = base_msg(MsgKind::kJoinReq).encode();
        for (const auto& seed : join_seeds_) {
          if (seed != addr()) send_to(seed, req);
        }
      }
      continue;
    }

    // Heartbeats advertising our view and delivery progress so peers can
    // garbage-collect stable messages (and so laggards notice a view they
    // missed). Flat: all-to-all, one encoding shared by every peer. Tree:
    // one aggregated summary up to the nearest live ancestor plus the full
    // table down to each child, so the coordinator sees O(k) streams
    // instead of O(n).
    WireMsg hb = base_msg(MsgKind::kHeartbeat);
    hb.view_id = view_.view_id;
    hb.delivered = delivered_gseq_;
    if (topology_ == Topology::kTree && view_.size() > 1) {
      send_tree_heartbeats(hb);
    } else {
      const util::SharedBytes beat = hb.encode();
      for (const auto& m : view_.members) {
        if (m.id != self_) send_to_member(m, beat);
      }
    }
    check_failures();

    // A departure request outstanding across a whole beat means the
    // LEAVE_REQ (or the resulting INSTALL) was lost; re-ask. The view tag
    // makes duplicates harmless and stale copies discardable.
    if (leaving_ && in_view_ && !is_coordinator() && phase_ == Phase::kNormal) {
      WireMsg lv = base_msg(MsgKind::kLeaveReq);
      lv.view_id = view_.view_id;
      send_to_member(view_.coordinator(), lv.encode());
    }

    // A multicast outstanding for multiple beats means its ORDER_REQ was
    // lost on the way to the sequencer (the heartbeat gap repair covers the
    // ORDER coming back). Resubmit; per-origin msg ids dedupe.
    if (phase_ == Phase::kNormal && !pending_.empty() &&
        now - pending_sent_at_ >= 2 * config_.heartbeat_period) {
      resend_pending();
    }

    // A flush stalled for multiple beats means PREPAREs or FLUSH_OKs were
    // lost; repropose to the members that have not answered yet.
    if (self_is_change_coordinator() && !flush_waiting_.empty() && now <= flush_deadline_ &&
        now - flush_started_ >= 2 * config_.heartbeat_period) {
      WireMsg prep = base_msg(MsgKind::kPrepare);
      prep.view_id = change_view_id_;
      prep.attempt = change_attempt_;
      prep.members = proposed_members_;
      prep.coord_delivered = delivered_gseq_;
      const util::SharedBytes bytes = prep.encode();
      for (const auto& m : view_.members) {
        if (flush_waiting_.contains(m.id)) send_to_member(m, bytes);
      }
    }

    // Flush stuck? The change coordinator must have died mid-change.
    if (phase_ == Phase::kFlushing && now > flush_deadline_) {
      if (const int slot = slot_of(change_coordinator_); slot >= 0 && slot != self_slot_) {
        suspect(static_cast<size_t>(slot));
      }
      maybe_initiate_change();
    }

    // Admit pending joiners / process leavers when quiescent.
    if (phase_ == Phase::kNormal && is_coordinator() &&
        (!joiners_.empty() || !leavers_.empty())) {
      initiate_change();
    }
  }
}

void GroupEndpoint::check_failures() {
  const sim::Time now = net_.engine().now();
  const bool tree = topology_ == Topology::kTree;
  // Tree mode: non-neighbors are only heard through gossip, which lags up
  // to a beat per tree level; pad their timeout accordingly so a healthy
  // member several hops away is not suspected on gossip latency alone.
  // (Direct-neighbor crashes still trip the base timeout, and the neighbor's
  // suspicion rumor reaches everyone at gossip speed, so detection latency
  // stays near-flat.)
  const sim::Duration gossip_slack =
      tree ? (2 * tree_depth_ + 2) * config_.heartbeat_period : 0;
  bool new_suspicion = false;
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (static_cast<int>(i) == self_slot_) continue;
    const sim::Duration timeout =
        tree && !tree_neighbor(i) ? config_.suspect_timeout + gossip_slack
                                  : config_.suspect_timeout;
    if (now - peers_[i].last_heard > timeout && suspect(i)) {
      new_suspicion = true;
      STARFISH_LOG(kInfo, kLog) << self_.to_string() << " suspects "
                                << view_.members[i].id.to_string();
    }
  }
  if (new_suspicion) maybe_initiate_change();
}

void GroupEndpoint::maybe_initiate_change() {
  if (!in_view_) return;
  // Only the lowest-ranked unsuspected member drives a change.
  const Member* leader = nullptr;
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (!peers_[i].suspected) {
      leader = &view_.members[i];
      break;
    }
  }
  if (leader == nullptr || leader->id != self_) return;
  const bool needed = !joiners_.empty() || !leavers_.empty() || suspect_count_ > 0;
  if (phase_ == Phase::kFlushing && change_coordinator_ == self_ &&
      net_.engine().now() <= flush_deadline_) {
    return;  // our own change is still in progress
  }
  if (needed) initiate_change();
}

void GroupEndpoint::initiate_change() {
  if (obs::Hub* hub = net_.engine().obs()) {
    hub->metrics.counter("gcs.flush_rounds").add(1);
    if (hub->tracer.enabled()) {
      hub->tracer.instant(static_cast<uint64_t>(net_.engine().now()), "gcs",
                          "flush-start view" + std::to_string(view_.view_id + 1), host_.id());
    }
  }
  change_view_id_ = view_.view_id + 1;
  ++change_attempt_;
  change_coordinator_ = self_;
  phase_ = Phase::kFlushing;
  flush_started_ = net_.engine().now();
  flush_deadline_ = flush_started_ + config_.flush_timeout;

  // Snapshot the joiners/leavers this change covers; requests arriving
  // during the flush are kept for the next change.
  change_joiners_ = joiners_;
  change_leavers_ = leavers_;

  // New membership: survivors minus leavers plus joiners.
  proposed_members_.clear();
  uint32_t max_rank = 0;
  for (size_t i = 0; i < view_.members.size(); ++i) {
    const Member& m = view_.members[i];
    max_rank = std::max(max_rank, m.rank);
    if (peers_[i].suspected || change_leavers_.contains(m.id)) continue;
    proposed_members_.push_back(m);
  }
  std::vector<std::pair<MemberId, net::NetAddr>> joiners(change_joiners_.begin(),
                                                         change_joiners_.end());
  for (size_t i = 0; i < joiners.size(); ++i) {
    proposed_members_.push_back(
        Member{joiners[i].first, max_rank + 1 + static_cast<uint32_t>(i), joiners[i].second});
  }

  // Everyone alive in the old view must flush (including departing leavers —
  // they may hold messages the survivors still need).
  flush_waiting_.clear();
  for (size_t i = 0; i < view_.members.size(); ++i) {
    if (static_cast<int>(i) == self_slot_ || peers_[i].suspected) continue;
    flush_waiting_.insert(view_.members[i].id);
  }
  // Floor of the retransmission tail: the lowest delivered gseq any flush
  // reports. Starts at "no report yet", NOT at our own delivered gseq — a
  // change coordinator that is itself the laggard would otherwise pin the
  // floor below every peer and re-ship messages all survivors already
  // delivered on every back-to-back view change. finish_change_if_ready()
  // clamps against our own (post-merge) delivered gseq.
  flush_min_delivered_ = std::numeric_limits<uint64_t>::max();

  WireMsg prep = base_msg(MsgKind::kPrepare);
  prep.view_id = change_view_id_;
  prep.attempt = change_attempt_;
  prep.members = proposed_members_;
  prep.coord_delivered = delivered_gseq_;
  const util::SharedBytes prep_bytes = prep.encode();
  for (const auto& m : view_.members) {
    if (flush_waiting_.contains(m.id)) send_to_member(m, prep_bytes);
  }
  STARFISH_LOG(kInfo, kLog) << self_.to_string() << " initiating view "
                            << change_view_id_ << " attempt " << change_attempt_;
  finish_change_if_ready();  // no peers to wait for on a 1-member group
}

void GroupEndpoint::finish_change_if_ready() {
  if (!self_is_change_coordinator() || !flush_waiting_.empty()) return;

  // Everything any survivor delivered is now in our log (virtual synchrony).
  deliver_ready();

  // Retransmit only above the view-wide stable point: the min delivered
  // gseq any flush advertised, clamped by our own now that the merge is
  // done (a 1-member flush has no reports; survivors never need messages
  // below what every one of them reported delivered).
  const uint64_t stable_floor = std::min(flush_min_delivered_, delivered_gseq_);
  std::vector<OrderedMsg> retransmit;
  for (const auto& [gseq, om] : delivered_) {
    if (gseq > stable_floor) retransmit.push_back(om);
  }
  obs_refresh();
  if (obs_install_retransmit_ != nullptr) obs_install_retransmit_->add(retransmit.size());

  WireMsg inst = base_msg(MsgKind::kInstall);
  inst.view_id = change_view_id_;
  inst.attempt = change_attempt_;
  inst.members = proposed_members_;
  inst.retransmit = std::move(retransmit);
  last_install_ = inst;  // kept to re-teach members whose copy is lost

  // Old members (and leavers) get the plain install; joiners also receive
  // the replicated-state snapshot. Each variant is encoded once.
  const util::SharedBytes plain = inst.encode();
  util::SharedBytes with_state;
  if (!change_joiners_.empty()) {
    inst.has_state = true;
    if (callbacks_.get_state) inst.state = callbacks_.get_state();
    with_state = inst.encode();
  }
  for (const auto& m : proposed_members_) {
    if (m.id == self_) continue;
    send_to_member(m, change_joiners_.contains(m.id) ? with_state : plain);
  }
  // Every old-view member missing from the new view — graceful leaver or
  // suspect — is taught the install that excludes it. For a real crash the
  // datagram lands on a dead host and is wasted; for a false suspicion it
  // is essential: nobody heartbeats the excluded member anymore, so without
  // this INSTALL it would suspect everyone in turn, wedge itself into a
  // singleton view and never trigger the auto-rejoin path.
  const View next_view{change_view_id_, proposed_members_};
  for (const auto& m : view_.members) {
    if (m.id != self_ && !next_view.contains(m.id)) send_to_member(m, plain);
  }

  for (const auto& [id, a] : change_joiners_) joiners_.erase(id);
  for (const auto& id : change_leavers_) leavers_.erase(id);
  change_joiners_.clear();
  change_leavers_.clear();
  install_view(View{change_view_id_, proposed_members_}, {});
}

// ------------------------------------------------------------ handlers ----

void GroupEndpoint::handle(const WireMsg& msg) {
  // Joins are the one message an endpoint legitimately sends before it is a
  // member, so they never resolve an incarnation (a rebooted host must be
  // excluded and re-admitted, not aliased onto its dead predecessor).
  const int slot = msg.kind == MsgKind::kJoinReq ? -1 : resolve_sender(msg);
  switch (msg.kind) {
    case MsgKind::kHeartbeat: handle_heartbeat(msg, slot); break;
    case MsgKind::kJoinReq: handle_join_req(msg); break;
    case MsgKind::kLeaveReq: handle_leave_req(msg, slot); break;
    case MsgKind::kOrderReq: handle_order_req(msg, slot); break;
    case MsgKind::kOrder: handle_order(msg, slot); break;
    case MsgKind::kPrepare: handle_prepare(msg); break;
    case MsgKind::kFlushOk: handle_flush_ok(msg); break;
    case MsgKind::kInstall: handle_install(msg); break;
    case MsgKind::kInstallReq: handle_install_req(msg); break;
  }
}

int GroupEndpoint::resolve_sender(const WireMsg& msg) {
  const int slot = slot_of(msg.from);
  if (slot >= 0 || !in_view_) return slot;
  for (size_t i = 0; i < view_.members.size(); ++i) {
    Member& m = view_.members[i];
    if (m.addr != msg.from_addr || m.id.host != msg.from.host ||
        m.id.incarnation >= msg.from.incarnation) {
      continue;
    }
    // The view records this host/address under an older incarnation (a
    // founding list assumes 0); the first message from the live endpoint
    // reveals the real one. Upgrade in place so failure detection, flushes
    // and sequencing address the member that actually exists.
    adopt_incarnation(m, msg.from);
    return static_cast<int>(i);
  }
  return -1;
}

int GroupEndpoint::slot_of(MemberId id) const {
  if (id.host < slot_by_host_.size()) {
    const uint32_t s = slot_by_host_[id.host];
    if (s != 0 && view_.members[s - 1].id == id) return static_cast<int>(s - 1);
  }
  return view_.index_of(id);  // not a member, or a host listed twice
}

bool GroupEndpoint::suspect(size_t slot) {
  if (peers_[slot].suspected) return false;
  peers_[slot].suspected = true;
  ++suspect_count_;
  return true;
}

void GroupEndpoint::adopt_incarnation(Member& m, MemberId fresh) {
  const MemberId old = m.id;
  m.id = fresh;
  // The member keeps its slot, so its peers_ state carries over as is.
  remap_key(last_delivered_msg_id_, old, m.id);
  remap_key(last_sequenced_msg_id_, old, m.id);
  if (flush_waiting_.erase(old) > 0) flush_waiting_.insert(m.id);
  if (change_coordinator_ == old) change_coordinator_ = m.id;
  for (auto& pm : proposed_members_) {
    if (pm.id == old) pm.id = m.id;
  }
  // The host table, the tree's Member copies and the gossip table are keyed
  // by id; rebuild them against the upgraded view.
  index_view();
  STARFISH_LOG(kInfo, kLog) << self_.to_string() << " resolved member " << old.to_string()
                            << " -> " << m.id.to_string();
}

void GroupEndpoint::handle_heartbeat(const WireMsg& msg, int slot) {
  const sim::Time now = net_.engine().now();
  if (slot >= 0) peers_[slot].last_heard = now;
  if (in_view_ && msg.view_id > view_.view_id) {
    // The sender installed a view we never saw: our INSTALL was lost. Give
    // it one beat of grace (the install may simply still be in flight),
    // then ask the sender to re-teach it.
    if (behind_since_ == 0) {
      behind_since_ = now;
    } else if (now - behind_since_ >= config_.heartbeat_period) {
      WireMsg req = base_msg(MsgKind::kInstallReq);
      req.view_id = view_.view_id;
      send_to(msg.from_addr, req.encode());
      behind_since_ = now;
    }
    return;  // the sender's gseq space is not ours: no stability / repair
  }
  if (msg.view_id < view_.view_id) return;  // stale: old gseq space
  behind_since_ = 0;
  obs_refresh();
  // Stability bookkeeping: a message every view member has delivered can
  // never be requested during a flush, so it is prunable from the log.
  if (slot >= 0) peers_[slot].delivered = std::max(peers_[slot].delivered, msg.delivered);

  // Tree mode: the beat aggregates observations about members we never hear
  // directly. Merge them (liveness, progress, suspicion rumors) and note
  // which ones carry a genuinely new observation — only those feed the
  // sequencer's stall repair, so gossip lag can't fake a repeated value.
  std::vector<std::pair<MemberId, uint64_t>> fresh_gossip;
  if (topology_ == Topology::kTree) {
    merge_hb_entry(
        HbEntry{msg.from, msg.view_id, msg.delivered, static_cast<uint64_t>(now), false});
    bool rumor = false;
    for (const auto& e : msg.hb_entries) {
      if (e.member == self_) continue;
      const bool fresh = merge_hb_entry(e);
      if (e.view_id != view_.view_id) continue;
      if (fresh) fresh_gossip.emplace_back(e.member, e.delivered);
      const int rumored = e.suspected ? slot_of(e.member) : -1;
      if (rumored >= 0 && suspect(static_cast<size_t>(rumored))) {
        rumor = true;
        STARFISH_LOG(kInfo, kLog) << self_.to_string() << " adopts suspicion of "
                                  << e.member.to_string() << " (rumor from "
                                  << msg.from.to_string() << ")";
      }
    }
    if (rumor) maybe_initiate_change();
  }

  if (phase_ != Phase::kNormal) return;
  gc_stable();

  // Gap repair (sequencer side): a peer whose advertised delivered repeats
  // while it was already behind us a full beat ago lost an ORDER; fault-free
  // a fan-out always lands well inside one beat, so this can only fire when
  // the wire actually dropped it. Resend the suffix it is missing. Tree
  // mode runs the same detector over freshly gossiped observations, so the
  // root repairs members it never hears directly (e.g. a subtree orphaned
  // by an interior crash).
  note_progress_and_repair(slot, msg.delivered);
  for (const auto& [member, delivered] : fresh_gossip) {
    if (member != msg.from) note_progress_and_repair(slot_of(member), delivered);
  }
}

void GroupEndpoint::note_progress_and_repair(int slot, uint64_t advertised) {
  if (slot < 0) return;
  Peer& peer = peers_[slot];
  if (is_coordinator() && delivered_gseq_ > advertised) {
    const bool stalled = peer.prev_advertised == advertised && peer.prev_ours > advertised;
    peer.prev_advertised = advertised;
    peer.prev_ours = delivered_gseq_;
    if (stalled && slot != self_slot_) {
      const Member& m = view_.members[slot];
      int resent = 0;
      for (auto it = delivered_.upper_bound(advertised);
           it != delivered_.end() && resent < kMaxGapRepair; ++it, ++resent) {
        WireMsg order = base_msg(MsgKind::kOrder);
        order.gseq = it->first;
        order.origin = it->second.origin;
        order.msg_id = it->second.msg_id;
        order.payload = it->second.payload;
        order.view_id = view_.view_id;
        if (topology_ == Topology::kTree) order.delivered = delivered_gseq_;
        send_to_member(m, order.encode());
      }
      if (resent > 0 && obs_repairs_ != nullptr) obs_repairs_->add(resent);
    }
  } else {
    peer.prev_advertised = 0;
    peer.prev_ours = 0;
  }
}

void GroupEndpoint::gc_stable() {
  // Early out: a peer whose advertised delivered gseq is at or below the
  // log's oldest entry pins `stable` there, so lower_bound(stable) is
  // begin() and nothing can be pruned. Returning at the first such peer
  // prunes exactly what the full minimum would; in steady state that peer
  // is found within a few lookups instead of one per view member per beat.
  if (delivered_.empty()) return;
  const uint64_t oldest = delivered_.begin()->first;
  uint64_t stable = delivered_gseq_;
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (static_cast<int>(i) == self_slot_) continue;
    const uint64_t advertised = peers_[i].delivered;
    if (advertised <= oldest) return;
    stable = std::min(stable, advertised);
  }
  delivered_.erase(delivered_.begin(), delivered_.lower_bound(stable));
}

bool GroupEndpoint::merge_hb_entry(const HbEntry& e) {
  auto it = hb_table_.find(e.member);
  if (it == hb_table_.end()) {
    // A gossiped row can reveal a live incarnation this member has never
    // heard from directly: in tree mode non-neighbors exchange no datagrams,
    // so a founder that rebooted before the group formed only ever reaches
    // us through aggregated tables. Upgrade the view entry exactly as a
    // direct message would (incarnations are monotone, so this is safe).
    for (auto& m : view_.members) {
      if (m.id.host == e.member.host && m.id.incarnation < e.member.incarnation) {
        adopt_incarnation(m, e.member);
        it = hb_table_.find(e.member);  // index_view() reseeded the table
        break;
      }
    }
    if (it == hb_table_.end()) return false;  // not a member of this view
  }
  HbEntry& slot = it->second;
  bool fresh = false;
  if (e.heard_at > slot.heard_at) {
    slot.view_id = e.view_id;
    slot.delivered = e.delivered;
    slot.heard_at = e.heard_at;
    fresh = true;
  }
  // Suspicion is monotonic within a view, so the flag ORs in regardless of
  // the observation's age (the rumor rides an entry whose heard_at froze
  // the moment its neighbor stopped hearing it).
  if (e.suspected && e.view_id == view_.view_id && !slot.suspected) {
    slot.suspected = true;
    fresh = true;
  }
  if (const int s = slot_of(e.member); s >= 0) {
    Peer& peer = peers_[s];
    peer.last_heard = std::max(peer.last_heard, static_cast<sim::Time>(e.heard_at));
    if (e.view_id == view_.view_id) peer.delivered = std::max(peer.delivered, e.delivered);
  }
  return fresh;
}

void GroupEndpoint::handle_join_req(const WireMsg& msg) {
  if (!in_view_ || !is_coordinator()) return;
  if (view_.contains(msg.from) || joiners_.contains(msg.from)) return;
  joiners_[msg.from] = msg.from_addr;
  STARFISH_LOG(kInfo, kLog) << self_.to_string() << " join request from "
                            << msg.from.to_string();
  if (phase_ == Phase::kNormal) initiate_change();
}

void GroupEndpoint::handle_leave_req(const WireMsg& msg, int slot) {
  if (!in_view_ || !is_coordinator()) return;
  if (slot < 0) return;
  // A LEAVE_REQ from an earlier view is a stale duplicate (the member
  // re-sends every beat until the departure installs); honoring it after
  // the member rejoined would kick it out again.
  if (msg.view_id != view_.view_id) return;
  leavers_.insert(msg.from);
  if (phase_ == Phase::kNormal) initiate_change();
}

void GroupEndpoint::handle_order_req(const WireMsg& msg, int slot) {
  if (!in_view_ || !is_coordinator() || phase_ != Phase::kNormal) return;
  if (slot < 0) return;
  // Idempotent re-sequencing after view changes: skip anything this origin
  // already had sequenced or delivered.
  auto seq_it = last_sequenced_msg_id_.find(msg.from);
  if (seq_it != last_sequenced_msg_id_.end() && msg.msg_id <= seq_it->second) return;
  auto del_it = last_delivered_msg_id_.find(msg.from);
  if (del_it != last_delivered_msg_id_.end() && msg.msg_id <= del_it->second) return;
  sequence_and_fanout(msg.from, msg.msg_id, msg.payload);
}

void GroupEndpoint::sequence_and_fanout(MemberId origin, uint64_t msg_id, util::Bytes payload) {
  last_sequenced_msg_id_[origin] = msg_id;
  WireMsg order = base_msg(MsgKind::kOrder);
  order.gseq = ++next_gseq_;
  order.origin = origin;
  order.msg_id = msg_id;
  order.view_id = view_.view_id;
  order.payload = std::move(payload);
  // Note: no blocking point inside this fan-out, so it is atomic with
  // respect to crashes of this coordinator — all live members receive it.
  obs_refresh();
  if (topology_ == Topology::kTree) {
    // Down the tree: ourselves (the root delivers through the same receive
    // path as everyone else) plus our direct children, who relay onward —
    // O(k) wire messages at the sequencer instead of O(n).
    order.delivered = delivered_gseq_;
    const util::SharedBytes bytes = order.encode();
    send_to(endpoint_->addr(), bytes);
    for (const auto& c : tree_children_) send_to_member(c, bytes);
    if (obs_seq_sends_ != nullptr) obs_seq_sends_->add(1 + tree_children_.size());
  } else {
    const util::SharedBytes bytes = order.encode();
    for (const auto& m : view_.members) send_to_member(m, bytes);
    if (obs_seq_sends_ != nullptr) obs_seq_sends_->add(view_.members.size());
  }
}

void GroupEndpoint::forward_order(const WireMsg& msg) {
  if (tree_children_.empty()) return;
  WireMsg relay = msg;
  relay.from = self_;
  relay.from_addr = endpoint_->addr();
  // Piggybacked ack: our delivered gseq rides every relayed ORDER, so
  // stability advances along the tree without dedicated ack messages.
  relay.delivered = delivered_gseq_;
  const util::SharedBytes bytes = relay.encode();
  for (const auto& c : tree_children_) send_to_member(c, bytes);
  if (obs_tree_forwards_ != nullptr) obs_tree_forwards_->add(tree_children_.size());
}

void GroupEndpoint::handle_order(const WireMsg& msg, int slot) {
  if (!in_view_ || phase_ != Phase::kNormal) return;
  // gseq spaces restart per view: a stale ORDER from an earlier view (its
  // sender crashed before installing, or the packet outlived the view) must
  // not park in — let alone shadow — this view's holdback slots.
  if (msg.view_id != view_.view_id) return;
  if (msg.gseq <= delivered_gseq_) return;  // duplicate
  if (holdback_.contains(msg.gseq)) return;  // duplicate (flush vs. repair overlap)
  obs_refresh();
  if (topology_ == Topology::kTree && msg.from != self_) {
    // Relay down the tree exactly once per gseq (the duplicate guards above
    // dedupe coordinator flushes against peer repairs), and bank the
    // sender's piggybacked delivered gseq for stability.
    if (slot >= 0) peers_[slot].delivered = std::max(peers_[slot].delivered, msg.delivered);
    forward_order(msg);
  }
  OrderedMsg om{msg.gseq, msg.origin, msg.msg_id, msg.payload};
  holdback_[om.gseq] = std::move(om);
  // Depth at its high-water point: just after queuing, before draining.
  if (obs_holdback_depth_ != nullptr) obs_holdback_depth_->record(holdback_.size());
  deliver_ready();
}

void GroupEndpoint::deliver_ready() {
  for (auto it = holdback_.begin();
       it != holdback_.end() && it->first == delivered_gseq_ + 1; it = holdback_.begin()) {
    OrderedMsg om = std::move(it->second);
    holdback_.erase(it);
    deliver(om);
  }
}

void GroupEndpoint::deliver(const OrderedMsg& msg) {
  delivered_gseq_ = msg.gseq;
  delivered_[msg.gseq] = msg;
  auto& last = last_delivered_msg_id_[msg.origin];
  last = std::max(last, msg.msg_id);
  if (msg.origin == self_) {
    while (!pending_.empty() && pending_.front().first <= msg.msg_id) pending_.pop_front();
  }
  ++messages_delivered_;
  obs_refresh();
  if (obs_delivered_ != nullptr) obs_delivered_->add(1);
  if (callbacks_.on_message) callbacks_.on_message(msg.origin, msg.payload);
}

void GroupEndpoint::handle_prepare(const WireMsg& msg) {
  if (!in_view_) return;
  if (msg.view_id <= view_.view_id) {
    // The proposer missed the INSTALL that completed this (or an earlier)
    // change — it may even have been excluded by it. Re-teach it the current
    // view instead of letting it propose ever-higher attempts forever.
    if (phase_ == Phase::kNormal && last_install_.view_id == view_.view_id) {
      send_to(msg.from_addr, last_install_.encode());
    }
    return;
  }
  if (msg.view_id > view_.view_id + 1) {
    // We are at least one whole view behind the proposer; our buffered
    // messages belong to an older gseq space and would corrupt the flush.
    // Ask for the INSTALL we missed instead of answering.
    WireMsg req = base_msg(MsgKind::kInstallReq);
    req.view_id = view_.view_id;
    send_to(msg.from_addr, req.encode());
    return;
  }
  const auto incoming = marker(msg.view_id, msg.attempt);
  const auto current = marker(change_view_id_, change_attempt_);
  if (incoming < current) return;
  if (incoming == current &&
      !(phase_ == Phase::kFlushing && change_coordinator_ == msg.from)) {
    return;
  }
  // An equal marker re-sent by the current change coordinator means our
  // FLUSH_OK was lost; answering again is idempotent.
  phase_ = Phase::kFlushing;
  change_view_id_ = msg.view_id;
  change_attempt_ = msg.attempt;
  change_coordinator_ = msg.from;
  flush_deadline_ = net_.engine().now() + config_.flush_timeout;

  WireMsg flush = base_msg(MsgKind::kFlushOk);
  flush.view_id = msg.view_id;
  flush.attempt = msg.attempt;
  flush.delivered = delivered_gseq_;
  for (const auto& [gseq, om] : delivered_) {
    if (gseq > msg.coord_delivered) flush.buffered.push_back(om);
  }
  // Forward the undelivered holdback too: messages parked behind a sequence
  // gap on our side must not die with the view — the coordinator may be
  // able to fill the gap from another member's flush and deliver them
  // (virtual synchrony), where discarding them would lose the message for
  // everyone if we were the only receiver.
  for (const auto& [gseq, om] : holdback_) {
    if (gseq > msg.coord_delivered) flush.buffered.push_back(om);
  }
  send_to(msg.from_addr, flush.encode());
}

void GroupEndpoint::handle_flush_ok(const WireMsg& msg) {
  if (!self_is_change_coordinator()) return;
  if (msg.view_id != change_view_id_ || msg.attempt != change_attempt_) return;
  if (!flush_waiting_.contains(msg.from)) return;
  flush_waiting_.erase(msg.from);
  flush_min_delivered_ = std::min(flush_min_delivered_, msg.delivered);
  for (const auto& om : msg.buffered) {
    if (om.gseq > delivered_gseq_ && !holdback_.contains(om.gseq)) holdback_[om.gseq] = om;
  }
  deliver_ready();
  finish_change_if_ready();
}

void GroupEndpoint::handle_install(const WireMsg& msg) {
  if (msg.view_id <= view_.view_id) return;  // stale
  // Complete the old view: deliver the retransmission tail in order. The
  // tail only makes sense for the view directly below the one installed —
  // gseq spaces restart per view, so a member that skipped a whole view
  // must not merge a foreign sequence space into its holdback.
  if (in_view_ && msg.view_id == view_.view_id + 1) {
    for (const auto& om : msg.retransmit) {
      if (om.gseq > delivered_gseq_ && !holdback_.contains(om.gseq)) holdback_[om.gseq] = om;
    }
    deliver_ready();
  }

  if (msg.has_state && callbacks_.set_state) callbacks_.set_state(msg.state);

  // Remember the install (snapshot stripped) for laggard re-teaching.
  last_install_ = msg;
  last_install_.has_state = false;
  last_install_.state.clear();
  behind_since_ = 0;

  View v{msg.view_id, msg.members};
  if (!v.contains(self_)) {
    // Excluded: we asked to leave, or a false suspicion cut us off.
    in_view_ = false;
    phase_ = Phase::kNormal;
    change_view_id_ = msg.view_id;
    change_attempt_ = msg.attempt;
    // Drop the old view's per-peer bookkeeping: staleness timestamps,
    // progress floors and suspicion state must not leak into a later
    // re-admission (a rejoiner inheriting a stale last-heard entry would be
    // suspected the moment it is back).
    // view_ stays the old view, so peers_ keeps its alignment with it.
    std::fill(peers_.begin(), peers_.end(), Peer{});
    suspect_count_ = 0;
    holdback_.clear();
    flush_waiting_.clear();
    tree_children_.clear();
    tree_subtree_.clear();
    hb_table_.clear();
    if (!leaving_) {
      // We never asked to leave (our heartbeats must have been lost):
      // rejoin through the survivors instead of silently dropping off.
      join_seeds_.clear();
      for (const auto& m : v.members) join_seeds_.push_back(m.addr);
    }
    if (callbacks_.on_view) callbacks_.on_view(v);
    return;
  }
  install_view(v, msg.retransmit);
}

void GroupEndpoint::handle_install_req(const WireMsg& msg) {
  if (!in_view_ || phase_ != Phase::kNormal) return;
  if (msg.view_id >= view_.view_id) return;  // requester is not behind us
  if (last_install_.view_id != view_.view_id) return;
  send_to(msg.from_addr, last_install_.encode());
}

void GroupEndpoint::install_view(const View& v, const std::vector<OrderedMsg>&) {
  if (obs::Hub* hub = net_.engine().obs()) {
    hub->metrics.counter("gcs.views_installed").add(1);
    if (obs::Tracer* t = net_.engine().tracer()) {
      const auto now = static_cast<uint64_t>(net_.engine().now());
      // Flushing members render the whole blocked window as a span; members
      // installed without flushing (joiners) get an instant marker.
      if (phase_ == Phase::kFlushing && flush_started_ > 0) {
        t->complete(static_cast<uint64_t>(flush_started_),
                    now - static_cast<uint64_t>(flush_started_), "gcs",
                    "view-change view" + std::to_string(v.view_id), host_.id());
      } else {
        t->instant(now, "gcs", "view-installed view" + std::to_string(v.view_id), host_.id());
      }
    }
  }
  // Members joining in this view start their per-origin msg-id counters
  // afresh: a member that left gracefully and later rejoined under the same
  // incarnation numbers its multicasts from 1 again, and a stale high-water
  // mark from its previous tenure would silently discard every one of them.
  for (const auto& m : v.members) {
    if (!view_.contains(m.id)) last_delivered_msg_id_.erase(m.id);
  }
  view_ = v;
  in_view_ = true;
  delivered_gseq_ = 0;
  next_gseq_ = 0;
  holdback_.clear();
  delivered_.clear();
  last_sequenced_msg_id_ = last_delivered_msg_id_;
  phase_ = Phase::kNormal;
  change_view_id_ = v.view_id;
  change_attempt_ = 0;
  peers_.assign(view_.members.size(), Peer{.last_heard = net_.engine().now()});
  suspect_count_ = 0;
  behind_since_ = 0;
  index_view();
  ++views_installed_;
  STARFISH_LOG(kInfo, kLog) << self_.to_string() << " installed " << view_.to_string();
  if (callbacks_.on_view) callbacks_.on_view(view_);
  resend_pending();
}

void GroupEndpoint::resend_pending() {
  if (!in_view_ || pending_.empty()) return;
  pending_sent_at_ = net_.engine().now();
  for (const auto& [id, payload] : pending_) {
    WireMsg msg = base_msg(MsgKind::kOrderReq);
    msg.msg_id = id;
    msg.payload = payload;
    send_to_member(view_.coordinator(), msg.encode());
  }
}

// ------------------------------------------------------------- helpers ----

void GroupEndpoint::send_to(const net::NetAddr& addr, util::SharedBytes bytes) {
  endpoint_->send(addr, std::move(bytes));
}

WireMsg GroupEndpoint::base_msg(MsgKind kind) const {
  WireMsg msg;
  msg.kind = kind;
  msg.from = self_;
  msg.from_addr = endpoint_->addr();
  return msg;
}

bool GroupEndpoint::self_is_change_coordinator() const {
  return phase_ == Phase::kFlushing && change_coordinator_ == self_;
}

// ------------------------------------------------- dissemination tree ----

uint32_t GroupEndpoint::node_depth(size_t index) const {
  uint32_t d = 0;
  for (size_t i = index; i > 0; i = (i - 1) / fanout_) ++d;
  return d;
}

void GroupEndpoint::index_view() {
  self_slot_ = view_.index_of(self_);
  // Sized by the fabric, not by the ids a (possibly forged) INSTALL names;
  // a member outside the table is found by slot_of's scan.
  slot_by_host_.assign(net_.host_count(), 0);
  for (size_t i = 0; i < view_.members.size(); ++i) {
    const MemberId& id = view_.members[i].id;
    if (id.host >= slot_by_host_.size()) continue;
    uint32_t& s = slot_by_host_[id.host];
    if (s == 0 || view_.members[s - 1].id.incarnation < id.incarnation) {
      s = static_cast<uint32_t>(i + 1);
    }
  }
  tree_depth_ = 0;
  tree_children_.clear();
  tree_subtree_.clear();
  hb_table_.clear();
  if (topology_ != Topology::kTree || self_slot_ < 0) return;
  const size_t n = view_.members.size();
  const size_t k = fanout_;
  const size_t self_index = static_cast<size_t>(self_slot_);
  tree_depth_ = node_depth(n - 1);
  for (size_t c = k * self_index + 1; c <= k * self_index + k && c < n; ++c) {
    tree_children_.push_back(view_.members[c]);
  }
  std::vector<size_t> stack{self_index};
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    tree_subtree_.push_back(view_.members[i].id);
    for (size_t c = k * i + 1; c <= k * i + k && c < n; ++c) stack.push_back(c);
  }
  const auto now = static_cast<uint64_t>(net_.engine().now());
  for (const auto& m : view_.members) {
    hb_table_[m.id] = HbEntry{m.id, view_.view_id, 0, now, false};
  }
}

const Member* GroupEndpoint::tree_parent() const {
  if (topology_ != Topology::kTree || self_slot_ <= 0) return nullptr;
  return &view_.members[(static_cast<size_t>(self_slot_) - 1) / fanout_];
}

const Member* GroupEndpoint::up_target() const {
  if (topology_ != Topology::kTree || self_slot_ <= 0) return nullptr;
  size_t i = static_cast<size_t>(self_slot_);
  while (i > 0) {
    i = (i - 1) / fanout_;
    // Skip over crashed interior ancestors so our subtree's summaries keep
    // reaching the root while the view change is still in flight.
    if (!peers_[i].suspected) return &view_.members[i];
  }
  return nullptr;
}

bool GroupEndpoint::tree_neighbor(size_t slot) const {
  if (topology_ != Topology::kTree || self_slot_ < 0) return false;
  const size_t self = static_cast<size_t>(self_slot_);
  if (self > 0 && slot == (self - 1) / fanout_) return true;
  return slot >= fanout_ * self + 1 && slot <= fanout_ * self + fanout_;
}

void GroupEndpoint::send_tree_heartbeats(const WireMsg& hb) {
  const auto now = static_cast<uint64_t>(net_.engine().now());
  // Refresh our own row; mark our direct suspicions so they gossip outward
  // as rumors (the coordinator adopts them instead of waiting out its
  // gossip-lag-padded timeout).
  if (auto it = hb_table_.find(self_); it != hb_table_.end()) {
    it->second.view_id = view_.view_id;
    it->second.delivered = delivered_gseq_;
    it->second.heard_at = now;
  }
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (!peers_[i].suspected) continue;
    if (auto it = hb_table_.find(view_.members[i].id); it != hb_table_.end()) {
      it->second.suspected = true;
    }
  }
  obs_refresh();
  // Fragmentation fallback: a suspect means the tree is broken somewhere —
  // a dead interior node cuts its whole subtree off from the gossip flow,
  // and a dead root cuts *everyone* off (its other children stop receiving
  // any traffic at all and would falsely suspect the entire group in turn).
  // Until the view change installs a repaired tree, beat every unsuspected
  // member directly with the full table: connectivity degrades to flat for
  // the bounded failure window instead of shattering into
  // mutual-false-suspicion islands.
  if (suspect_count_ > 0) {
    WireMsg m = hb;
    m.hb_entries.reserve(hb_table_.size());
    for (const auto& [id, e] : hb_table_) m.hb_entries.push_back(e);
    const util::SharedBytes bytes = m.encode();
    uint64_t sent = 0;
    for (size_t i = 0; i < view_.members.size(); ++i) {
      if (static_cast<int>(i) == self_slot_ || peers_[i].suspected) continue;
      send_to_member(view_.members[i], bytes);
      ++sent;
    }
    if (sent > 0 && obs_hb_down_ != nullptr) obs_hb_down_->add(sent);
    return;
  }
  if (const Member* up = up_target()) {
    WireMsg m = hb;
    m.hb_entries.reserve(tree_subtree_.size());
    for (const MemberId& id : tree_subtree_) {
      if (auto it = hb_table_.find(id); it != hb_table_.end()) {
        m.hb_entries.push_back(it->second);
      }
    }
    send_to_member(*up, m.encode());
    if (obs_hb_up_ != nullptr) obs_hb_up_->add(1);
  }
  if (!tree_children_.empty()) {
    WireMsg m = hb;
    m.hb_entries.reserve(hb_table_.size());
    for (const auto& [id, e] : hb_table_) m.hb_entries.push_back(e);
    const util::SharedBytes bytes = m.encode();
    uint64_t sent = 0;
    size_t slot = fanout_ * static_cast<size_t>(self_slot_);  // children follow in order
    for (const auto& c : tree_children_) {
      if (peers_[++slot].suspected) continue;  // dead child: nothing to teach
      send_to_member(c, bytes);
      ++sent;
    }
    if (sent > 0 && obs_hb_down_ != nullptr) obs_hb_down_->add(sent);
  }
}

void GroupEndpoint::drop_undecodable(const char* what, const util::Error& error) {
  obs_refresh();
  if (obs_decode_errors_ != nullptr) obs_decode_errors_->add(1);
  STARFISH_LOG(kWarn, kLog) << self_.to_string() << " dropping undecodable " << what << ": "
                            << error.to_string();
}

void GroupEndpoint::obs_refresh() {
  obs::Hub* hub = net_.engine().obs();
  if (hub == obs_hub_) return;
  obs_hub_ = hub;
  if (hub == nullptr) {
    obs_delivered_ = nullptr;
    obs_holdback_depth_ = nullptr;
    obs_seq_sends_ = nullptr;
    obs_tree_forwards_ = nullptr;
    obs_hb_up_ = nullptr;
    obs_hb_down_ = nullptr;
    obs_repairs_ = nullptr;
    obs_install_retransmit_ = nullptr;
    obs_decode_errors_ = nullptr;
    return;
  }
  obs_delivered_ = &hub->metrics.counter("gcs.messages_delivered");
  obs_holdback_depth_ =
      &hub->metrics.histogram("gcs.holdback_depth", obs::HistogramSpec::exponential(1, 2.0, 12));
  obs_seq_sends_ = &hub->metrics.counter("gcs.seq.order_sends");
  obs_tree_forwards_ = &hub->metrics.counter("gcs.tree.order_forwards");
  obs_hb_up_ = &hub->metrics.counter("gcs.tree.hb_up_msgs");
  obs_hb_down_ = &hub->metrics.counter("gcs.tree.hb_down_msgs");
  obs_repairs_ = &hub->metrics.counter("gcs.seq.order_repairs");
  obs_install_retransmit_ = &hub->metrics.counter("gcs.install_retransmit_msgs");
  obs_decode_errors_ = &hub->metrics.counter("gcs.decode_errors");
}

}  // namespace starfish::gcs
