#include "core/cr.hpp"

#include "ckpt/incremental.hpp"
#include "core/process.hpp"
#include "util/log.hpp"

namespace starfish::core {

namespace {
constexpr const char* kLog = "cr";

/// Stop-and-sync coordination cost per *remote* member, charged serially at
/// the initiator while it collects acknowledgements: stopping a remote
/// process, draining its channels and collecting its ack took the paper's
/// prototype noticeable wall-clock per node (1999 Linux signal delivery +
/// loaded control plane). Calibrated against Figure 4's node-count deltas:
/// 1 -> 2 nodes adds ~13 ms and 2 -> 4 adds ~32 ms (we charge 15 ms per
/// remote member: +15 ms at n=2, +45 ms at n=4, matching Figure 4 within a
/// few ms and Figure 3 within ~10 ms).
constexpr sim::Duration kPerMemberSyncCost = sim::milliseconds(15);

/// Cost of the fork + copy-on-write setup in forked checkpointing
/// (page-table duplication on a late-90s workstation).
constexpr sim::Duration kForkCost = sim::milliseconds(3);

// The full-epoch grid (every kFullEvery-th epoch is self-contained) lives
// in ckpt/incremental.hpp: the store's payload delta codec anchors its
// chains on it, so the gc keep line below must agree with it.
using ckpt::last_full_at_or_before;

}  // namespace

util::Bytes Container::encode() const {
  size_t size = 4 + tracker.size() + 4 + app_state.size() + 4 + channel_state.size() + 4;
  for (const auto& e : recorded) size += 4 + 4 + 4 + 4 + 4 + e.data.size();
  util::Bytes out;
  util::Writer w(out);
  w.reserve(size);
  w.bytes(tracker);
  w.bytes(app_state);
  w.bytes(channel_state);
  w.u32(static_cast<uint32_t>(recorded.size()));
  for (const auto& e : recorded) mpi::put_envelope(w, e);
  return out;
}

util::Result<Container> Container::decode(util::BytesView payload) {
  util::Reader r(payload);
  Container c;
  c.tracker = r.view();
  c.app_state = r.view();
  c.channel_state = r.view();
  c.recorded.resize(r.count(mpi::kEnvelopeMinBytes, "recorded count exceeds the container"));
  for (mpi::Envelope& e : c.recorded) e = mpi::get_envelope(r);
  return r.finish(std::move(c), "a checkpoint container");
}

util::Bytes CoordMsg::encode() const {
  util::Bytes payload;
  util::Writer w(payload);
  w.u8(static_cast<uint8_t>(kind));
  w.u64(epoch);
  w.u32(from);
  return payload;
}

util::Result<CoordMsg> CoordMsg::decode(util::BytesView bytes) {
  util::Reader r(bytes);
  CoordMsg m;
  m.kind = r.enum_u8(Kind::kPrepare, Kind::kCommit, "coordination message kind");
  m.epoch = r.u64();
  m.from = r.u32();
  return r.finish(std::move(m), "a coordination message");
}

util::Bytes encode_marker_epoch(uint64_t epoch) {
  util::Bytes b;
  util::Writer w(b);
  w.u64(epoch);
  return b;
}

util::Result<uint64_t> decode_marker_epoch(util::BytesView payload) {
  util::Reader r(payload);
  const uint64_t epoch = r.u64();
  return r.finish(epoch, "a marker epoch");
}

CrModule::CrModule(ApplicationProcess& process)
    : process_(process), tracker_(process.rank()) {}

void CrModule::start() {
  const auto protocol = process_.job().protocol;
  const sim::Duration interval = process_.job().ckpt_interval;
  if (protocol == daemon::CrProtocol::kNone || interval <= 0) return;
  if (protocol == daemon::CrProtocol::kUncoordinated) {
    // Independent timers, staggered so nodes don't hammer their disks in
    // lockstep (and to make interesting dependency patterns likely).
    const sim::Duration offset =
        interval * static_cast<sim::Duration>(process_.rank()) /
        static_cast<sim::Duration>(std::max(1u, process_.nprocs()));
    process_.spawn_owned("cr-timer", [this, interval, offset] {
      process_.engine().sleep(offset);
      while (!process_.done()) {
        process_.engine().sleep(interval);
        if (!process_.done()) take_uncoordinated_checkpoint();
      }
    });
    return;
  }
  // Coordinated protocols: rank 0 initiates on the period.
  if (process_.rank() != 0) return;
  process_.spawn_owned("cr-timer", [this, interval] {
    while (!process_.done()) {
      process_.engine().sleep(interval);
      if (!process_.done()) request_checkpoint();
    }
  });
}

void CrModule::request_checkpoint() {
  switch (process_.job().protocol) {
    case daemon::CrProtocol::kNone:
      return;
    case daemon::CrProtocol::kUncoordinated:
      take_uncoordinated_checkpoint();
      return;
    case daemon::CrProtocol::kStopAndSync: {
      if (active_epoch_ != 0) return;  // one at a time
      const uint64_t epoch = last_committed_ + 1;
      initiating_ = true;
      acks_.clear();
      process_.store().note_begin(process_.job().name, epoch);
      send_coord(CoordKind::kPrepare, epoch);
      // We begin like everyone else when our own PREPARE is relayed back.
      return;
    }
    case daemon::CrProtocol::kChandyLamport: {
      if (active_epoch_ != 0) return;
      process_.store().note_begin(process_.job().name, last_committed_ + 1);
      begin_chandy_lamport(last_committed_ + 1, /*initiator=*/true);
      return;
    }
  }
}

// ----------------------------------------------------------- messaging ----

void CrModule::send_coord(CoordKind kind, uint64_t epoch) {
  daemon::LinkMsg msg;
  msg.kind = daemon::LinkKind::kCoordSend;
  msg.payload = CoordMsg{kind, epoch, process_.rank()}.encode();
  process_.send_uplink(std::move(msg));
}

void CrModule::drop_undecodable(const char* what, const util::Error& error) {
  if (obs::Hub* hub = process_.engine().obs()) {
    hub->metrics.counter("ckpt.decode_errors").add(1);
  }
  STARFISH_LOG(kWarn, kLog) << process_.job().name << " rank " << process_.rank()
                            << " dropping undecodable " << what << ": " << error.to_string();
}

void CrModule::on_coord(const util::Bytes& payload) {
  auto decoded = CoordMsg::decode(util::as_bytes_view(payload));
  if (!decoded.ok()) {
    drop_undecodable("coordination message", decoded.error());
    return;
  }
  const uint64_t epoch = decoded.value().epoch;
  switch (decoded.value().kind) {
    case CoordKind::kPrepare:
      if (epoch <= last_committed_ || active_epoch_ == epoch) return;
      if (process_.job().protocol == daemon::CrProtocol::kStopAndSync) {
        begin_stop_and_sync(epoch);
      }
      return;
    case CoordKind::kAck:
      handle_ack(epoch, decoded.value().from);
      return;
    case CoordKind::kCommit:
      if (epoch <= last_committed_) return;
      last_committed_ = epoch;
      active_epoch_ = 0;
      if (frozen_by_us_) {
        process_.proc().thaw();
        blocked_time_ += process_.engine().now() - freeze_started_;
        frozen_by_us_ = false;
      }
      process_.bus().post(Event{EventKind::kCheckpointDone, {}, epoch});
      return;
  }
}

void CrModule::handle_ack(uint64_t epoch, uint32_t from) {
  if (!initiating_ || epoch != active_epoch_) return;
  if (!acks_.contains(from) && from != process_.rank() &&
      process_.job().protocol == daemon::CrProtocol::kStopAndSync) {
    process_.engine().advance(kPerMemberSyncCost);
    if (!initiating_ || epoch != active_epoch_) return;  // re-check after blocking
  }
  acks_.insert(from);
  if (acks_.size() < process_.nprocs()) return;
  // Every rank's image is on stable storage: commit the recovery line and
  // garbage-collect older epochs. Payload codec delta chains need their
  // base images back to the last full epoch to stay restorable.
  process_.store().commit(process_.job().name, epoch);
  const uint64_t keep =
      process_.store().compress_chained() ? last_full_at_or_before(epoch) : epoch;
  process_.store().gc(process_.job().name, keep);
  initiating_ = false;
  send_coord(CoordKind::kCommit, epoch);
}

// --------------------------------------------------------- stop & sync ----

void CrModule::begin_stop_and_sync(uint64_t epoch) {
  active_epoch_ = epoch;
  sync_captured_ = false;
  freeze_started_ = process_.engine().now();
  process_.proc().freeze();
  frozen_by_us_ = true;
  process_.proc().send_marker(mpi::FrameKind::kFlushMarker, mpi::kWorldCommId,
                              encode_marker_epoch(epoch));
  maybe_capture_stop_and_sync();
}

void CrModule::on_control_frame(const mpi::Frame& frame) {
  auto decoded = decode_marker_epoch(frame.payload);
  if (!decoded.ok()) {
    drop_undecodable("marker", decoded.error());
    return;
  }
  const uint64_t epoch = decoded.value();
  if (frame.kind == mpi::FrameKind::kFlushMarker) {
    markers_seen_[epoch].insert(frame.src_rank);
    if (epoch == active_epoch_) maybe_capture_stop_and_sync();
    return;
  }
  if (frame.kind == mpi::FrameKind::kClMarker) {
    if (process_.job().protocol != daemon::CrProtocol::kChandyLamport) return;
    if (!cl_active_ && epoch > last_committed_) {
      begin_chandy_lamport(epoch, /*initiator=*/false);
    }
    if (epoch != active_epoch_) return;
    cl_markers_from_.insert(frame.src_rank);
    if (cl_markers_from_.size() >= process_.nprocs() - 1) finish_chandy_lamport();
    return;
  }
}

void CrModule::maybe_capture_stop_and_sync() {
  if (!frozen_by_us_ || sync_captured_ || active_epoch_ == 0) return;
  const auto& seen = markers_seen_[active_epoch_];
  if (seen.size() < process_.nprocs() - 1) return;
  // Channels are drained (every peer's data preceded its marker, FIFO).
  sync_captured_ = true;
  markers_seen_.erase(active_epoch_);
  process_.proc().wait_rendezvous_drained();

  if (process_.job().forked_ckpt) {
    // Forked (copy-on-write) checkpointing [33]: snapshot in memory, resume
    // the application immediately, write to disk in the background. The
    // blocking time shrinks from disk-write-dominated to fork-dominated.
    util::Bytes app_state = process_.capture_app_state();
    util::Bytes channel_state = process_.proc().capture_channel_state();
    process_.engine().advance(kForkCost);
    process_.proc().thaw();
    blocked_time_ += process_.engine().now() - freeze_started_;
    frozen_by_us_ = false;
    const uint64_t epoch = active_epoch_;
    process_.spawn_owned("ckpt-writer",
                         [this, epoch, app_state = std::move(app_state),
                          channel_state = std::move(channel_state)]() mutable {
                           store_image(epoch, std::move(app_state), std::move(channel_state),
                                       {});
                           send_coord(CoordKind::kAck, epoch);
                         });
    return;
  }

  store_image(active_epoch_, process_.capture_app_state(),
              process_.proc().capture_channel_state(), {});
  send_coord(CoordKind::kAck, active_epoch_);
}

// ------------------------------------------------------ chandy-lamport ----

void CrModule::begin_chandy_lamport(uint64_t epoch, bool initiator) {
  active_epoch_ = epoch;
  initiating_ = initiator;
  if (initiator) acks_.clear();
  cl_active_ = true;
  cl_markers_from_.clear();
  cl_recorded_.clear();
  // Local snapshot, taken immediately — the application is NOT stopped.
  process_.proc().drain_for_snapshot();
  cl_app_state_ = process_.capture_app_state();
  cl_channel_state_ = process_.proc().capture_channel_state();
  process_.proc().send_marker(mpi::FrameKind::kClMarker, mpi::kWorldCommId,
                              encode_marker_epoch(epoch));
  if (process_.nprocs() == 1) finish_chandy_lamport();
}

void CrModule::on_recv_tap(const mpi::Envelope& env) {
  if (!cl_active_ || env.is_rts) return;
  if (cl_markers_from_.contains(env.src)) return;  // channel already cut
  cl_recorded_.push_back(env);
}

void CrModule::finish_chandy_lamport() {
  cl_active_ = false;
  store_image(active_epoch_, std::move(cl_app_state_), std::move(cl_channel_state_),
              std::move(cl_recorded_));
  send_coord(CoordKind::kAck, active_epoch_);
  cl_recorded_.clear();
  cl_app_state_.clear();
  cl_channel_state_.clear();
}

// ------------------------------------------------------- uncoordinated ----

void CrModule::take_uncoordinated_checkpoint() {
  const sim::Time start = process_.engine().now();
  process_.proc().freeze();
  process_.proc().wait_rendezvous_drained();
  const auto [index, deps] = tracker_.cut_checkpoint();
  (void)deps;
  // Deliberately no channel capture: an unconsumed inbox message is neither
  // in the dependency set (on_recv fires at consumption) nor in the sender's
  // surviving send ledger once the line rolls the sender back — restoring a
  // stored copy AND replaying the rolled-back send would duplicate it. The
  // recovery line instead treats everything unconsumed at the cut as
  // in-flight: the lost-message rule rolls the sender back and the
  // re-execution regenerates it exactly once.
  store_image(index, process_.capture_app_state(), {}, {});
  process_.store().put_meta(
      ckpt::CkptKey{process_.job().name, process_.rank(), index}, tracker_.encode());
  process_.proc().thaw();
  blocked_time_ += process_.engine().now() - start;
}

// -------------------------------------------------------------- images ----

void CrModule::store_image(uint64_t epoch, util::Bytes app_state, util::Bytes channel_state,
                           std::vector<mpi::Envelope> recorded) {
  ckpt::Image img =
      build_image(std::move(app_state), std::move(channel_state), std::move(recorded));

  const ckpt::CkptKey key{process_.job().name, process_.rank(), epoch};
  if (process_.store().backend() == ckpt::CkptBackend::kReplica &&
      process_.store().replicas() != nullptr) {
    // Diskless path: place copies on the peers that follow this rank's
    // host in the placement ring. Computed from this process's own world
    // view, so every writer derives the same holder set.
    std::vector<sim::HostId> hosts = process_.rank_hosts();
    if (hosts.empty()) hosts = std::vector<sim::HostId>{process_.host().id()};
    const auto holders = ckpt::replica_holders(
        hosts, process_.rank(), process_.store().replicas()->options().replication);
    process_.store().put(process_.host(), key, std::move(img), holders);
  } else {
    process_.store().put(process_.host(), key, std::move(img));
  }
  ++checkpoints_taken_;
  if (obs::Hub* hub = process_.engine().obs()) {
    hub->metrics.counter("ckpt.checkpoints_taken").add(1);
  }
  STARFISH_LOG(kDebug, kLog) << process_.job().name << " rank " << process_.rank()
                             << " stored checkpoint " << epoch;
}

ckpt::Image CrModule::build_image(util::Bytes app_state, util::Bytes channel_state,
                                  std::vector<mpi::Envelope> recorded) {
  ckpt::Image img;
  const bool portable =
      process_.job().level == daemon::CkptLevel::kVm && process_.is_vm_app();
  if (obs::Hub* hub = process_.engine().obs()) {
    hub->metrics.counter("ckpt.pages_written")
        .add((app_state.size() + ckpt::kPageBytes - 1) / ckpt::kPageBytes);
  }
  const util::Bytes tracker = tracker_.encode();
  img.kind = portable ? ckpt::ImageKind::kPortable : ckpt::ImageKind::kNative;
  img.repr_code = process_.host().machine().repr_code();
  img.payload = Container{tracker, app_state, channel_state, std::move(recorded)}.encode();
  img.file_bytes =
      (portable ? ckpt::kPortableBaseBytes : ckpt::kNativeBaseBytes) + img.payload.size();
  return img;
}

// ------------------------------------------------------------- restore ----

util::Result<RestoredState> CrModule::restore(uint64_t epoch) {
  auto img = process_.store().get(process_.host(),
                                  ckpt::CkptKey{process_.job().name, process_.rank(), epoch});
  if (!img) {
    return util::Error::make("missing", "no checkpoint at epoch " + std::to_string(epoch));
  }
  if (img->kind == ckpt::ImageKind::kNative &&
      img->repr_code != process_.host().machine().repr_code()) {
    return util::Error::make(
        "repr-mismatch",
        "native checkpoint cannot restore on a different machine representation");
  }
  auto container = Container::decode(img->payload);
  if (!container.ok()) return container.error();
  Container& c = container.value();
  auto tracker = ckpt::DependencyTracker::decode(c.tracker);
  if (!tracker.ok()) return tracker.error();
  auto channel = mpi::decode_channel_state(c.channel_state);
  if (!channel.ok()) return channel.error();
  for (auto& e : c.recorded) channel.value().push_back(std::move(e));
  // The app state is copied out and the image freed before a VM state is
  // decoded from it, so the image and the decoded state never coexist. A
  // native image of a VM app holds the same encoding; its repr matched.
  ckpt::Image app;
  app.kind = ckpt::ImageKind::kPortable;
  app.repr_code = img->repr_code;
  app.payload.assign(c.app_state.begin(), c.app_state.end());
  img.reset();
  RestoredState out;
  if (process_.is_vm_app()) {
    auto state = ckpt::portable_decode(app, process_.host().machine());
    if (!state.ok()) return state.error();
    out.vm = std::move(state).take();
  } else {
    out.app_state = std::move(app.payload);
  }

  tracker_ = std::move(tracker).take();
  process_.proc().set_dependency_tracker(&tracker_);
  process_.proc().restore_channel_state(std::move(channel).take());
  if (process_.job().protocol != daemon::CrProtocol::kUncoordinated) {
    last_committed_ = epoch;
  }
  return out;
}

}  // namespace starfish::core
