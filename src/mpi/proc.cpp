#include "mpi/proc.hpp"

#include <cassert>

#include "obs/obs.hpp"
#include "util/log.hpp"

namespace starfish::mpi {

struct Request::State {
  Proc* owner = nullptr;
  bool is_recv = false;
  bool send_done = false;
  PostedRecv posted;  ///< is_recv: lives here while linked into posted_
  sim::FiberPtr sender_fiber;

  /// Dropping a request without wait() must unlink the posted entry, or the
  /// matcher would write through a dangling pointer.
  ~State() {
    if (owner != nullptr && is_recv) {
      std::erase(owner->posted_, &posted);
      std::erase_if(owner->rdv_recvs_, [this](const auto& kv) { return kv.second == &posted; });
    }
  }
};

Proc::Proc(net::Network& net, sim::Host& host, net::TransportKind transport, ProcConfig config,
           bool polling)
    : net_(net),
      host_(host),
      config_(config),
      vni_(net, host, transport, polling),
      completion_cv_(net.engine()),
      freeze_cv_(net.engine()) {
  dispatch_fiber_ = host.spawn("mpi-dispatch", [this] { dispatch_loop(); });
}

Proc::~Proc() { shutdown(); }

void Proc::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  vni_.shutdown();
  // Dispatch and helper fibers capture `this`; they must not outlive the
  // Proc (the owning process keeps the object alive until the kills land).
  net_.engine().kill(dispatch_fiber_);
  for (auto& f : helper_fibers_) net_.engine().kill(f);
  helper_fibers_.clear();
  completion_cv_.notify_all();
  freeze_cv_.notify_all();
}

void Proc::configure_world(uint32_t rank, std::vector<net::NetAddr> peers) {
  rank_ = rank;
  peers_ = std::move(peers);
}

// ------------------------------------------------------------ dispatch ----

void Proc::dispatch_loop() {
  for (;;) {
    auto r = vni_.recv();
    if (!r.ok()) return;  // VNI closed: shutdown or host crash
    auto decoded = Frame::decode(r.value->payload);
    if (!decoded.ok()) {
      drop_undecodable("frame", decoded.error());
      continue;
    }
    on_frame(std::move(decoded).take());
  }
}

void Proc::drop_undecodable(const char* what, const util::Error& error) {
  if (obs::Hub* hub = net_.engine().obs()) hub->metrics.counter("mpi.decode_errors").add(1);
  STARFISH_LOG(kWarn, "mpi") << "rank " << rank_ << " dropped undecodable " << what << ": "
                             << error.to_string();
}

void Proc::on_frame(Frame frame) {
  switch (frame.kind) {
    case FrameKind::kEager: {
      Envelope env;
      env.comm = frame.comm;
      env.src = frame.src_rank;
      env.tag = frame.tag;
      env.send_interval = frame.send_interval;
      env.data = std::move(frame.payload);
      on_data_envelope(std::move(env));
      return;
    }
    case FrameKind::kRendezvousRts: {
      Envelope env;
      env.comm = frame.comm;
      env.src = frame.src_rank;
      env.tag = frame.tag;
      env.send_interval = frame.send_interval;
      env.is_rts = true;
      env.rdv_seq = frame.seq;
      env.rdv_bytes = frame.total_bytes;
      on_data_envelope(std::move(env));
      return;
    }
    case FrameKind::kRendezvousCts: {
      auto it = rdv_sends_.find(frame.seq);
      if (it != rdv_sends_.end()) {
        it->second->cts = true;
        completion_cv_.notify_all();
      }
      return;
    }
    case FrameKind::kRendezvousData:
      complete_rendezvous_data(frame);
      return;
    case FrameKind::kFlushMarker:
    case FrameKind::kClMarker:
      if (control_handler_) control_handler_(frame);
      return;
  }
}

void Proc::on_data_envelope(Envelope env) {
  if (recv_tap_) recv_tap_(env);
  // While frozen, nothing is matched to posted receives: the application
  // must not observe messages that logically follow the checkpoint point.
  // They accumulate in the unexpected queue, which the checkpoint saves.
  if (!frozen_) {
    for (auto* p : posted_) {
      if (!p->done && !p->waiting_rdv && matches(*p, env)) {
        if (env.is_rts) {
          begin_rendezvous_receive(*p, env);
        } else {
          p->result = std::move(env);
          p->done = true;
          completion_cv_.notify_all();
        }
        return;
      }
    }
  } else if (env.is_rts) {
    // Complete in-flight rendezvous during a freeze so the sender can drain
    // (the payload lands in the unexpected queue like an eager message).
    Frame cts;
    cts.kind = FrameKind::kRendezvousCts;
    cts.comm = env.comm;
    cts.seq = env.rdv_seq;
    send_frame(env.src, std::move(cts));
    // Remember the pending arrival: a placeholder posted entry keyed by
    // (src, seq) that routes the data frame into the unexpected queue.
    auto* placeholder = new PostedRecv{};  // owned by rdv_recvs_ until data
    placeholder->comm = env.comm;
    placeholder->src = static_cast<int>(env.src);
    placeholder->tag = env.tag;
    placeholder->waiting_rdv = true;
    placeholder->placeholder = true;
    placeholder->result = env;
    rdv_recvs_[{env.src, env.rdv_seq}] = placeholder;
    return;
  }
  unexpected_.push_back(std::move(env));
}

void Proc::complete_rendezvous_data(const Frame& frame) {
  auto key = std::make_pair(frame.src_rank, frame.seq);
  auto it = rdv_recvs_.find(key);
  if (it == rdv_recvs_.end()) return;
  PostedRecv* p = it->second;
  rdv_recvs_.erase(it);
  p->result.data = frame.payload;
  p->result.is_rts = false;
  // The payload of a large message "arrives" here; snapshot recording
  // (Chandy–Lamport) must observe it like any eager arrival.
  if (recv_tap_) recv_tap_(p->result);
  if (rdv_recvs_.empty()) freeze_cv_.notify_all();
  if (p->placeholder) {
    // Freeze-path placeholder: the payload goes to the unexpected queue.
    unexpected_.push_back(std::move(p->result));
    delete p;
    freeze_cv_.notify_all();
    return;
  }
  p->waiting_rdv = false;
  p->done = true;
  completion_cv_.notify_all();
}

// ------------------------------------------------------------ matching ----

bool Proc::matches(const PostedRecv& p, const Envelope& e) const {
  if (p.comm != e.comm) return false;
  if (p.src != kAnySource && static_cast<uint32_t>(p.src) != e.src) return false;
  if (p.tag != kAnyTag && p.tag != e.tag) return false;
  return true;
}

std::optional<Envelope> Proc::take_unexpected(uint32_t comm, int src, int tag) {
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    PostedRecv probe;
    probe.comm = comm;
    probe.src = src;
    probe.tag = tag;
    if (matches(probe, *it)) {
      Envelope env = std::move(*it);
      unexpected_.erase(it);
      return env;
    }
  }
  return std::nullopt;
}

void Proc::begin_rendezvous_receive(PostedRecv& posted, const Envelope& rts) {
  posted.result = rts;
  posted.waiting_rdv = true;
  Frame cts;
  cts.kind = FrameKind::kRendezvousCts;
  cts.comm = rts.comm;
  cts.seq = rts.rdv_seq;
  send_frame(rts.src, std::move(cts));
  rdv_recvs_[{rts.src, rts.rdv_seq}] = &posted;
}

util::Bytes Proc::deliver(Envelope env, RecvStatus* status) {
  if (tracker_ != nullptr) {
    tracker_->on_recv(ckpt::IntervalId{env.src, env.send_interval});
  }
  ++messages_received_;
  if (status != nullptr) {
    status->source = static_cast<int>(env.src);
    status->tag = env.tag;
    status->bytes = env.data.size();
  }
  // The app boundary: the shared (usually wire-aliasing) buffer becomes an
  // owned mutable one — the single receive-side copy of the data path.
  return std::move(env.data).to_bytes();
}

// --------------------------------------------------------------- sends ----

void Proc::send_frame(uint32_t dst, Frame frame) {
  assert(dst < peers_.size());
  frame.src_rank = rank_;
  frame.dst_rank = dst;
  if (tracker_ != nullptr) frame.send_interval = tracker_->on_send().interval;
  vni_.send(peers_[dst], frame.encode());
}

void Proc::do_send(uint32_t comm, uint32_t dst, int tag, util::Bytes data) {
  while (frozen_) freeze_cv_.wait([this] { return !frozen_; });
  ++in_flight_sends_;
  struct Dec {
    Proc* p;
    ~Dec() {
      --p->in_flight_sends_;
      p->freeze_cv_.notify_all();
    }
  } dec{this};

  ++messages_sent_;
  bytes_sent_ += data.size();
  // One app message = one send-count tick, whether it travels as a single
  // eager frame or a rendezvous exchange (the receiver's on_recv fires once
  // per app message too, so the lost-message comparison stays apples-to-
  // apples).
  if (tracker_ != nullptr) tracker_->note_send(dst);
  if (data.size() <= config_.eager_threshold) {
    Frame frame;
    frame.kind = FrameKind::kEager;
    frame.comm = comm;
    frame.tag = tag;
    frame.payload = std::move(data);
    send_frame(dst, std::move(frame));
    return;
  }
  // Rendezvous: announce, wait for the receiver's CTS, stream the payload.
  const uint64_t seq = next_rdv_seq_++;
  RdvSend st;
  rdv_sends_[seq] = &st;
  Frame rts;
  rts.kind = FrameKind::kRendezvousRts;
  rts.comm = comm;
  rts.tag = tag;
  rts.seq = seq;
  rts.total_bytes = data.size();
  send_frame(dst, std::move(rts));
  completion_cv_.wait([&] { return st.cts || shut_down_; });
  rdv_sends_.erase(seq);
  if (shut_down_) return;
  Frame payload;
  payload.kind = FrameKind::kRendezvousData;
  payload.comm = comm;
  payload.tag = tag;
  payload.seq = seq;
  payload.payload = std::move(data);
  send_frame(dst, std::move(payload));
}

void Proc::send(uint32_t comm, uint32_t dst, int tag, util::Bytes data) {
  do_send(comm, dst, tag, std::move(data));
}

util::Bytes Proc::recv(uint32_t comm, int src, int tag, RecvStatus* status) {
  // Fast path: already queued (and we are not frozen — a frozen process's
  // application is quiesced and must not consume checkpoint-era messages).
  if (!frozen_) {
    if (auto env = take_unexpected(comm, src, tag)) {
      if (!env->is_rts) return deliver(std::move(*env), status);
      // Unexpected RTS: start the rendezvous now and wait for the payload.
      PostedRecv pr;
      pr.comm = comm;
      pr.src = src;
      pr.tag = tag;
      begin_rendezvous_receive(pr, *env);
      completion_cv_.wait([&] { return pr.done || shut_down_; });
      return deliver(std::move(pr.result), status);
    }
  }
  PostedRecv pr;
  pr.comm = comm;
  pr.src = src;
  pr.tag = tag;
  posted_.push_back(&pr);
  completion_cv_.wait([&] { return pr.done || shut_down_; });
  std::erase(posted_, &pr);
  return deliver(std::move(pr.result), status);
}

Request Proc::isend(uint32_t comm, uint32_t dst, int tag, util::Bytes data) {
  Request req;
  req.state_ = std::make_shared<Request::State>();
  req.state_->owner = this;
  req.state_->is_recv = false;
  if (data.size() <= config_.eager_threshold && !frozen_) {
    do_send(comm, dst, tag, std::move(data));
    req.state_->send_done = true;
    return req;
  }
  // Large (or currently frozen) sends progress on a helper fiber so isend
  // returns immediately; wait() joins it.
  auto state = req.state_;
  state->sender_fiber =
      host_.spawn("mpi-isend", [this, state, comm, dst, tag, data = std::move(data)]() mutable {
        do_send(comm, dst, tag, std::move(data));
        state->send_done = true;
        completion_cv_.notify_all();
      });
  helper_fibers_.push_back(state->sender_fiber);
  return req;
}

Request Proc::irecv(uint32_t comm, int src, int tag) {
  Request req;
  req.state_ = std::make_shared<Request::State>();
  req.state_->owner = this;
  req.state_->is_recv = true;
  PostedRecv& pr = req.state_->posted;
  pr.comm = comm;
  pr.src = src;
  pr.tag = tag;
  if (!frozen_) {
    if (auto env = take_unexpected(comm, src, tag)) {
      if (env->is_rts) {
        begin_rendezvous_receive(pr, *env);
      } else {
        pr.result = std::move(*env);
        pr.done = true;
      }
      return req;
    }
  }
  posted_.push_back(&pr);
  return req;
}

util::Bytes Proc::wait(Request& request, RecvStatus* status) {
  assert(request.valid());
  auto& st = *request.state_;
  if (st.is_recv) {
    completion_cv_.wait([&] { return st.posted.done || shut_down_; });
    std::erase(posted_, &st.posted);
    return deliver(std::move(st.posted.result), status);
  }
  completion_cv_.wait([&] { return st.send_done || shut_down_; });
  return {};
}

void Proc::waitall(std::vector<Request>& requests) {
  for (auto& r : requests) {
    if (r.valid()) (void)wait(r);
  }
}

size_t Proc::waitany(std::vector<Request>& requests) {
  completion_cv_.wait([&] {
    if (shut_down_) return true;
    for (const auto& r : requests) {
      if (test(r)) return true;
    }
    return false;
  });
  for (size_t i = 0; i < requests.size(); ++i) {
    if (test(requests[i])) return i;
  }
  return requests.size();
}

bool Proc::test(const Request& request) const {
  if (!request.valid()) return true;
  const auto& st = *request.state_;
  return st.is_recv ? st.posted.done : st.send_done;
}

bool Proc::iprobe(uint32_t comm, int src, int tag, RecvStatus* status) {
  if (frozen_) return false;
  for (const auto& env : unexpected_) {
    PostedRecv probe;
    probe.comm = comm;
    probe.src = src;
    probe.tag = tag;
    if (matches(probe, env)) {
      if (status != nullptr) {
        status->source = static_cast<int>(env.src);
        status->tag = env.tag;
        status->bytes = env.is_rts ? env.rdv_bytes : env.data.size();
      }
      return true;
    }
  }
  return false;
}

// -------------------------------------------------------------- freeze ----

void Proc::freeze() {
  frozen_ = true;
  // Complete any rendezvous already announced to us: auto-CTS everything
  // sitting in the unexpected queue (new RTS frames are auto-CTS'd on
  // arrival while frozen).
  for (auto& env : unexpected_) {
    if (!env.is_rts) continue;
    Frame cts;
    cts.kind = FrameKind::kRendezvousCts;
    cts.comm = env.comm;
    cts.seq = env.rdv_seq;
    send_frame(env.src, std::move(cts));
    auto* placeholder = new PostedRecv{};
    placeholder->comm = env.comm;
    placeholder->src = static_cast<int>(env.src);
    placeholder->tag = env.tag;
    placeholder->waiting_rdv = true;
    placeholder->placeholder = true;
    placeholder->result = env;
    rdv_recvs_[{env.src, env.rdv_seq}] = placeholder;
  }
  // Drop the RTS placeholders from the queue; their payloads will re-enter
  // as full envelopes when the data arrives.
  std::erase_if(unexpected_, [](const Envelope& e) { return e.is_rts; });
  // Wait until our own sends have fully drained (a flush marker sent after
  // this point is therefore ordered after all our data).
  freeze_cv_.wait([this] { return in_flight_sends_ == 0; });
}

void Proc::drain_for_snapshot() {
  for (auto& env : unexpected_) {
    if (!env.is_rts) continue;
    Frame cts;
    cts.kind = FrameKind::kRendezvousCts;
    cts.comm = env.comm;
    cts.seq = env.rdv_seq;
    send_frame(env.src, std::move(cts));
    auto* placeholder = new PostedRecv{};
    placeholder->comm = env.comm;
    placeholder->src = static_cast<int>(env.src);
    placeholder->tag = env.tag;
    placeholder->waiting_rdv = true;
    placeholder->placeholder = true;
    placeholder->result = env;
    rdv_recvs_[{env.src, env.rdv_seq}] = placeholder;
  }
  std::erase_if(unexpected_, [](const Envelope& e) { return e.is_rts; });
}

void Proc::wait_rendezvous_drained() {
  freeze_cv_.wait([this] { return rdv_recvs_.empty(); });
}

void Proc::thaw() {
  frozen_ = false;
  freeze_cv_.notify_all();
  // Messages that accumulated while frozen may match receives the
  // application is still blocked on.
  for (auto* p : posted_) {
    if (p->done || p->waiting_rdv) continue;
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (!matches(*p, *it)) continue;
      if (it->is_rts) break;  // handled by arrival path; cannot happen post-freeze
      p->result = std::move(*it);
      unexpected_.erase(it);
      p->done = true;
      break;
    }
  }
  completion_cv_.notify_all();
}

void Proc::send_marker(FrameKind kind, uint32_t comm, util::SharedBytes payload) {
  for (uint32_t dst = 0; dst < peers_.size(); ++dst) {
    if (dst == rank_) continue;
    send_marker_to(dst, kind, comm, payload);  // refcount bump, no copy
  }
}

void Proc::send_marker_to(uint32_t dst, FrameKind kind, uint32_t comm,
                          util::SharedBytes payload) {
  Frame frame;
  frame.kind = kind;
  frame.comm = comm;
  frame.payload = std::move(payload);
  send_frame(dst, std::move(frame));
}

// ------------------------------------------------------- channel state ----

void put_envelope(util::Writer& w, const Envelope& env) {
  w.u32(env.comm);
  w.u32(env.src);
  w.i32(env.tag);
  w.u32(env.send_interval);
  w.bytes(util::as_bytes_view(env.data));
}

Envelope get_envelope(util::Reader& r) {
  Envelope env;
  env.comm = r.u32();
  env.src = r.u32();
  env.tag = r.i32();
  env.send_interval = r.u32();
  env.data = r.bytes();
  return env;
}

util::Result<std::vector<Envelope>> decode_channel_state(util::BytesView blob) {
  util::Reader r(blob);
  std::vector<Envelope> out(r.count(kEnvelopeMinBytes, "channel state count exceeds the blob"));
  for (Envelope& env : out) env = get_envelope(r);
  return r.finish(std::move(out), "a channel state");
}

util::Bytes Proc::capture_channel_state() const {
  // RTS placeholders are skipped: their payloads arrive later and are
  // recorded by the snapshot tap (freeze/drain_for_snapshot converted any
  // queued RTS into pending arrivals already).
  util::Bytes out;
  util::Writer w(out);
  uint32_t count = 0;
  for (const auto& env : unexpected_) {
    if (!env.is_rts) ++count;
  }
  w.u32(count);
  for (const auto& env : unexpected_) {
    if (!env.is_rts) put_envelope(w, env);
  }
  return out;
}

void Proc::restore_channel_state(std::vector<Envelope> saved) {
  std::deque<Envelope> live;
  live.swap(unexpected_);
  for (auto& env : saved) unexpected_.push_back(std::move(env));
  for (auto& env : live) unexpected_.push_back(std::move(env));
  // The application may already be blocked in a recv posted while the image
  // was still being read from disk: a restored in-transit message must match
  // it now, or it would wait for an arrival that never comes (the message
  // already "arrived" — into the checkpoint).
  for (auto* p : posted_) {
    if (p->done || p->waiting_rdv) continue;
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (!matches(*p, *it) || it->is_rts) continue;
      p->result = std::move(*it);
      unexpected_.erase(it);
      p->done = true;
      break;
    }
  }
  completion_cv_.notify_all();
}

void Proc::inject_unexpected(Envelope env) { unexpected_.push_back(std::move(env)); }

}  // namespace starfish::mpi
