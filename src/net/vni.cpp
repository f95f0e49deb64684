#include "net/vni.hpp"

namespace starfish::net {

Vni::Vni(Network& net, sim::Host& host, TransportKind kind, bool polling)
    : net_(net),
      kind_(kind),
      polling_(polling),
      endpoint_(net.bind_auto(host.id(), kind)),
      rx_queue_(std::make_shared<sim::Channel<Packet>>(net.engine())) {
  if (polling_) {
    // The polling thread: moves arrived frames off the wire into the local
    // receive queue. Its CPU time (the kernel interaction of a receive) is
    // spent here, interleaved with application progress, not on the
    // application's recv path. It captures only shared state — fiber
    // wake-ups are asynchronous, so it can outlive the Vni object.
    poller_ = host.spawn("vni-poller", [ep = endpoint_, rx = rx_queue_] {
      // Close the local queue however the poller exits — including the
      // FiberKilled unwind when the host crashes — so consumers blocked on
      // recv() observe kClosed instead of hanging.
      struct CloseOnExit {
        sim::Channel<Packet>& q;
        ~CloseOnExit() { q.close(); }
      } closer{*rx};
      for (;;) {
        auto r = ep->recv();
        if (!r.ok()) break;  // endpoint closed (shutdown or host death)
        rx->send(std::move(*r.value));
      }
    });
  }
}

Vni::~Vni() { shutdown(); }

void Vni::note_frames(uint64_t sent_bytes, bool received) {
  obs::Hub* hub = net_.engine().obs();
  if (hub == nullptr) return;
  if (hub != obs_hub_) {
    obs_hub_ = hub;
    obs_sent_ = &hub->metrics.counter("vni.frames_sent");
    obs_sent_bytes_ = &hub->metrics.counter("vni.bytes_sent");
    obs_received_ = &hub->metrics.counter("vni.frames_received");
  }
  if (received) {
    obs_received_->add(1);
  } else {
    obs_sent_->add(1);
    obs_sent_bytes_->add(sent_bytes);
  }
}

bool Vni::send(NetAddr dst, util::SharedBytes frame) {
  const uint64_t bytes = frame.size();
  const bool ok = endpoint_->send(dst, std::move(frame));
  if (ok) {
    ++frames_sent_;
    note_frames(bytes, /*received=*/false);
  }
  return ok;
}

sim::RecvResult<Packet> Vni::recv(sim::Time deadline) {
  if (polling_) {
    auto r = rx_queue_->recv(deadline);
    if (r.ok()) {
      ++frames_received_;
      note_frames(0, /*received=*/true);
    }
    return r;
  }
  auto r = endpoint_->recv(deadline);
  if (r.ok()) {
    ++frames_received_;
    note_frames(0, /*received=*/true);
    // No polling thread: the kernel interaction happens here, on the
    // application's critical path (paper section 2.2.1).
    net_.engine().advance(model().blocking_recv_penalty);
  }
  return r;
}

std::optional<Packet> Vni::try_recv() {
  auto v = polling_ ? rx_queue_->try_recv() : endpoint_->try_recv();
  if (v) {
    ++frames_received_;
    note_frames(0, /*received=*/true);
  }
  return v;
}

void Vni::shutdown() {
  endpoint_->close();
  if (!polling_) return;
  rx_queue_->close();
}

}  // namespace starfish::net
