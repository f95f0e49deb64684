#include "ckpt/recovery.hpp"

#include <algorithm>

namespace starfish::ckpt {

// Bit 31 of the leading rank word flags the extended layout that appends the
// per-peer send-count section. With no sends recorded the encoding is
// byte-identical to the original layout, so coordinated-protocol containers
// (whose default tracker never counts) keep their exact historical size, yet
// a present-but-truncated send section still fails decode instead of
// silently degrading to "sent nothing".
constexpr uint32_t kHasSendsFlag = 0x8000'0000u;

util::Bytes DependencyTracker::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u32(sent_.empty() ? rank_ : (rank_ | kHasSendsFlag));
  w.u32(interval_);
  w.u32(static_cast<uint32_t>(received_.size()));
  for (const auto& r : received_) {
    w.u32(r.rank);
    w.u32(r.interval);
  }
  if (!sent_.empty()) {
    w.u32(static_cast<uint32_t>(sent_.size()));
    for (const auto& [peer, count] : sent_) {
      w.u32(peer);
      w.u32(count);
    }
  }
  return out;
}

util::Result<DependencyTracker> DependencyTracker::decode(util::BytesView bytes) {
  util::Reader r(bytes);
  const uint32_t rank = r.u32();
  DependencyTracker t(rank & ~kHasSendsFlag);
  t.interval_ = r.u32();
  t.received_.resize(r.count(8, "dependency count exceeds the tracker"));
  for (IntervalId& dep : t.received_) {
    dep.rank = r.u32();
    dep.interval = r.u32();
  }
  if ((rank & kHasSendsFlag) != 0) {
    // The encoder sets the flag only for a non-empty section.
    const uint32_t ns = r.count(8, "send-count section exceeds the tracker");
    if (ns == 0) r.fail("flagged send-count section is empty");
    for (uint32_t i = 0; i < ns; ++i) {
      const uint32_t peer = r.u32();
      r.insert_sorted(t.sent_, "send-count peer", peer, r.u32());
    }
  }
  return r.finish(std::move(t), "a dependency tracker");
}

std::map<uint32_t, uint32_t> compute_recovery_line(const std::vector<CheckpointMeta>& metas,
                                                   const std::map<uint32_t, uint32_t>& latest) {
  // Index metas by (rank, index) for dependency lookups.
  std::map<std::pair<uint32_t, uint32_t>, const CheckpointMeta*> by_key;
  for (const auto& m : metas) by_key[{m.rank, m.index}] = &m;

  auto deps_of = [&](uint32_t rank, uint32_t index) -> const std::vector<IntervalId>* {
    static const std::vector<IntervalId> kEmpty;
    if (index == 0) return &kEmpty;  // initial state depends on nothing
    auto it = by_key.find({rank, index});
    return it == by_key.end() ? &kEmpty : &it->second->depends_on;
  };
  auto meta_of = [&](uint32_t rank, uint32_t index) -> const CheckpointMeta* {
    if (index == 0) return nullptr;  // initial state sent nothing
    auto it = by_key.find({rank, index});
    return it == by_key.end() ? nullptr : it->second;
  };

  std::map<uint32_t, uint32_t> line = latest;

  // Fixpoint: while some chosen checkpoint has an orphan dependency or a
  // lost send, move the offending process one checkpoint earlier. Indices
  // only decrease and stop at 0 (no dependencies, no sends), so this
  // terminates; both conditions are monotone in the chosen indices, so the
  // set of consistent cuts is closed under componentwise max and the
  // fixpoint lands on its unique maximum.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [rank, index] : line) {
      const auto* deps = deps_of(rank, index);
      for (const auto& d : *deps) {
        auto it = line.find(d.rank);
        if (it == line.end()) continue;  // unknown peer: not constrained
        if (d.interval >= it->second) {
          // Orphan: the send (interval d.interval of d.rank) would be undone.
          --index;  // index > 0 here because index 0 has no deps
          changed = true;
          break;
        }
      }
    }
    for (auto& [rank, index] : line) {
      const auto* m = meta_of(rank, index);
      if (m == nullptr) continue;
      for (const auto& [peer, sent_count] : m->sent) {
        auto it = line.find(peer);
        if (it == line.end()) continue;  // unknown peer: not constrained
        uint32_t consumed = 0;
        for (const auto& d : *deps_of(peer, it->second)) {
          if (d.rank == rank) ++consumed;
        }
        if (sent_count > consumed) {
          // Lost message: this state already sent more to `peer` than the
          // peer's restored state will ever see again. Undo the send — the
          // re-execution regenerates the message.
          --index;
          changed = true;
          break;
        }
      }
    }
  }
  return line;
}

uint64_t rollback_distance(const std::map<uint32_t, uint32_t>& line,
                           const std::map<uint32_t, uint32_t>& latest) {
  uint64_t total = 0;
  for (const auto& [rank, index] : line) {
    auto it = latest.find(rank);
    if (it != latest.end() && it->second > index) total += it->second - index;
  }
  return total;
}

}  // namespace starfish::ckpt
