// Recovery-line computation for uncoordinated (independent) checkpointing.
//
// With independent checkpoints, a failure may force surviving processes to
// roll back too: a message whose *receive* is remembered by some checkpoint
// but whose *send* would be undone by the rollback is an orphan, and the
// receiver must roll back past it — possibly cascading (the domino effect
// [14,32,34]). This module tracks the send/receive dependencies that
// uncoordinated protocols piggyback on data messages and computes the latest
// consistent cut (recovery line) over the stored checkpoints.
//
// Conventions:
//  * Checkpoint index c = 0 is the initial state (always available, empty).
//  * Interval i of process p is the execution between p's checkpoints i and
//    i+1; a message sent there carries IntervalId{p, i}.
//  * Checkpoint c of p depends on (q, j) iff p received, before taking c, a
//    message q sent during its interval j.
//  * A cut {c_p} is consistent iff
//      - no dependency (q, j) of any chosen c_p has j >= c_q (such a receive
//        would be an orphan: q's restored state has not yet sent the
//        message), and
//      - for every pair p -> q, the number of messages p's chosen state has
//        sent to q does not exceed the number q's chosen state has consumed
//        from p. A violating message is *lost*: p's restored state will not
//        resend it and q never saw it, so the computation wedges. Without
//        sender-side message logging the only remedy is to roll the sender
//        back past the send, which is why the tracker also counts sends.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/buffer.hpp"

namespace starfish::ckpt {

struct IntervalId {
  uint32_t rank = 0;
  uint32_t interval = 0;
  auto operator<=>(const IntervalId&) const = default;
};

/// Per-process runtime tracker. The process calls on_send() to obtain the
/// tag to piggyback, on_recv() with the peer's tag, and cut_checkpoint()
/// when it takes an independent checkpoint.
class DependencyTracker {
 public:
  explicit DependencyTracker(uint32_t rank) : rank_(rank) {}

  uint32_t rank() const { return rank_; }
  /// Current interval index == number of checkpoints taken so far.
  uint32_t current_interval() const { return interval_; }

  IntervalId on_send() const { return {rank_, interval_}; }
  /// Counts one application message toward `dst` (lost-message accounting;
  /// call once per app-level send, not per protocol frame).
  void note_send(uint32_t dst) { ++sent_[dst]; }
  void on_recv(IntervalId sender_interval) { received_.push_back(sender_interval); }

  /// Cumulative receive dependencies (one entry per consumed message).
  const std::vector<IntervalId>& received() const { return received_; }
  /// Cumulative per-peer application-message send counts.
  const std::map<uint32_t, uint32_t>& sent() const { return sent_; }

  /// Ends the current interval; returns the new checkpoint's index and its
  /// cumulative dependency set (everything received so far).
  std::pair<uint32_t, std::vector<IntervalId>> cut_checkpoint() {
    ++interval_;
    return {interval_, received_};
  }

  /// Rolls the tracker back to checkpoint `index` with that checkpoint's
  /// dependency set (after a recovery).
  void reset_to(uint32_t index, std::vector<IntervalId> deps,
                std::map<uint32_t, uint32_t> sent = {}) {
    interval_ = index;
    received_ = std::move(deps);
    sent_ = std::move(sent);
  }

  util::Bytes encode() const;
  /// Fails closed: a zeroed dependency set would fabricate a recovery line
  /// unconstrained by the dependencies that were actually recorded.
  static util::Result<DependencyTracker> decode(util::BytesView bytes);

 private:
  uint32_t rank_;
  uint32_t interval_ = 0;
  std::vector<IntervalId> received_;
  std::map<uint32_t, uint32_t> sent_;
};

/// Metadata of one stored checkpoint.
struct CheckpointMeta {
  uint32_t rank = 0;
  uint32_t index = 0;  ///< 0 = initial state
  std::vector<IntervalId> depends_on;
  /// Cumulative per-peer send counts at the cut (empty = sent nothing or a
  /// pre-send-tracking blob; either way it imposes no lost-message bound).
  std::map<uint32_t, uint32_t> sent;
};

/// Computes the recovery line. `latest` gives, per rank, the newest usable
/// checkpoint index (for a failed process: its last *saved* checkpoint; for
/// a survivor that could keep running: also its last saved checkpoint, since
/// uncoordinated recovery restarts from stable storage). Checkpoints not
/// listed in `metas` are assumed nonexistent; index 0 always exists with no
/// dependencies. Returns rank -> checkpoint index to restore.
std::map<uint32_t, uint32_t> compute_recovery_line(const std::vector<CheckpointMeta>& metas,
                                                   const std::map<uint32_t, uint32_t>& latest);

/// Number of lost intervals summed over processes for a given line (how far
/// the computation rolled back) — the metric of ablation A.
uint64_t rollback_distance(const std::map<uint32_t, uint32_t>& line,
                           const std::map<uint32_t, uint32_t>& latest);

}  // namespace starfish::ckpt
