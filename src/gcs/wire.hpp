// Wire format of the group-communication control messages.
//
// One flat tagged union kept deliberately simple: every field of every
// message kind is a struct member; encode/decode read the `kind` tag first.
// Control traffic is not infrequent — flat heartbeats go all-to-all every
// period, so a 64-daemon cluster can send an order of magnitude more GCS
// datagrams than MPI frames — but each message is small, so the format
// favors clarity over compactness and the endpoint saves host time by
// encoding a fan-out once instead (gcs/endpoint.hpp).
//
// decode() fails closed with Error{"decode"}: truncation, an unknown kind,
// a flag byte other than 0/1 and trailing bytes are all rejected, so any
// message it accepts re-encodes to exactly the bytes it was given.
#pragma once

#include <cstdint>
#include <vector>

#include "gcs/types.hpp"
#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::gcs {

enum class MsgKind : uint8_t {
  kHeartbeat = 1,
  kJoinReq = 2,
  kLeaveReq = 3,
  kOrderReq = 4,   ///< member -> coordinator: please sequence this payload
  kOrder = 5,      ///< coordinator -> all: sequenced group message
  kPrepare = 6,    ///< view change phase 1
  kFlushOk = 7,    ///< view change phase 2
  kInstall = 8,    ///< view change phase 3
  kInstallReq = 9, ///< laggard -> any member: resend the INSTALL I missed
  // decode() accepts exactly kHeartbeat..kInstallReq: a new kind goes last.
};

/// A sequenced message as retransmitted during flush.
struct OrderedMsg {
  uint64_t gseq = 0;
  MemberId origin;
  uint64_t msg_id = 0;
  util::Bytes payload;
};

/// One member's liveness/progress summary as gossiped through the
/// dissemination tree (Topology::kTree). Interior nodes aggregate the
/// entries of their subtree and forward them upward; the root's full table
/// flows back down, so every member learns about every other in O(depth)
/// heartbeat periods without all-to-all traffic.
struct HbEntry {
  MemberId member;
  uint64_t view_id = 0;    ///< view the member last advertised
  uint64_t delivered = 0;  ///< its delivered gseq in that view
  uint64_t heard_at = 0;   ///< virtual time someone last heard it directly
  /// A direct tree neighbor timed the member out. Distant members — the
  /// coordinator in particular — adopt the rumor instead of waiting out
  /// their gossip-lag-scaled timeout; if lost beats made it false, the
  /// excluded member is taught its exclusion and rejoins.
  bool suspected = false;
};

struct WireMsg {
  MsgKind kind = MsgKind::kHeartbeat;
  MemberId from;
  net::NetAddr from_addr;  ///< sender's control address (joins need it)

  // kOrderReq / kOrder
  uint64_t msg_id = 0;
  util::Bytes payload;
  // kOrder
  uint64_t gseq = 0;
  MemberId origin;

  // view change (kPrepare / kInstall)
  uint64_t view_id = 0;
  uint32_t attempt = 0;
  std::vector<Member> members;
  uint64_t coord_delivered = 0;  ///< kPrepare: coordinator's delivered gseq

  // kFlushOk
  uint64_t delivered = 0;
  std::vector<OrderedMsg> buffered;

  // kHeartbeat under Topology::kTree: aggregated summaries riding the beat
  // (subtree entries upward, the full table downward).
  std::vector<HbEntry> hb_entries;

  // kInstall
  std::vector<OrderedMsg> retransmit;
  /// Replicated-state snapshots for joiners: (present flag, blob).
  bool has_state = false;
  util::Bytes state;

  util::Bytes encode() const;
  /// Accepts any byte window (util::Bytes and util::SharedBytes both convert
  /// implicitly); decoded fields are owned copies — control traffic is off
  /// the zero-copy fast path by design. Fails closed (see above).
  static util::Result<WireMsg> decode(util::BytesView bytes);
};

}  // namespace starfish::gcs
