// Message formats of the daemon plane (paper table 1):
//  * HeavyMsg   — "control messages" between daemons, totally ordered in the
//                 Starfish group (submissions, cluster configuration).
//  * AppMsg     — per-application messages in the app's lightweight group
//                 (address exchange, relayed coordination, failure events).
//                 Coordination payloads are opaque to daemons, as the paper
//                 requires.
//  * StateSnapshot — the replicated daemon state a joining daemon receives
//                 through the heavy group's state transfer.
//  * LinkMsg    — the local "TCP" connection between a daemon's lightweight
//                 endpoint module and its application process's group
//                 handler (configuration + lightweight membership messages,
//                 paper section 2.3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "daemon/job.hpp"
#include "gcs/types.hpp"
#include "net/network.hpp"
#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::daemon {

constexpr uint64_t kNoRestore = UINT64_MAX;

// ---------------------------------------------------------------- heavy ----

enum class HeavyKind : uint8_t {
  kSubmit = 1,
  kSetConfig = 2,
  kNodeCtl = 3,
  kDeleteApp = 4,
  kSuspendApp = 5,
  kResumeApp = 6,
  kMigrateExec = 7,  ///< move one rank to another node, restoring `epoch`
  kGrowApp = 8,      ///< MPI-2 dynamic spawn: add `rank` new ranks to `app`
};

struct HeavyMsg {
  HeavyKind kind = HeavyKind::kSubmit;
  JobSpec job;          ///< kSubmit
  std::string key;      ///< kSetConfig
  std::string value;    ///< kSetConfig
  uint32_t host = 0;    ///< kNodeCtl / kMigrateExec: destination node
  bool enable = true;   ///< kNodeCtl
  std::string app;      ///< kDeleteApp / kSuspendApp / kResumeApp / kMigrateExec
  uint32_t rank = 0;    ///< kMigrateExec: rank to move; kGrowApp: extra ranks
  uint64_t epoch = 0;   ///< kMigrateExec: committed epoch to restore
  uint32_t wepoch = 0;  ///< kMigrateExec: the wiring epoch this move creates

  util::Bytes encode() const;
  static util::Result<HeavyMsg> decode(const util::Bytes& bytes);
};

// ------------------------------------------------------------------ app ----

enum class AppKind : uint8_t {
  kAddr = 1,        ///< data-path address of one rank (wiring exchange)
  kCoord = 2,       ///< opaque C/R or application coordination payload
  kProcFailed = 3,  ///< a process died without its node dying
  kRankDone = 4,    ///< a rank finished cleanly
  kCheckpointNow = 5,  ///< system-initiated checkpoint request (migration)
};

struct AppMsg {
  AppKind kind = AppKind::kCoord;
  uint32_t wiring_epoch = 0;  ///< kAddr
  uint32_t rank = 0;          ///< kAddr / kProcFailed / kRankDone
  net::NetAddr addr;          ///< kAddr
  util::Bytes payload;        ///< kCoord (opaque)

  util::Bytes encode() const;
  static util::Result<AppMsg> decode(const util::Bytes& bytes);
};

// ------------------------------------------------------------- snapshot ----

/// Lifecycle phase of an application, as seen by one daemon.
enum class AppPhase : uint8_t {
  kPlacing = 0,   ///< submitted; waiting for every rank's address
  kRunning,
  kSuspended,
  kCompleted,
  kFailed,        ///< killed by policy or unrecoverable
  kDeleted,
};

/// The daemons' replicated state as a joining daemon receives it: the
/// cluster configuration, the disabled nodes and each app's job, phase,
/// wiring epoch and placement, every map in increasing key order.
struct StateSnapshot {
  struct App {
    JobSpec job;
    AppPhase phase = AppPhase::kPlacing;
    uint32_t wiring_epoch = 1;
    std::map<uint32_t, gcs::MemberId> placement;  ///< rank -> hosting daemon
  };
  std::map<std::string, std::string> config;
  std::set<uint32_t> disabled;
  std::map<std::string, App> apps;  ///< by job name

  util::Bytes encode() const;
  static util::Result<StateSnapshot> decode(util::BytesView bytes);
};

// ----------------------------------------------------------------- link ----

enum class LinkKind : uint8_t {
  // daemon -> process
  kConfigure = 1,  ///< world wiring (+ restore directive on restart)
  kAppView = 2,    ///< dynamicity upcall: set of live ranks changed
  kCoord = 3,      ///< relayed coordination payload
  kSuspend = 4,
  kResume = 5,
  kTerminate = 6,
  // process -> daemon
  kReady = 7,      ///< process booted; reports its VNI address
  kCoordSend = 8,  ///< please multicast this payload in the app's group
  kDone = 9,       ///< application code finished (ok or trap)
  kOutput = 10,    ///< application console output
  kCheckpointNow = 11,  ///< daemon -> process: take a checkpoint now
  kSpawnReq = 12,       ///< process -> daemon: MPI-2 spawn downcall
};

struct LinkMsg {
  LinkKind kind = LinkKind::kReady;
  // kConfigure
  uint32_t wiring_epoch = 0;
  std::vector<net::NetAddr> world;  ///< VNI address per rank
  uint64_t restore_epoch = kNoRestore;
  // kAppView
  uint64_t view_seq = 0;
  std::vector<uint32_t> live_ranks;
  // kCoord / kCoordSend
  util::Bytes payload;
  // kReady
  net::NetAddr vni_addr;
  // kSpawnReq
  uint32_t spawn_extra = 0;
  // kDone / kOutput
  bool ok = true;
  std::string text;

  util::Bytes encode() const;
  static util::Result<LinkMsg> decode(const util::Bytes& bytes);
};

}  // namespace starfish::daemon
