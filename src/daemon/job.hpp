// Job descriptions and fault-tolerance policies (paper section 3.2.2: the
// client chooses the policy when submitting an application).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::daemon {

/// What Starfish does when an application loses a process.
enum class FtPolicy : uint8_t {
  kKill = 0,         ///< compatibility mode: kill the whole application
  kRestart = 1,      ///< automatic restart from the recovery line
  kNotifyViews = 2,  ///< deliver a view upcall; the app repartitions itself
};

/// Distributed checkpointing protocol for the job.
enum class CrProtocol : uint8_t {
  kNone = 0,
  kStopAndSync = 1,    ///< coordinated, blocking (Figures 3/4)
  kChandyLamport = 2,  ///< coordinated, non-blocking marker protocol
  kUncoordinated = 3,  ///< independent checkpoints + recovery-line rollback
};

/// Local checkpoint mechanism (paper section 4).
enum class CkptLevel : uint8_t {
  kNative = 0,  ///< process-level dump; homogeneous restore only
  kVm = 1,      ///< VM-level portable image; heterogeneous restore
};

struct JobSpec {
  std::string name;     ///< unique application name (lightweight group name)
  std::string binary;   ///< app-registry key
  uint32_t nprocs = 1;
  FtPolicy policy = FtPolicy::kKill;
  CrProtocol protocol = CrProtocol::kNone;
  CkptLevel level = CkptLevel::kVm;
  /// > 0: system-initiated checkpoints at this period (rank 0 drives
  /// coordinated protocols; every rank drives its own for uncoordinated).
  sim::Duration ckpt_interval = 0;
  /// Forked (copy-on-write) checkpointing, after libckpt [33]: under
  /// stop-and-sync the application resumes as soon as its state is
  /// snapshotted in memory; the disk write proceeds in the background and
  /// the epoch commits once every image is stable. Cuts the blocking time
  /// from disk-write-dominated to snapshot-dominated.
  bool forked_ckpt = false;
  std::vector<std::string> args;
  std::string owner = "user";  ///< submitting user (suspend/delete rights)

  util::Bytes encode() const;
  /// Fails closed: a short field, or a policy, protocol, level or flag
  /// byte outside its range, is Error{"decode"}.
  static util::Result<JobSpec> decode(util::Reader& r);
};

const char* policy_name(FtPolicy p);
const char* protocol_name(CrProtocol p);

}  // namespace starfish::daemon
