// The benchmark's fixed whole-cluster workloads.
//
// Each workload is generated from a seed: the seed picks the VM program's
// initial data, the crash offsets and the crash victims. The simulator only
// ever receives the assembled program text, the cluster options and the
// job spec; the expected application output is computed here, on the host,
// by plain loops that mirror the program's arithmetic without touching the
// simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.hpp"

namespace perfbench {

/// One injected node crash. The harness fires it `offset` after the
/// `after_commits`-th committed epoch counted from the anchor (submit for
/// the first crash, the previous crash's completed recovery otherwise).
/// Victims are drawn with `victim_draw` from the hosts that run a rank of
/// the job when the first crash fires, never host 0 (the harness reads that
/// host's daemon).
struct Crash {
  uint32_t after_commits = 2;
  starfish::sim::Duration offset = 0;
  uint64_t victim_draw = 0;
};

struct Workload {
  std::string name;
  std::string program;  ///< VM assembly handed to the registry
  starfish::core::ClusterOptions options;
  starfish::daemon::JobSpec job;
  std::vector<Crash> crashes;
  std::string expected_output;  ///< the single line rank 0 must print
  starfish::sim::Duration timeout = starfish::sim::seconds(120.0);
};

/// Builds workload `name` for `seed`; throws std::invalid_argument on an
/// unknown name.
Workload make_workload(const std::string& name, uint64_t seed);

}  // namespace perfbench
