// Host-time replays of single layers on inputs taken from a workload.
#pragma once

#include <string>

#include "workloads.hpp"

namespace perfbench {

/// Replays the workload's VM program once per rank through
/// vm::Interpreter::run with a stub syscall servicer, captures one rank's
/// successive portable payloads at evenly spaced points of its run, and times
/// the image, payload-codec and LZ entry points on them. Returns one JSON
/// object (ns per instruction, ns per MB of each coder, the payloads'
/// dirty-page share, and `ok` = every decode reproduced its input).
std::string replay_json(const Workload& w);

}  // namespace perfbench
