// Extension experiment: checkpoint-time scaling with node count, plus the
// engine's simulator throughput on a 64-host cluster.
//
// Part 1 — Figures 3 and 4 stop at 4 nodes; this sweep extends the x-axis to
// 16, separating the two components of the distributed checkpoint time: the
// (parallel) per-node disk write, and the coordination term that grows with
// membership — the paper's "faster C/R protocols" future-work direction is
// about attacking the latter, and the forked variant shows how much of it
// the application actually feels.
//
// Part 2 — one fixed 64-host workload, run once, reporting host wall-clock
// and simulator events/s. scripts/perf_smoke.sh compares its events/s with
// the committed baseline.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "ckpt/image.hpp"

using namespace starfish;

namespace {

double run_once(uint32_t nodes, bool forked) {
  core::ClusterOptions opts;
  opts.nodes = nodes;
  core::Cluster cluster(opts);
  cluster.registry().register_vm("blob", benchutil::blob_checkpoint_program(1024 * 1024));
  daemon::JobSpec job;
  job.name = "scale";
  job.binary = "blob";
  job.nprocs = nodes;
  job.protocol = daemon::CrProtocol::kStopAndSync;
  job.level = daemon::CkptLevel::kVm;
  job.forked_ckpt = forked;
  cluster.submit(job);
  return benchutil::measure_epoch_seconds(cluster, "scale");
}

struct ThroughputRun {
  uint64_t host_ns = 0;
  uint64_t events = 0;
  uint64_t sim_ns = 0;
};

/// One fixed workload — a 64-host daemon group running a 64-rank token ring
/// with periodic coordinated checkpoints — for two seconds of virtual time.
ThroughputRun run_throughput(uint32_t hosts) {
  core::ClusterOptions opts;
  opts.nodes = hosts;
  core::Cluster cluster(opts);
  cluster.registry().register_vm("ring", benchutil::ring_program(/*rounds=*/1000,
                                                                 /*spin=*/2000));
  daemon::JobSpec job;
  job.name = "sweep";
  job.binary = "ring";
  job.nprocs = hosts;
  job.protocol = daemon::CrProtocol::kStopAndSync;
  job.level = daemon::CkptLevel::kVm;
  job.ckpt_interval = sim::milliseconds(250);
  cluster.submit(job);

  ThroughputRun r;
  const benchutil::HostTimer timer;
  cluster.run_for(sim::seconds(2.0));
  r.host_ns = timer.ns();
  r.events = cluster.engine().events_executed();
  r.sim_ns = static_cast<uint64_t>(cluster.engine().now());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::JsonReporter json(argc, argv);
  benchutil::MetricsReporter metrics(argc, argv);

  benchutil::header("Node-count scaling of stop-and-sync (1.25 MB images per rank)");
  std::printf("extends Figures 3/4 beyond the paper's 4 nodes; the disk term stays\n"
              "flat (writes are parallel) while coordination grows with membership\n\n");
  std::printf("%8s %18s %18s\n", "nodes", "stop-and-sync [s]", "forked variant [s]");
  for (uint32_t nodes : {1u, 2u, 4u, 8u, 16u}) {
    const benchutil::HostTimer t;
    const double plain = run_once(nodes, false);
    const double forked = run_once(nodes, true);
    std::printf("%8u %18.4f %18.4f\n", nodes, plain, forked);
    std::fflush(stdout);
    json.add({.name = "scaling/nodes=" + std::to_string(nodes),
              .host_ns = t.ns(),
              .value = plain});
  }
  std::printf("\nshape checks: the plain protocol's epoch latency grows ~linearly with\n"
              "the member count (serial quiesce/ack collection at the initiator);\n"
              "the forked variant pays the same commit latency but the application\n"
              "itself resumes after the snapshot, so its *felt* cost stays flat.\n");

  // ------------------------------------------------ simulator throughput ----
  constexpr uint32_t kHosts = 64;
  std::printf("\n");
  benchutil::header("Simulator throughput (64-host group, 64-rank ring, 2 s virtual)");
  const ThroughputRun r = run_throughput(kHosts);
  const double host_s = static_cast<double>(r.host_ns) / 1e9;
  const double eps = host_s > 0 ? static_cast<double>(r.events) / host_s : 0.0;
  std::printf("%12s %12s %14s\n", "host [ms]", "events", "events/s");
  std::printf("%12.1f %12llu %14.3g\n", host_s * 1e3, static_cast<unsigned long long>(r.events),
              eps);
  // The name predates the removal of the threaded engine; perf_baseline.json
  // keys its sequential row by it.
  json.add({.name = "scaling/threads=1/hosts=" + std::to_string(kHosts),
            .host_ns = r.host_ns,
            .sim_ns = r.sim_ns,
            .events = r.events,
            .value = eps});

  json.write("scaling_nodes");
  metrics.write();
  return 0;
}
