// Recovery ablation — failure -> automatic restart under each C/R protocol,
// plus the diskless sweep: disk vs. in-memory replicated checkpoint storage.
//
// Section 3.2.2: on a node failure Starfish automatically restarts the
// application from the last checkpoint (recovery line). Part 1 kills a node
// mid-run under each protocol and reports how much work the failure costs:
// total completion time vs the crash-free run, and the recovery line used.
//
// Part 2 holds the protocol fixed (stop-and-sync, delta-coded
// checkpoints: ckpt_compress = delta) and varies where the images live: the modeled local disk
// (22 MB/s + setup, serialized per host) vs. the in-memory replica tier
// (ckpt/replica.hpp: peer memory over the 60 MB/s data network, copies
// sharing fate with their hosts). Killing 1..R replica-holder hosts shows
// both sides of the tradeoff — in-memory restore reads are far cheaper,
// but R concurrent holder crashes destroy every copy of a rank's chain and
// force a from-scratch restart where disk images would have survived.
#include <cstdio>

#include "bench_util.hpp"

using namespace starfish;

namespace {

struct Outcome {
  bool ok = false;
  double completion_s = 0;
  uint64_t line_epoch = 0;
  uint32_t restarts = 0;
};

Outcome run(daemon::CrProtocol protocol, bool crash) {
  core::ClusterOptions opts;
  opts.nodes = 4;
  core::Cluster cluster(opts);
  cluster.registry().register_vm("ring", benchutil::ring_program(120, 100000));
  daemon::JobSpec job;
  job.name = "rec";
  job.binary = "ring";
  job.nprocs = 4;
  job.policy = daemon::FtPolicy::kRestart;
  job.protocol = protocol;
  job.level = daemon::CkptLevel::kVm;
  job.ckpt_interval = protocol == daemon::CrProtocol::kNone ? 0 : sim::milliseconds(80);
  cluster.submit(job);
  if (crash) {
    cluster.run_for(sim::milliseconds(400));
    cluster.crash_node(2);
  }
  Outcome out;
  out.ok = cluster.run_until_done("rec", sim::seconds(120.0));
  out.completion_s = sim::to_seconds(cluster.engine().now());
  out.line_epoch = cluster.store().latest_committed("rec").value_or(0);
  out.restarts = cluster.daemon_at(0).restarts_performed();
  return out;
}

// ------------------------------------------------------ diskless sweep ----

struct DisklessOutcome {
  bool ok = false;
  double restore_io_s = 0;    ///< summed restore-read time across all ranks
  uint64_t restore_reads = 0; ///< restore reads performed (chain elements)
  double completion_s = 0;
  uint64_t restore_line = 0;  ///< recoverable line after the crash (0 = scratch)
  uint64_t events = 0;
};

constexpr uint32_t kDisklessRanks = 16;
constexpr int kDisklessRounds = 72;

/// One measured run: 16 ranks, delta-coded checkpoints, and (when
/// `kills` > 0) that many replica-holder hosts crashed at once. Restore
/// reads only ever happen during crash recovery, so the obs read-time
/// histograms both backends record (ckpt.store.read_ns /
/// ckpt.replica.get_ns) sum to exactly the restore I/O of the run.
DisklessOutcome diskless_run(ckpt::CkptBackend backend, uint32_t kills) {
  obs::Hub hub;
  obs::set_default_hub(&hub);
  DisklessOutcome out;
  {
    core::ClusterOptions opts;
    opts.nodes = kDisklessRanks + 2;  // spare hosts so restart placement has room
    opts.ckpt_backend = backend;
    opts.ckpt_replication = 2;
    opts.ckpt_compress = ckpt::CompressMode::kDelta;
    core::Cluster cluster(opts);
    cluster.registry().register_vm("ring", benchutil::ring_program(kDisklessRounds, 100000));
    daemon::JobSpec job;
    job.name = "dless";
    job.binary = "ring";
    job.nprocs = kDisklessRanks;
    job.policy = daemon::FtPolicy::kRestart;
    job.protocol = daemon::CrProtocol::kStopAndSync;
    job.level = daemon::CkptLevel::kVm;
    job.ckpt_interval = sim::milliseconds(60);
    cluster.submit(job);
    if (kills > 0) {
      // Let several epochs commit so the delta chains are warm (full
      // anchor + deltas) before the failure. Rank r lives on host r; rank
      // 0's R=2 copies live on hosts 1 and 2 (ckpt/replica.hpp placement),
      // so killing hosts 1..kills removes `kills` of them — at kills = R
      // nothing of rank 0's chain survives.
      cluster.run_for(sim::milliseconds(500));
      for (uint32_t h = 1; h <= kills; ++h) cluster.crash_node(h);
      out.restore_line = cluster.store()
                             .latest_recoverable("dless", kDisklessRanks)
                             .value_or(0);
    }
    const bool completed = cluster.run_until_done("dless", sim::seconds(600.0));
    out.completion_s = sim::to_seconds(cluster.engine().now());
    out.events = cluster.engine().events_executed();
    const uint64_t disk_ns = hub.metrics.histogram("ckpt.store.read_ns").sum();
    const uint64_t mem_ns = hub.metrics.histogram("ckpt.replica.get_ns").sum();
    out.restore_io_s = static_cast<double>(disk_ns + mem_ns) / 1e9;
    out.restore_reads = hub.metrics.histogram("ckpt.store.read_ns").count() +
                        hub.metrics.histogram("ckpt.replica.get_ns").count();
    int64_t expected = 0;
    for (uint32_t r = 1; r < kDisklessRanks; ++r) expected += r * kDisklessRounds;
    bool golden = false;
    for (const auto& line : cluster.output("dless")) {
      if (line.find(std::to_string(expected)) != std::string::npos) golden = true;
    }
    out.ok = completed && golden;
  }
  obs::set_default_hub(nullptr);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::JsonReporter reporter(argc, argv);

  benchutil::header("Recovery ablation: node failure at t=0.4 s, automatic restart");
  std::printf("ring application, 120 rounds (~0.63 s crash-free), checkpoints every 80 ms\n\n");
  std::printf("%-16s %8s %14s %14s %12s %10s\n", "protocol", "crash?", "complete [s]",
              "crash cost[s]", "line epoch", "restarts");
  for (auto protocol : {daemon::CrProtocol::kNone, daemon::CrProtocol::kStopAndSync,
                        daemon::CrProtocol::kChandyLamport,
                        daemon::CrProtocol::kUncoordinated}) {
    benchutil::HostTimer timer;
    const Outcome clean = run(protocol, false);
    const Outcome crashed = run(protocol, true);
    std::printf("%-16s %8s %14.4f %14s %12s %10s\n", daemon::protocol_name(protocol), "no",
                clean.completion_s, "-", "-", "-");
    std::printf("%-16s %8s %14.4f %14.4f %12llu %10u\n", "", "yes",
                crashed.completion_s, crashed.completion_s - clean.completion_s,
                static_cast<unsigned long long>(crashed.line_epoch), crashed.restarts);
    reporter.add({.name = std::string("recovery/protocol=") + daemon::protocol_name(protocol),
                  .host_ns = timer.ns(),
                  .sim_ns = static_cast<uint64_t>(sim::seconds(crashed.completion_s)),
                  .value = crashed.completion_s - clean.completion_s});
  }
  std::printf("\nshape checks: without checkpointing the crash forces a restart from\n"
              "scratch (cost ~= time lost before the crash + detection); coordinated\n"
              "protocols recover from the last committed epoch. Note the uncoordinated\n"
              "row: the ring exchanges messages every few milliseconds, so every\n"
              "independent checkpoint depends on its neighbours' latest intervals and\n"
              "the recovery line cascades to the initial state — the DOMINO EFFECT\n"
              "[14,32,34], reproduced here despite dozens of stored images. This is\n"
              "precisely why Starfish supports coordinated protocols side by side.\n");

  benchutil::header("Diskless sweep: disk vs in-memory replicated checkpoints (R=2)");
  std::printf("%u ranks, stop-and-sync + delta-coded checkpoints, crash at\n"
              "t=0.5 s; restore I/O = summed restore-read time across all ranks'\n"
              "recovery chains (obs read-time histograms; reads only happen there)\n\n",
              kDisklessRanks);
  std::printf("%-10s %6s %16s %8s %14s %14s %12s %8s\n", "backend", "kills",
              "restore I/O [s]", "reads", "complete [s]", "crash cost[s]", "line", "golden");
  double disk_io[3] = {0, 0, 0};
  for (auto backend : {ckpt::CkptBackend::kDisk, ckpt::CkptBackend::kReplica}) {
    const bool mem = backend == ckpt::CkptBackend::kReplica;
    const DisklessOutcome clean = diskless_run(backend, 0);
    std::printf("%-10s %6s %16s %8s %14.4f %14s %12s %8s\n", mem ? "replica" : "disk",
                "none", "-", "-", clean.completion_s, "-", "-", clean.ok ? "yes" : "NO");
    for (uint32_t kills = 1; kills <= 2; ++kills) {
      benchutil::HostTimer timer;
      const DisklessOutcome o = diskless_run(backend, kills);
      if (!mem) disk_io[kills] = o.restore_io_s;
      char line[32];
      std::snprintf(line, sizeof line, "%llu%s",
                    static_cast<unsigned long long>(o.restore_line),
                    o.restore_line == 0 ? " (scratch)" : "");
      std::printf("%-10s %6u %16.6f %8llu %14.4f %14.4f %12s %8s\n",
                  mem ? "replica" : "disk", kills, o.restore_io_s,
                  static_cast<unsigned long long>(o.restore_reads), o.completion_s,
                  o.completion_s - clean.completion_s, line, o.ok ? "yes" : "NO");
      reporter.add({.name = "diskless/backend=" + std::string(mem ? "replica" : "disk") +
                            "/kills=" + std::to_string(kills),
                    .host_ns = timer.ns(),
                    .sim_ns = static_cast<uint64_t>(sim::seconds(o.completion_s)),
                    .events = o.events,
                    .value = o.restore_io_s});
      if (mem && kills == 1 && o.restore_io_s > 0) {
        std::printf("%-10s %6s in-memory restore %.1fx faster than disk\n", "", "",
                    disk_io[kills] / o.restore_io_s);
      }
    }
  }
  std::printf("\nshape checks: the in-memory restore path skips the per-image disk\n"
              "setup and the 260 KB run-time base, and peer fetches ride the 60 MB/s\n"
              "data network instead of a 22 MB/s spindle — expect >= 5x cheaper\n"
              "restore reads at kills < R. At kills = R the crashed pair held every\n"
              "copy of rank 0's chain: with no disk images to fall back to, recovery\n"
              "correctly reports the line unrecoverable and restarts from scratch\n"
              "(line 0) — the durability price of diskless storage, while the disk\n"
              "backend still restores from its committed line. Crash cost can dip\n"
              "slightly negative: the restart resets the checkpoint interval timer,\n"
              "so the recovered run takes a few fewer stop-and-sync waves than the\n"
              "crash-free one and spends less time blocked in them.\n");

  if (!reporter.write("ablation_recovery")) return 1;
  return 0;
}
