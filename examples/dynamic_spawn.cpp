// MPI-2 dynamic process management — the "dynamic MPI programs" of the
// paper's title. A master starts alone, asks Starfish for more processes
// mid-run, and the grown world finishes the job together.
//
//   $ ./examples/dynamic_spawn
#include <cstdio>

#include "core/cluster.hpp"
#include "util/strings.hpp"

using namespace starfish;

namespace {
constexpr int kGoTag = 1;
constexpr int kResultTag = 2;

void master_worker(core::AppContext& ctx) {
  if (ctx.rank() == 0) {
    ctx.print("master alone; world size " + std::to_string(ctx.size()));
    ctx.spawn_ranks(3);  // ask Starfish for three more processes
    while (ctx.size() < 4) ctx.compute(sim::milliseconds(10));
    ctx.print("world grew to " + std::to_string(ctx.size()));
    int64_t total = 0;
    for (uint32_t r = 1; r < ctx.size(); ++r) {
      util::Bytes work;
      util::Writer w(work);
      w.i64(static_cast<int64_t>(r) * 100);  // a work unit per worker
      ctx.world().send(static_cast<int>(r), kGoTag, std::move(work));
    }
    for (uint32_t r = 1; r < ctx.size(); ++r) {
      auto reply = ctx.world().recv(mpi::kAnySource, kResultTag);
      util::Reader rd(util::as_bytes_view(reply));
      total += rd.i64();
    }
    ctx.print("sum of squares of work units = " + std::to_string(total));
    return;
  }
  // Spawned workers: receive a unit, square it, reply.
  auto work = ctx.world().recv(0, kGoTag);
  util::Reader rd(util::as_bytes_view(work));
  const int64_t unit = rd.i64();
  ctx.compute(sim::milliseconds(20));
  util::Bytes reply;
  util::Writer w(reply);
  w.i64(unit * unit);
  ctx.world().send(0, kResultTag, std::move(reply));
}
}  // namespace

int main() {
  core::ClusterOptions opts;
  opts.nodes = 4;
  core::Cluster cluster(opts);
  cluster.registry().register_native("mw", master_worker);
  cluster.boot();

  daemon::JobSpec job;
  job.name = "mw";
  job.binary = "mw";
  job.nprocs = 1;  // starts as a single process
  cluster.submit(job);
  const bool ok = cluster.run_until_done("mw", sim::seconds(30.0));
  std::printf("job %s\n", ok ? "completed" : "FAILED");
  for (const auto& line : cluster.output("mw")) std::printf("  %s\n", line.c_str());
  std::printf("final placement:");
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    for (auto r : cluster.daemon_at(i).local_ranks("mw")) {
      std::printf(" rank%u@node%zu", r, i);
    }
  }
  std::printf("\nexpected sum: 100^2 + 200^2 + 300^2 = %d\n", 100 * 100 + 200 * 200 + 300 * 300);
  return ok ? 0 : 1;
}
