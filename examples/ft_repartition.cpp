// Dynamic repartitioning (paper section 3.2.2): a trivially-parallel Monte
// Carlo π estimation whose workers register a view-change listener. When a
// node dies, the surviving workers receive a view upcall and repartition the
// sample blocks so the whole space is still covered with no duplicates —
// the application continues without any rollback.
//
//   $ ./examples/ft_repartition
#include <algorithm>
#include <cstdio>

#include "core/cluster.hpp"
#include "util/strings.hpp"
#include "util/rng.hpp"

using namespace starfish;

namespace {

constexpr int kBlocks = 48;
constexpr int kSamplesPerBlock = 20'000;
constexpr int kResultTag = 1;
constexpr int kDoneTag = 2;

/// Deterministic per-block sample count inside the unit circle.
int64_t hits_in_block(int block) {
  util::Rng rng(0xC0FFEE + static_cast<uint64_t>(block));
  int64_t hits = 0;
  for (int s = 0; s < kSamplesPerBlock; ++s) {
    const double x = rng.uniform(), y = rng.uniform();
    if (x * x + y * y <= 1.0) ++hits;
  }
  return hits;
}

void pi_app(core::AppContext& ctx) {
  if (ctx.rank() == 0) {
    // Collector: dedupe block results, estimate pi, dismiss the workers.
    std::vector<int64_t> hits(kBlocks, -1);
    int have = 0;
    while (have < kBlocks) {
      auto data = ctx.world().recv(mpi::kAnySource, kResultTag);
      util::Reader r(util::as_bytes_view(data));
      const int64_t block = r.i64();
      const int64_t h = r.i64();
      if (hits[static_cast<size_t>(block)] < 0) {
        hits[static_cast<size_t>(block)] = h;
        ++have;
      }
    }
    int64_t total = 0;
    for (auto h : hits) total += h;
    const double pi =
        4.0 * static_cast<double>(total) / (static_cast<double>(kBlocks) * kSamplesPerBlock);
    char buf[64];
    std::snprintf(buf, sizeof buf, "pi ~= %.5f from %d blocks", pi, kBlocks);
    ctx.print(buf);
    for (uint32_t r = 1; r < ctx.size(); ++r) ctx.world().send(static_cast<int>(r), kDoneTag, {});
    return;
  }

  // Worker: the Starfish view upcall re-partitions the block space.
  std::vector<uint32_t> live;
  for (uint32_t i = 0; i < ctx.size(); ++i) live.push_back(i);
  bool changed = false;
  ctx.set_view_handler([&](const std::vector<uint32_t>& now_live) {
    live = now_live;
    changed = true;
  });
  for (;;) {
    changed = false;
    std::vector<uint32_t> workers;
    for (uint32_t r : live) {
      if (r != 0) workers.push_back(r);
    }
    auto me = std::find(workers.begin(), workers.end(), ctx.rank());
    if (me != workers.end()) {
      const size_t my_index = static_cast<size_t>(me - workers.begin());
      for (int block = 0; block < kBlocks; ++block) {
        if (static_cast<size_t>(block) % workers.size() != my_index) continue;
        ctx.compute(sim::milliseconds(4));  // the sampling time
        if (changed) break;
        util::Bytes b;
        util::Writer w(b);
        w.i64(block);
        w.i64(hits_in_block(block));
        ctx.world().send(0, kResultTag, std::move(b));
      }
    }
    while (!changed) {
      if (ctx.world().proc().iprobe(ctx.world().id(), 0, kDoneTag)) {
        (void)ctx.world().recv(0, kDoneTag);
        return;
      }
      ctx.compute(sim::milliseconds(10));
    }
  }
}

}  // namespace

int main() {
  core::ClusterOptions opts;
  opts.nodes = 4;
  core::Cluster cluster(opts);
  cluster.registry().register_native("pi", pi_app);
  cluster.boot();

  daemon::JobSpec job;
  job.name = "pi";
  job.binary = "pi";
  job.nprocs = 4;
  job.policy = daemon::FtPolicy::kNotifyViews;  // dynamic repartitioning
  cluster.submit(job);
  std::printf("running Monte Carlo pi on 3 workers (policy: view notification)\n");

  cluster.run_for(sim::milliseconds(30));
  std::printf("t=%.3fs: node 2 dies; its blocks will be re-covered by the survivors\n",
              sim::to_seconds(cluster.engine().now()));
  cluster.crash_node(2);

  const bool ok = cluster.run_until_done("pi", sim::seconds(30.0));
  std::printf("t=%.3fs: job %s\n", sim::to_seconds(cluster.engine().now()),
              ok ? "completed" : "FAILED");
  for (const auto& line : cluster.output("pi")) std::printf("  %s\n", line.c_str());
  return ok ? 0 : 1;
}
