// perfbench_runner: one repetition of a benchmark workload, or the host
// replays of its layers, printed as one JSON object on stdout.
//
//   perfbench_runner run    --workload NAME --seed N [--traced]
//   perfbench_runner replay --workload NAME --seed N
//
// `run` boots the workload's cluster, submits the job, polls its phase every
// 1 ms of virtual time, fires the seeded crashes, and checks the output line
// against the host-computed golden value. With --traced a metrics+trace hub
// is attached and its registry snapshot is included. run.py drives this
// binary; see run.py for the metrics it derives.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "json_out.hpp"
#include "obs/obs.hpp"
#include "replay.hpp"
#include "util/simd/simd.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sim = starfish::sim;
namespace core = starfish::core;
namespace daemon = starfish::daemon;
namespace obs = starfish::obs;

using Clock = std::chrono::steady_clock;

/// Set-ups timed per process; the fastest is the process's setup_s.
constexpr int kSetupSamples = 15;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Hosts a crash may hit: alive, not host 0, and running a rank of `app`.
std::vector<uint32_t> crash_candidates(core::Cluster& cluster, const std::string& app) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    daemon::Daemon& d = cluster.daemon_at(i);
    const sim::HostId id = d.host_id();
    if (id == 0 || !cluster.network().host(id)->alive()) continue;
    if (!d.local_ranks(app).empty()) out.push_back(static_cast<uint32_t>(id));
  }
  return out;
}

/// Draws one distinct victim per crash from `candidates` and orders them by
/// descending host id. The order matters for reproducible figures: which of
/// two victims dies first decides where the restarted ranks land and with
/// it the number of epochs the job commits, so a fixed order keeps every
/// seed on the same recovery path.
std::vector<uint32_t> plan_victims(std::vector<uint32_t> candidates,
                                   const std::vector<Crash>& crashes) {
  std::vector<uint32_t> out;
  for (const Crash& c : crashes) {
    if (candidates.empty()) break;
    const auto it = candidates.begin() + static_cast<ptrdiff_t>(c.victim_draw % candidates.size());
    out.push_back(*it);
    candidates.erase(it);
  }
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::string join_ints(const std::vector<uint64_t>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + std::to_string(v[i]);
  return out + "]";
}

/// Set-up: register and verify the program, then boot until every daemon's
/// view holds every node. Returns false if the program is rejected or the
/// view does not settle within a second of virtual time.
bool set_up(core::Cluster& cluster, const Workload& w) {
  cluster.registry().register_vm(w.job.binary, w.program);
  if (cluster.registry().program(w.job.binary) == nullptr) return false;
  cluster.boot();
  const sim::Time deadline = cluster.engine().now() + sim::seconds(1.0);
  for (;;) {
    bool settled = true;
    for (size_t i = 0; i < cluster.node_count(); ++i) {
      settled = settled && cluster.daemon_at(i).group().view().size() == cluster.node_count();
    }
    if (settled) return true;
    if (cluster.engine().now() >= deadline) return false;
    cluster.run_for(sim::milliseconds(1));
  }
}

/// Fastest host time of `samples` complete set-ups (construct the cluster,
/// set_up, destroy), of which only construction and set_up are timed. A set-up
/// takes milliseconds, so one preemption or cache flush by another process
/// can double it; interference only ever adds time, and the first set-up of
/// a process also pays for cold allocations.
double fastest_setup_s(const Workload& w, int samples) {
  double best = -1.0;
  for (int i = 0; i < samples; ++i) {
    const Clock::time_point start = Clock::now();
    auto cluster = std::make_unique<core::Cluster>(w.options);
    if (!set_up(*cluster, w)) return -1.0;
    const double s = seconds_since(start);
    if (best < 0 || s < best) best = s;
  }
  return best;
}

int run_workload(const Workload& w, bool traced) {
  // Before any hub is installed: these clusters must not record into it.
  const double setup_s = fastest_setup_s(w, kSetupSamples);
  if (setup_s < 0) {
    std::fprintf(stderr, "perfbench: %s failed to set up\n", w.name.c_str());
    return 1;
  }
  obs::Hub hub;
  if (traced) {
    hub.tracer.set_enabled(true);
    obs::set_default_hub(&hub);  // engines built from here on record into it
  }
  const std::string& app = w.job.name;
  std::string error;

  core::Cluster cluster(w.options);
  if (!set_up(cluster, w)) {
    std::fprintf(stderr, "perfbench: %s failed to set up\n", w.name.c_str());
    return 1;
  }

  daemon::Daemon& d0 = cluster.daemon_at(0);
  sim::Engine& engine = cluster.engine();
  const Clock::time_point wall_start = Clock::now();
  cluster.submit(w.job);
  const sim::Time t0 = engine.now();

  size_t next_crash = 0;
  uint32_t commits_since_anchor = 0;
  uint64_t last_committed = 0;
  std::optional<sim::Time> crash_due;
  std::optional<sim::Time> crashed_at;  // set while a recovery is pending
  uint32_t restarts_before = 0;
  std::vector<uint32_t> planned;
  std::vector<uint64_t> victims, crash_times_ns, recovery_ns;

  for (;;) {
    if (engine.now() - t0 > w.timeout) {
      error = "timeout";
      break;
    }
    cluster.run_for(sim::milliseconds(1));
    const sim::Time now = engine.now();
    const uint64_t committed = cluster.store().latest_committed(app).value_or(0);
    if (committed > last_committed) {
      last_committed = committed;
      ++commits_since_anchor;
    }
    if (!crashed_at && next_crash < w.crashes.size()) {
      const Crash& c = w.crashes[next_crash];
      if (!crash_due && commits_since_anchor >= c.after_commits) crash_due = now + c.offset;
      if (crash_due && now >= *crash_due) {
        if (d0.local_ranks(app).empty()) {
          error = "host 0 runs no rank of the job";
          break;
        }
        if (victims.empty()) {
          planned = plan_victims(crash_candidates(cluster, app), w.crashes);
          if (planned.size() != w.crashes.size()) {
            error = "too few crash candidates";
            break;
          }
        }
        const uint32_t victim = planned[next_crash];
        const std::vector<uint32_t> live = crash_candidates(cluster, app);
        if (std::find(live.begin(), live.end(), victim) == live.end()) {
          error = "planned victim no longer runs a rank";
          break;
        }
        restarts_before = d0.restarts_performed();
        cluster.crash_node(victim);
        crashed_at = now;
        crash_due.reset();
        ++next_crash;
        victims.push_back(victim);
        crash_times_ns.push_back(static_cast<uint64_t>(now - t0));
      }
    }
    if (crashed_at && d0.restarts_performed() > restarts_before &&
        d0.app_phase(app) == daemon::AppPhase::kRunning) {
      recovery_ns.push_back(static_cast<uint64_t>(now - *crashed_at));
      crashed_at.reset();
      commits_since_anchor = 0;
    }
    const daemon::AppPhase phase = cluster.phase(app);
    if (phase == daemon::AppPhase::kCompleted) break;
    if (phase == daemon::AppPhase::kFailed || phase == daemon::AppPhase::kDeleted) {
      error = std::string("job ") + daemon::phase_name(phase);
      break;
    }
  }
  const double wall_s = seconds_since(wall_start);
  const sim::Duration job_virtual = engine.now() - t0;

  if (error.empty() && next_crash < w.crashes.size()) error = "job ended before every crash fired";
  if (error.empty() && crashed_at) error = "job ended before the last recovery";
  const std::vector<std::string> output = cluster.output(app);
  const std::string got = output.size() == 1 ? output.front() : "";
  const bool golden_ok = output.size() == 1 && got == w.expected_output;
  if (error.empty() && !golden_ok) error = "output mismatch";

  uint64_t stable_bytes = cluster.store().bytes_written();
  if (const auto* replicas = cluster.store().replicas()) stable_bytes += replicas->bytes_shipped();
  const auto epochs = cluster.store().epoch_stats(app);
  uint64_t recovery_total = 0;
  for (const uint64_t ns : recovery_ns) recovery_total += ns;

  // Everything below must repeat exactly for a given workload and seed.
  JsonObject virt;
  virt.num("job_virtual_ns", static_cast<int64_t>(job_virtual))
      .num("recovery_virtual_ns", recovery_total)
      .num("ckpt_stable_bytes", stable_bytes)
      .num("events", engine.events_executed())
      .num("restarts", static_cast<uint64_t>(d0.restarts_performed()))
      .num("latest_committed", last_committed)
      .num("epochs_timed", epochs.epochs)
      .num("epoch_total_ns", static_cast<int64_t>(epochs.total))
      .raw("victims", join_ints(victims))
      .raw("crash_times_ns", join_ints(crash_times_ns))
      .raw("recovery_ns", join_ints(recovery_ns))
      .str("output", got);

  JsonObject out;
  out.str("workload", w.name)
      .flag("ok", error.empty())
      .str("error", error)
      .str("expected_output", w.expected_output)
      .num("setup_s", setup_s)
      .num("wall_s", wall_s)
      .num("peak_rss_mb", peak_rss_mb())
      .str("simd", starfish::util::simd::isa_name(starfish::util::simd::level()))
      .raw("virtual", virt.text());
  if (traced) {
    // One output line: the snapshot's newlines are JSON whitespace only.
    std::string registry = hub.metrics.to_json();
    std::replace(registry.begin(), registry.end(), '\n', ' ');
    out.raw("registry", registry);
    obs::set_default_hub(nullptr);
  }
  std::printf("%s\n", out.text().c_str());
  std::fflush(stdout);
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner run|replay --workload NAME --seed N [--traced]\n");
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage();
  const std::string mode = argv[1];
  std::string name;
  uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--traced") {
      traced = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else {
      usage();
    }
  }
  if (name.empty() || !have_seed || (mode != "run" && mode != "replay")) usage();
  // Both levers would silently change what is measured: STARFISH_SHARDS
  // overrides ClusterOptions::shards = 1, STARFISH_OBS_FORCE traces the
  // untraced run.
  for (const char* lever : {"STARFISH_SHARDS", "STARFISH_OBS_FORCE"}) {
    if (std::getenv(lever) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", lever);
      return 2;
    }
  }
  try {
    const Workload w = make_workload(name, seed);
    if (mode == "replay") {
      std::printf("%s\n", replay_json(w).c_str());
      return 0;
    }
    return run_workload(w, traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
