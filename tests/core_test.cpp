#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/incremental.hpp"
#include "core/bus.hpp"
#include "core/cluster.hpp"
#include "core/cr.hpp"

namespace starfish::core {
namespace {

using daemon::AppPhase;
using daemon::CkptLevel;
using daemon::CrProtocol;
using daemon::FtPolicy;
using daemon::JobSpec;
using sim::milliseconds;
using sim::seconds;

// VM ring app: a token circulates R rounds; every rank adds its rank number
// on receipt; rank 0 prints the final token (= R * sum of ranks) and all
// ranks halt. Exercises p2p + restartable VM state.
std::string ring_program(int rounds, int spin_per_hop) {
  return R"(
# globals: g0 = round counter, g1 = token
func main 0 2
  syscall rank
  store_local 0          # my rank
  syscall world_size
  store_local 1          # n
  push_int 0
  store_global 0         # round = 0
  push_int 0
  store_global 1         # token = 0
loop:
  load_global 0
  push_int )" + std::to_string(rounds) + R"(
  ge
  jmp_if_false body
  jmp done
body:
  push_int )" + std::to_string(spin_per_hop) + R"(
  syscall spin
  load_local 0
  push_int 0
  eq
  jmp_if_false relay
  # rank 0: send token, then wait for it to come back
  push_int 1
  load_local 1
  push_int 1
  eq
  jmp_if_false send0
  pop                     # n == 1: nobody to send to; just count rounds
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
send0:
  load_global 1
  syscall send_to
  push_int -1
  syscall recv_from
  store_global 1
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
relay:
  # other ranks: receive, add my rank, forward to (rank+1) mod n
  push_int -1
  syscall recv_from
  load_local 0
  add
  store_global 1
  load_local 0
  push_int 1
  add
  load_local 1
  mod
  load_global 1
  syscall send_to
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
done:
  load_local 0
  push_int 0
  eq
  jmp_if_false finish
  load_global 1
  syscall print
finish:
  halt
)";
}

JobSpec ring_job(const std::string& name, uint32_t nprocs, int rounds = 40,
                 int spin = 20000) {
  JobSpec job;
  job.name = name;
  job.binary = "ring";
  job.nprocs = nprocs;
  (void)rounds;
  (void)spin;
  return job;
}

struct Fixture {
  Cluster cluster;
  explicit Fixture(size_t nodes = 4, ClusterOptions opts = {}) : cluster([&] {
    opts.nodes = nodes;
    return opts;
  }()) {
    // ~5 ms of compute per rank per round: the 40-round job runs ~210 ms of
    // virtual time, so periodic checkpoints (50-70 ms) fire several times.
    cluster.registry().register_vm("ring", ring_program(40, 100000));
    cluster.boot();
  }
};

int64_t expected_ring_token(uint32_t n, int rounds) {
  int64_t per_round = 0;
  for (uint32_t r = 1; r < n; ++r) per_round += r;
  return per_round * rounds;
}

bool output_contains(const std::vector<std::string>& lines, const std::string& needle) {
  return std::any_of(lines.begin(), lines.end(),
                     [&](const std::string& l) { return l.find(needle) != std::string::npos; });
}

// ----------------------------------------------------------- basic run ----

TEST(ClusterRun, VmRingCompletesWithCorrectResult) {
  Fixture f(4);
  f.cluster.submit(ring_job("job1", 4));
  ASSERT_TRUE(f.cluster.run_until_done("job1"));
  auto out = f.cluster.output("job1");
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(output_contains(out, std::to_string(expected_ring_token(4, 40))));
}

TEST(ClusterRun, SingleProcessJob) {
  Fixture f(2);
  f.cluster.submit(ring_job("solo", 1));
  ASSERT_TRUE(f.cluster.run_until_done("solo"));
}

TEST(ClusterRun, MoreRanksThanNodesColocates) {
  Fixture f(2);
  f.cluster.submit(ring_job("big", 5));
  ASSERT_TRUE(f.cluster.run_until_done("big"));
  EXPECT_TRUE(output_contains(f.cluster.output("big"), std::to_string(expected_ring_token(5, 40))));
}

TEST(ClusterRun, NativeAppWithCollectives) {
  Fixture f(3);
  f.cluster.registry().register_native("sum", [](AppContext& ctx) {
    auto total = ctx.world().allreduce(
        std::vector<int64_t>{static_cast<int64_t>(ctx.rank() + 1)}, mpi::ReduceOp::kSum);
    if (ctx.rank() == 0) ctx.print("total=" + std::to_string(total[0]));
  });
  JobSpec job;
  job.name = "sumjob";
  job.binary = "sum";
  job.nprocs = 3;
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("sumjob"));
  EXPECT_TRUE(output_contains(f.cluster.output("sumjob"), "total=6"));
}

TEST(ClusterRun, UnknownBinaryFails) {
  Fixture f(2);
  JobSpec job;
  job.name = "ghost";
  job.binary = "no-such-binary";
  job.nprocs = 2;
  f.cluster.submit(job);
  EXPECT_FALSE(f.cluster.run_until_done("ghost", seconds(10.0)));
  EXPECT_EQ(f.cluster.phase("ghost"), AppPhase::kFailed);
}

TEST(ClusterRun, RejectsShardsOtherThanOne) {
  // The engine runs one event loop on one thread; a caller asking for
  // worker shards must hear so instead of silently running sequentially.
  ClusterOptions opts;
  opts.shards = 2;
  EXPECT_THROW(Cluster{opts}, std::invalid_argument);
  opts.shards = 0;
  EXPECT_THROW(Cluster{opts}, std::invalid_argument);
}

TEST(ClusterRun, TwoConcurrentApps) {
  Fixture f(4);
  f.cluster.submit(ring_job("a", 3));
  f.cluster.submit(ring_job("b", 4));
  ASSERT_TRUE(f.cluster.run_until_done("a"));
  ASSERT_TRUE(f.cluster.run_until_done("b"));
  EXPECT_TRUE(output_contains(f.cluster.output("a"), std::to_string(expected_ring_token(3, 40))));
  EXPECT_TRUE(output_contains(f.cluster.output("b"), std::to_string(expected_ring_token(4, 40))));
}

// ------------------------------------------------------- checkpointing ----

TEST(Checkpointing, StopAndSyncCommitsEpochs) {
  Fixture f(4);
  auto job = ring_job("ck", 4);
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(60);
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("ck"));
  auto committed = f.cluster.store().latest_committed("ck");
  ASSERT_TRUE(committed.has_value());
  EXPECT_GE(*committed, 1u);
  EXPECT_TRUE(output_contains(f.cluster.output("ck"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Checkpointing, KillPolicyStopsAppOnCrash) {
  Fixture f(4);
  auto job = ring_job("frail", 4);
  job.policy = FtPolicy::kKill;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(30));
  f.cluster.crash_node(2);
  EXPECT_FALSE(f.cluster.run_until_done("frail", seconds(20.0)));
  EXPECT_EQ(f.cluster.phase("frail"), AppPhase::kFailed);
}

TEST(Checkpointing, RestartFromStopAndSyncCheckpointAfterCrash) {
  Fixture f(4);
  auto job = ring_job("phoenix", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(130));  // let a couple of checkpoints commit
  ASSERT_TRUE(f.cluster.store().latest_committed("phoenix").has_value());
  f.cluster.crash_node(3);
  ASSERT_TRUE(f.cluster.run_until_done("phoenix"));
  // The result is exactly right despite the mid-run crash and rollback.
  EXPECT_TRUE(
      output_contains(f.cluster.output("phoenix"), std::to_string(expected_ring_token(4, 40))));
  EXPECT_GE(f.cluster.daemon_at(0).restarts_performed(), 1u);
}

TEST(Checkpointing, StopAndSyncJobCrashedTwicePrintsGoldenOutput) {
  // Each restart retires every local incarnation (daemon graveyard) and
  // frees its VM at terminate; the replacements must not depend on any of
  // it across two rollbacks.
  Fixture f(4);
  auto job = ring_job("twice", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(130));
  ASSERT_TRUE(f.cluster.store().latest_committed("twice").has_value());
  f.cluster.crash_node(3);
  for (int ms = 0; ms < 5000 && f.cluster.daemon_at(0).restarts_performed() == 0; ++ms) {
    f.cluster.run_for(milliseconds(1));
  }
  ASSERT_EQ(f.cluster.daemon_at(0).restarts_performed(), 1u);
  f.cluster.run_for(milliseconds(60));  // the restarted job runs a while
  ASSERT_NE(f.cluster.phase("twice"), AppPhase::kCompleted);
  f.cluster.crash_node(2);
  ASSERT_TRUE(f.cluster.run_until_done("twice"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("twice"), std::to_string(expected_ring_token(4, 40))));
  EXPECT_GE(f.cluster.daemon_at(0).restarts_performed(), 2u);
}

// The checkpoint container decoder fails closed: every truncation point
// and an appended byte of a container holding two recorded envelopes is
// Error{"decode"}, and the intact bytes decode to views of every blob.
TEST(CheckpointContainer, DecodeFailsClosedOnTruncationAndTrailingBytes) {
  const util::Bytes tracker = {std::byte{1}, std::byte{2}, std::byte{3}};
  const util::Bytes app_state(300, std::byte{0x5a});
  const util::Bytes channel = {std::byte{9}};
  Container c{tracker, app_state, channel, {}};
  for (uint32_t i = 0; i < 2; ++i) {
    mpi::Envelope e;
    e.comm = 7 + i;
    e.src = 2 - i;
    e.tag = -3 - static_cast<int32_t>(i);
    e.send_interval = 40 + i;
    e.data = util::Bytes(5 + i, std::byte{static_cast<uint8_t>(0xa0 + i)});
    c.recorded.push_back(std::move(e));
  }
  const util::Bytes bytes = c.encode();
  EXPECT_EQ(bytes.capacity(), bytes.size());

  auto back = Container::decode(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_TRUE(std::ranges::equal(back.value().tracker, tracker));
  EXPECT_TRUE(std::ranges::equal(back.value().app_state, app_state));
  EXPECT_TRUE(std::ranges::equal(back.value().channel_state, channel));
  ASSERT_EQ(back.value().recorded.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const mpi::Envelope& got = back.value().recorded[i];
    EXPECT_EQ(got.comm, c.recorded[i].comm);
    EXPECT_EQ(got.src, c.recorded[i].src);
    EXPECT_EQ(got.tag, c.recorded[i].tag);
    EXPECT_EQ(got.send_interval, c.recorded[i].send_interval);
    EXPECT_EQ(got.data, c.recorded[i].data);
  }

  struct Case {
    std::string name;
    util::Bytes bytes;
  };
  std::vector<Case> cases;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    cases.push_back({"truncated to " + std::to_string(cut),
                     util::Bytes(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(cut))});
  }
  util::Bytes appended = bytes;
  appended.push_back(std::byte{0});
  cases.push_back({"one appended byte", std::move(appended)});
  for (const Case& k : cases) {
    auto r = Container::decode(k.bytes);
    ASSERT_FALSE(r.ok()) << k.name;
    EXPECT_EQ(r.error().code, "decode") << k.name;
  }
}

TEST(Checkpointing, RestartWithoutAnyCheckpointRestartsFromScratch) {
  Fixture f(3);
  auto job = ring_job("fresh", 3);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = 0;  // no system checkpoints
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(40));
  f.cluster.crash_node(2);
  ASSERT_TRUE(f.cluster.run_until_done("fresh"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("fresh"), std::to_string(expected_ring_token(3, 40))));
}

TEST(Checkpointing, ChandyLamportDoesNotBlockTheApplication) {
  Fixture f(4);
  auto job = ring_job("cl", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kChandyLamport;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(60);
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("cl"));
  auto committed = f.cluster.store().latest_committed("cl");
  ASSERT_TRUE(committed.has_value());
  EXPECT_GE(*committed, 1u);
  EXPECT_TRUE(output_contains(f.cluster.output("cl"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Checkpointing, ChandyLamportRestartAfterCrash) {
  Fixture f(4);
  auto job = ring_job("clr", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kChandyLamport;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(130));
  f.cluster.crash_node(1);
  ASSERT_TRUE(f.cluster.run_until_done("clr"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("clr"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Checkpointing, UncoordinatedRestartUsesRecoveryLine) {
  Fixture f(4);
  auto job = ring_job("unco", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kUncoordinated;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(70);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(250));
  f.cluster.crash_node(2);
  ASSERT_TRUE(f.cluster.run_until_done("unco"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("unco"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Checkpointing, NativeLevelHomogeneousRestart) {
  // Pure-compute native app: state hooks make it restartable.
  Fixture f(3);
  f.cluster.registry().register_native("worker", [](AppContext& ctx) {
    int64_t i = 0;
    ctx.set_state_restore([&](const util::Bytes& b) {
      util::Reader r(util::as_bytes_view(b));
      i = r.i64().value_or(0);
    });
    ctx.set_state_capture([&] {
      util::Bytes b;
      util::Writer w(b);
      w.i64(i);
      return b;
    });
    while (i < 20) {
      ctx.compute(milliseconds(10));
      ++i;
    }
    ctx.print("rank" + std::to_string(ctx.rank()) + " finished at " + std::to_string(i));
  });
  JobSpec job;
  job.name = "nat";
  job.binary = "worker";
  job.nprocs = 3;
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kNative;
  job.ckpt_interval = milliseconds(40);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(120));
  f.cluster.crash_node(1);
  ASSERT_TRUE(f.cluster.run_until_done("nat"));
  auto out = f.cluster.output("nat");
  int finished = 0;
  for (const auto& line : out) {
    if (line.find("finished at 20") != std::string::npos) ++finished;
  }
  EXPECT_GE(finished, 3);
}

// ------------------------------------------------ dynamicity / notify ----

TEST(Dynamicity, NotifyPolicyRepartitionsWork) {
  // The paper's trivially-parallel pattern: work units are repartitioned
  // over the surviving ranks after a failure (section 3.2.2).
  constexpr int kUnits = 30;
  Fixture f(4);
  f.cluster.registry().register_native("partition", [](AppContext& ctx) {
    constexpr int kResultTag = 1;
    constexpr int kDoneTag = 2;
    if (ctx.rank() == 0) {
      // Collector: gather every unit's result (workers may resend after a
      // view change; dedupe by unit id), then dismiss the workers.
      std::vector<int64_t> results(kUnits, -1);
      int have = 0;
      while (have < kUnits) {
        auto data = ctx.world().recv(mpi::kAnySource, kResultTag);
        util::Reader r(util::as_bytes_view(data));
        const int64_t unit = r.i64().value_or(0);
        const int64_t value = r.i64().value_or(0);
        if (results[static_cast<size_t>(unit)] < 0) {
          results[static_cast<size_t>(unit)] = value;
          ++have;
        }
      }
      int64_t total = 0;
      for (auto v : results) total += v;
      ctx.print("sum=" + std::to_string(total));
      for (uint32_t r = 1; r < ctx.size(); ++r) {
        ctx.world().send(static_cast<int>(r), kDoneTag, {});
      }
      return;
    }
    // Workers: compute the units assigned to me under the current live set;
    // a view change re-partitions (we conservatively resend everything). A
    // worker never exits on its own — failure detection may lag the crash,
    // so it idles until a new view or the collector's DONE arrives.
    std::vector<uint32_t> live;
    for (uint32_t i = 0; i < ctx.size(); ++i) live.push_back(i);
    bool changed = false;
    ctx.set_view_handler([&](const std::vector<uint32_t>& now_live) {
      live = now_live;
      changed = true;
    });
    for (;;) {
      changed = false;
      // Workers = live ranks except the collector.
      std::vector<uint32_t> workers;
      for (uint32_t r : live) {
        if (r != 0) workers.push_back(r);
      }
      auto me = std::find(workers.begin(), workers.end(), ctx.rank());
      if (me != workers.end()) {
        const size_t my_index = static_cast<size_t>(me - workers.begin());
        for (int unit = 0; unit < kUnits; ++unit) {
          if (static_cast<size_t>(unit) % workers.size() != my_index) continue;
          ctx.compute(milliseconds(5));
          if (changed) break;  // repartition and start over
          util::Bytes b;
          util::Writer w(b);
          w.i64(unit);
          w.i64(unit * unit);
          ctx.world().send(0, kResultTag, std::move(b));
        }
      }
      // Pass complete: idle until repartitioned or dismissed.
      while (!changed) {
        if (ctx.world().proc().iprobe(ctx.world().id(), 0, kDoneTag)) {
          (void)ctx.world().recv(0, kDoneTag);
          return;
        }
        ctx.compute(milliseconds(10));
      }
    }
  });
  JobSpec job;
  job.name = "dyn";
  job.binary = "partition";
  job.nprocs = 4;
  job.policy = FtPolicy::kNotifyViews;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(40));
  f.cluster.crash_node(2);  // kills one worker mid-computation
  // Rank 0 finishes once every unit arrived; workers finish after their pass.
  f.cluster.run_for(seconds(5.0));
  int64_t expect = 0;
  for (int u = 0; u < kUnits; ++u) expect += static_cast<int64_t>(u) * u;
  EXPECT_TRUE(output_contains(f.cluster.output("dyn"), "sum=" + std::to_string(expect)));
}

// --------------------------------------------------- mgmt & lifecycle ----

TEST(Management, LoginSubmitStatusViaAsciiProtocol) {
  Fixture f(3);
  auto replies = f.cluster.client_session(
      0, {"LOGIN alice secret USER", "SUBMIT mj ring 3 PROTOCOL=sync INTERVAL_MS=100",
          "PS", "STATUS mj"});
  ASSERT_GE(replies.size(), 5u);
  EXPECT_NE(replies[0].find("STARFISH"), std::string::npos);
  EXPECT_EQ(replies[1], "OK session user");
  EXPECT_EQ(replies[2], "OK submitted mj");
  EXPECT_NE(replies[3].find("mj"), std::string::npos);
  EXPECT_NE(replies[4].find("phase="), std::string::npos);
  ASSERT_TRUE(f.cluster.run_until_done("mj"));
}

TEST(Management, AdminRequiredForClusterConfig) {
  Fixture f(2);
  auto replies = f.cluster.client_session(
      0, {"LOGIN bob whatever USER", "SET scheduler fifo", "NODE DISABLE 1"});
  EXPECT_EQ(replies[2], "ERR management session required");
  EXPECT_EQ(replies[3], "ERR management session required");

  auto admin = f.cluster.client_session(
      1, {"LOGIN root starfish ADMIN", "SET scheduler fifo", "GET scheduler", "NODES"});
  EXPECT_EQ(admin[1], "OK session management");
  EXPECT_EQ(admin[2], "OK set requested");
  // The SET is a totally ordered broadcast; give it a moment, then re-read.
  f.cluster.run_for(milliseconds(20));
  auto check = f.cluster.client_session(0, {"LOGIN root starfish ADMIN", "GET scheduler"});
  EXPECT_EQ(check[2], "OK fifo");
}

TEST(Management, BadLoginAndUnknownCommands) {
  Fixture f(2);
  auto replies = f.cluster.client_session(
      0, {"PS", "LOGIN root wrongpw ADMIN", "LOGIN u p USER", "FLY", "STATUS nope"});
  EXPECT_EQ(replies[1], "ERR login first");
  EXPECT_EQ(replies[2], "ERR bad admin credentials");
  EXPECT_EQ(replies[3], "OK session user");
  EXPECT_NE(replies[4].find("ERR unknown command"), std::string::npos);
  EXPECT_EQ(replies[5], "ERR no such job");
}

TEST(Management, OwnershipEnforcedOnDelete) {
  Fixture f(2);
  auto a = f.cluster.client_session(0, {"LOGIN alice x USER", "SUBMIT owned ring 2"});
  EXPECT_EQ(a[2], "OK submitted owned");
  f.cluster.run_for(milliseconds(50));
  auto b = f.cluster.client_session(1, {"LOGIN mallory x USER", "DELETE owned"});
  EXPECT_EQ(b[2], "ERR not your job");
  auto c = f.cluster.client_session(1, {"LOGIN root starfish ADMIN", "DELETE owned"});
  EXPECT_EQ(c[2], "OK delete requested");
  f.cluster.run_for(milliseconds(100));
  EXPECT_EQ(f.cluster.phase("owned"), AppPhase::kDeleted);
}

TEST(Management, DisabledNodeExcludedFromPlacement) {
  Fixture f(3);
  f.cluster.daemon_at(0).node_ctl(2, false);
  f.cluster.run_for(milliseconds(20));
  f.cluster.submit(ring_job("placed", 3));
  f.cluster.run_for(milliseconds(50));
  EXPECT_TRUE(f.cluster.daemon_at(2).local_ranks("placed").empty());
  // Nodes 0 and 1 host all three ranks between them.
  EXPECT_EQ(f.cluster.daemon_at(0).local_ranks("placed").size() +
                f.cluster.daemon_at(1).local_ranks("placed").size(),
            3u);
  ASSERT_TRUE(f.cluster.run_until_done("placed"));
}

TEST(Lifecycle, SuspendPausesAndResumeFinishes) {
  Fixture f(3);
  f.cluster.submit(ring_job("nap", 3));
  f.cluster.run_for(milliseconds(30));
  f.cluster.daemon_at(0).suspend_app("nap");
  f.cluster.run_for(seconds(2.0));
  EXPECT_EQ(f.cluster.phase("nap"), AppPhase::kSuspended);
  f.cluster.daemon_at(1).resume_app("nap");
  ASSERT_TRUE(f.cluster.run_until_done("nap"));
  EXPECT_TRUE(output_contains(f.cluster.output("nap"), std::to_string(expected_ring_token(3, 40))));
}

TEST(Lifecycle, VmTrapReportsFailure) {
  Fixture f(2);
  f.cluster.registry().register_vm("crash", R"(
func main 0 0
  push_int 1
  push_int 0
  div
  halt
)");
  JobSpec job;
  job.name = "boom";
  job.binary = "crash";
  job.nprocs = 2;
  job.policy = FtPolicy::kKill;
  f.cluster.submit(job);
  EXPECT_FALSE(f.cluster.run_until_done("boom", seconds(10.0)));
  EXPECT_EQ(f.cluster.phase("boom"), AppPhase::kFailed);
}

TEST(Lifecycle, DeterministicTrapExhaustsRestartCap) {
  Fixture f(2);
  f.cluster.registry().register_vm("crash2", R"(
func main 0 0
  push_int 100
  syscall sleep_ms
  push_int 1
  push_int 0
  div
  halt
)");
  JobSpec job;
  job.name = "loopy";
  job.binary = "crash2";
  job.nprocs = 1;
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  f.cluster.submit(job);
  EXPECT_FALSE(f.cluster.run_until_done("loopy", seconds(30.0)));
  EXPECT_EQ(f.cluster.phase("loopy"), AppPhase::kFailed);
}

TEST(Lifecycle, TerminatedVmRankReleasesItsInterpreter) {
  // A retired incarnation frees its VM state at terminate(); only the
  // handle stays alive (parked) until the fibers' kill-unwinds land.
  ClusterOptions opts;
  opts.nodes = 1;
  Cluster cluster(opts);
  cluster.registry().register_vm("hog", R"(
func main 0 0
  push_int 1000000
  new_array
  store_global 0
spin:
  push_int 1000
  syscall spin
  jmp spin
)");
  Launcher launcher(cluster.network(), cluster.store(), cluster.registry());
  daemon::LaunchRequest req;
  req.job.name = "hog";
  req.job.binary = "hog";
  req.job.nprocs = 1;
  std::optional<net::NetAddr> addr;
  auto handle = launcher.launch(*cluster.network().host(0), req, [&](const daemon::LinkMsg& m) {
    if (m.kind == daemon::LinkKind::kReady) addr = m.vni_addr;
  });
  auto* proc = dynamic_cast<ApplicationProcess*>(handle.get());
  ASSERT_NE(proc, nullptr);
  ASSERT_TRUE(addr.has_value());
  daemon::LinkMsg cfg;
  cfg.kind = daemon::LinkKind::kConfigure;
  cfg.world = {*addr};
  handle->deliver(cfg);
  cluster.run_for(milliseconds(20));
  ASSERT_TRUE(proc->is_vm_app());
  ASSERT_GT(proc->capture_app_state().size(), 1'000'000u);  // the array is live

  handle->terminate();
  cluster.run_for(milliseconds(20));  // the kill-unwinds land
  EXPECT_FALSE(handle->alive());
  EXPECT_FALSE(proc->is_vm_app());
  EXPECT_TRUE(proc->capture_app_state().empty());
}

TEST(Lifecycle, CrashedHostReleasesItsVmRanks) {
  // A crash kills the host's fibers, but the process object lives on in
  // whoever holds its handle (its daemon, a graveyard). Its VM state must
  // go with the host, not with the handle.
  ClusterOptions opts;
  opts.nodes = 2;
  Cluster cluster(opts);
  cluster.registry().register_vm("hog", R"(
func main 0 0
  push_int 1000000
  new_array
  store_global 0
spin:
  push_int 1000
  syscall spin
  jmp spin
)");
  Launcher launcher(cluster.network(), cluster.store(), cluster.registry());
  daemon::LaunchRequest req;
  req.job.name = "hog";
  req.job.binary = "hog";
  req.job.nprocs = 1;
  std::optional<net::NetAddr> addr;
  auto on_host = [&](sim::HostId h) {
    return launcher.launch(*cluster.network().host(h), req, [&](const daemon::LinkMsg& m) {
      if (m.kind == daemon::LinkKind::kReady) addr = m.vni_addr;
    });
  };
  auto victim = on_host(0);
  ASSERT_TRUE(addr.has_value());
  daemon::LinkMsg cfg;
  cfg.kind = daemon::LinkKind::kConfigure;
  cfg.world = {*addr};
  victim->deliver(cfg);
  auto bystander = on_host(1);  // never configured: its VM is idle but allocated
  cluster.run_for(milliseconds(20));
  auto* proc = dynamic_cast<ApplicationProcess*>(victim.get());
  auto* other = dynamic_cast<ApplicationProcess*>(bystander.get());
  ASSERT_NE(proc, nullptr);
  ASSERT_NE(other, nullptr);
  ASSERT_TRUE(proc->is_vm_app());
  ASSERT_GT(proc->capture_app_state().size(), 1'000'000u);  // the array is live

  cluster.crash_node(0);
  EXPECT_FALSE(proc->is_vm_app());
  EXPECT_TRUE(proc->capture_app_state().empty());
  EXPECT_TRUE(other->is_vm_app());  // another host's rank keeps its VM
  cluster.run_for(milliseconds(20));  // the kill-unwinds land
  EXPECT_FALSE(proc->is_vm_app());

  // A destroyed process leaves no hook behind for a later crash to run
  // (the handle outlives its fibers' kill-unwinds, as in a graveyard).
  bystander->terminate();
  cluster.run_for(milliseconds(20));
  bystander.reset();
  cluster.crash_node(1);
  cluster.run_for(milliseconds(20));
}

// ------------------------------------------------------- heterogeneity ----

TEST(Heterogeneous, VmLevelCheckpointRestoresAcrossRepresentations) {
  // Mixed cluster: rank placement after the crash moves work onto machines
  // with different endianness/word size; VM-level images convert.
  ClusterOptions opts;
  auto machines = sim::table2_machines();
  opts.machines = {machines[0], machines[1], machines[5], machines[2]};  // LE32, BE32, LE64, BE32
  Fixture f(4, opts);
  auto job = ring_job("hetero", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(130));
  f.cluster.crash_node(0);  // the little-endian 32-bit node dies
  ASSERT_TRUE(f.cluster.run_until_done("hetero"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("hetero"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Heterogeneous, NativeLevelRefusesCrossRepresentationRestore) {
  // Same scenario at the native level: rank 0's image was written on a
  // little-endian 32-bit machine; after the crash it is placed on a machine
  // with a different representation and the restore must fail (homogeneous
  // restriction), eventually failing the app.
  ClusterOptions opts;
  auto machines = sim::table2_machines();
  opts.machines = {machines[0], machines[1], machines[1], machines[1]};  // LE32 + 3x BE32
  Fixture f(4, opts);
  auto job = ring_job("homonly", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kNative;
  job.ckpt_interval = milliseconds(50);
  f.cluster.submit(job);
  // Native dumps take ~105 ms per image plus per-member sync, so the first
  // commit lands ~200 ms in.
  f.cluster.run_for(milliseconds(208));
  ASSERT_TRUE(f.cluster.store().latest_committed("homonly").has_value());
  f.cluster.crash_node(0);
  EXPECT_FALSE(f.cluster.run_until_done("homonly", seconds(30.0)));
  EXPECT_EQ(f.cluster.phase("homonly"), AppPhase::kFailed);
}

// ----------------------------------------------------------- object bus ----

TEST(ObjectBus, FanOutToMultipleListeners) {
  ObjectBus bus;
  int a = 0, b = 0;
  bus.subscribe(EventKind::kCoord, [&](const Event&) { ++a; });
  bus.subscribe(EventKind::kCoord, [&](const Event&) { ++b; });
  bus.subscribe(EventKind::kAppView, [&](const Event&) { a += 100; });
  Event e{EventKind::kCoord, {}, 0};
  bus.post(e);
  EXPECT_EQ(a, 1);  // the kAppView listener did not fire
  EXPECT_EQ(b, 1);
  EXPECT_EQ(bus.events_posted(), 1u);
}

TEST(ObjectBus, PostWithNoListenersIsHarmless) {
  ObjectBus bus;
  Event e{EventKind::kTerminate, {}, 0};
  bus.post(e);
  EXPECT_EQ(bus.events_posted(), 0u);  // nothing delivered, nothing counted
}

TEST(ObjectBus, ListenerMaySubscribeDuringDispatch) {
  ObjectBus bus;
  int late = 0;
  bus.subscribe(EventKind::kResume, [&](const Event&) {
    bus.subscribe(EventKind::kResume, [&](const Event&) { ++late; });
  });
  Event e{EventKind::kResume, {}, 0};
  bus.post(e);  // must not invalidate iteration
  EXPECT_EQ(late, 0);
  bus.post(e);  // the late listener fires from now on
  EXPECT_EQ(late, 1);
}

TEST(ObjectBus, EventCarriesValueAndLinkPayload) {
  ObjectBus bus;
  uint64_t seen_value = 0;
  std::string seen_text;
  bus.subscribe(EventKind::kCheckpointDone, [&](const Event& ev) {
    seen_value = ev.value;
    seen_text = ev.link.text;
  });
  Event e;
  e.kind = EventKind::kCheckpointDone;
  e.value = 42;
  e.link.text = "epoch info";
  bus.post(e);
  EXPECT_EQ(seen_value, 42u);
  EXPECT_EQ(seen_text, "epoch info");
}

// ------------------------------------------------- VM collective syscalls ----

TEST(VmCollectives, BarrierAndAllreduceSyscalls) {
  Fixture f(3);
  f.cluster.registry().register_vm("collect", R"(
func main 0 0
  syscall barrier
  syscall rank
  push_int 1
  add
  syscall allreduce_sum
  syscall rank
  push_int 0
  eq
  jmp_if_false skip
  syscall print
  halt
skip:
  pop
  halt
)");
  JobSpec job;
  job.name = "vmcol";
  job.binary = "collect";
  job.nprocs = 3;
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("vmcol"));
  EXPECT_TRUE(output_contains(f.cluster.output("vmcol"), "6"));  // 1+2+3
}

// ------------------------------------------- forked & incremental C/R ----

TEST(ForkedCheckpoint, CutsBlockingTimeAndStillRestores) {
  // libckpt-style copy-on-write checkpointing: the app resumes right after
  // the in-memory snapshot; with plain stop-and-sync it stays frozen for
  // the whole disk write. Completion time difference shows the win.
  auto run_ring = [](bool forked) {
    Fixture f(4);
    auto job = ring_job("fk", 4);
    job.policy = FtPolicy::kRestart;
    job.protocol = CrProtocol::kStopAndSync;
    job.level = CkptLevel::kVm;
    job.ckpt_interval = milliseconds(60);
    job.forked_ckpt = forked;
    f.cluster.submit(job);
    EXPECT_TRUE(f.cluster.run_until_done("fk"));
    EXPECT_TRUE(
        output_contains(f.cluster.output("fk"), std::to_string(expected_ring_token(4, 40))));
    return sim::to_seconds(f.cluster.engine().now());
  };
  const double plain = run_ring(false);
  const double forked = run_ring(true);
  EXPECT_LT(forked, plain);  // less time spent frozen
}

TEST(ForkedCheckpoint, RestartFromForkedEpochIsCorrect) {
  Fixture f(4);
  auto job = ring_job("fkr", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  job.forked_ckpt = true;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(130));
  ASSERT_TRUE(f.cluster.store().latest_committed("fkr").has_value());
  f.cluster.crash_node(2);
  ASSERT_TRUE(f.cluster.run_until_done("fkr"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("fkr"), std::to_string(expected_ring_token(4, 40))));
}

// Incremental checkpointing is the store's delta codec: ckpt_compress =
// kDelta against kOff.

TEST(IncrementalCheckpoint, WritesFewerBytesForSparseState) {
  // A native app with a large, mostly-static state: delta-coded epochs
  // should write far fewer bytes than full images.
  struct Written {
    uint64_t bytes = 0;
    uint64_t images = 0;
  };
  auto run = [](ckpt::CompressMode mode) {
    ClusterOptions opts;
    opts.ckpt_compress = mode;
    Fixture f(2, opts);
    f.cluster.registry().register_native("sparse", [](AppContext& ctx) {
      util::Bytes state(1024 * 1024, std::byte{0});
      int64_t step = 0;
      ctx.set_state_capture([&] { return state; });
      ctx.set_state_restore([&](const util::Bytes& b) {
        state = b;
        util::Reader r(util::as_bytes_view(state));
        step = r.i64().value_or(0);
      });
      while (step < 120) {
        ctx.compute(milliseconds(10));
        ++step;
        util::Bytes head;
        util::Writer w(head);
        w.i64(step);  // only the first few bytes of the state mutate
        std::copy(head.begin(), head.end(), state.begin());
      }
    });
    JobSpec job;
    job.name = "sp";
    job.binary = "sparse";
    job.nprocs = 2;
    job.protocol = CrProtocol::kStopAndSync;
    job.level = CkptLevel::kNative;
    job.ckpt_interval = milliseconds(40);
    f.cluster.submit(job);
    EXPECT_TRUE(f.cluster.run_until_done("sp", seconds(60.0)));
    Written out;
    out.bytes = f.cluster.store().bytes_written();
    // Stop-and-sync epochs are numbered 1, 2, ...: a rank's newest epoch
    // is how many images it wrote.
    for (uint32_t rank = 0; rank < 2; ++rank) {
      out.images += f.cluster.store().latest_stored("sp", rank).value_or(0);
    }
    return out;
  };
  // Every image carries the 632 KB native run-time base, which no payload
  // codec shrinks, and the cheaper delta epochs let more of them fit in
  // the run: compare what one image writes beyond its base. At most one
  // epoch in kFullEvery writes its whole state, the others a few pages.
  const auto beyond_base = [](const Written& w) {
    EXPECT_GT(w.images, 0u);
    EXPECT_GT(w.bytes, w.images * ckpt::kNativeBaseBytes);
    return (w.bytes - w.images * ckpt::kNativeBaseBytes) / std::max<uint64_t>(w.images, 1);
  };
  const uint64_t full = beyond_base(run(ckpt::CompressMode::kOff));
  const uint64_t delta = beyond_base(run(ckpt::CompressMode::kDelta));
  EXPECT_LT(delta, full / 2);
}

constexpr size_t kStatePages = 32;

/// One step of a native state: the step counter in its head and one byte
/// flipped on one of its first 8 pages, so an epoch dirties at most 8
/// pages and leaves the rest to delta references.
void step_pages(util::Bytes& state, int64_t step) {
  util::Bytes head;
  util::Writer w(head);
  w.i64(step);
  std::copy(head.begin(), head.end(), state.begin());
  state[static_cast<size_t>(step % 8) * ckpt::kPageBytes + 100] ^= static_cast<std::byte>(step);
}

uint64_t fold_bytes(const util::Bytes& state) {
  uint64_t h = 1469598103934665603ull;
  for (std::byte b : state) h = (h ^ static_cast<uint64_t>(b)) * 1099511628211ull;
  return h;
}

TEST(IncrementalCheckpoint, RestoreFromDeltaEpochResolvesChain) {
  // A crash while the recovery line is a delta-coded epoch: every rank
  // restores through its delta chain (anchor plus links) and ends with
  // the state a crash-free run computes.
  constexpr int64_t kSteps = 200;
  ClusterOptions opts;
  opts.ckpt_compress = ckpt::CompressMode::kDelta;
  Fixture f(3, opts);
  f.cluster.registry().register_native("pages", [](AppContext& ctx) {
    util::Bytes state(kStatePages * ckpt::kPageBytes, std::byte{0});
    int64_t step = 0;
    ctx.set_state_capture([&] { return state; });
    ctx.set_state_restore([&](const util::Bytes& b) {
      state = b;
      util::Reader r(util::as_bytes_view(state));
      step = r.i64().value_or(0);
    });
    while (step < kSteps) {
      ctx.compute(milliseconds(5));
      step_pages(state, ++step);
    }
    ctx.print("fold=" + std::to_string(fold_bytes(state)));
  });
  JobSpec job;
  job.name = "inc";
  job.binary = "pages";
  job.nprocs = 3;
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kNative;
  job.ckpt_interval = milliseconds(20);
  f.cluster.submit(job);
  // Run until the recovery line is a warm epoch, not a full anchor.
  std::optional<uint64_t> committed;
  for (int i = 0; i < 100; ++i) {
    f.cluster.run_for(milliseconds(5));
    committed = f.cluster.store().latest_committed("inc");
    if (committed && !ckpt::is_full_epoch(*committed)) break;
  }
  ASSERT_TRUE(committed.has_value());
  ASSERT_FALSE(ckpt::is_full_epoch(*committed));
  uint64_t delta_links = 0;
  f.cluster.store().for_each_stored([&](const ckpt::CkptKey& key, const ckpt::StoredImage& img) {
    if (key.app == "inc" && key.epoch == *committed && ckpt::is_delta(img.codec)) ++delta_links;
  });
  EXPECT_EQ(delta_links, 3u) << "epoch " << *committed << " is not delta-coded for every rank";
  f.cluster.crash_node(1);
  ASSERT_TRUE(f.cluster.run_until_done("inc"));
  EXPECT_EQ(f.cluster.daemon_at(0).restarts_performed(), 1u);
  util::Bytes expected(kStatePages * ckpt::kPageBytes, std::byte{0});
  for (int64_t step = 1; step <= kSteps; ++step) step_pages(expected, step);
  const std::string line = "fold=" + std::to_string(fold_bytes(expected));
  const auto& out = f.cluster.output("inc");
  EXPECT_EQ(std::count_if(out.begin(), out.end(),
                          [&](const std::string& l) { return l.find(line) != std::string::npos; }),
            3);
}

// ---------------------------------------------------- MPI-2 dynamic spawn ----

TEST(DynamicSpawn, WorldGrowsAndNewRanksParticipate) {
  // The "dynamic MPI-2 programs" of the paper\'s title: an application asks
  // Starfish for more processes at runtime; the world grows, existing ranks
  // get a view upcall, and a collective over the grown world works.
  Fixture f(4);
  f.cluster.registry().register_native("grower", [](AppContext& ctx) {
    constexpr int kGoTag = 3;
    if (ctx.rank() == 0) {
      ctx.spawn_ranks(2);  // grow 2 -> 4
      while (ctx.size() < 4) ctx.compute(milliseconds(10));
      // Give the spawned ranks a moment to boot, then start the collective.
      for (uint32_t r = 1; r < 4; ++r) ctx.world().send(static_cast<int>(r), kGoTag, {});
      auto sum = ctx.world().allreduce(std::vector<int64_t>{1}, mpi::ReduceOp::kSum);
      ctx.print("members=" + std::to_string(sum[0]));
      return;
    }
    (void)ctx.world().recv(0, kGoTag);
    auto sum = ctx.world().allreduce(std::vector<int64_t>{1}, mpi::ReduceOp::kSum);
    if (ctx.rank() == 3) ctx.print("new-rank-sum=" + std::to_string(sum[0]));
  });
  JobSpec job;
  job.name = "grow";
  job.binary = "grower";
  job.nprocs = 2;
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("grow", seconds(30.0)));
  EXPECT_TRUE(output_contains(f.cluster.output("grow"), "members=4"));
  EXPECT_TRUE(output_contains(f.cluster.output("grow"), "new-rank-sum=4"));
}

TEST(DynamicSpawn, SpawnedRanksVisibleToDaemons) {
  Fixture f(3);
  f.cluster.registry().register_native("grower2", [](AppContext& ctx) {
    if (ctx.rank() == 0) ctx.spawn_ranks(3);  // 2 -> 5 ranks on 3 nodes
    while (ctx.size() < 5) ctx.compute(milliseconds(10));
    ctx.compute(milliseconds(50));
  });
  JobSpec job;
  job.name = "grow2";
  job.binary = "grower2";
  job.nprocs = 2;
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("grow2", seconds(30.0)));
  size_t hosted = 0;
  for (size_t i = 0; i < 3; ++i) hosted += f.cluster.daemon_at(i).local_ranks("grow2").size();
  EXPECT_EQ(hosted, 5u);
}

// ------------------------------------------------------------ migration ----

TEST(Migration, RankMovesToIdleNodeAndFinishes) {
  // Paper section 3.2.1: C/R lets Starfish migrate a process, e.g. when a
  // better node becomes available. Rank 1 moves from node 1 to the idle
  // node 4 mid-run; the job still produces the exact result.
  Fixture f(5);
  auto job = ring_job("mover", 4);  // nodes 0-3 host ranks; node 4 idle
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(60));
  EXPECT_EQ(f.cluster.daemon_at(1).local_ranks("mover"), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(f.cluster.daemon_at(4).local_ranks("mover").empty());

  f.cluster.daemon_at(1).migrate("mover", 1, 4);
  ASSERT_TRUE(f.cluster.run_until_done("mover"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("mover"), std::to_string(expected_ring_token(4, 40))));
  // The rank really moved.
  EXPECT_EQ(f.cluster.daemon_at(4).local_ranks("mover"), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(f.cluster.daemon_at(1).local_ranks("mover").empty());
}

TEST(Migration, MigrationSurvivesLaterCrashOfOldNode) {
  // After rank 1 leaves node 1, killing node 1 must not disturb the app.
  Fixture f(5);
  auto job = ring_job("mover2", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(60));
  f.cluster.daemon_at(1).migrate("mover2", 1, 4);
  f.cluster.run_for(milliseconds(120));  // checkpoint + move complete
  const uint32_t restarts_before = f.cluster.daemon_at(0).restarts_performed();
  f.cluster.crash_node(1);
  ASSERT_TRUE(f.cluster.run_until_done("mover2"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("mover2"), std::to_string(expected_ring_token(4, 40))));
  // Node 1 hosted nothing anymore, so no restart was needed.
  EXPECT_EQ(f.cluster.daemon_at(0).restarts_performed(), restarts_before);
}

// ---------------------------------------------------------- dynamicity ----

TEST(Dynamicity, NodeAddedAtRuntimeJoinsCluster) {
  Fixture f(2);
  f.cluster.run_for(milliseconds(50));
  f.cluster.add_node();
  f.cluster.run_for(seconds(1.0));
  EXPECT_EQ(f.cluster.daemon_at(0).group().view().size(), 3u);
  EXPECT_EQ(f.cluster.daemon_at(2).group().view().size(), 3u);
  // The newcomer is schedulable.
  f.cluster.submit(ring_job("after-add", 3));
  ASSERT_TRUE(f.cluster.run_until_done("after-add"));
  EXPECT_FALSE(f.cluster.daemon_at(2).local_ranks("after-add").empty());
}

}  // namespace
}  // namespace starfish::core
