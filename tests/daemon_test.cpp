// Daemon-layer tests against a fake process launcher: exercise placement,
// lifecycle bookkeeping, the launcher contract, and the management protocol
// without the full application-process machinery.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "daemon/daemon.hpp"
#include "daemon/wire.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace starfish::daemon {
namespace {

using sim::milliseconds;
using sim::seconds;

/// Records launches and lets the test script process behaviour.
class FakeLauncher : public ProcessLauncher {
 public:
  struct FakeProcess : ProcessHandle {
    LaunchRequest request;
    sim::HostId host = sim::kInvalidHost;
    std::function<void(const LinkMsg&)> uplink;
    std::vector<LinkMsg> delivered;
    bool terminated = false;

    void deliver(const LinkMsg& msg) override { delivered.push_back(msg); }
    void terminate() override { terminated = true; }
    bool alive() const override { return !terminated; }
  };

  std::unique_ptr<ProcessHandle> launch(sim::Host& host, const LaunchRequest& request,
                                        std::function<void(const LinkMsg&)> uplink) override {
    auto proc = std::make_unique<FakeProcess>();
    proc->request = request;
    proc->host = host.id();
    proc->uplink = std::move(uplink);
    auto* raw = proc.get();
    processes.push_back(raw);
    // Behave like a real process: announce a fake data-path address.
    LinkMsg ready;
    ready.kind = LinkKind::kReady;
    ready.vni_addr = {host.id(), 40000 + next_port_++};
    raw->uplink(ready);
    return proc;
  }

  std::vector<FakeProcess*> processes;  // non-owning; daemons own the handles

 private:
  net::Port next_port_ = 0;
};

struct Fixture {
  sim::Engine eng;
  net::Network net{eng};
  ckpt::CheckpointStore store{eng};
  FakeLauncher launcher;
  std::vector<std::unique_ptr<Daemon>> daemons;

  explicit Fixture(size_t n) {
    std::vector<net::NetAddr> founders;
    for (size_t i = 0; i < n; ++i) {
      auto host = net.add_host("node" + std::to_string(i));
      founders.push_back({host->id(), 1});
    }
    for (size_t i = 0; i < n; ++i) {
      daemons.push_back(std::make_unique<Daemon>(net, *net.host(static_cast<sim::HostId>(i)),
                                                 store, launcher, DaemonConfig{}));
    }
    for (auto& d : daemons) d->start_founding(founders);
    eng.run_for(milliseconds(5));
  }

  JobSpec job(const std::string& name, uint32_t nprocs) {
    JobSpec j;
    j.name = name;
    j.binary = "fake";
    j.nprocs = nprocs;
    return j;
  }
};

TEST(DaemonUnit, PlacementIsRoundRobinAndIdenticalEverywhere) {
  Fixture f(3);
  f.daemons[0]->submit(f.job("app", 7));
  f.eng.run_for(milliseconds(100));
  // 7 ranks over 3 nodes: 0->{0,3,6}, 1->{1,4}, 2->{2,5}.
  EXPECT_EQ(f.daemons[0]->local_ranks("app"), (std::vector<uint32_t>{0, 3, 6}));
  EXPECT_EQ(f.daemons[1]->local_ranks("app"), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(f.daemons[2]->local_ranks("app"), (std::vector<uint32_t>{2, 5}));
  EXPECT_EQ(f.launcher.processes.size(), 7u);
}

TEST(DaemonUnit, LaunchRequestCarriesJobAndRank) {
  Fixture f(2);
  auto j = f.job("carry", 2);
  j.policy = FtPolicy::kNotifyViews;
  j.protocol = CrProtocol::kChandyLamport;
  j.ckpt_interval = milliseconds(123);
  f.daemons[1]->submit(j);
  f.eng.run_for(milliseconds(100));
  ASSERT_EQ(f.launcher.processes.size(), 2u);
  for (auto* p : f.launcher.processes) {
    EXPECT_EQ(p->request.job.name, "carry");
    EXPECT_EQ(p->request.job.policy, FtPolicy::kNotifyViews);
    EXPECT_EQ(p->request.job.protocol, CrProtocol::kChandyLamport);
    EXPECT_EQ(p->request.job.ckpt_interval, milliseconds(123));
    EXPECT_EQ(p->request.restore_epoch, kNoRestore);
  }
  EXPECT_NE(f.launcher.processes[0]->request.rank, f.launcher.processes[1]->request.rank);
}

TEST(DaemonUnit, ConfigureArrivesOnceAllAddressesKnown) {
  Fixture f(2);
  f.daemons[0]->submit(f.job("cfg", 4));
  f.eng.run_for(milliseconds(100));
  ASSERT_EQ(f.launcher.processes.size(), 4u);
  for (auto* p : f.launcher.processes) {
    int configures = 0;
    for (const auto& m : p->delivered) {
      if (m.kind == LinkKind::kConfigure) {
        ++configures;
        ASSERT_EQ(m.world.size(), 4u);
        for (const auto& addr : m.world) EXPECT_NE(addr.host, sim::kInvalidHost);
      }
    }
    EXPECT_EQ(configures, 1) << "rank " << p->request.rank;
  }
  EXPECT_EQ(f.daemons[0]->app_phase("cfg"), AppPhase::kRunning);
}

TEST(DaemonUnit, RankDoneEventsCompleteTheApp) {
  Fixture f(2);
  f.daemons[0]->submit(f.job("fin", 2));
  f.eng.run_for(milliseconds(100));
  ASSERT_EQ(f.launcher.processes.size(), 2u);
  for (auto* p : f.launcher.processes) {
    LinkMsg done;
    done.kind = LinkKind::kDone;
    done.ok = true;
    p->uplink(done);
  }
  f.eng.run_for(milliseconds(100));
  EXPECT_EQ(f.daemons[0]->app_phase("fin"), AppPhase::kCompleted);
  EXPECT_EQ(f.daemons[1]->app_phase("fin"), AppPhase::kCompleted);
}

TEST(DaemonUnit, ProcessFailureWithKillPolicyTerminatesAll) {
  Fixture f(2);
  auto j = f.job("boom", 4);
  j.policy = FtPolicy::kKill;
  f.daemons[0]->submit(j);
  f.eng.run_for(milliseconds(100));
  LinkMsg fail;
  fail.kind = LinkKind::kDone;
  fail.ok = false;
  fail.text = "fake trap";
  f.launcher.processes[1]->uplink(fail);
  f.eng.run_for(milliseconds(100));
  EXPECT_EQ(f.daemons[0]->app_phase("boom"), AppPhase::kFailed);
  for (auto* p : f.launcher.processes) EXPECT_TRUE(p->terminated);
}

TEST(DaemonUnit, NotifyPolicyDeliversViewsNotTermination) {
  Fixture f(2);
  auto j = f.job("note", 4);
  j.policy = FtPolicy::kNotifyViews;
  f.daemons[0]->submit(j);
  f.eng.run_for(milliseconds(100));
  LinkMsg fail;
  fail.kind = LinkKind::kDone;
  fail.ok = false;
  f.launcher.processes[2]->uplink(fail);  // rank 2 dies in place
  f.eng.run_for(milliseconds(100));
  const uint32_t dead_rank = f.launcher.processes[2]->request.rank;
  int views_seen = 0;
  for (auto* p : f.launcher.processes) {
    if (p == f.launcher.processes[2]) continue;
    EXPECT_FALSE(p->terminated);
    for (const auto& m : p->delivered) {
      if (m.kind == LinkKind::kAppView) {
        ++views_seen;
        EXPECT_EQ(m.live_ranks.size(), 3u);
        for (auto r : m.live_ranks) EXPECT_NE(r, dead_rank);
      }
    }
  }
  EXPECT_EQ(views_seen, 3);
  EXPECT_EQ(f.daemons[0]->app_phase("note"), AppPhase::kRunning);
}

TEST(DaemonUnit, RestartPolicyRelaunchesEveryRankWithRestoreEpoch) {
  Fixture f(3);
  auto j = f.job("redo", 3);
  j.policy = FtPolicy::kRestart;
  j.protocol = CrProtocol::kStopAndSync;
  f.daemons[0]->submit(j);
  f.eng.run_for(milliseconds(100));
  ASSERT_EQ(f.launcher.processes.size(), 3u);
  // Fake a committed recovery line at epoch 7.
  f.store.commit("redo", 7);
  f.net.crash_host(2);
  f.eng.run_for(seconds(2.0));
  // The two survivors relaunched all 3 ranks between them, each restoring 7.
  ASSERT_GE(f.launcher.processes.size(), 6u);
  size_t restored = 0;
  for (size_t i = 3; i < f.launcher.processes.size(); ++i) {
    EXPECT_EQ(f.launcher.processes[i]->request.restore_epoch, 7u);
    ++restored;
  }
  EXPECT_EQ(restored, 3u);
  // Old processes on surviving nodes were terminated.
  EXPECT_TRUE(f.launcher.processes[0]->terminated);
  EXPECT_TRUE(f.launcher.processes[1]->terminated);
}

TEST(DaemonUnit, SuspendAndResumeReachEveryLocalProcess) {
  Fixture f(2);
  f.daemons[0]->submit(f.job("z", 2));
  f.eng.run_for(milliseconds(100));
  f.daemons[1]->suspend_app("z");
  f.eng.run_for(milliseconds(100));
  f.daemons[0]->resume_app("z");
  f.eng.run_for(milliseconds(100));
  for (auto* p : f.launcher.processes) {
    int suspends = 0, resumes = 0;
    for (const auto& m : p->delivered) {
      if (m.kind == LinkKind::kSuspend) ++suspends;
      if (m.kind == LinkKind::kResume) ++resumes;
    }
    EXPECT_EQ(suspends, 1);
    EXPECT_EQ(resumes, 1);
  }
}

TEST(DaemonUnit, CoordRelayReachesAllProcessesOpaque) {
  Fixture f(2);
  f.daemons[0]->submit(f.job("relay", 3));
  f.eng.run_for(milliseconds(100));
  LinkMsg coord;
  coord.kind = LinkKind::kCoordSend;
  coord.payload = util::Bytes{std::byte{0xde}, std::byte{0xad}};
  f.launcher.processes[0]->uplink(coord);
  f.eng.run_for(milliseconds(100));
  for (auto* p : f.launcher.processes) {
    int coords = 0;
    for (const auto& m : p->delivered) {
      if (m.kind == LinkKind::kCoord) {
        ++coords;
        EXPECT_EQ(m.payload, coord.payload);  // opaque, byte-identical
      }
    }
    EXPECT_EQ(coords, 1) << "rank " << p->request.rank;
  }
}

TEST(DaemonUnit, SubmitWithNoEligibleNodesFails) {
  Fixture f(2);
  f.daemons[0]->node_ctl(0, false);
  f.daemons[0]->node_ctl(1, false);
  f.eng.run_for(milliseconds(50));
  f.daemons[0]->submit(f.job("nowhere", 2));
  f.eng.run_for(milliseconds(100));
  EXPECT_EQ(f.daemons[0]->app_phase("nowhere"), AppPhase::kFailed);
  EXPECT_TRUE(f.launcher.processes.empty());
}

TEST(DaemonUnit, DuplicateSubmissionIgnored) {
  Fixture f(2);
  f.daemons[0]->submit(f.job("dup", 2));
  f.eng.run_for(milliseconds(50));
  f.daemons[1]->submit(f.job("dup", 5));  // same name, different shape
  f.eng.run_for(milliseconds(100));
  EXPECT_EQ(f.launcher.processes.size(), 2u);  // second submission dropped
}

TEST(DaemonUnit, OutputLinesCollectedPerDaemon) {
  Fixture f(2);
  f.daemons[0]->submit(f.job("talky", 2));
  f.eng.run_for(milliseconds(100));
  LinkMsg out;
  out.kind = LinkKind::kOutput;
  out.text = "hello from fake";
  f.launcher.processes[0]->uplink(out);
  f.eng.run_for(milliseconds(50));
  const auto host = f.launcher.processes[0]->host;
  const auto& lines = f.daemons[host]->app_output("talky");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "hello from fake");
}

TEST(DaemonUnit, PackedPlacementStrategyFromReplicatedConfig) {
  Fixture f(3);
  f.daemons[0]->set_config("placement.strategy", "packed");
  f.daemons[0]->set_config("placement.slots", "2");
  f.eng.run_for(milliseconds(50));
  f.daemons[2]->submit(f.job("packed", 5));
  f.eng.run_for(milliseconds(100));
  // Packed with 2 slots: node0 gets ranks {0,1}, node1 {2,3}, node2 {4}.
  EXPECT_EQ(f.daemons[0]->local_ranks("packed"), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(f.daemons[1]->local_ranks("packed"), (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(f.daemons[2]->local_ranks("packed"), (std::vector<uint32_t>{4}));
}

TEST(DaemonUnit, PlacementStrategySwitchAffectsOnlyLaterJobs) {
  Fixture f(2);
  f.daemons[0]->submit(f.job("before", 2));
  f.eng.run_for(milliseconds(50));
  f.daemons[0]->set_config("placement.strategy", "packed");
  f.eng.run_for(milliseconds(50));
  f.daemons[0]->submit(f.job("after", 2));
  f.eng.run_for(milliseconds(100));
  EXPECT_EQ(f.daemons[0]->local_ranks("before"), (std::vector<uint32_t>{0}));
  EXPECT_EQ(f.daemons[1]->local_ranks("before"), (std::vector<uint32_t>{1}));
  // Packed: both ranks land on node 0.
  EXPECT_EQ(f.daemons[0]->local_ranks("after"), (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(f.daemons[1]->local_ranks("after").empty());
}

// ------------------------------------------------------------ job wire ----

JobSpec full_spec() {
  JobSpec j;
  j.name = "wire-job";
  j.binary = "ring";
  j.nprocs = 7;
  j.policy = FtPolicy::kNotifyViews;
  j.protocol = CrProtocol::kUncoordinated;
  j.level = CkptLevel::kNative;
  j.ckpt_interval = milliseconds(40);
  j.forked_ckpt = true;
  j.args = {"-n", "12"};
  j.owner = "alice";
  return j;
}

util::Result<JobSpec> decode_spec(util::BytesView bytes) {
  util::Reader r(bytes);
  auto out = JobSpec::decode(r);
  if (out.ok()) {
    EXPECT_TRUE(r.exhausted()) << "decode left bytes of its own encoding unread";
  }
  return out;
}

TEST(JobSpecWire, FullSpecRoundTrips) {
  const JobSpec in = full_spec();
  auto out = decode_spec(in.encode());
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  const JobSpec& j = out.value();
  EXPECT_EQ(j.name, in.name);
  EXPECT_EQ(j.binary, in.binary);
  EXPECT_EQ(j.nprocs, in.nprocs);
  EXPECT_EQ(j.policy, in.policy);
  EXPECT_EQ(j.protocol, in.protocol);
  EXPECT_EQ(j.level, in.level);
  EXPECT_EQ(j.ckpt_interval, in.ckpt_interval);
  EXPECT_EQ(j.forked_ckpt, in.forked_ckpt);
  EXPECT_EQ(j.args, in.args);
  EXPECT_EQ(j.owner, in.owner);
}

// A truncated spec must not decode as defaults (nprocs 1, protocol none,
// interval 0): every cut point is a decode error.
TEST(JobSpecWire, EveryTruncationFailsClosed) {
  const util::Bytes bytes = full_spec().encode();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto out = decode_spec(util::BytesView(bytes.data(), cut));
    ASSERT_FALSE(out.ok()) << "cut=" << cut;
    EXPECT_EQ(out.error().code, "decode") << "cut=" << cut;
  }
}

TEST(JobSpecWire, OutOfRangeEnumAndFlagBytesFailClosed) {
  const JobSpec spec = full_spec();
  const util::Bytes bytes = spec.encode();
  // name and binary (u32 length + bytes each), then u32 nprocs.
  const size_t policy_at = 4 + spec.name.size() + 4 + spec.binary.size() + 4;
  struct Field {
    const char* name;
    size_t at;
    uint8_t max;  ///< largest valid byte
  };
  const Field fields[] = {
      {"policy", policy_at, static_cast<uint8_t>(FtPolicy::kNotifyViews)},
      {"protocol", policy_at + 1, static_cast<uint8_t>(CrProtocol::kUncoordinated)},
      {"level", policy_at + 2, static_cast<uint8_t>(CkptLevel::kVm)},
      {"forked_ckpt", bytes.size() - 1, 1},
  };
  for (const Field& field : fields) {
    for (unsigned v = 0; v <= 0xff; ++v) {
      util::Bytes mutated = bytes;
      mutated[field.at] = static_cast<std::byte>(v);
      auto out = decode_spec(mutated);
      EXPECT_EQ(out.ok(), v <= field.max) << field.name << " byte " << v;
      if (!out.ok()) {
        EXPECT_EQ(out.error().code, "decode") << field.name << " byte " << v;
      }
    }
  }
}

}  // namespace
}  // namespace starfish::daemon
