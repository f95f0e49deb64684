// starfish::obs tests: registry semantics, tracer ring + Chrome export, and
// the two properties the layer exists for — same-seed runs export identical
// artifacts, and attaching a hub never perturbs the simulation it observes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace starfish::obs {
namespace {

using daemon::CkptLevel;
using daemon::CrProtocol;
using daemon::FtPolicy;
using daemon::JobSpec;
using sim::milliseconds;

// ------------------------------------------------------------- Metrics ----

TEST(ObsMetrics, CounterGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.count");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&reg.counter("a.count"), &c);  // find-or-create, stable address

  Gauge& g = reg.gauge("a.depth");
  g.set(5);
  g.add(-2);
  g.set(9);
  g.add(-9);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 9);

  EXPECT_EQ(reg.find_counter("a.count"), &c);
  EXPECT_EQ(reg.find_counter("never.touched"), nullptr);
  EXPECT_EQ(reg.find_gauge("never.touched"), nullptr);
  EXPECT_EQ(reg.find_histogram("never.touched"), nullptr);
}

TEST(ObsMetrics, ReferencesSurviveLaterInsertions) {
  // std::map is node-based; references handed out must not dangle as the
  // registry grows — hot paths cache them across the whole run.
  MetricsRegistry reg;
  Counter& first = reg.counter("m.000");
  for (int i = 1; i < 200; ++i) reg.counter("m." + std::to_string(i));
  first.add(7);
  EXPECT_EQ(reg.find_counter("m.000")->value(), 7u);
}

TEST(ObsMetrics, HistogramBucketsAndOverflow) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", HistogramSpec::exponential(10, 10.0, 3));
  ASSERT_EQ(h.bounds(), (std::vector<uint64_t>{10, 100, 1000}));
  h.record(10);    // on an inclusive bound -> first bucket
  h.record(11);    // -> second bucket
  h.record(1000);  // inclusive -> third bucket
  h.record(5000);  // -> overflow
  EXPECT_EQ(h.buckets(), (std::vector<uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 10u + 11 + 1000 + 5000);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 5000u);
  // The spec is fixed at creation: a different spec for the same name is
  // ignored on the find path.
  EXPECT_EQ(&reg.histogram("lat", HistogramSpec::linear(1, 1, 2)), &h);
  EXPECT_EQ(h.bounds().size(), 3u);
}

TEST(ObsMetrics, JsonSnapshotIsSortedAndStable) {
  MetricsRegistry reg;
  reg.counter("zz").add(1);
  reg.counter("aa").add(2);
  reg.gauge("g").set(-3);
  reg.histogram("h", HistogramSpec::linear(5, 5, 2)).record(6);
  const std::string json = reg.to_json();
  EXPECT_LT(json.find("\"aa\""), json.find("\"zz\""));  // name-sorted
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("-3"), std::string::npos);
  EXPECT_EQ(json, reg.to_json());  // snapshotting has no side effects
}

// --------------------------------------------------------------- Tracer ----

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  Tracer t(8);
  EXPECT_FALSE(t.enabled());
  t.instant(1, "cat", "ev", 0);
  t.complete(1, 2, "cat", "span", 0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(ObsTrace, RingOverwritesOldestAndCountsDrops) {
  Tracer t(4);
  t.set_enabled(true);
  for (uint64_t i = 0; i < 10; ++i) t.instant(i, "cat", "ev" + std::to_string(i), 0);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].ts_ns, 6 + i);  // oldest retained first
  }
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(ObsTrace, ChromeExportIsWellFormed) {
  Tracer t;
  t.set_enabled(true);
  t.begin(1000, "net", "send", 2, 7);
  t.end(3500, "net", "send", 2, 7);
  t.complete(5000, 2500, "ckpt", "put a/r0/e1", 1);
  t.instant(9999, "fault", "drop ->host3", 0);
  const std::string json = t.to_chrome_json();
  // Container shape Perfetto/chrome://tracing accept.
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // One entry per phase, with pid/tid mapping and microsecond timestamps
  // carrying the nanosecond precision as fixed fractional digits.
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);  // instant scope
  EXPECT_NE(json.find("\"ts\": 1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2.500"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 7"), std::string::npos);
  EXPECT_EQ(json, t.to_chrome_json());  // export is a pure snapshot
}

// ------------------------------------------------------------ wiring ------

TEST(Obs, EngineCountsEventsAndFiberSwitches) {
  Hub hub;
  sim::Engine eng;
  eng.set_obs(&hub);
  int ticks = 0;
  eng.spawn("worker", [&] {
    for (int i = 0; i < 5; ++i) eng.sleep(milliseconds(1));
  });
  eng.schedule(milliseconds(10), [&] { ++ticks; });
  eng.run();
  ASSERT_EQ(ticks, 1);
  const Counter* events = hub.metrics.find_counter("sim.events_executed");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value(), eng.events_executed());
  const Counter* switches = hub.metrics.find_counter("sim.fiber_switches");
  ASSERT_NE(switches, nullptr);
  EXPECT_GE(switches->value(), 5u);  // one resume per sleep wakeup at least
  const Histogram* runq = hub.metrics.find_histogram("sim.run_queue_depth");
  ASSERT_NE(runq, nullptr);
  EXPECT_EQ(runq->count(), events->value());  // one depth sample per event
}

TEST(Obs, FaultCountersTieOutWithInjector) {
  Hub hub;
  sim::Engine eng;
  eng.set_obs(&hub);
  net::Network net(eng);
  for (int i = 0; i < 4; ++i) net.add_host("n" + std::to_string(i));
  net.faults().set_link(0, 1, {.drop = 1.0});
  net.faults().set_link(0, 2, {.duplicate = 1.0});
  net.faults().partition({0}, {3});

  auto a = net.bind(0, 9, net::TransportKind::kBipMyrinet);
  auto b = net.bind(1, 9, net::TransportKind::kBipMyrinet);
  auto c = net.bind(2, 9, net::TransportKind::kBipMyrinet);
  auto d = net.bind(3, 9, net::TransportKind::kBipMyrinet);
  eng.spawn("tx", [&] {
    for (int i = 0; i < 3; ++i) a->send({1, 9}, util::Bytes(4, std::byte{1}));  // dropped
    for (int i = 0; i < 2; ++i) a->send({2, 9}, util::Bytes(4, std::byte{2}));  // duplicated
    a->send({3, 9}, util::Bytes(4, std::byte{3}));  // partitioned away
  });
  eng.run();
  (void)b;
  (void)d;
  int via_c = 0;
  while (c->try_recv()) ++via_c;
  EXPECT_EQ(via_c, 4);  // 2 sends, each delivered twice

  const net::FaultCounters& fc = net.faults().counters();
  ASSERT_EQ(fc.datagrams_dropped, 3u);
  ASSERT_EQ(fc.datagrams_duplicated, 2u);
  ASSERT_EQ(fc.partition_drops, 1u);
  // The obs counters mirror the injector's own tallies one for one.
  ASSERT_NE(hub.metrics.find_counter("net.fault.drop"), nullptr);
  EXPECT_EQ(hub.metrics.find_counter("net.fault.drop")->value(), fc.datagrams_dropped);
  EXPECT_EQ(hub.metrics.find_counter("net.fault.duplicate")->value(), fc.datagrams_duplicated);
  EXPECT_EQ(hub.metrics.find_counter("net.fault.partition-drop")->value(), fc.partition_drops);
  // Transport accounting mirrors the network's own packet counter, which
  // includes the injected duplicate copies (6 sends + 2 duplicates).
  EXPECT_EQ(hub.metrics.find_counter("net.packets_sent")->value(), net.packets_sent());
  EXPECT_EQ(net.packets_sent(), 8u);
}

// --------------------------------------------- end-to-end cluster runs ----

std::string ring_program(int rounds, int spin) {
  return R"(
func main 0 2
  syscall rank
  store_local 0
  syscall world_size
  store_local 1
  push_int 0
  store_global 0
  push_int 0
  store_global 1
loop:
  load_global 0
  push_int )" + std::to_string(rounds) + R"(
  ge
  jmp_if_false body
  jmp done
body:
  push_int )" + std::to_string(spin) + R"(
  syscall spin
  load_local 0
  push_int 0
  eq
  jmp_if_false relay
  push_int 1
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

struct RunResult {
  bool done = false;
  sim::Time end_time = 0;
  uint64_t events = 0;
  std::vector<std::string> output;
  std::vector<std::string> fault_trace;
};

/// One chaos-flavoured recovery run: lossy TCP fabric, a mid-run node
/// crash — exercising every instrumented subsystem. `hub` may be null
/// (uninstrumented reference run).
RunResult chaos_run(Hub* hub, uint64_t seed, CrProtocol proto = CrProtocol::kStopAndSync) {
  core::ClusterOptions opts;
  opts.nodes = 4;
  opts.seed = seed;
  core::Cluster cluster(opts);
  if (hub != nullptr) cluster.engine().set_obs(hub);
  cluster.registry().register_vm("ring", ring_program(40, 100000));
  cluster.boot();
  cluster.faults().set_transport(net::TransportKind::kTcpIp,
                                 {.drop = 0.01, .duplicate = 0.01, .delay = sim::microseconds(20)});
  JobSpec job;
  job.name = "obsring";
  job.binary = "ring";
  job.nprocs = 4;
  job.policy = FtPolicy::kRestart;
  job.protocol = proto;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  cluster.submit(job);
  cluster.run_for(milliseconds(150));
  cluster.crash_node(2);
  RunResult r;
  r.done = cluster.run_until_done("obsring");
  r.end_time = cluster.engine().now();
  r.events = cluster.engine().events_executed();
  r.output = cluster.output("obsring");
  r.fault_trace = cluster.faults().trace();
  return r;
}

TEST(Obs, SameSeedRunsExportIdenticalArtifacts) {
  Hub h1, h2;
  h1.tracer.set_enabled(true);
  h2.tracer.set_enabled(true);
  const RunResult r1 = chaos_run(&h1, 7);
  const RunResult r2 = chaos_run(&h2, 7);
  ASSERT_TRUE(r1.done);
  ASSERT_TRUE(r2.done);
  // Same seed, same virtual time: metrics and trace replay bit for bit.
  EXPECT_EQ(h1.metrics.to_json(), h2.metrics.to_json());
  EXPECT_EQ(h1.tracer.to_chrome_json(), h2.tracer.to_chrome_json());
  EXPECT_GT(h1.tracer.recorded(), 0u);
}

TEST(Obs, AttachingHubDoesNotPerturbSimulation) {
  Hub hub;
  hub.tracer.set_enabled(true);
  const RunResult with = chaos_run(&hub, 11);
  const RunResult without = chaos_run(nullptr, 11);
  ASSERT_TRUE(with.done);
  ASSERT_TRUE(without.done);
  // Observability must never feed back: identical end time, event count,
  // program output and fault schedule whether or not anyone is watching.
  EXPECT_EQ(with.end_time, without.end_time);
  EXPECT_EQ(with.events, without.events);
  EXPECT_EQ(with.output, without.output);
  EXPECT_EQ(with.fault_trace, without.fault_trace);
}

TEST(Obs, ClusterRecoveryPopulatesDomainCounters) {
  Hub hub;
  const RunResult r = chaos_run(&hub, 3);
  ASSERT_TRUE(r.done);
  const MetricsRegistry& m = hub.metrics;
  auto counter = [&](const char* name) {
    const Counter* c = m.find_counter(name);
    return c == nullptr ? 0ull : c->value();
  };
  // Engine layer.
  EXPECT_EQ(counter("sim.events_executed"), r.events);
  EXPECT_GT(counter("sim.fiber_switches"), 0u);
  // Transport layer: packets flowed and faults fired.
  EXPECT_GT(counter("net.packets_sent"), 0u);
  EXPECT_GT(counter("net.bytes_sent"), 0u);
  EXPECT_GT(counter("vni.frames_sent"), 0u);
  EXPECT_GT(counter("net.fault.drop") + counter("net.fault.duplicate") +
                counter("net.fault.delay") + counter("net.fault.stream-delay") +
                counter("net.fault.stream-retransmit"),
            0u);
  // Membership: boot view plus the post-crash view on every daemon.
  EXPECT_GT(counter("gcs.views_installed"), 0u);
  EXPECT_GT(counter("gcs.messages_delivered"), 0u);
  // Checkpointing: epochs taken, committed and restored from.
  EXPECT_GT(counter("ckpt.checkpoints_taken"), 0u);
  EXPECT_GT(counter("ckpt.pages_written"), 0u);
  EXPECT_GT(counter("ckpt.store.images_written"), 0u);
  EXPECT_GT(counter("ckpt.store.epochs_committed"), 0u);
  // Daemon layer: one submit per hosting daemon, initial launches plus the
  // restart (with per-rank restores) after the crash.
  EXPECT_GE(counter("daemon.jobs_submitted"), 1u);
  EXPECT_GE(counter("daemon.launches"), 4u);
  EXPECT_GT(counter("daemon.restarts"), 0u);
  EXPECT_GT(counter("daemon.restores"), 0u);
  // Per-link latency histograms materialized for real traffic.
  EXPECT_GT(m.size(), 10u);
}

TEST(Obs, UncoordinatedRecoveryCountsRecoveryLines) {
  // The recovery-line computation only runs for uncoordinated checkpoints;
  // the ring communicates constantly, so the rollback may legitimately
  // reach the start — the counter records that a line was computed at all.
  Hub hub;
  const RunResult r = chaos_run(&hub, 5, CrProtocol::kUncoordinated);
  ASSERT_TRUE(r.done);
  const Counter* lines = hub.metrics.find_counter("ckpt.recovery_lines");
  ASSERT_NE(lines, nullptr);
  EXPECT_GT(lines->value(), 0u);
}

// ----------------------------------------------------------- default hub ---

TEST(Obs, DefaultHubIsPickedUpByNewEngines) {
  Hub hub;
  set_default_hub(&hub);
  sim::Engine eng;  // constructed after installation -> instruments into hub
  eng.schedule(milliseconds(1), [] {});
  eng.run();
  set_default_hub(nullptr);
  const Counter* events = hub.metrics.find_counter("sim.events_executed");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value(), eng.events_executed());
}

}  // namespace
}  // namespace starfish::obs
