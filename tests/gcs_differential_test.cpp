// Flat-vs-tree differential (PR 8).
//
// The dissemination topology (gcs::Topology) is a transport-layer choice:
// ORDER_REQs travel sender -> sequencer directly in both modes, so gseq
// stamping — and therefore the totally ordered stream — must be
// byte-identical whether ORDER fans out flat or relays down the k-ary
// tree, and whether heartbeats are all-to-all or aggregated. This suite
// pins that equivalence at the GCS layer (fault-free, under seeded ORDER
// loss, and across a crash-driven view change) and end to end at the
// cluster layer (same application output, same checkpoint content hash).
// A golden over every datagram and the retransmission log's prune history
// pins each topology against its own recorded past as well.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "gcs/endpoint.hpp"
#include "gcs/wire.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace starfish::gcs {
namespace {

using sim::milliseconds;
using sim::seconds;

util::Bytes text(const std::string& s) {
  util::Bytes b;
  util::Writer w(b);
  w.raw(std::as_bytes(std::span<const char>(s.data(), s.size())));
  return b;
}

std::string untext(const util::Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::string view_event(const View& v) {
  std::string s = "(" + std::to_string(v.view_id) + "|";
  for (size_t i = 0; i < v.members.size(); ++i) {
    if (i) s += ",";
    s += v.members[i].id.to_string();
  }
  return s + ")";
}

/// Everything one run produces that the differential compares.
struct RunResult {
  std::vector<std::vector<std::string>> delivered;    // per member
  std::vector<std::vector<std::string>> view_events;  // per member
};

/// One seeded group run at a given size and topology. `faults` (optional)
/// installs fault plans after founding; `driver` schedules the workload.
template <typename FaultFn, typename DriverFn>
RunResult run_group(size_t n, Topology topo, uint64_t seed, FaultFn faults, DriverFn driver) {
  sim::Engine eng(seed);
  net::Network net(eng);
  GroupConfig config;
  config.topology = topo;
  RunResult result;
  result.delivered.resize(n);
  result.view_events.resize(n);
  std::vector<std::unique_ptr<GroupEndpoint>> eps;
  std::vector<net::NetAddr> founders;
  for (size_t i = 0; i < n; ++i) {
    auto host = net.add_host("node" + std::to_string(i));
    founders.push_back({host->id(), config.control_port});
  }
  for (size_t i = 0; i < n; ++i) {
    Callbacks cbs;
    cbs.on_view = [&result, i](const View& v) { result.view_events[i].push_back(view_event(v)); };
    cbs.on_message = [&result, i](MemberId origin, const util::Bytes& payload) {
      result.delivered[i].push_back(origin.to_string() + ":" + untext(payload));
    };
    eps.push_back(std::make_unique<GroupEndpoint>(net, *net.host(static_cast<sim::HostId>(i)),
                                                  config, std::move(cbs)));
  }
  for (auto& ep : eps) ep->start_founding(founders);
  faults(net);
  driver(eng, net, eps);
  return result;
}

/// Three spread-out senders, `per_sender` messages each, spaced off the
/// heartbeat grid.
void spawn_senders(sim::Engine& eng, net::Network& net,
                   std::vector<std::unique_ptr<GroupEndpoint>>& eps, int per_sender,
                   sim::Duration start_after = milliseconds(10)) {
  const size_t n = eps.size();
  const size_t senders[3] = {0, n / 2, n - 1};
  for (size_t s = 0; s < 3; ++s) {
    const size_t idx = senders[s];
    auto* ep = eps[idx].get();
    net.host(static_cast<sim::HostId>(idx))
        ->spawn("sender", [ep, s, per_sender, start_after, &eng] {
          eng.sleep(start_after + milliseconds(1 + static_cast<int>(s)));
          for (int k = 0; k < per_sender; ++k) {
            ep->multicast(text("s" + std::to_string(s) + "." + std::to_string(k)));
            eng.sleep(milliseconds(7));
          }
        });
  }
}

// ------------------------------------------------------ fault-free runs ----

TEST(GcsDifferential, FlatAndTreeDeliverIdenticalStreams) {
  for (size_t n : {4u, 16u, 64u}) {
    RunResult flat = run_group(n, Topology::kFlat, /*seed=*/7, [](net::Network&) {},
                               [](sim::Engine& eng, net::Network& net, auto& eps) {
                                 spawn_senders(eng, net, eps, 8);
                                 eng.run_for(seconds(1.5));
                               });
    RunResult tree = run_group(n, Topology::kTree, /*seed=*/7, [](net::Network&) {},
                               [](sim::Engine& eng, net::Network& net, auto& eps) {
                                 spawn_senders(eng, net, eps, 8);
                                 eng.run_for(seconds(1.5));
                               });
    // Complete, totally ordered, identical within each run...
    ASSERT_EQ(flat.delivered[0].size(), 24u) << "n=" << n;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(flat.delivered[i], flat.delivered[0]) << "flat member " << i << " n=" << n;
      ASSERT_EQ(tree.delivered[i], tree.delivered[0]) << "tree member " << i << " n=" << n;
      // ...and byte-identical across topologies, member by member.
      EXPECT_EQ(tree.delivered[i], flat.delivered[i]) << "member " << i << " n=" << n;
      EXPECT_EQ(tree.view_events[i], flat.view_events[i]) << "member " << i << " n=" << n;
    }
  }
}

// --------------------------------------------------- seeded ORDER loss ----

/// Drops a deterministic ~30% of first-attempt ORDER deliveries (keyed by
/// gseq and destination). Later attempts — gap repairs, flush retransmits,
/// tree re-relays — pass, so the protocol's recovery machinery is what
/// reassembles the stream. Identical drop decisions in both topologies.
std::function<bool(const net::Packet&, net::TransportKind)> order_dropper() {
  auto attempts = std::make_shared<std::map<std::pair<uint64_t, uint64_t>, int>>();
  return [attempts](const net::Packet& p, net::TransportKind) {
    auto m = WireMsg::decode(p.payload);
    if (!m.ok() || m.value().kind != MsgKind::kOrder) return false;
    const uint64_t gseq = m.value().gseq;
    const uint64_t dst = p.dst.host;
    int& tries = (*attempts)[{gseq, dst}];
    ++tries;
    return tries == 1 && (gseq * 2654435761ull + dst * 40503ull) % 10 < 3;
  };
}

TEST(GcsDifferential, IdenticalStreamsUnderSeededOrderLoss) {
  for (size_t n : {4u, 16u, 64u}) {
    const auto with_drops = [](net::Network& net) { net.faults().set_filter(order_dropper()); };
    const auto drive = [](sim::Engine& eng, net::Network& net, auto& eps) {
      spawn_senders(eng, net, eps, 8);
      eng.run_for(seconds(4));  // room for stall detection + gap repair
    };
    RunResult flat = run_group(n, Topology::kFlat, /*seed=*/11, with_drops, drive);
    RunResult tree = run_group(n, Topology::kTree, /*seed=*/11, with_drops, drive);
    ASSERT_EQ(flat.delivered[0].size(), 24u) << "n=" << n;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(flat.delivered[i], flat.delivered[0]) << "flat member " << i << " n=" << n;
      ASSERT_EQ(tree.delivered[i], tree.delivered[0]) << "tree member " << i << " n=" << n;
      EXPECT_EQ(tree.delivered[i], flat.delivered[i]) << "member " << i << " n=" << n;
    }
  }
}

// ------------------------------------------------- crash-driven change ----

TEST(GcsDifferential, SameViewEventsAcrossInteriorCrash) {
  // Host 2 is an interior tree node at n=16, k=4 (children 9..12): its crash
  // exercises orphan re-routing in tree mode and a plain member crash in
  // flat mode. Messages flow before the crash and after the change settles;
  // both topologies must report the same delivered stream and the same view
  // sequence on every survivor.
  const size_t n = 16;
  const auto drive = [](sim::Engine& eng, net::Network& net, auto& eps) {
    spawn_senders(eng, net, eps, 8);  // done by ~70 ms, before the crash
    eng.schedule(milliseconds(200), [&net] { net.crash_host(2); });
    auto* late = eps[1].get();
    net.host(1)->spawn("late-sender", [late, &eng] {
      eng.sleep(milliseconds(1600));  // well after the view change settles
      for (int k = 0; k < 4; ++k) {
        late->multicast(text("late." + std::to_string(k)));
        eng.sleep(milliseconds(7));
      }
    });
    eng.run_for(seconds(3));
  };
  RunResult flat = run_group(n, Topology::kFlat, /*seed=*/3, [](net::Network&) {}, drive);
  RunResult tree = run_group(n, Topology::kTree, /*seed=*/3, [](net::Network&) {}, drive);
  for (size_t i = 0; i < n; ++i) {
    if (i == 2) continue;  // the crashed member
    ASSERT_EQ(flat.delivered[i].size(), 28u) << "flat member " << i;
    EXPECT_EQ(tree.delivered[i], flat.delivered[i]) << "member " << i;
    EXPECT_EQ(tree.view_events[i], flat.view_events[i]) << "member " << i;
    ASSERT_GE(flat.view_events[i].size(), 2u) << "member " << i;
  }
}

// ------------------------------------------------ wire and prune golden ----
//
// Host-side work the endpoint saves (the stability GC's early-out, encoding
// a fan-out once) must not move a single datagram or change when the
// retransmission log is pruned. This golden pins both for a 16-member group
// per topology: a pass-through fault filter folds every inter-host
// datagram's (send time, src, dst, payload bytes) into an FNV-1a hash per
// source host, and a sampler fiber on every host folds its member's
// retransmission_log_size() into the same hash every 5 ms.
//
// Regenerating (only when the wire format or the protocol changes on
// purpose):
//   STARFISH_GOLDEN_DUMP=1 ./gcs_differential_test --gtest_filter='*Golden*'
// prints the constants to paste below.

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void fnv_u64(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fnv_bytes(uint64_t& h, util::BytesView bytes) {
  for (const std::byte b : bytes) {
    h ^= static_cast<uint8_t>(b);
    h *= kFnvPrime;
  }
}

struct WireGolden {
  uint64_t datagrams = 0;  ///< inter-host datagrams the filter saw
  uint64_t digest = 0;     ///< FNV-1a over the per-host hashes, in host order
};

/// Three senders: a burst of several multicasts per heartbeat period, then a
/// round-robin trickle of one per period — so the view-wide stable point
/// often advances by exactly one entry — across a crash of host 2 (an
/// interior tree node at k=4) and again after the view change.
WireGolden run_wire_golden(Topology topo, bool drop_orders) {
  constexpr size_t kMembers = 16;
  sim::Engine eng(/*seed=*/5);
  net::Network net(eng);
  GroupConfig config;
  config.topology = topo;
  std::vector<uint64_t> hash(kMembers, kFnvBasis);
  std::vector<uint64_t> sent(kMembers, 0);
  std::vector<std::vector<std::string>> delivered(kMembers);
  std::vector<std::unique_ptr<GroupEndpoint>> eps;
  std::vector<net::NetAddr> founders;
  for (size_t i = 0; i < kMembers; ++i) {
    auto host = net.add_host("node" + std::to_string(i));
    founders.push_back({host->id(), config.control_port});
  }
  for (size_t i = 0; i < kMembers; ++i) {
    Callbacks cbs;
    cbs.on_message = [&delivered, i](MemberId origin, const util::Bytes& payload) {
      delivered[i].push_back(origin.to_string() + ":" + untext(payload));
    };
    eps.push_back(std::make_unique<GroupEndpoint>(net, *net.host(static_cast<sim::HostId>(i)),
                                                  config, std::move(cbs)));
  }
  for (auto& ep : eps) ep->start_founding(founders);

  const auto dropper = drop_orders ? order_dropper() : nullptr;
  net.faults().set_filter([&eng, &hash, &sent, dropper](const net::Packet& p,
                                                        net::TransportKind kind) {
    uint64_t& h = hash[p.src.host];
    fnv_u64(h, static_cast<uint64_t>(eng.now()));
    fnv_u64(h, (uint64_t{p.src.host} << 32) | p.src.port);
    fnv_u64(h, (uint64_t{p.dst.host} << 32) | p.dst.port);
    fnv_u64(h, p.payload.size());
    fnv_bytes(h, p.payload.view());
    ++sent[p.src.host];
    return dropper && dropper(p, kind);
  });
  for (size_t i = 0; i < kMembers; ++i) {
    GroupEndpoint* ep = eps[i].get();
    uint64_t* h = &hash[i];
    net.host(static_cast<sim::HostId>(i))->spawn("log-sampler", [ep, h, &eng] {
      for (;;) {
        eng.sleep(milliseconds(5));
        fnv_u64(*h, ep->retransmission_log_size());
      }
    });
  }

  const size_t senders[3] = {0, kMembers / 2, kMembers - 1};
  for (size_t s = 0; s < 3; ++s) {
    GroupEndpoint* ep = eps[senders[s]].get();
    net.host(static_cast<sim::HostId>(senders[s]))->spawn("sender", [ep, s, &eng] {
      const auto send = [ep, s](const std::string& tag, int k) {
        ep->multicast(text("s" + std::to_string(s) + "." + tag + std::to_string(k)));
      };
      eng.sleep(milliseconds(10 + static_cast<int>(s)));
      for (int k = 0; k < 5; ++k) {
        send("b", k);
        eng.sleep(milliseconds(7));
      }
      eng.sleep_until(milliseconds(100 + 60 * static_cast<int>(s)));
      for (int k = 0; k < 4; ++k) {
        send("t", k);
        eng.sleep(milliseconds(180));
      }
      eng.sleep_until(milliseconds(1300 + 60 * static_cast<int>(s)));
      for (int k = 0; k < 2; ++k) {
        send("l", k);
        eng.sleep(milliseconds(180));
      }
    });
  }
  eng.schedule(milliseconds(400), [&net] { net.crash_host(2); });
  eng.run_for(seconds(3));

  // Sanity, not the golden: every survivor delivered the whole stream in
  // one order.
  for (size_t i = 0; i < kMembers; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(delivered[i].size(), 33u) << "member " << i;
    EXPECT_EQ(delivered[i], delivered[0]) << "member " << i;
  }
  WireGolden g;
  g.digest = kFnvBasis;
  for (size_t i = 0; i < kMembers; ++i) {
    g.datagrams += sent[i];
    fnv_u64(g.digest, hash[i]);
  }
  return g;
}

void check_golden(const char* what, const WireGolden& got, const WireGolden& want) {
  if (std::getenv("STARFISH_GOLDEN_DUMP") != nullptr) {
    std::printf("%s: {.datagrams = %llu, .digest = %lluull}\n", what,
                static_cast<unsigned long long>(got.datagrams),
                static_cast<unsigned long long>(got.digest));
    return;
  }
  EXPECT_EQ(got.datagrams, want.datagrams) << what;
  EXPECT_EQ(got.digest, want.digest) << what;
}

TEST(GcsDifferential, GoldenWireBytesAndPruneHistory) {
  const WireGolden flat = {.datagrams = 13452, .digest = 1652467480351814487ull};
  const WireGolden tree = {.datagrams = 2229, .digest = 15197812461387100993ull};
  check_golden("flat", run_wire_golden(Topology::kFlat, false), flat);
  check_golden("tree", run_wire_golden(Topology::kTree, false), tree);
}

TEST(GcsDifferential, GoldenWireBytesAndPruneHistoryUnderOrderLoss) {
  const WireGolden flat = {.datagrams = 13683, .digest = 8455847717673395453ull};
  const WireGolden tree = {.datagrams = 2616, .digest = 10872428911124204816ull};
  check_golden("flat drops", run_wire_golden(Topology::kFlat, true), flat);
  check_golden("tree drops", run_wire_golden(Topology::kTree, true), tree);
}

// ------------------------------------------------------- cluster level ----

/// Ring exchange where every rank takes one user-initiated checkpoint at a
/// fixed round: the VM state at that syscall is a function of the program
/// alone, so the stored image bytes must not depend on control-plane
/// topology.
std::string ring_ckpt_program(int rounds, int spin) {
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
  jmp_if_false ckpt
  jmp done
ckpt:
  load_global 0
  push_int )" + std::to_string(rounds / 2) + R"(
  eq
  jmp_if_false body
  syscall checkpoint
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

struct ClusterArtifacts {
  bool done = false;
  std::vector<std::string> output;
  uint64_t ckpt_hash = 0;
  uint64_t ckpt_images = 0;
};

ClusterArtifacts cluster_run(Topology topo) {
  core::ClusterOptions opts;
  opts.nodes = 4;
  opts.seed = 42;
  opts.daemon.group.topology = topo;
  opts.daemon.group.tree_fanout = 2;  // depth 2 even at 4 nodes
  // This test compares disk-image content hashes across topologies; pin the
  // backend so STARFISH_CKPT_BACKEND=replica sweeps don't leave the disk
  // store empty.
  opts.ckpt_backend = ckpt::CkptBackend::kDisk;
  core::Cluster cluster(opts);
  cluster.registry().register_vm("ring", ring_ckpt_program(20, 50000));
  cluster.boot();
  daemon::JobSpec job;
  job.name = "ring";
  job.binary = "ring";
  job.nprocs = 4;
  job.protocol = daemon::CrProtocol::kUncoordinated;  // capture at the syscall
  job.level = daemon::CkptLevel::kVm;
  cluster.submit(job);
  ClusterArtifacts a;
  a.done = cluster.run_until_done("ring", seconds(30));
  a.output = cluster.output("ring");
  a.ckpt_hash = cluster.store().content_hash();
  a.ckpt_images = cluster.store().image_count();
  return a;
}

TEST(GcsDifferential, ClusterCheckpointContentHashMatches) {
  ClusterArtifacts flat = cluster_run(Topology::kFlat);
  ClusterArtifacts tree = cluster_run(Topology::kTree);
  ASSERT_TRUE(flat.done);
  ASSERT_TRUE(tree.done);
  EXPECT_EQ(flat.output, tree.output);
  ASSERT_EQ(flat.ckpt_images, 4u);  // one user-initiated image per rank
  EXPECT_EQ(tree.ckpt_images, flat.ckpt_images);
  EXPECT_EQ(tree.ckpt_hash, flat.ckpt_hash);
}

// ------------------------------------------------- topology resolution ----

TEST(GcsDifferential, TreeTopologySelectableAndReported) {
  sim::Engine eng(1);
  net::Network net(eng);
  GroupConfig config;
  config.topology = Topology::kTree;
  config.tree_fanout = 2;
  auto host = net.add_host("solo");
  GroupEndpoint ep(net, *host, config, {});
  EXPECT_EQ(ep.topology(), Topology::kTree);
  GroupConfig flat_config;
  flat_config.topology = Topology::kFlat;
  auto host2 = net.add_host("solo2");
  GroupEndpoint ep2(net, *host2, flat_config, {});
  EXPECT_EQ(ep2.topology(), Topology::kFlat);
}

}  // namespace
}  // namespace starfish::gcs
