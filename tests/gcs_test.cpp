#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gcs/endpoint.hpp"
#include "gcs/lightweight.hpp"
#include "gcs/wire.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
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

/// N daemons founding one group; records every delivery per member.
struct Cluster {
  sim::Engine eng;
  net::Network net{eng};
  std::vector<std::unique_ptr<GroupEndpoint>> eps;
  std::vector<std::vector<std::string>> delivered;  // per member: "origin:payload"
  std::vector<std::vector<View>> views;             // per member

  explicit Cluster(size_t n, GroupConfig config = {}) {
    delivered.resize(n);
    views.resize(n);
    std::vector<net::NetAddr> founders;
    for (size_t i = 0; i < n; ++i) {
      auto host = net.add_host("node" + std::to_string(i));
      founders.push_back({host->id(), config.control_port});
    }
    for (size_t i = 0; i < n; ++i) {
      Callbacks cbs;
      cbs.on_view = [this, i](const View& v) { views[i].push_back(v); };
      cbs.on_message = [this, i](MemberId origin, const util::Bytes& payload) {
        delivered[i].push_back(origin.to_string() + ":" + untext(payload));
      };
      eps.push_back(std::make_unique<GroupEndpoint>(net, *net.host(static_cast<sim::HostId>(i)),
                                                    config, std::move(cbs)));
    }
    for (auto& ep : eps) ep->start_founding(founders);
  }

  void run_for(sim::Duration d) { eng.run_for(d); }
  void stop_all() {
    for (auto& ep : eps) ep->shutdown();
  }
};

// ---------------------------------------------------------- membership ----

TEST(Group, FoundingViewDeliveredEverywhere) {
  Cluster c(4);
  c.run_for(milliseconds(10));
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(c.views[static_cast<size_t>(i)].size(), 1u) << "member " << i;
    EXPECT_EQ(c.views[static_cast<size_t>(i)][0].size(), 4u);
    EXPECT_EQ(c.views[static_cast<size_t>(i)][0].view_id, 1u);
  }
  EXPECT_TRUE(c.eps[0]->is_coordinator());
  EXPECT_FALSE(c.eps[1]->is_coordinator());
}

TEST(Group, TotalOrderAcrossConcurrentSenders) {
  Cluster c(4);
  // Every member multicasts interleaved messages at slightly different times.
  for (size_t i = 0; i < 4; ++i) {
    auto* ep = c.eps[i].get();
    c.net.host(static_cast<sim::HostId>(i))->spawn("sender", [ep, i, &c] {
      for (int k = 0; k < 5; ++k) {
        c.eng.sleep(milliseconds(1 + static_cast<int>(i)));
        ep->multicast(text("m" + std::to_string(i) + "." + std::to_string(k)));
      }
    });
  }
  c.run_for(seconds(1));
  // All members delivered the same sequence, in the same order.
  ASSERT_EQ(c.delivered[0].size(), 20u);
  for (size_t i = 1; i < 4; ++i) EXPECT_EQ(c.delivered[i], c.delivered[0]);
}

TEST(Group, SelfDeliveryIncluded) {
  Cluster c(2);
  c.net.host(0)->spawn("sender", [&] { c.eps[0]->multicast(text("hello")); });
  c.run_for(milliseconds(50));
  ASSERT_EQ(c.delivered[0].size(), 1u);
  EXPECT_EQ(c.delivered[0][0], "m0.0:hello");
  EXPECT_EQ(c.delivered[1], c.delivered[0]);
}

TEST(Group, SingleMemberGroupWorks) {
  Cluster c(1);
  c.net.host(0)->spawn("sender", [&] {
    c.eps[0]->multicast(text("solo"));
  });
  c.run_for(milliseconds(50));
  ASSERT_EQ(c.delivered[0].size(), 1u);
  EXPECT_TRUE(c.eps[0]->is_coordinator());
}

TEST(Group, MemberCrashInstallsSmallerView) {
  Cluster c(4);
  c.eng.schedule(milliseconds(100), [&] { c.net.crash_host(3); });
  c.run_for(seconds(1.5));
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_GE(c.views[i].size(), 2u) << "member " << i;
    const View& v = c.views[i].back();
    EXPECT_EQ(v.size(), 3u);
    EXPECT_FALSE(v.contains(MemberId{3, 0}));
  }
}

TEST(Group, CoordinatorCrashPromotesNextMember) {
  Cluster c(4);
  c.eng.schedule(milliseconds(100), [&] { c.net.crash_host(0); });
  c.run_for(seconds(1.5));
  for (size_t i = 1; i < 4; ++i) {
    ASSERT_GE(c.views[i].size(), 2u);
    const View& v = c.views[i].back();
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.coordinator().id, (MemberId{1, 0}));
  }
  EXPECT_TRUE(c.eps[1]->is_coordinator());
}

TEST(Group, MulticastSurvivesCoordinatorCrash) {
  // Requests in flight to a dying coordinator are re-submitted to its
  // successor; nothing is lost and no message is delivered twice.
  Cluster c(3);
  c.net.host(1)->spawn("sender", [&] {
    for (int k = 0; k < 30; ++k) {
      c.eng.sleep(milliseconds(10));
      c.eps[1]->multicast(text("x" + std::to_string(k)));
    }
  });
  c.eng.schedule(milliseconds(100), [&] { c.net.crash_host(0); });
  c.run_for(seconds(2));
  // Members 1 and 2 must agree and must have all 30 messages exactly once.
  EXPECT_EQ(c.delivered[1], c.delivered[2]);
  ASSERT_EQ(c.delivered[1].size(), 30u);
  for (int k = 0; k < 30; ++k) {
    EXPECT_EQ(c.delivered[1][static_cast<size_t>(k)], "m1.0:x" + std::to_string(k));
  }
}

TEST(Group, TwoSimultaneousCrashes) {
  Cluster c(5);
  c.eng.schedule(milliseconds(100), [&] {
    c.net.crash_host(0);
    c.net.crash_host(2);
  });
  c.run_for(seconds(2));
  for (size_t i : {1u, 3u, 4u}) {
    const View& v = c.views[i].back();
    EXPECT_EQ(v.size(), 3u) << "member " << i;
    EXPECT_EQ(v.coordinator().id, (MemberId{1, 0}));
  }
}

TEST(Group, CascadingCoordinatorCrashes) {
  // Kill the coordinator, then kill its successor mid-reconfiguration.
  Cluster c(4);
  c.eng.schedule(milliseconds(100), [&] { c.net.crash_host(0); });
  c.eng.schedule(milliseconds(420), [&] { c.net.crash_host(1); });
  c.run_for(seconds(3));
  for (size_t i : {2u, 3u}) {
    const View& v = c.views[i].back();
    EXPECT_EQ(v.size(), 2u) << "member " << i;
    EXPECT_EQ(v.coordinator().id, (MemberId{2, 0}));
  }
}

TEST(Group, GracefulLeaveShrinksView) {
  Cluster c(3);
  c.net.host(2)->spawn("leaver", [&] {
    c.eng.sleep(milliseconds(100));
    c.eps[2]->leave();
  });
  c.run_for(seconds(1));
  for (size_t i = 0; i < 2; ++i) {
    const View& v = c.views[i].back();
    EXPECT_EQ(v.size(), 2u);
    EXPECT_FALSE(v.contains(MemberId{2, 0}));
  }
  EXPECT_FALSE(c.eps[2]->in_view());
}

TEST(Group, CoordinatorLeaveHandsOff) {
  Cluster c(3);
  c.net.host(0)->spawn("leaver", [&] {
    c.eng.sleep(milliseconds(100));
    c.eps[0]->leave();
  });
  c.run_for(seconds(1));
  for (size_t i = 1; i < 3; ++i) {
    const View& v = c.views[i].back();
    EXPECT_EQ(v.size(), 2u);
    EXPECT_EQ(v.coordinator().id, (MemberId{1, 0}));
  }
}

TEST(Group, LateJoinerAdmitted) {
  Cluster c(3);
  auto newcomer_host = c.net.add_host("node3");
  std::vector<View> joiner_views;
  Callbacks cbs;
  cbs.on_view = [&](const View& v) { joiner_views.push_back(v); };
  GroupEndpoint joiner(c.net, *newcomer_host, GroupConfig{}, std::move(cbs));
  c.eng.schedule(milliseconds(200), [&] {
    joiner.start_joining({{0, 1}, {1, 1}, {2, 1}});
  });
  c.run_for(seconds(1.5));
  ASSERT_FALSE(joiner_views.empty());
  EXPECT_EQ(joiner_views.back().size(), 4u);
  EXPECT_TRUE(joiner.in_view());
  // Existing members see the larger view too.
  EXPECT_EQ(c.views[0].back().size(), 4u);
  // The joiner has the highest rank, so it does not coordinate.
  EXPECT_FALSE(joiner.is_coordinator());
  joiner.shutdown();
  c.stop_all();
}

TEST(Group, JoinerReceivesStateSnapshot) {
  Cluster c(2);
  std::string coord_state = "replicated-config-v7";
  // Coordinator serves state; the cluster fixture's callbacks don't set
  // get_state, so rewire endpoint 0 before any join happens.
  Callbacks cbs0;
  cbs0.get_state = [&] { return text(coord_state); };
  c.eps[0]->set_callbacks(std::move(cbs0));

  auto newcomer_host = c.net.add_host("node2");
  std::string received_state;
  Callbacks cbs;
  cbs.set_state = [&](const util::Bytes& blob) { received_state = untext(blob); };
  GroupEndpoint joiner(c.net, *newcomer_host, GroupConfig{}, std::move(cbs));
  c.eng.schedule(milliseconds(100), [&] { joiner.start_joining({{0, 1}}); });
  c.run_for(seconds(1));
  EXPECT_EQ(received_state, "replicated-config-v7");
  joiner.shutdown();
  c.stop_all();
}

TEST(Group, RebootedHostRejoinsWithNewIncarnation) {
  Cluster c(3);
  c.eng.schedule(milliseconds(100), [&] { c.net.crash_host(2); });
  c.run_for(seconds(1));
  ASSERT_EQ(c.views[0].back().size(), 2u);

  // Reboot and rejoin as a fresh incarnation.
  c.net.host(2)->reboot();
  std::vector<View> rejoin_views;
  Callbacks cbs;
  cbs.on_view = [&](const View& v) { rejoin_views.push_back(v); };
  GroupEndpoint reborn(c.net, *c.net.host(2), GroupConfig{}, std::move(cbs));
  c.net.host(2)->spawn("rejoin", [&] { reborn.start_joining({{0, 1}, {1, 1}}); });
  c.run_for(seconds(1.5));
  ASSERT_FALSE(rejoin_views.empty());
  EXPECT_EQ(rejoin_views.back().size(), 3u);
  EXPECT_TRUE(rejoin_views.back().contains(MemberId{2, 1}));  // incarnation 1
  EXPECT_FALSE(rejoin_views.back().contains(MemberId{2, 0}));
  reborn.shutdown();
  c.stop_all();
}

TEST(Group, VirtualSynchronySurvivorsAgreeOnDeliveredSet) {
  // Heavy concurrent traffic with a mid-stream crash: all survivors must
  // deliver identical sequences (same set, same order).
  Cluster c(4);
  for (size_t i = 0; i < 4; ++i) {
    auto* ep = c.eps[i].get();
    c.net.host(static_cast<sim::HostId>(i))->spawn("sender", [ep, i, &c] {
      for (int k = 0; k < 40; ++k) {
        c.eng.sleep(milliseconds(5));
        ep->multicast(text("s" + std::to_string(i) + "." + std::to_string(k)));
      }
    });
  }
  c.eng.schedule(milliseconds(97), [&] { c.net.crash_host(3); });
  c.run_for(seconds(3));
  EXPECT_EQ(c.delivered[0], c.delivered[1]);
  EXPECT_EQ(c.delivered[1], c.delivered[2]);
  // Survivors' own messages all go through (40 each), plus whatever member 3
  // got sequenced before dying.
  EXPECT_GE(c.delivered[0].size(), 120u);
}

TEST(Group, NoDuplicateDeliveryAcrossViewChange) {
  Cluster c(3);
  c.net.host(2)->spawn("sender", [&] {
    for (int k = 0; k < 50; ++k) {
      c.eng.sleep(milliseconds(7));
      c.eps[2]->multicast(text("d" + std::to_string(k)));
    }
  });
  c.eng.schedule(milliseconds(120), [&] { c.net.crash_host(0); });
  c.run_for(seconds(3));
  ASSERT_EQ(c.delivered[1].size(), 50u);
  for (int k = 0; k < 50; ++k) {
    EXPECT_EQ(c.delivered[1][static_cast<size_t>(k)], "m2.0:d" + std::to_string(k));
  }
  EXPECT_EQ(c.delivered[1], c.delivered[2]);
}

// Parameterized sweep: membership converges for a range of cluster sizes
// and crash subsets.
class CrashSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrashSweep, SurvivorsConvergeToCorrectView) {
  const int n = std::get<0>(GetParam());
  const int crash = std::get<1>(GetParam());
  Cluster c(static_cast<size_t>(n));
  c.eng.schedule(milliseconds(100), [&] { c.net.crash_host(static_cast<sim::HostId>(crash)); });
  c.run_for(seconds(2));
  for (int i = 0; i < n; ++i) {
    if (i == crash) continue;
    const View& v = c.views[static_cast<size_t>(i)].back();
    EXPECT_EQ(v.size(), static_cast<size_t>(n - 1));
    EXPECT_FALSE(v.contains(MemberId{static_cast<sim::HostId>(crash), 0}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndVictims, CrashSweep,
    ::testing::Values(std::make_tuple(2, 0), std::make_tuple(2, 1), std::make_tuple(3, 1),
                      std::make_tuple(5, 4), std::make_tuple(8, 0), std::make_tuple(8, 5)));

TEST(Group, JoinerDuringHeavyTrafficSeesConsistentSuffix) {
  // A member joins while multicasts are flowing; after its first view its
  // delivered sequence must be a suffix-consistent continuation of what the
  // founders deliver (no gaps, no duplicates, same order).
  Cluster c(3);
  for (size_t i = 0; i < 3; ++i) {
    auto* ep = c.eps[i].get();
    c.net.host(static_cast<sim::HostId>(i))->spawn("tx", [ep, i, &c] {
      for (int k = 0; k < 60; ++k) {
        c.eng.sleep(milliseconds(7));
        ep->multicast(text("j" + std::to_string(i) + "." + std::to_string(k)));
      }
    });
  }
  auto newcomer_host = c.net.add_host("node3");
  std::vector<std::string> joiner_msgs;
  Callbacks cbs;
  cbs.on_message = [&](MemberId origin, const util::Bytes& payload) {
    joiner_msgs.push_back(origin.to_string() + ":" + untext(payload));
  };
  GroupEndpoint joiner(c.net, *newcomer_host, GroupConfig{}, std::move(cbs));
  c.eng.schedule(milliseconds(150), [&] { joiner.start_joining({{0, 1}, {1, 1}}); });
  c.run_for(seconds(2));
  ASSERT_FALSE(joiner_msgs.empty());
  // The joiner\'s sequence appears as a contiguous suffix of member 0\'s.
  const auto& full = c.delivered[0];
  ASSERT_GE(full.size(), joiner_msgs.size());
  auto it = std::search(full.begin(), full.end(), joiner_msgs.begin(), joiner_msgs.end());
  EXPECT_NE(it, full.end()) << "joiner sequence is not a contiguous run of the group order";
  EXPECT_EQ(static_cast<size_t>(full.end() - it), joiner_msgs.size());
  joiner.shutdown();
  c.stop_all();
}

TEST(Group, DeterministicReplayAcrossRuns) {
  // The same scenario (traffic + crash) delivers bit-identical sequences on
  // every run — the reproducibility claim of the whole simulator.
  auto run_once = [] {
    Cluster c(4);
    for (size_t i = 0; i < 4; ++i) {
      auto* ep = c.eps[i].get();
      c.net.host(static_cast<sim::HostId>(i))->spawn("tx", [ep, i, &c] {
        for (int k = 0; k < 20; ++k) {
          c.eng.sleep(milliseconds(3 + static_cast<int64_t>(i)));
          ep->multicast(text("d" + std::to_string(i) + "." + std::to_string(k)));
        }
      });
    }
    c.eng.schedule(milliseconds(60), [&] { c.net.crash_host(2); });
    c.run_for(seconds(2));
    auto result = c.delivered[0];
    c.stop_all();
    return result;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Group, StabilityGcBoundsRetransmissionLog) {
  // Under sustained traffic with no view changes, heartbeat-advertised
  // delivery progress lets members prune the per-view retransmission log;
  // memory stays bounded instead of growing with every multicast.
  Cluster c(3);
  for (size_t i = 0; i < 3; ++i) {
    auto* ep = c.eps[i].get();
    c.net.host(static_cast<sim::HostId>(i))->spawn("tx", [ep, i, &c] {
      for (int k = 0; k < 400; ++k) {
        c.eng.sleep(milliseconds(2));
        ep->multicast(text("s" + std::to_string(i) + "." + std::to_string(k)));
      }
    });
  }
  c.run_for(seconds(2));
  // 1200 messages delivered...
  ASSERT_EQ(c.delivered[0].size(), 1200u);
  // ...but the log retains only the unstable tail (messages sent since the
  // last heartbeat round), far fewer than the total.
  EXPECT_LT(c.eps[0]->retransmission_log_size(), 200u);
  EXPECT_LT(c.eps[1]->retransmission_log_size(), 200u);
  // And a crash right after heavy pruning still recovers consistently.
  c.eng.schedule(milliseconds(1), [&] { c.net.crash_host(0); });
  c.run_for(seconds(2));
  EXPECT_EQ(c.delivered[1], c.delivered[2]);
}

// -------------------------------------------------------------- wire ----

OrderedMsg ordered(uint64_t gseq, const std::string& body) {
  return OrderedMsg{gseq, MemberId{3, 1}, 40 + gseq, text(body)};
}

/// One message of every kind, each with every repeated and blob field
/// filled, so the decoder walks every branch on every kind.
std::vector<WireMsg> wire_corpus() {
  std::vector<WireMsg> corpus;
  for (uint8_t k = static_cast<uint8_t>(MsgKind::kHeartbeat);
       k <= static_cast<uint8_t>(MsgKind::kInstallReq); ++k) {
    WireMsg m;
    m.kind = static_cast<MsgKind>(k);
    m.from = MemberId{k, 2};
    m.from_addr = net::NetAddr{k, 1};
    m.msg_id = 1000 + k;
    m.payload = text("payload-" + std::to_string(k));
    m.gseq = 77;
    m.origin = MemberId{5, 0};
    m.view_id = 9;
    m.attempt = 2;
    m.members = {Member{MemberId{0, 0}, 0, {0, 1}}, Member{MemberId{4, 3}, 6, {4, 1}}};
    m.coord_delivered = 70;
    m.delivered = 71;
    m.buffered = {ordered(72, "b1"), ordered(73, "")};
    m.hb_entries = {HbEntry{MemberId{4, 3}, 9, 71, 123456, false},
                    HbEntry{MemberId{6, 0}, 8, 12, 99, true}};
    m.retransmit = {ordered(74, "r1")};
    m.has_state = k % 2 == 0;
    m.state = text("state-blob");
    corpus.push_back(std::move(m));
  }
  return corpus;
}

TEST(Wire, DecodeRoundTripsAndFailsClosedOnCorpus) {
  for (const WireMsg& msg : wire_corpus()) {
    const auto kind = static_cast<int>(msg.kind);
    const util::Bytes bytes = msg.encode();
    auto back = WireMsg::decode(bytes);
    ASSERT_TRUE(back.ok()) << "kind " << kind << ": " << back.error().to_string();
    EXPECT_EQ(back.value().kind, msg.kind);
    EXPECT_EQ(back.value().members, msg.members);
    EXPECT_EQ(back.value().hb_entries.size(), msg.hb_entries.size());
    EXPECT_EQ(back.value().buffered.size(), msg.buffered.size());
    EXPECT_EQ(back.value().retransmit.size(), msg.retransmit.size());
    EXPECT_EQ(back.value().state, msg.state);
    EXPECT_EQ(back.value().encode(), bytes) << "kind " << kind;

    for (size_t n = 0; n < bytes.size(); ++n) {
      auto cut = WireMsg::decode(util::BytesView(bytes.data(), n));
      ASSERT_FALSE(cut.ok()) << "kind " << kind << " truncated to " << n;
      EXPECT_EQ(cut.error().code, "decode");
    }
    for (int extra = 0; extra < 256; ++extra) {
      util::Bytes longer = bytes;
      longer.push_back(static_cast<std::byte>(extra));
      auto r = WireMsg::decode(longer);
      ASSERT_FALSE(r.ok()) << "kind " << kind << " with appended byte " << extra;
      EXPECT_EQ(r.error().code, "decode");
    }
    // A flip the decoder accepts must be a different, equally canonical
    // message: it re-encodes to exactly the flipped bytes. Every third bit
    // covers each field of every kind.
    for (size_t bit = 0; bit < bytes.size() * 8; bit += 3) {
      util::Bytes flipped = bytes;
      flipped[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      auto r = WireMsg::decode(flipped);
      if (r.ok()) {
        EXPECT_EQ(r.value().encode(), flipped) << "kind " << kind << " bit " << bit;
      } else {
        EXPECT_EQ(r.error().code, "decode") << "kind " << kind << " bit " << bit;
      }
    }
  }
}

TEST(Wire, DecodeRejectsNonCanonicalFields) {
  const WireMsg hb = wire_corpus().front();
  const util::Bytes good = hb.encode();
  // Offsets derive from the layout: the kind tag is byte 0, has_state is
  // the byte just before the state blob, and the second hb entry's
  // `suspected` flag precedes the retransmit count.
  const size_t state_len = hb.state.size();
  const size_t has_state_at = good.size() - state_len - 4 - 1;
  const size_t retransmit_bytes = 4 + 8 + 8 + 8 + 4 + hb.retransmit[0].payload.size();
  const size_t suspected_at = has_state_at - retransmit_bytes - 1;
  ASSERT_EQ(good[suspected_at], std::byte{1});
  struct Case {
    const char* what;
    size_t at;
    uint8_t value;
    const char* expect;
  };
  const Case cases[] = {
      {"kind 0", 0, 0, "unknown gcs message kind 0"},
      {"kind 10", 0, 10, "unknown gcs message kind 10"},
      {"kind 255", 0, 255, "unknown gcs message kind 255"},
      {"has_state 2", has_state_at, 2, "has_state"},
      {"has_state 0x80", has_state_at, 0x80, "has_state"},
      {"suspected 2", suspected_at, 2, "suspected"},
  };
  for (const Case& c : cases) {
    util::Bytes bad = good;
    bad[c.at] = static_cast<std::byte>(c.value);
    auto r = WireMsg::decode(bad);
    ASSERT_FALSE(r.ok()) << c.what;
    EXPECT_EQ(r.error().code, "decode") << c.what;
    EXPECT_NE(r.error().message.find(c.expect), std::string::npos)
        << c.what << ": " << r.error().message;
  }
  util::Bytes trailing = good;
  trailing.push_back(std::byte{0});
  auto r = WireMsg::decode(trailing);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("1 trailing bytes"), std::string::npos) << r.error().message;
}

TEST(Group, UndecodableDatagramsAreCountedAndDropped) {
  obs::Hub hub;
  Cluster c(3);
  c.eng.set_obs(&hub);
  auto stray = c.net.bind(c.net.host(2)->id(), 77, net::TransportKind::kTcpIp);
  WireMsg bogus = wire_corpus().front();
  util::Bytes unknown_kind = bogus.encode();
  unknown_kind[0] = std::byte{42};
  util::Bytes trailing = bogus.encode();
  trailing.push_back(std::byte{0});
  c.net.host(2)->spawn("stray", [&] {
    const net::NetAddr target = c.eps[0]->addr();
    stray->send(target, std::move(unknown_kind));
    stray->send(target, std::move(trailing));
    stray->send(target, util::Bytes{});
  });
  c.net.host(1)->spawn("tx", [&] {
    c.eng.sleep(milliseconds(5));
    c.eps[1]->multicast(text("after-garbage"));
  });
  c.run_for(seconds(1));
  const obs::Counter* errors = hub.metrics.find_counter("gcs.decode_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->value(), 3u);
  EXPECT_EQ(c.views[0].size(), 1u);  // garbage neither joins nor suspects
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(c.delivered[i].size(), 1u) << "member " << i;
    EXPECT_EQ(c.delivered[i][0], c.eps[1]->self().to_string() + ":after-garbage");
  }
}

// ------------------------------------------------------- lightweight ----

struct LwCluster {
  sim::Engine eng;
  net::Network net{eng};
  std::vector<std::unique_ptr<GroupEndpoint>> eps;
  std::vector<std::unique_ptr<LightweightGroups>> lw;
  std::map<std::pair<size_t, std::string>, std::vector<LwView>> lw_views;
  std::map<std::pair<size_t, std::string>, std::vector<std::string>> lw_msgs;

  explicit LwCluster(size_t n) {
    std::vector<net::NetAddr> founders;
    for (size_t i = 0; i < n; ++i) {
      auto host = net.add_host("node" + std::to_string(i));
      founders.push_back({host->id(), 1});
    }
    for (size_t i = 0; i < n; ++i) {
      eps.push_back(std::make_unique<GroupEndpoint>(net, *net.host(static_cast<sim::HostId>(i)),
                                                    GroupConfig{}, Callbacks{}));
      lw.push_back(std::make_unique<LightweightGroups>(*eps[i], Callbacks{}));
    }
    for (auto& ep : eps) ep->start_founding(founders);
  }

  std::vector<std::string>& msgs(size_t i, const std::string& group) {
    return lw_msgs[{i, group}];
  }
  std::vector<LwView>& vws(size_t i, const std::string& group) { return lw_views[{i, group}]; }

  LwCallbacks callbacks_for(size_t i, const std::string& group) {
    LwCallbacks cbs;
    cbs.on_view = [this, i, group](const LwView& v) { lw_views[{i, group}].push_back(v); };
    cbs.on_message = [this, i, group](MemberId origin, const util::Bytes& payload) {
      lw_msgs[{i, group}].push_back(origin.to_string() + ":" + untext(payload));
    };
    return cbs;
  }
};

TEST(Lightweight, JoinBuildsSubgroupView) {
  LwCluster c(4);
  c.net.host(0)->spawn("j0", [&] { c.lw[0]->lw_join("appA", c.callbacks_for(0, "appA")); });
  c.net.host(1)->spawn("j1", [&] { c.lw[1]->lw_join("appA", c.callbacks_for(1, "appA")); });
  c.eng.run_for(seconds(0.5));
  auto v0 = c.lw[0]->lw_view("appA");
  ASSERT_TRUE(v0.has_value());
  EXPECT_EQ(v0->members.size(), 2u);
  // Non-members know the group exists (replicated map) but get no upcalls.
  EXPECT_TRUE(c.lw[2]->lw_view("appA").has_value());
  EXPECT_TRUE(c.vws(2, "appA").empty());
}

TEST(Lightweight, MessagesOnlyReachGroupMembers) {
  LwCluster c(4);
  c.net.host(0)->spawn("go", [&] {
    c.lw[0]->lw_join("appA", c.callbacks_for(0, "appA"));
    c.lw[1]->lw_join("appA", c.callbacks_for(1, "appA"));
    c.eng.sleep(milliseconds(100));
    c.lw[0]->lw_multicast("appA", text("work"));
  });
  c.eng.run_for(seconds(0.5));
  ASSERT_EQ(c.msgs(1, "appA").size(), 1u);
  EXPECT_EQ(c.msgs(1, "appA")[0], "m0.0:work");
  EXPECT_EQ(c.msgs(0, "appA").size(), 1u);  // sender's daemon is a member
  EXPECT_TRUE(c.msgs(2, "appA").empty());
  EXPECT_TRUE(c.msgs(3, "appA").empty());
  EXPECT_GE(c.lw[2]->lw_messages_filtered(), 1u);
}

TEST(Lightweight, DisjointGroupsDoNotInterfere) {
  LwCluster c(4);
  c.net.host(0)->spawn("go", [&] {
    c.lw[0]->lw_join("appA", c.callbacks_for(0, "appA"));
    c.lw[1]->lw_join("appA", c.callbacks_for(1, "appA"));
    c.lw[2]->lw_join("appB", c.callbacks_for(2, "appB"));
    c.lw[3]->lw_join("appB", c.callbacks_for(3, "appB"));
    c.eng.sleep(milliseconds(100));
    c.lw[0]->lw_multicast("appA", text("a"));
    c.lw[2]->lw_multicast("appB", text("b"));
  });
  c.eng.run_for(seconds(0.5));
  EXPECT_EQ(c.msgs(1, "appA").size(), 1u);
  EXPECT_EQ(c.msgs(3, "appB").size(), 1u);
  EXPECT_TRUE(c.msgs(1, "appB").empty());
  EXPECT_TRUE(c.msgs(3, "appA").empty());
}

TEST(Lightweight, NodeCrashProjectsOntoAffectedGroupsOnly) {
  // Paper figure 2: p3 is in two lightweight groups; its failure must be
  // reported in both, but a group not containing p3 must see nothing.
  LwCluster c(4);
  c.net.host(0)->spawn("go", [&] {
    c.lw[0]->lw_join("appA", c.callbacks_for(0, "appA"));
    c.lw[2]->lw_join("appA", c.callbacks_for(2, "appA"));
    c.lw[2]->lw_join("appB", c.callbacks_for(2, "appB"));
    c.lw[3]->lw_join("appB", c.callbacks_for(3, "appB"));
    c.lw[0]->lw_join("appC", c.callbacks_for(0, "appC"));
    c.lw[1]->lw_join("appC", c.callbacks_for(1, "appC"));
  });
  c.eng.schedule(milliseconds(200), [&] { c.net.crash_host(2); });
  c.eng.run_for(seconds(2));

  // appA at member 0: last view excludes m2.
  ASSERT_FALSE(c.vws(0, "appA").empty());
  EXPECT_FALSE(c.vws(0, "appA").back().contains(MemberId{2, 0}));
  ASSERT_FALSE(c.vws(3, "appB").empty());
  EXPECT_FALSE(c.vws(3, "appB").back().contains(MemberId{2, 0}));
  // appC (members 0,1) saw only its join views — no crash-induced view.
  const auto& c_views = c.vws(0, "appC");
  ASSERT_FALSE(c_views.empty());
  EXPECT_EQ(c_views.back().members.size(), 2u);
}

TEST(Lightweight, LeaveShrinksLwViewWithoutHeavyChange) {
  LwCluster c(3);
  c.net.host(0)->spawn("go", [&] {
    c.lw[0]->lw_join("app", c.callbacks_for(0, "app"));
    c.lw[1]->lw_join("app", c.callbacks_for(1, "app"));
    c.lw[2]->lw_join("app", c.callbacks_for(2, "app"));
    c.eng.sleep(milliseconds(100));
    c.lw[2]->lw_leave("app");
  });
  c.eng.run_for(seconds(0.5));
  ASSERT_FALSE(c.vws(0, "app").empty());
  EXPECT_EQ(c.vws(0, "app").back().members.size(), 2u);
  // The heavy view never changed.
  EXPECT_EQ(c.eps[0]->view().view_id, 1u);
  EXPECT_EQ(c.eps[0]->view().size(), 3u);
}

TEST(Lightweight, OrderingConsistentAcrossMembers) {
  LwCluster c(3);
  c.net.host(0)->spawn("go", [&] {
    for (size_t i = 0; i < 3; ++i) c.lw[i]->lw_join("app", c.callbacks_for(i, "app"));
    c.eng.sleep(milliseconds(100));
  });
  for (size_t i = 0; i < 3; ++i) {
    c.net.host(static_cast<sim::HostId>(i))->spawn("tx", [&, i] {
      c.eng.sleep(milliseconds(150));
      for (int k = 0; k < 10; ++k) {
        c.lw[i]->lw_multicast("app", text(std::to_string(i) + "." + std::to_string(k)));
        c.eng.sleep(milliseconds(3));
      }
    });
  }
  c.eng.run_for(seconds(1));
  ASSERT_EQ(c.msgs(0, "app").size(), 30u);
  EXPECT_EQ(c.msgs(0, "app"), c.msgs(1, "app"));
  EXPECT_EQ(c.msgs(1, "app"), c.msgs(2, "app"));
}

}  // namespace
}  // namespace starfish::gcs
