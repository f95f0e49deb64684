// Property-based sweeps across the stack: randomized workloads driven by
// seeded RNGs, checked against invariants rather than fixed expectations.
// Every test is deterministic per seed (the simulator replays bit-for-bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/image.hpp"
#include "ckpt/incremental.hpp"
#include "ckpt/recovery.hpp"
#include "gcs/endpoint.hpp"
#include "mpi/comm.hpp"
#include "mpi/proc.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace starfish {
namespace {

using sim::milliseconds;
using sim::seconds;

// ------------------------------------------------- sim: channel orders ----

class ChannelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChannelProperty, FifoUnderRandomInterleavings) {
  // Many writers with random pacing into one channel: per-writer order must
  // be preserved at the single reader.
  sim::Engine eng;
  sim::Channel<std::pair<int, int>> ch(eng);
  util::Rng rng(GetParam());
  constexpr int kWriters = 5;
  constexpr int kPerWriter = 40;
  std::vector<std::vector<int>> seen(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    const uint64_t pace_seed = rng.next();
    eng.spawn("writer", [&eng, &ch, w, pace_seed] {
      util::Rng pace(pace_seed);
      for (int i = 0; i < kPerWriter; ++i) {
        eng.sleep(sim::microseconds(static_cast<int64_t>(pace.below(50))));
        ch.send({w, i});
      }
    });
  }
  eng.spawn("reader", [&] {
    for (int i = 0; i < kWriters * kPerWriter; ++i) {
      auto r = ch.recv();
      ASSERT_TRUE(r.ok());
      seen[static_cast<size_t>(r.value->first)].push_back(r.value->second);
    }
  });
  eng.run();
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_EQ(seen[static_cast<size_t>(w)].size(), static_cast<size_t>(kPerWriter));
    for (int i = 0; i < kPerWriter; ++i) EXPECT_EQ(seen[static_cast<size_t>(w)][i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelProperty, ::testing::Values(1u, 7u, 42u, 1234u));

// ------------------------------- ckpt: incremental delta round-trips ----

class IncrementalProperty : public ::testing::TestWithParam<uint64_t> {};

/// Pages of `cur` a delta against `base` must carry: those past the base's
/// end and those whose bytes differ (memcmp) at the same offset.
uint64_t memcmp_dirty_pages(const util::Bytes& base, const util::Bytes& cur) {
  uint64_t dirty = 0;
  for (size_t off = 0; off < cur.size(); off += ckpt::kPageBytes) {
    const size_t len = std::min(ckpt::kPageBytes, cur.size() - off);
    if (off + len > base.size() || std::memcmp(base.data() + off, cur.data() + off, len) != 0) {
      ++dirty;
    }
  }
  return dirty;
}

TEST_P(IncrementalProperty, RandomEvolutionRoundTripsAndMatchesMemcmp) {
  // A state evolves over many epochs — pages mutated, the blob grown and
  // shrunk through partial tail pages. Invariants per epoch: a delta frame
  // carries exactly the pages a memcmp scan finds dirty and references the
  // rest, and decoding it against the previous state reproduces the
  // current one exactly (a frame that does not pay falls back to raw).
  util::Rng rng(GetParam());
  util::Bytes state((1 + rng.below(4)) * ckpt::kPageBytes + rng.below(ckpt::kPageBytes));
  for (auto& b : state) b = static_cast<std::byte>(rng.next());
  for (int epoch = 0; epoch < 16; ++epoch) {
    util::Bytes next = state;
    switch (rng.below(4)) {
      case 0:  // grow, usually into a partial tail page
        next.resize(next.size() + 1 + rng.below(2 * ckpt::kPageBytes),
                    static_cast<std::byte>(epoch));
        break;
      case 1: {  // shrink (possibly to empty)
        const size_t cut = std::min<size_t>(next.size(), rng.below(2 * ckpt::kPageBytes));
        next.resize(next.size() - cut);
        break;
      }
      default:  // keep the size
        break;
    }
    for (uint64_t m = rng.below(6); m > 0 && !next.empty(); --m) {
      next[rng.below(next.size())] = static_cast<std::byte>(rng.next());
    }

    const ckpt::EncodedPayload enc = ckpt::encode_payload(
        ckpt::CompressMode::kDelta, util::as_bytes_view(next), util::as_bytes_view(state), nullptr);
    if (enc.codec == ckpt::PayloadCodec::kDelta) {
      const uint64_t pages = (next.size() + ckpt::kPageBytes - 1) / ckpt::kPageBytes;
      EXPECT_EQ(enc.delta_page_literals, memcmp_dirty_pages(state, next)) << "epoch " << epoch;
      EXPECT_EQ(enc.delta_page_refs + enc.delta_page_literals, pages) << "epoch " << epoch;
    } else {
      EXPECT_EQ(enc.codec, ckpt::PayloadCodec::kRaw);
    }
    auto back = ckpt::decode_payload(enc.codec, util::as_bytes_view(enc.bytes),
                                     util::as_bytes_view(state), next.size(), nullptr);
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value(), next);
    state = std::move(next);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalProperty,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u, 777777u));

// --------------------------------------------- gcs: total order sweeps ----

class GcsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcsProperty, TotalOrderAndExactlyOnceUnderCrash) {
  // Random senders, random crash time of a random non-coordinator member:
  // survivors deliver identical sequences with no duplicates, and every
  // message from a survivor is delivered exactly once.
  util::Rng rng(GetParam());
  const size_t n = 3 + rng.below(4);  // 3..6 members
  sim::Engine eng;
  net::Network net(eng);
  std::vector<std::unique_ptr<gcs::GroupEndpoint>> eps;
  std::vector<std::vector<std::string>> delivered(n);
  std::vector<net::NetAddr> founders;
  for (size_t i = 0; i < n; ++i) {
    founders.push_back({net.add_host("n" + std::to_string(i))->id(), 1});
  }
  for (size_t i = 0; i < n; ++i) {
    gcs::Callbacks cbs;
    cbs.on_message = [&delivered, i](gcs::MemberId origin, const util::Bytes& payload) {
      delivered[i].push_back(origin.to_string() + ":" +
                             std::string(reinterpret_cast<const char*>(payload.data()),
                                         payload.size()));
    };
    eps.push_back(std::make_unique<gcs::GroupEndpoint>(net, *net.host(i), gcs::GroupConfig{},
                                                       std::move(cbs)));
  }
  for (auto& ep : eps) ep->start_founding(founders);

  const size_t victim = 1 + rng.below(n - 1);  // never the initial coordinator
  const sim::Duration crash_at = milliseconds(static_cast<int64_t>(50 + rng.below(300)));
  for (size_t i = 0; i < n; ++i) {
    auto* ep = eps[i].get();
    const uint64_t pace_seed = rng.next();
    net.host(i)->spawn("sender", [&eng, ep, i, pace_seed] {
      util::Rng pace(pace_seed);
      for (int k = 0; k < 25; ++k) {
        eng.sleep(milliseconds(1 + static_cast<int64_t>(pace.below(15))));
        const std::string text = "m" + std::to_string(i) + "." + std::to_string(k);
        util::Bytes b(reinterpret_cast<const std::byte*>(text.data()),
                      reinterpret_cast<const std::byte*>(text.data() + text.size()));
        ep->multicast(std::move(b));
      }
    });
  }
  eng.schedule(crash_at, [&] { net.crash_host(static_cast<sim::HostId>(victim)); });
  eng.run_for(seconds(5.0));

  // All survivors agree on the full sequence.
  const auto& reference = delivered[victim == 0 ? 1 : 0];
  for (size_t i = 0; i < n; ++i) {
    if (i == victim) continue;
    EXPECT_EQ(delivered[i], reference) << "survivor " << i << " diverged (seed "
                                       << GetParam() << ")";
  }
  // Exactly-once: no duplicates, and all 25 messages of every survivor made it.
  std::set<std::string> unique(reference.begin(), reference.end());
  EXPECT_EQ(unique.size(), reference.size()) << "duplicate delivery";
  for (size_t i = 0; i < n; ++i) {
    if (i == victim) continue;
    int count = 0;
    for (const auto& m : reference) {
      if (m.rfind("m" + std::to_string(i) + ".", 0) == 0) ++count;
    }
    EXPECT_EQ(count, 25) << "lost messages from survivor " << i;
  }
  for (auto& ep : eps) ep->shutdown();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcsProperty,
                         ::testing::Values(3u, 11u, 99u, 271u, 8881u, 31337u));

// ----------------------------------------------- mpi: random exchanges ----

class MpiProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MpiProperty, RandomTrafficDeliveredExactlyOnce) {
  // Every rank sends a random number of sequence-stamped messages to random
  // peers with random sizes (crossing the eager/rendezvous boundary) and
  // receives until it has everything addressed to it.
  util::Rng rng(GetParam());
  const uint32_t n = 2 + static_cast<uint32_t>(rng.below(4));  // 2..5 ranks
  sim::Engine eng;
  net::Network net(eng);
  std::vector<std::unique_ptr<mpi::Proc>> procs;
  std::vector<net::NetAddr> addrs;
  mpi::ProcConfig config;
  config.eager_threshold = 512;
  for (uint32_t i = 0; i < n; ++i) {
    procs.push_back(
        std::make_unique<mpi::Proc>(net, *net.add_host("h" + std::to_string(i)),
                                    net::TransportKind::kBipMyrinet, config));
    addrs.push_back(procs.back()->addr());
  }
  for (uint32_t i = 0; i < n; ++i) procs[i]->configure_world(i, addrs);

  // Plan the traffic up front so receivers know what to expect.
  std::vector<std::vector<int>> inbound_count(n, std::vector<int>(n, 0));
  struct Send {
    uint32_t dst;
    size_t size;
  };
  std::vector<std::vector<Send>> plan(n);
  for (uint32_t src = 0; src < n; ++src) {
    const int k = 5 + static_cast<int>(rng.below(20));
    for (int i = 0; i < k; ++i) {
      Send s;
      do {
        s.dst = static_cast<uint32_t>(rng.below(n));
      } while (s.dst == src);
      s.size = 1 + rng.below(4000);  // straddles the 512-byte threshold
      plan[src].push_back(s);
      ++inbound_count[s.dst][src];
    }
  }

  std::vector<std::map<uint32_t, std::vector<uint64_t>>> got(n);
  for (uint32_t r = 0; r < n; ++r) {
    auto* proc = procs[r].get();
    int expect = 0;
    for (uint32_t s = 0; s < n; ++s) expect += inbound_count[r][s];
    net.host(r)->spawn("rx", [proc, r, expect, &got] {
      for (int i = 0; i < expect; ++i) {
        mpi::RecvStatus st;
        auto data = proc->recv(mpi::kWorldCommId, mpi::kAnySource, 0, &st);
        util::Reader reader(util::as_bytes_view(data));
        got[r][static_cast<uint32_t>(st.source)].push_back(reader.u64().value_or(999999));
      }
    });
    const uint64_t pace_seed = rng.next();
    net.host(r)->spawn("tx", [proc, r, &plan, &eng, pace_seed] {
      util::Rng pace(pace_seed);
      uint64_t seq = 0;
      for (const auto& s : plan[r]) {
        eng.sleep(sim::microseconds(static_cast<int64_t>(pace.below(500))));
        util::Bytes b;
        util::Writer w(b);
        w.u64(seq++);
        b.resize(std::max(b.size(), s.size), std::byte{0});
        proc->send(mpi::kWorldCommId, s.dst, 0, std::move(b));
      }
    });
  }
  eng.run_for(seconds(30.0));

  // Exactly once + per-sender FIFO (sequence numbers strictly increasing).
  for (uint32_t r = 0; r < n; ++r) {
    for (uint32_t s = 0; s < n; ++s) {
      const auto it = got[r].find(s);
      const int received = it == got[r].end() ? 0 : static_cast<int>(it->second.size());
      EXPECT_EQ(received, inbound_count[r][s])
          << "rank " << r << " from " << s << " (seed " << GetParam() << ")";
      if (it == got[r].end()) continue;
      for (size_t i = 1; i < it->second.size(); ++i) {
        EXPECT_LT(it->second[i - 1], it->second[i]) << "per-sender order violated";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpiProperty,
                         ::testing::Values(2u, 17u, 404u, 7777u, 123456u));

// ------------------------------------------ ckpt: random image states ----

class ImageProperty : public ::testing::TestWithParam<uint64_t> {};

vm::VmState random_state(util::Rng& rng, bool allow_wide_ints) {
  vm::VmState s;
  auto random_value = [&]() {
    switch (rng.below(5)) {
      case 0: return vm::Value::unit();
      case 1:
        return vm::Value::integer(allow_wide_ints
                                      ? static_cast<int64_t>(rng.next())
                                      : static_cast<int64_t>(static_cast<int32_t>(rng.next())));
      case 2: return vm::Value::real((rng.uniform() - 0.5) * 1e12);
      case 3: return vm::Value::boolean(rng.chance(0.5));
      default: return vm::Value::reference(static_cast<vm::HeapIndex>(rng.below(16)));
    }
  };
  for (size_t i = rng.below(20); i > 0; --i) s.globals.push_back(random_value());
  for (size_t i = rng.below(10); i > 0; --i) s.stack.push_back(random_value());
  for (size_t i = rng.below(4); i > 0; --i) {
    vm::Frame f;
    f.function = static_cast<uint32_t>(rng.below(8));
    f.pc = static_cast<uint32_t>(rng.below(1000));
    for (size_t k = rng.below(6); k > 0; --k) f.locals.push_back(random_value());
    s.frames.push_back(std::move(f));
  }
  for (size_t i = rng.below(5); i > 0; --i) {
    vm::HeapObject obj;
    if (rng.chance(0.5)) {
      obj.kind = vm::HeapObject::Kind::kArray;
      for (size_t k = rng.below(10); k > 0; --k) obj.push_back(random_value());
    } else {
      obj.kind = vm::HeapObject::Kind::kBytes;
      obj.bytes.resize(rng.below(300));
      for (auto& b : obj.bytes) b = static_cast<std::byte>(rng.below(256));
    }
    s.heap.push_back(std::move(obj));
  }
  s.steps_executed = rng.next();
  return s;
}

TEST_P(ImageProperty, RandomStatesRoundtripAcrossAllMachinePairs) {
  util::Rng rng(GetParam());
  auto machines = sim::table2_machines();
  for (int iter = 0; iter < 10; ++iter) {
    // 32-bit-safe values so narrowing never (correctly) rejects.
    vm::VmState state = random_state(rng, /*allow_wide_ints=*/false);
    const auto& saver = machines[rng.below(machines.size())];
    const auto& target = machines[rng.below(machines.size())];
    auto img = ckpt::portable_encode(saver, state);
    auto back = ckpt::portable_decode(img, target);
    ASSERT_TRUE(back.ok()) << saver.label() << " -> " << target.label();
    EXPECT_EQ(back.value(), state);
  }
}

TEST_P(ImageProperty, RandomIncrementalChainsResolve) {
  // A 6-link delta chain over a randomly mutated and resized state: each
  // link is coded against the link before it and resolves oldest-first to
  // the state it was coded from.
  util::Rng rng(GetParam());
  util::Bytes state(ckpt::kPageBytes * (1 + rng.below(8)) + rng.below(1000), std::byte{0});
  const util::Bytes base = state;
  std::vector<ckpt::EncodedPayload> links;
  std::vector<util::Bytes> truth;
  for (int step = 0; step < 6; ++step) {
    util::Bytes next = state;
    // Random mutations, possibly resizing.
    if (rng.chance(0.3)) next.resize(1 + rng.below(10 * ckpt::kPageBytes), std::byte{5});
    for (size_t k = rng.below(20); k > 0 && !next.empty(); --k) {
      next[rng.below(next.size())] = static_cast<std::byte>(rng.below(256));
    }
    links.push_back(ckpt::encode_payload(ckpt::CompressMode::kDelta, util::as_bytes_view(next),
                                         util::as_bytes_view(state), nullptr));
    truth.push_back(next);
    state = next;
  }
  util::Bytes resolved = base;
  for (size_t i = 0; i < links.size(); ++i) {
    const ckpt::EncodedPayload& link = links[i];
    ASSERT_TRUE(ckpt::verify_payload(link.codec, util::as_bytes_view(link.bytes)).ok());
    auto r = ckpt::decode_payload(link.codec, util::as_bytes_view(link.bytes),
                                  util::as_bytes_view(resolved),
                                  ckpt::kMaxIncrementalStateBytes, nullptr);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    resolved = std::move(r).take();
    EXPECT_EQ(resolved, truth[i]) << "link " << i;
  }
  EXPECT_EQ(resolved, state);
}

TEST_P(ImageProperty, RecoveryLinesNeverContainOrphans) {
  // Random dependency graphs: the computed line must be consistent — no
  // chosen checkpoint depends on an interval at or after the sender's line.
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const uint32_t n = 2 + static_cast<uint32_t>(rng.below(5));
    std::vector<ckpt::CheckpointMeta> metas;
    std::map<uint32_t, uint32_t> latest;
    for (uint32_t p = 0; p < n; ++p) {
      const uint32_t top = 1 + static_cast<uint32_t>(rng.below(6));
      latest[p] = top;
      for (uint32_t c = 1; c <= top; ++c) {
        ckpt::CheckpointMeta meta;
        meta.rank = p;
        meta.index = c;
        for (size_t d = rng.below(4); d > 0; --d) {
          uint32_t q;
          do {
            q = static_cast<uint32_t>(rng.below(n));
          } while (q == p);
          // A message received before checkpoint c was sent in an interval
          // no later than the sender could have reached; bound loosely.
          meta.depends_on.push_back({q, static_cast<uint32_t>(rng.below(6))});
        }
        metas.push_back(std::move(meta));
      }
    }
    auto line = ckpt::compute_recovery_line(metas, latest);
    // Consistency: no orphan dependencies at the chosen indices.
    std::map<std::pair<uint32_t, uint32_t>, const ckpt::CheckpointMeta*> by_key;
    for (const auto& m : metas) by_key[{m.rank, m.index}] = &m;
    for (const auto& [rank, index] : line) {
      ASSERT_LE(index, latest[rank]);
      if (index == 0) continue;
      const auto* meta = by_key[{rank, index}];
      ASSERT_NE(meta, nullptr);
      for (const auto& dep : meta->depends_on) {
        auto it = line.find(dep.rank);
        if (it != line.end()) {
          EXPECT_LT(dep.interval, it->second)
              << "orphan: rank " << rank << "@" << index << " depends on (" << dep.rank
              << "," << dep.interval << ") but line(" << dep.rank << ")=" << it->second;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageProperty,
                         ::testing::Values(5u, 21u, 333u, 4096u, 99991u));

}  // namespace
}  // namespace starfish
