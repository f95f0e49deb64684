#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "mpi/proc.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace starfish::mpi {
namespace {

using sim::milliseconds;
using sim::seconds;

util::Bytes blob(size_t n, uint8_t fill) { return util::Bytes(n, std::byte{fill}); }

util::Bytes text(const std::string& s) {
  return util::Bytes(reinterpret_cast<const std::byte*>(s.data()),
                     reinterpret_cast<const std::byte*>(s.data() + s.size()));
}

std::string untext(const util::Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// N single-process hosts with wired MPI Procs.
struct World {
  sim::Engine eng;
  net::Network net{eng};
  std::vector<std::unique_ptr<Proc>> procs;

  explicit World(uint32_t n, net::TransportKind kind = net::TransportKind::kBipMyrinet,
                 ProcConfig config = {}, bool polling = true) {
    for (uint32_t i = 0; i < n; ++i) net.add_host("node" + std::to_string(i));
    std::vector<net::NetAddr> addrs;
    for (uint32_t i = 0; i < n; ++i) {
      procs.push_back(std::make_unique<Proc>(net, *net.host(i), kind, config, polling));
      addrs.push_back(procs.back()->addr());
    }
    for (uint32_t i = 0; i < n; ++i) procs[i]->configure_world(i, addrs);
  }

  /// Runs `body(rank, proc)` as the application fiber of every process.
  template <typename Body>
  void run_app(Body body) {
    for (uint32_t i = 0; i < procs.size(); ++i) {
      net.host(i)->spawn("app", [this, i, body] { body(i, *procs[i]); });
    }
    eng.run_for(seconds(30));
  }
};

// ----------------------------------------------------------------- p2p ----

TEST(P2P, BlockingSendRecv) {
  World w(2);
  std::string got;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      p.send(kWorldCommId, 1, 7, text("hello from 0"));
    } else {
      RecvStatus st;
      got = untext(p.recv(kWorldCommId, 0, 7, &st));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 12u);
    }
  });
  EXPECT_EQ(got, "hello from 0");
}

TEST(P2P, EagerBeforeReceivePosted) {
  // Eager messages arrive before the receiver calls recv; the polling
  // thread parks them in the unexpected queue.
  World w(2);
  std::string got;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      p.send(kWorldCommId, 1, 1, text("early"));
    } else {
      w.eng.sleep(milliseconds(50));
      EXPECT_GE(p.unexpected_depth(), 1u);
      got = untext(p.recv(kWorldCommId, 0, 1));
    }
  });
  EXPECT_EQ(got, "early");
}

TEST(P2P, TagMatchingSelectsRightMessage) {
  World w(2);
  std::string got_a, got_b;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      p.send(kWorldCommId, 1, 10, text("ten"));
      p.send(kWorldCommId, 1, 20, text("twenty"));
    } else {
      w.eng.sleep(milliseconds(10));
      got_b = untext(p.recv(kWorldCommId, 0, 20));  // out of arrival order
      got_a = untext(p.recv(kWorldCommId, 0, 10));
    }
  });
  EXPECT_EQ(got_a, "ten");
  EXPECT_EQ(got_b, "twenty");
}

TEST(P2P, AnySourceAnyTagWildcards) {
  World w(3);
  std::vector<std::string> got;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      for (int i = 0; i < 2; ++i) {
        RecvStatus st;
        got.push_back(untext(p.recv(kWorldCommId, kAnySource, kAnyTag, &st)));
        EXPECT_NE(st.source, kAnySource);
      }
    } else {
      w.eng.sleep(milliseconds(rank));
      p.send(kWorldCommId, 0, static_cast<int>(rank), text("from" + std::to_string(rank)));
    }
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "from1");  // rank 1 sent first (deterministic sim)
  EXPECT_EQ(got[1], "from2");
}

TEST(P2P, FifoPerSenderSameTag) {
  World w(2);
  std::vector<int> order;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      for (int i = 0; i < 20; ++i) {
        util::Bytes b;
        util::Writer wr(b);
        wr.i32(i);
        p.send(kWorldCommId, 1, 0, std::move(b));
      }
    } else {
      for (int i = 0; i < 20; ++i) {
        auto b = p.recv(kWorldCommId, 0, 0);
        util::Reader r(util::as_bytes_view(b));
        order.push_back(r.i32());
      }
    }
  });
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(P2P, RendezvousLargeMessage) {
  // Above the eager threshold: RTS/CTS/data handshake.
  World w(2, net::TransportKind::kBipMyrinet, ProcConfig{.eager_threshold = 1024});
  size_t got_size = 0;
  uint8_t got_fill = 0;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      p.send(kWorldCommId, 1, 0, blob(100 * 1024, 0x77));
    } else {
      auto b = p.recv(kWorldCommId, 0, 0);
      got_size = b.size();
      got_fill = static_cast<uint8_t>(std::to_integer<int>(b[12345]));
    }
  });
  EXPECT_EQ(got_size, 100u * 1024);
  EXPECT_EQ(got_fill, 0x77);
}

TEST(P2P, RendezvousUnexpectedRts) {
  // RTS arrives before the receive is posted: payload still lands intact.
  World w(2, net::TransportKind::kBipMyrinet, ProcConfig{.eager_threshold = 64});
  size_t got_size = 0;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      p.send(kWorldCommId, 1, 3, blob(10'000, 1));
    } else {
      w.eng.sleep(milliseconds(100));
      got_size = p.recv(kWorldCommId, 0, 3).size();
    }
  });
  EXPECT_EQ(got_size, 10'000u);
}

TEST(P2P, NonBlockingSendRecvOverlap) {
  World w(2);
  std::string got1, got2;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      Request a = p.isend(kWorldCommId, 1, 1, text("first"));
      Request b = p.isend(kWorldCommId, 1, 2, text("second"));
      (void)p.wait(a);
      (void)p.wait(b);
    } else {
      Request r2 = p.irecv(kWorldCommId, 0, 2);
      Request r1 = p.irecv(kWorldCommId, 0, 1);
      got2 = untext(p.wait(r2));
      got1 = untext(p.wait(r1));
    }
  });
  EXPECT_EQ(got1, "first");
  EXPECT_EQ(got2, "second");
}

TEST(P2P, TestPollsCompletion) {
  World w(2);
  bool was_incomplete = false;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      w.eng.sleep(milliseconds(20));
      p.send(kWorldCommId, 1, 0, text("x"));
    } else {
      Request r = p.irecv(kWorldCommId, 0, 0);
      was_incomplete = !p.test(r);
      (void)p.wait(r);
      EXPECT_TRUE(p.test(r));
    }
  });
  EXPECT_TRUE(was_incomplete);
}

TEST(P2P, IprobeSeesQueuedMessage) {
  World w(2);
  bool before = true, after = false;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      p.send(kWorldCommId, 1, 9, text("probe-me"));
    } else {
      before = p.iprobe(kWorldCommId, 0, 9);
      w.eng.sleep(milliseconds(10));
      RecvStatus st;
      after = p.iprobe(kWorldCommId, kAnySource, kAnyTag, &st);
      EXPECT_EQ(st.bytes, 8u);
      (void)p.recv(kWorldCommId, 0, 9);
      EXPECT_FALSE(p.iprobe(kWorldCommId, 0, 9));
    }
  });
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(P2P, PingPongLatencyMatchesModel) {
  World w(2);
  sim::Time rtt = -1;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      const sim::Time start = w.eng.now();
      p.send(kWorldCommId, 1, 0, blob(1, 0));
      (void)p.recv(kWorldCommId, 1, 0);
      rtt = w.eng.now() - start;
    } else {
      auto b = p.recv(kWorldCommId, 0, 0);
      p.send(kWorldCommId, 0, 0, std::move(b));
    }
  });
  // Application-level RTT: the MPI frame header adds a few wire bytes on
  // top of the 86 us model floor.
  EXPECT_GE(rtt, sim::microseconds(86));
  EXPECT_LE(rtt, sim::microseconds(92));
}

// --------------------------------------------------------- collectives ----

class CollectiveSizes : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CollectiveSizes, BarrierSynchronizes) {
  const uint32_t n = GetParam();
  World w(n);
  std::vector<sim::Time> after(n);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    w.eng.sleep(milliseconds(rank * 10));  // staggered arrival
    comm.barrier();
    after[rank] = w.eng.now();
  });
  const sim::Time slowest_arrival = milliseconds((n - 1) * 10);
  for (uint32_t i = 0; i < n; ++i) EXPECT_GE(after[i], slowest_arrival);
}

TEST_P(CollectiveSizes, BcastFromEveryRoot) {
  const uint32_t n = GetParam();
  for (uint32_t root = 0; root < n; ++root) {
    World w(n);
    std::vector<std::string> got(n);
    w.run_app([&, root](uint32_t rank, Proc& p) {
      Comm comm = Comm::world(p);
      util::Bytes data = rank == root ? text("payload-" + std::to_string(root)) : util::Bytes{};
      got[rank] = untext(comm.bcast(static_cast<int>(root), std::move(data)));
    });
    for (uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], "payload-" + std::to_string(root)) << "n=" << n << " root=" << root;
    }
  }
}

TEST_P(CollectiveSizes, GatherCollectsInRankOrder) {
  const uint32_t n = GetParam();
  World w(n);
  std::vector<std::string> at_root;
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    auto all = comm.gather(0, text("r" + std::to_string(rank)));
    if (rank == 0) {
      for (const auto& b : all) at_root.push_back(untext(b));
    }
  });
  ASSERT_EQ(at_root.size(), n);
  for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(at_root[i], "r" + std::to_string(i));
}

TEST_P(CollectiveSizes, ScatterDistributes) {
  const uint32_t n = GetParam();
  World w(n);
  std::vector<std::string> got(n);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    std::vector<util::Bytes> parts;
    if (rank == 0) {
      for (uint32_t i = 0; i < n; ++i) parts.push_back(text("part" + std::to_string(i)));
    }
    got[rank] = untext(comm.scatter(0, std::move(parts)));
  });
  for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(got[i], "part" + std::to_string(i));
}

TEST_P(CollectiveSizes, AllgatherEverywhere) {
  const uint32_t n = GetParam();
  World w(n);
  std::vector<std::vector<std::string>> got(n);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    auto all = comm.allgather(text(std::to_string(rank * rank)));
    for (const auto& b : all) got[rank].push_back(untext(b));
  });
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i].size(), n);
    for (uint32_t k = 0; k < n; ++k) EXPECT_EQ(got[i][k], std::to_string(k * k));
  }
}

TEST_P(CollectiveSizes, AlltoallTransposes) {
  const uint32_t n = GetParam();
  World w(n);
  std::vector<std::vector<std::string>> got(n);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    std::vector<util::Bytes> parts;
    for (uint32_t to = 0; to < n; ++to) {
      parts.push_back(text(std::to_string(rank) + "->" + std::to_string(to)));
    }
    auto mine = comm.alltoall(std::move(parts));
    for (const auto& b : mine) got[rank].push_back(untext(b));
  });
  for (uint32_t me = 0; me < n; ++me) {
    ASSERT_EQ(got[me].size(), n);
    for (uint32_t from = 0; from < n; ++from) {
      EXPECT_EQ(got[me][from], std::to_string(from) + "->" + std::to_string(me));
    }
  }
}

TEST_P(CollectiveSizes, AllreduceSumAndMax) {
  const uint32_t n = GetParam();
  World w(n);
  std::vector<int64_t> sums(n), maxes(n);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    auto s = comm.allreduce(std::vector<int64_t>{static_cast<int64_t>(rank + 1)},
                            ReduceOp::kSum);
    auto m = comm.allreduce(std::vector<int64_t>{static_cast<int64_t>(rank * 3)},
                            ReduceOp::kMax);
    sums[rank] = s[0];
    maxes[rank] = m[0];
  });
  const int64_t expect_sum = static_cast<int64_t>(n) * (n + 1) / 2;
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(sums[i], expect_sum);
    EXPECT_EQ(maxes[i], 3 * (static_cast<int64_t>(n) - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes, ::testing::Values(1u, 2u, 3u, 4u, 7u, 8u));

TEST(Collectives, ContributionOfAnotherLengthFailsTheRank) {
  // A contribution shorter (or longer) than the root's own fails the root
  // the way an undecodable payload does, in every build: counted in
  // mpi.decode_errors and thrown, never read past its end.
  for (const size_t other : {size_t{1}, size_t{7}}) {
    obs::Hub hub;  // outlives the world
    World w(2);
    w.eng.set_obs(&hub);
    bool root_returned = false;
    std::string root_error;
    w.run_app([&](uint32_t rank, Proc& p) {
      Comm comm = Comm::world(p);
      std::vector<int64_t> mine(rank == 0 ? 4 : other, 1);
      if (rank != 0) {
        (void)comm.reduce(0, std::move(mine), ReduceOp::kSum);
        return;
      }
      try {
        (void)comm.reduce(0, std::move(mine), ReduceOp::kSum);
        root_returned = true;
      } catch (const std::runtime_error& e) {
        root_error = e.what();
      }
    });
    EXPECT_FALSE(root_returned) << "contribution of " << other;
    EXPECT_NE(root_error.find("undecodable reduction payload"), std::string::npos) << root_error;
    const obs::Counter* errors = hub.metrics.find_counter("mpi.decode_errors");
    ASSERT_NE(errors, nullptr);
    EXPECT_EQ(errors->value(), 1u);
  }
}

TEST(Collectives, ReduceDoubleSum) {
  World w(4);
  std::vector<double> at_root;
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    auto r = comm.reduce(0, std::vector<double>{0.5 * rank, 1.0}, ReduceOp::kSum);
    if (rank == 0) at_root = r;
  });
  ASSERT_EQ(at_root.size(), 2u);
  EXPECT_DOUBLE_EQ(at_root[0], 0.5 * (0 + 1 + 2 + 3));
  EXPECT_DOUBLE_EQ(at_root[1], 4.0);
}

TEST(Collectives, ProdReduction) {
  World w(3);
  std::vector<int64_t> result(3);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    result[rank] = comm.allreduce(std::vector<int64_t>{static_cast<int64_t>(rank + 2)},
                                  ReduceOp::kProd)[0];
  });
  for (auto v : result) EXPECT_EQ(v, 2 * 3 * 4);
}

// ------------------------------------------------------- communicators ----

TEST(Comms, SplitEvenOdd) {
  World w(6);
  std::vector<int> sub_rank(6), sub_size(6);
  std::vector<int64_t> sub_sum(6);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm world = Comm::world(p);
    Comm sub = world.split(static_cast<int>(rank % 2), static_cast<int>(rank));
    sub_rank[rank] = sub.rank();
    sub_size[rank] = sub.size();
    sub_sum[rank] = sub.allreduce(std::vector<int64_t>{static_cast<int64_t>(rank)},
                                  ReduceOp::kSum)[0];
  });
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sub_size[i], 3);
    EXPECT_EQ(sub_rank[i], static_cast<int>(i / 2));
    EXPECT_EQ(sub_sum[i], i % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  }
}

TEST(Comms, SplitNegativeColorExcluded) {
  World w(4);
  std::vector<int> sub_size(4, -1);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm world = Comm::world(p);
    Comm sub = world.split(rank == 3 ? -1 : 0, static_cast<int>(rank));
    sub_size[rank] = sub.size();
    if (rank != 3) {
      auto s = sub.allreduce(std::vector<int64_t>{1}, ReduceOp::kSum);
      EXPECT_EQ(s[0], 3);
    }
  });
  EXPECT_EQ(sub_size[3], 0);
  EXPECT_EQ(sub_size[0], 3);
}

TEST(Comms, MessagesOnSubCommDontLeak) {
  World w(4);
  std::string got;
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm world = Comm::world(p);
    Comm sub = world.split(static_cast<int>(rank % 2), static_cast<int>(rank));
    if (rank == 0) sub.send(1, 5, text("even-only"));     // to world rank 2
    if (rank == 2) got = untext(sub.recv(0, 5));          // from world rank 0
    world.barrier();
    // Rank 1 (odd subgroup) saw nothing on its sub communicator.
    if (rank == 1) {
      EXPECT_FALSE(p.iprobe(sub.id(), kAnySource, kAnyTag));
    }
  });
  EXPECT_EQ(got, "even-only");
}

TEST(Comms, DupIsIndependentChannel) {
  World w(2);
  std::string a, b;
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm world = Comm::world(p);
    Comm copy = world.dup();
    EXPECT_NE(copy.id(), world.id());
    EXPECT_EQ(copy.size(), world.size());
    if (rank == 0) {
      world.send(1, 0, text("on-world"));
      copy.send(1, 0, text("on-dup"));
    } else {
      b = untext(copy.recv(0, 0));
      a = untext(world.recv(0, 0));
    }
  });
  EXPECT_EQ(a, "on-world");
  EXPECT_EQ(b, "on-dup");
}

// ----------------------------------------------- scan/sendrecv/datatype ----

TEST(Collectives, InclusiveScanPrefixSums) {
  World w(5);
  std::vector<int64_t> results(5);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    results[rank] = comm.scan(std::vector<int64_t>{static_cast<int64_t>(rank + 1)},
                              ReduceOp::kSum)[0];
  });
  // rank r gets 1+2+...+(r+1)
  for (uint32_t r = 0; r < 5; ++r) {
    EXPECT_EQ(results[r], static_cast<int64_t>((r + 1) * (r + 2) / 2));
  }
}

TEST(Collectives, ExclusiveScan) {
  World w(4);
  std::vector<int64_t> results(4);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    results[rank] = comm.exscan(std::vector<int64_t>{static_cast<int64_t>(rank + 1)},
                                ReduceOp::kSum)[0];
  });
  EXPECT_EQ(results[0], 1);  // rank 0: input unchanged by convention
  EXPECT_EQ(results[1], 1);
  EXPECT_EQ(results[2], 3);
  EXPECT_EQ(results[3], 6);
}

TEST(Collectives, ScanMaxOperator) {
  World w(4);
  std::vector<int64_t> results(4);
  const int64_t inputs[4] = {5, 2, 9, 1};
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    results[rank] = comm.scan(std::vector<int64_t>{inputs[rank]}, ReduceOp::kMax)[0];
  });
  EXPECT_EQ(results[0], 5);
  EXPECT_EQ(results[1], 5);
  EXPECT_EQ(results[2], 9);
  EXPECT_EQ(results[3], 9);
}

TEST(P2P, SendrecvRingExchangeNoDeadlock) {
  // Every rank simultaneously sendrecv's with both neighbours — the classic
  // pattern that deadlocks with naive blocking sends.
  World w(5);
  std::vector<std::string> got(5);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm comm = Comm::world(p);
    const int right = static_cast<int>((rank + 1) % 5);
    const int left = static_cast<int>((rank + 4) % 5);
    auto reply = comm.sendrecv(right, 1, text("from" + std::to_string(rank)), left, 1);
    got[rank] = untext(reply);
  });
  for (uint32_t r = 0; r < 5; ++r) {
    EXPECT_EQ(got[r], "from" + std::to_string((r + 4) % 5));
  }
}

TEST(Datatype, ContiguousPackUnpackRoundtrip) {
  auto d = Datatype::contiguous(10, 8);
  util::Bytes buffer(80);
  for (size_t i = 0; i < buffer.size(); ++i) buffer[i] = static_cast<std::byte>(i);
  auto packed = d.pack(util::as_bytes_view(buffer));
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed.value(), buffer);
  util::Bytes restored(80);
  ASSERT_TRUE(d.unpack(util::as_bytes_view(packed.value()), restored).ok());
  EXPECT_EQ(restored, buffer);
}

TEST(Datatype, VectorExtractsMatrixColumn) {
  // A 4x6 matrix of 4-byte elements; a column is a vector type with
  // block=1, stride=6.
  constexpr size_t kRows = 4, kCols = 6, kElem = 4;
  util::Bytes matrix(kRows * kCols * kElem);
  for (size_t i = 0; i < matrix.size(); ++i) matrix[i] = static_cast<std::byte>(i % 251);
  auto column = Datatype::vector(kRows, 1, kCols, kElem);
  EXPECT_EQ(column.packed_bytes(), kRows * kElem);

  // Pack column 2 by offsetting the buffer view.
  auto packed = column.pack(std::span<const std::byte>(matrix.data() + 2 * kElem,
                                                       matrix.size() - 2 * kElem));
  ASSERT_TRUE(packed.ok());
  for (size_t row = 0; row < kRows; ++row) {
    for (size_t b = 0; b < kElem; ++b) {
      EXPECT_EQ(packed.value()[row * kElem + b], matrix[(row * kCols + 2) * kElem + b]);
    }
  }
  // Scatter it into a fresh matrix; only the column cells change.
  util::Bytes target(matrix.size(), std::byte{0});
  ASSERT_TRUE(column
                  .unpack(util::as_bytes_view(packed.value()),
                          std::span<std::byte>(target.data() + 2 * kElem,
                                               target.size() - 2 * kElem))
                  .ok());
  for (size_t row = 0; row < kRows; ++row) {
    for (size_t b = 0; b < kElem; ++b) {
      EXPECT_EQ(target[(row * kCols + 2) * kElem + b], matrix[(row * kCols + 2) * kElem + b]);
    }
  }
}

TEST(Datatype, IndexedBlocks) {
  auto d = Datatype::indexed({{0, 4}, {10, 2}, {20, 6}});
  EXPECT_EQ(d.packed_bytes(), 12u);
  EXPECT_EQ(d.extent(), 26u);
  util::Bytes buf(30);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i);
  auto packed = d.pack(util::as_bytes_view(buf));
  ASSERT_TRUE(packed.ok());
  ASSERT_EQ(packed.value().size(), 12u);
  EXPECT_EQ(std::to_integer<int>(packed.value()[4]), 10);
  EXPECT_EQ(std::to_integer<int>(packed.value()[6]), 20);
}

// Pins the packed_bytes/extent math when layouts contain zero-length
// blocks: they contribute no packed bytes and no extent beyond their
// offset, and pack/unpack skip them entirely.
TEST(Datatype, ZeroLengthBlocksContributeNothing) {
  auto d = Datatype::indexed({{0, 4}, {8, 0}, {12, 4}, {40, 0}});
  EXPECT_EQ(d.packed_bytes(), 8u);
  EXPECT_EQ(d.extent(), 40u);  // extent still covers the empty block's offset
  EXPECT_FALSE(d.is_contiguous());
  util::Bytes buf(48);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i);
  auto packed = d.pack(util::as_bytes_view(buf));
  ASSERT_TRUE(packed.ok());
  ASSERT_EQ(packed.value().size(), 8u);
  EXPECT_EQ(std::to_integer<int>(packed.value()[3]), 3);
  EXPECT_EQ(std::to_integer<int>(packed.value()[4]), 12);

  // A vector of zero-element blocks packs nothing but keeps its stride extent.
  auto v = Datatype::vector(3, 0, 5, 4);
  EXPECT_EQ(v.packed_bytes(), 0u);
  EXPECT_EQ(v.extent(), 2u * 5 * 4);
  util::Bytes vbuf(64, std::byte{0xee});
  auto vpacked = v.pack(util::as_bytes_view(vbuf));
  ASSERT_TRUE(vpacked.ok());
  EXPECT_TRUE(vpacked.value().empty());
  EXPECT_TRUE(v.unpack(vpacked.value(), vbuf).ok());

  auto empty = Datatype::indexed({{16, 0}});
  EXPECT_EQ(empty.packed_bytes(), 0u);
  EXPECT_TRUE(empty.is_contiguous());  // zero runs collapse to the trivial plan
}

// Layouts whose blocks touch collapse to a single bulk copy.
TEST(Datatype, ContiguousFastPathDetection) {
  EXPECT_TRUE(Datatype::contiguous(16, 4).is_contiguous());
  EXPECT_TRUE(Datatype::contiguous(0, 4).is_contiguous());
  // stride == block: adjacent blocks merge into one run.
  EXPECT_TRUE(Datatype::vector(8, 3, 3, 4).is_contiguous());
  EXPECT_FALSE(Datatype::vector(8, 1, 3, 4).is_contiguous());
  // indexed blocks that abut merge too.
  EXPECT_TRUE(Datatype::indexed({{0, 4}, {4, 4}, {8, 8}}).is_contiguous());
  EXPECT_FALSE(Datatype::indexed({{0, 4}, {5, 4}}).is_contiguous());

  auto merged = Datatype::vector(4, 2, 2, 8);  // 4 blocks of 16B, stride 16B
  EXPECT_EQ(merged.packed_bytes(), 64u);
  util::Bytes buf(64);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i);
  auto packed = merged.pack(util::as_bytes_view(buf));
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed.value(), buf);  // one bulk copy of the whole buffer
}

TEST(Datatype, ErrorsOnShortBuffers) {
  auto d = Datatype::contiguous(4, 8);
  util::Bytes small(16);
  EXPECT_FALSE(d.pack(util::as_bytes_view(small)).ok());
  util::Bytes msg(32);
  EXPECT_FALSE(d.unpack(util::as_bytes_view(msg), small).ok());
  util::Bytes wrong(31);
  util::Bytes big(64);
  EXPECT_FALSE(d.unpack(util::as_bytes_view(wrong), big).ok());
}

TEST(Datatype, TypedScalarCodecs) {
  std::vector<int64_t> i64s = {-1, 0, INT64_MAX, INT64_MIN};
  EXPECT_EQ(decode_i64s(encode_i64s(i64s)).value(), i64s);
  std::vector<double> f64s = {0.0, -1.5, 3.14159};
  EXPECT_EQ(decode_f64s(encode_f64s(f64s)).value(), f64s);
  std::vector<int32_t> i32s = {INT32_MIN, -7, INT32_MAX};
  EXPECT_EQ(decode_i32s(encode_i32s(i32s)).value(), i32s);
}

// Datatype transfer end to end: pack a strided column, ship it, unpack.
TEST(Datatype, StridedColumnOverTheWire) {
  World w(2);
  constexpr size_t kRows = 8, kCols = 5;
  std::vector<int32_t> received(kRows, 0);
  w.run_app([&](uint32_t rank, Proc& p) {
    auto column = Datatype::vector(kRows, 1, kCols, sizeof(int32_t));
    if (rank == 0) {
      std::vector<int32_t> matrix(kRows * kCols);
      for (size_t i = 0; i < matrix.size(); ++i) matrix[i] = static_cast<int32_t>(i);
      auto packed = column.pack(std::as_bytes(std::span<const int32_t>(
          matrix.data() + 3, matrix.size() - 3)));  // column 3
      p.send(kWorldCommId, 1, 0, std::move(packed).take());
    } else {
      auto msg = p.recv(kWorldCommId, 0, 0);
      std::vector<int32_t> buffer(kRows * kCols, 0);
      ASSERT_TRUE(column
                      .unpack(util::as_bytes_view(msg),
                              std::as_writable_bytes(std::span<int32_t>(
                                  buffer.data() + 3, buffer.size() - 3)))
                      .ok());
      for (size_t r = 0; r < kRows; ++r) received[r] = buffer[r * kCols + 3];
    }
  });
  for (size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(received[r], static_cast<int32_t>(r * kCols + 3));
  }
}

TEST(Comms, CollectivesOnSplitCommunicators) {
  // Full collective suite on a sub-communicator: bcast, gather, barrier.
  World w(6);
  std::vector<std::string> got(6);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm world = Comm::world(p);
    Comm sub = world.split(static_cast<int>(rank % 2), static_cast<int>(rank));
    sub.barrier();
    util::Bytes data =
        sub.rank() == 0 ? text("group" + std::to_string(rank % 2)) : util::Bytes{};
    got[rank] = untext(sub.bcast(0, std::move(data)));
    auto all = sub.gather(0, text("r" + std::to_string(rank)));
    if (sub.rank() == 0) {
      EXPECT_EQ(all.size(), 3u);
    }
  });
  for (uint32_t r = 0; r < 6; ++r) {
    EXPECT_EQ(got[r], "group" + std::to_string(r % 2));
  }
}

TEST(Comms, NestedSplits) {
  // Split the world, then split the halves again: 4 disjoint pairs out of 8.
  World w(8);
  std::vector<int64_t> sums(8);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm world = Comm::world(p);
    Comm half = world.split(static_cast<int>(rank / 4), static_cast<int>(rank));
    Comm pair = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(pair.size(), 2);
    sums[rank] = pair.allreduce(std::vector<int64_t>{static_cast<int64_t>(rank)},
                                ReduceOp::kSum)[0];
  });
  // Pairs are (0,1), (2,3), (4,5), (6,7).
  EXPECT_EQ(sums[0], 1);
  EXPECT_EQ(sums[1], 1);
  EXPECT_EQ(sums[2], 5);
  EXPECT_EQ(sums[5], 9);
  EXPECT_EQ(sums[7], 13);
}

TEST(Comms, ScanOnSubCommunicator) {
  World w(6);
  std::vector<int64_t> results(6);
  w.run_app([&](uint32_t rank, Proc& p) {
    Comm world = Comm::world(p);
    Comm sub = world.split(static_cast<int>(rank % 2), static_cast<int>(rank));
    results[rank] = sub.scan(std::vector<int64_t>{1}, ReduceOp::kSum)[0];
  });
  // Within each parity class, scan counts 1..3.
  EXPECT_EQ(results[0], 1);
  EXPECT_EQ(results[2], 2);
  EXPECT_EQ(results[4], 3);
  EXPECT_EQ(results[1], 1);
  EXPECT_EQ(results[3], 2);
  EXPECT_EQ(results[5], 3);
}

TEST(P2P, WaitallCompletesMixedRequests) {
  World w(3);
  int done_sets = 0;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      std::vector<Request> reqs;
      reqs.push_back(p.isend(kWorldCommId, 1, 0, text("a")));
      reqs.push_back(p.isend(kWorldCommId, 2, 0, text("b")));
      reqs.push_back(p.irecv(kWorldCommId, 1, 1));
      reqs.push_back(p.irecv(kWorldCommId, 2, 1));
      p.waitall(reqs);
      for (const auto& r : reqs) EXPECT_TRUE(p.test(r));
      ++done_sets;
    } else {
      (void)p.recv(kWorldCommId, 0, 0);
      p.send(kWorldCommId, 0, 1, text("reply"));
    }
  });
  EXPECT_EQ(done_sets, 1);
}

TEST(P2P, WaitanyReturnsFirstCompleted) {
  World w(3);
  size_t first = 99;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      std::vector<Request> reqs;
      reqs.push_back(p.irecv(kWorldCommId, 1, 0));  // arrives late
      reqs.push_back(p.irecv(kWorldCommId, 2, 0));  // arrives first
      first = p.waitany(reqs);
    } else if (rank == 1) {
      w.eng.sleep(milliseconds(50));
      p.send(kWorldCommId, 0, 0, text("slow"));
    } else {
      p.send(kWorldCommId, 0, 0, text("fast"));
    }
  });
  EXPECT_EQ(first, 1u);
}

// --------------------------------------------------------- C/R hooks ----

TEST(CrHooks, FreezeParksIncomingInUnexpectedQueue) {
  World w(2);
  std::string got;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 1) {
      p.freeze();
      w.eng.sleep(milliseconds(10));  // message from 0 arrives while frozen
      EXPECT_EQ(p.unexpected_depth(), 1u);
      p.thaw();
      got = untext(p.recv(kWorldCommId, 0, 0));
    } else {
      w.eng.sleep(milliseconds(1));
      p.send(kWorldCommId, 1, 0, text("during-freeze"));
    }
  });
  EXPECT_EQ(got, "during-freeze");
}

TEST(CrHooks, FreezeCompletesInFlightRendezvous) {
  // Sender starts a big send; receiver freezes before posting the receive.
  // The freeze auto-CTS path must drain the transfer so the sender's freeze
  // can complete (stop-and-sync would otherwise deadlock).
  World w(2, net::TransportKind::kBipMyrinet, ProcConfig{.eager_threshold = 512});
  bool sender_froze = false;
  size_t got = 0;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      p.send(kWorldCommId, 1, 0, blob(50'000, 9));
      p.freeze();
      sender_froze = true;
      p.thaw();
    } else {
      w.eng.sleep(milliseconds(1));
      p.freeze();
      w.eng.sleep(milliseconds(50));  // transfer drains while frozen
      EXPECT_EQ(p.unexpected_depth(), 1u);
      p.thaw();
      got = p.recv(kWorldCommId, 0, 0).size();
    }
  });
  EXPECT_TRUE(sender_froze);
  EXPECT_EQ(got, 50'000u);
}

TEST(CrHooks, ChannelStateRoundtrip) {
  World w(2);
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      p.send(kWorldCommId, 1, 4, text("in-transit-1"));
      p.send(kWorldCommId, 1, 5, text("in-transit-2"));
    } else {
      p.freeze();
      w.eng.sleep(milliseconds(10));
      auto blob_state = p.capture_channel_state();
      // Simulate restart: wipe and restore.
      p.restore_channel_state(decode_channel_state(blob_state).value());
      p.thaw();
      EXPECT_EQ(untext(p.recv(kWorldCommId, 0, 4)), "in-transit-1");
      EXPECT_EQ(untext(p.recv(kWorldCommId, 0, 5)), "in-transit-2");
    }
  });
}

TEST(CrHooks, MarkersReachControlHandler) {
  World w(3);
  std::vector<int> markers_seen(3, 0);
  w.run_app([&](uint32_t rank, Proc& p) {
    p.set_control_handler([&markers_seen, rank](const Frame& f) {
      if (f.kind == FrameKind::kFlushMarker) ++markers_seen[rank];
    });
    if (rank == 0) p.send_marker(FrameKind::kFlushMarker, kWorldCommId);
    w.eng.sleep(milliseconds(10));
  });
  EXPECT_EQ(markers_seen[0], 0);  // not sent to self
  EXPECT_EQ(markers_seen[1], 1);
  EXPECT_EQ(markers_seen[2], 1);
}

TEST(CrHooks, DependencyPiggybackTracksIntervals) {
  World w(2);
  ckpt::DependencyTracker t0(0), t1(1);
  w.run_app([&](uint32_t rank, Proc& p) {
    p.set_dependency_tracker(rank == 0 ? &t0 : &t1);
    if (rank == 0) {
      p.send(kWorldCommId, 1, 0, text("a"));       // sent in interval 0
      (void)t0.cut_checkpoint();                    // now interval 1
      p.send(kWorldCommId, 1, 0, text("b"));       // sent in interval 1
    } else {
      (void)p.recv(kWorldCommId, 0, 0);
      (void)p.recv(kWorldCommId, 0, 0);
      auto [idx, deps] = t1.cut_checkpoint();
      EXPECT_EQ(idx, 1u);
      ASSERT_EQ(deps.size(), 2u);
      EXPECT_EQ(deps[0], (ckpt::IntervalId{0, 0}));
      EXPECT_EQ(deps[1], (ckpt::IntervalId{0, 1}));
    }
  });
}

TEST(CrHooks, RecvTapObservesArrivals) {
  World w(2);
  int tapped = 0;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 1) {
      p.set_recv_tap([&](const Envelope&) { ++tapped; });
      (void)p.recv(kWorldCommId, 0, 0);
      (void)p.recv(kWorldCommId, 0, 1);
    } else {
      p.send(kWorldCommId, 1, 0, text("x"));
      p.send(kWorldCommId, 1, 1, text("y"));
    }
  });
  EXPECT_EQ(tapped, 2);
}

TEST(CrHooks, InjectUnexpectedReplaysChannelState) {
  World w(2);
  std::string got;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 1) {
      Envelope env;
      env.comm = kWorldCommId;
      env.src = 0;
      env.tag = 3;
      env.data = text("replayed");
      p.inject_unexpected(std::move(env));
      got = untext(p.recv(kWorldCommId, 0, 3));
    }
  });
  EXPECT_EQ(got, "replayed");
}

TEST(CrHooks, CrashMidTransferLosesMessageButNotSanity) {
  World w(2);
  bool receiver_done = false;
  w.run_app([&](uint32_t rank, Proc& p) {
    if (rank == 0) {
      p.send(kWorldCommId, 1, 0, text("doomed"));
    } else {
      auto req = p.irecv(kWorldCommId, 0, 0);
      w.eng.sleep(milliseconds(5));
      receiver_done = p.test(req);
    }
  });
  // Crash the sender right after send: the message was already on the wire
  // in this schedule, so it still arrives — but a crash *before* delivery
  // must simply drop it. Either way nothing hangs or crashes.
  World w2(2);
  bool got_anything = false;
  w2.net.host(1)->spawn("app", [&] {
    auto req = w2.procs[1]->irecv(kWorldCommId, 0, 0);
    w2.eng.sleep(milliseconds(50));
    got_anything = w2.procs[1]->test(req);
  });
  w2.eng.schedule(sim::microseconds(1), [&] { w2.net.crash_host(0); });
  w2.eng.run_for(seconds(1));
  EXPECT_FALSE(got_anything);
  EXPECT_TRUE(receiver_done);
}

// ------------------------------------------- simulated-time invariance ----

TEST(Determinism, PingRoundTripSimTimeMatchesGolden) {
  // Pins the Figure 5 ping's total simulated time to constants captured
  // from the original revision. Host-side optimizations (zero-copy payload
  // plumbing, hashed checkpoint deltas) must never move simulated time: a
  // failure here means a wire size, a charged cost or the event order
  // changed, not that the code got slower or faster on the host.
  struct Golden {
    net::TransportKind kind;
    size_t bytes;
    sim::Duration total_ns;
  };
  const Golden golden[] = {
      {net::TransportKind::kTcpIp, 1, 5596360},
      {net::TransportKind::kTcpIp, 4096, 13041800},
      {net::TransportKind::kTcpIp, 65536, 135939980},
      {net::TransportKind::kBipMyrinet, 1, 874000},
      {net::TransportKind::kBipMyrinet, 4096, 2239000},
      {net::TransportKind::kBipMyrinet, 65536, 24466320},
  };
  for (const auto& g : golden) {
    sim::Engine eng;
    net::Network net(eng);
    auto h0 = net.add_host("a");
    auto h1 = net.add_host("b");
    Proc p0(net, *h0, g.kind);
    Proc p1(net, *h1, g.kind);
    p0.configure_world(0, {p0.addr(), p1.addr()});
    p1.configure_world(1, {p0.addr(), p1.addr()});
    sim::Duration total = 0;
    constexpr int kReps = 10;
    h1->spawn("ponger", [&] {
      for (int i = 0; i < kReps; ++i) {
        auto msg = p1.recv(kWorldCommId, 0, 0);
        p1.send(kWorldCommId, 0, 0, std::move(msg));
      }
    });
    h0->spawn("pinger", [&] {
      for (int i = 0; i < kReps; ++i) {
        const sim::Time start = eng.now();
        p0.send(kWorldCommId, 1, 0, util::Bytes(g.bytes, std::byte{0x5a}));
        (void)p0.recv(kWorldCommId, 1, 0);
        total += eng.now() - start;
      }
    });
    eng.run();
    EXPECT_EQ(total, g.total_ns)
        << (g.kind == net::TransportKind::kTcpIp ? "tcp" : "bip") << " " << g.bytes << " bytes";
  }
}

}  // namespace
}  // namespace starfish::mpi
