// Tests for the simmpi substrate: matching semantics, datatypes,
// collectives against serial references, topology, failure propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "grid/decomp.h"
#include "grid/field.h"
#include "mpi/cart.h"
#include "mpi/comm.h"
#include "mpi/datatype.h"
#include "mpi/runtime.h"
#include "par/pool.h"

namespace {

using gs::Box3;
using gs::Index3;
using gs::mpi::CartComm;
using gs::mpi::Comm;
using gs::mpi::Datatype;
using gs::mpi::kAnySource;
using gs::mpi::kAnyTag;
using gs::mpi::ReduceOp;
using gs::mpi::Request;
using gs::mpi::Status;

// ------------------------------------------------------------- datatype

TEST(Datatype, BasicPacksOneElement) {
  const auto t = Datatype::basic(8);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.extent_bytes(), 8u);
  const double v = 3.5;
  const auto bytes = t.pack(&v);
  double out = 0;
  t.unpack(&out, bytes);
  EXPECT_DOUBLE_EQ(out, 3.5);
}

TEST(Datatype, ContiguousCoalesces) {
  const auto t = Datatype::contiguous(4, Datatype::basic(8));
  EXPECT_EQ(t.size(), 32u);
  std::array<double, 4> src{1, 2, 3, 4};
  std::array<double, 4> dst{};
  t.unpack(dst.data(), t.pack(src.data()));
  EXPECT_EQ(dst, src);
}

TEST(Datatype, VectorStridedPack) {
  // 3 blocks of 2 doubles, stride 4 doubles: picks 0,1, 4,5, 8,9.
  const auto t = Datatype::vector(3, 2, 4, Datatype::basic(8));
  EXPECT_EQ(t.size(), 48u);
  std::array<double, 12> src{};
  std::iota(src.begin(), src.end(), 0.0);
  const auto bytes = t.pack(src.data());
  std::array<double, 6> packed{};
  std::memcpy(packed.data(), bytes.data(), bytes.size());
  EXPECT_EQ(packed, (std::array<double, 6>{0, 1, 4, 5, 8, 9}));
}

TEST(Datatype, VectorUnpackScatters) {
  const auto t = Datatype::vector(2, 1, 3, Datatype::basic(8));
  std::array<double, 2> payload{7.0, 9.0};
  std::array<std::byte, 16> bytes;
  std::memcpy(bytes.data(), payload.data(), 16);
  std::array<double, 6> dst{};
  t.unpack(dst.data(), bytes);
  EXPECT_DOUBLE_EQ(dst[0], 7.0);
  EXPECT_DOUBLE_EQ(dst[3], 9.0);
  EXPECT_DOUBLE_EQ(dst[1], 0.0);
}

TEST(Datatype, VectorOverlapRejected) {
  EXPECT_THROW(Datatype::vector(2, 4, 2, Datatype::basic(8)), gs::Error);
}

TEST(Datatype, SubarrayMatchesPackBox) {
  const Index3 extent{4, 4, 4};
  const Box3 box{{1, 1, 1}, {2, 2, 2}};
  std::vector<double> src(64);
  std::iota(src.begin(), src.end(), 0.0);

  const auto t = Datatype::subarray(extent, box, sizeof(double));
  EXPECT_EQ(t.size(), 8u * sizeof(double));

  std::vector<double> viaPackBox(8);
  gs::pack_box(src, extent, box, viaPackBox);

  const auto bytes = t.pack(src.data());
  std::vector<double> viaType(8);
  std::memcpy(viaType.data(), bytes.data(), bytes.size());
  EXPECT_EQ(viaType, viaPackBox);
}

TEST(Datatype, SubarrayFacePlaneStrided) {
  // x-face of a 4x4x4 array: blocklength 1, genuinely strided.
  const Index3 extent{4, 4, 4};
  const Box3 face{{0, 0, 0}, {1, 4, 4}};
  const auto t = Datatype::subarray(extent, face, sizeof(double));
  EXPECT_EQ(t.size(), 16u * sizeof(double));
  std::vector<double> src(64);
  std::iota(src.begin(), src.end(), 0.0);
  const auto bytes = t.pack(src.data());
  std::vector<double> packed(16);
  std::memcpy(packed.data(), bytes.data(), bytes.size());
  // Elements at i=0: linear 0, 4, 8, ..., 60.
  for (int n = 0; n < 16; ++n) {
    EXPECT_DOUBLE_EQ(packed[static_cast<std::size_t>(n)], 4.0 * n);
  }
}

TEST(Datatype, SubarrayBoundsChecked) {
  EXPECT_THROW(
      Datatype::subarray({4, 4, 4}, {{3, 0, 0}, {2, 1, 1}}, 8),
      gs::Error);
  EXPECT_THROW(
      Datatype::subarray({4, 4, 4}, {{0, 0, 0}, {0, 1, 1}}, 8),
      gs::Error);
}

TEST(Datatype, PackBufferTooSmallRejected) {
  const auto t = Datatype::basic(8);
  std::array<std::byte, 4> tiny;
  double v = 0;
  EXPECT_THROW(t.pack(&v, tiny), gs::Error);
  EXPECT_THROW(t.unpack(&v, tiny), gs::Error);
}

// ------------------------------------------------------------------ p2p

TEST(Mpi, WorldSizeAndRanks) {
  std::atomic<int> visited{0};
  gs::mpi::run(4, [&](Comm& world) {
    EXPECT_EQ(world.size(), 4);
    EXPECT_GE(world.rank(), 0);
    EXPECT_LT(world.rank(), 4);
    ++visited;
  });
  EXPECT_EQ(visited.load(), 4);
}

TEST(Mpi, RankThreadsAreLanesWhenRanksCoverThePool) {
  // With at least as many ranks as pool lanes, every rank's gs::par
  // regions run inline on its own thread; with fewer, the ranks share the
  // pool. The calling thread is a lane of neither.
  const std::size_t lanes = gs::par::global_pool().lanes();
  gs::par::set_global_lanes(4);
  for (const int nranks : {4, 2}) {
    std::atomic<int> inline_ranks{0};
    gs::mpi::run(nranks, [&](Comm&) {
      if (gs::par::ThreadPool::in_region()) ++inline_ranks;
    });
    EXPECT_EQ(inline_ranks.load(), nranks == 4 ? 4 : 0) << nranks << " ranks";
    EXPECT_FALSE(gs::par::ThreadPool::in_region());
  }
  gs::par::set_global_lanes(lanes);
}

TEST(Mpi, PingPong) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const double x = 42.0;
      world.send_value(x, 1, 5);
      const double echoed = world.recv_value<double>(1, 6);
      EXPECT_DOUBLE_EQ(echoed, 43.0);
    } else {
      const double got = world.recv_value<double>(0, 5);
      world.send_value(got + 1.0, 0, 6);
    }
  });
}

TEST(Mpi, StatusReportsSourceTagBytes) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const std::array<double, 3> data{1, 2, 3};
      world.send(std::span<const double>(data), 1, 9);
    } else {
      std::array<double, 3> buf{};
      const Status st = world.recv(std::span<double>(buf), kAnySource,
                                   kAnyTag);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 9);
      EXPECT_EQ(st.bytes, 24u);
      EXPECT_DOUBLE_EQ(buf[2], 3.0);
    }
  });
}

TEST(Mpi, NonOvertakingSameSourceSameTag) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      for (int i = 0; i < 100; ++i) world.send_value(i, 1, 7);
    } else {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(world.recv_value<int>(0, 7), i);
      }
    }
  });
}

TEST(Mpi, TagSelectivity) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      world.send_value(1, 1, 10);
      world.send_value(2, 1, 20);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      EXPECT_EQ(world.recv_value<int>(0, 20), 2);
      EXPECT_EQ(world.recv_value<int>(0, 10), 1);
    }
  });
}

TEST(Mpi, AnySourceReceivesFromAll) {
  gs::mpi::run(4, [](Comm& world) {
    if (world.rank() == 0) {
      std::set<int> sources;
      for (int n = 0; n < 3; ++n) {
        std::array<int, 1> buf{};
        const Status st = world.recv(std::span<int>(buf), kAnySource, 3);
        sources.insert(st.source);
        EXPECT_EQ(buf[0], st.source * 100);
      }
      EXPECT_EQ(sources.size(), 3u);
    } else {
      world.send_value(world.rank() * 100, 0, 3);
    }
  });
}

TEST(Mpi, TypedSendRecvFacePlane) {
  // Send an x-face plane via a strided subarray datatype, the pattern of
  // the paper's Listing 3.
  gs::mpi::run(2, [](Comm& world) {
    const Index3 extent{4, 3, 3};
    std::vector<double> field(36, 0.0);
    const Box3 send_face{{3, 0, 0}, {1, 3, 3}};  // high-x interiorish plane
    const Box3 recv_face{{0, 0, 0}, {1, 3, 3}};  // low-x ghost plane
    const auto send_t = Datatype::subarray(extent, send_face, 8);
    const auto recv_t = Datatype::subarray(extent, recv_face, 8);
    if (world.rank() == 0) {
      std::iota(field.begin(), field.end(), 100.0);
      world.send_typed(field.data(), send_t, 1, 1);
    } else {
      world.recv_typed(field.data(), recv_t, 0, 1);
      // Received cells: i=0 plane gets values from sender's i=3 plane.
      for (std::int64_t k = 0; k < 3; ++k) {
        for (std::int64_t j = 0; j < 3; ++j) {
          const auto src_lin = gs::linear_index({3, j, k}, extent);
          const auto dst_lin =
              static_cast<std::size_t>(gs::linear_index({0, j, k}, extent));
          EXPECT_DOUBLE_EQ(field[dst_lin], 100.0 + src_lin);
        }
      }
    }
  });
}

TEST(Mpi, TypedSizeMismatchThrows) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const double v = 1.0;
      world.send_typed(&v, Datatype::basic(8), 1, 1);
    } else {
      std::array<double, 2> buf{};
      EXPECT_THROW(
          world.recv_typed(buf.data(),
                           Datatype::contiguous(2, Datatype::basic(8)), 0, 1),
          gs::Error);
    }
  });
}

TEST(Mpi, SendToInvalidRankThrows) {
  gs::mpi::run(1, [](Comm& world) {
    const int v = 0;
    EXPECT_THROW(world.send_value(v, 5, 0), gs::Error);
    EXPECT_THROW(world.send_value(v, -1, 0), gs::Error);
  });
}

TEST(Mpi, NegativeUserTagRejected) {
  gs::mpi::run(1, [](Comm& world) {
    const int v = 0;
    EXPECT_THROW(world.send_value(v, 0, -3), gs::Error);
  });
}

TEST(Mpi, SendRecvSelf) {
  gs::mpi::run(1, [](Comm& world) {
    world.send_value(3.14, 0, 1);
    EXPECT_DOUBLE_EQ(world.recv_value<double>(0, 1), 3.14);
  });
}

TEST(Mpi, SendrecvExchangeRing) {
  gs::mpi::run(3, [](Comm& world) {
    const int right = (world.rank() + 1) % 3;
    const int left = (world.rank() + 2) % 3;
    const double mine = world.rank() * 10.0;
    double incoming = -1.0;
    world.sendrecv_bytes(
        std::as_bytes(std::span<const double>(&mine, 1)), right, 2,
        std::as_writable_bytes(std::span<double>(&incoming, 1)), left, 2);
    EXPECT_DOUBLE_EQ(incoming, left * 10.0);
  });
}

TEST(Mpi, IrecvWaitCompletes) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      std::array<double, 2> buf{};
      Request r = world.irecv(std::span<double>(buf), 1, 4);
      Status st;
      r.wait(&st);
      EXPECT_EQ(st.bytes, 16u);
      EXPECT_DOUBLE_EQ(buf[1], 2.0);
    } else {
      const std::array<double, 2> data{1.0, 2.0};
      world.send(std::span<const double>(data), 0, 4);
    }
  });
}

TEST(Mpi, IrecvTestPollsWithoutBlocking) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      int buf = 0;
      Request r = world.irecv(std::span<int>(&buf, 1), 1, 4);
      // Tell the peer we have posted, then poll.
      world.send_value(1, 1, 5);
      while (!r.test()) {
      }
      EXPECT_EQ(buf, 77);
    } else {
      world.recv_value<int>(0, 5);
      world.send_value(77, 0, 4);
    }
  });
}

TEST(Mpi, WaitAllMixedRequests) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      std::array<int, 3> bufs{};
      std::array<Request, 3> reqs;
      for (int i = 0; i < 3; ++i) {
        reqs[static_cast<std::size_t>(i)] =
            world.irecv(std::span<int>(&bufs[static_cast<std::size_t>(i)], 1),
                        1, 10 + i);
      }
      Comm::wait_all(reqs);
      EXPECT_EQ(bufs[0], 0);
      EXPECT_EQ(bufs[1], 1);
      EXPECT_EQ(bufs[2], 2);
    } else {
      // Send in scrambled order; matching is by tag.
      world.send_value(2, 0, 12);
      world.send_value(0, 0, 10);
      world.send_value(1, 0, 11);
    }
  });
}

TEST(Mpi, IprobeSeesPendingMessage) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      world.send_value(5, 1, 8);
      world.send_value(0, 1, 9);  // "done" marker
    } else {
      world.recv_value<int>(0, 9);
      Status st;
      EXPECT_TRUE(world.iprobe(0, 8, &st));
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_FALSE(world.iprobe(0, 999));
      EXPECT_EQ(world.recv_value<int>(0, 8), 5);
      EXPECT_FALSE(world.iprobe(0, 8));
    }
  });
}

// ------------------------------------------------------------ collectives

class MpiCollectives : public testing::TestWithParam<int> {};

TEST_P(MpiCollectives, BarrierCompletes) {
  gs::mpi::run(GetParam(), [](Comm& world) {
    for (int i = 0; i < 3; ++i) world.barrier();
  });
}

TEST_P(MpiCollectives, BcastFromEveryRoot) {
  const int n = GetParam();
  gs::mpi::run(n, [n](Comm& world) {
    for (int root = 0; root < n; ++root) {
      std::array<double, 4> data{};
      if (world.rank() == root) {
        data = {1.0 * root, 2.0 * root, 3.0, 4.0};
      }
      world.bcast(std::span<double>(data), root);
      EXPECT_DOUBLE_EQ(data[0], 1.0 * root);
      EXPECT_DOUBLE_EQ(data[1], 2.0 * root);
      EXPECT_DOUBLE_EQ(data[3], 4.0);
    }
  });
}

TEST_P(MpiCollectives, AllreduceSumMinMax) {
  const int n = GetParam();
  gs::mpi::run(n, [n](Comm& world) {
    const double mine = world.rank() + 1.0;
    EXPECT_DOUBLE_EQ(world.allreduce(mine, ReduceOp::sum),
                     n * (n + 1) / 2.0);
    EXPECT_DOUBLE_EQ(world.allreduce(mine, ReduceOp::min), 1.0);
    EXPECT_DOUBLE_EQ(world.allreduce(mine, ReduceOp::max),
                     static_cast<double>(n));
  });
}

TEST_P(MpiCollectives, ReduceToNonZeroRoot) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  gs::mpi::run(n, [n](Comm& world) {
    const std::int64_t v = world.rank();
    const std::int64_t r = world.reduce(v, ReduceOp::sum, 1);
    if (world.rank() == 1) {
      EXPECT_EQ(r, static_cast<std::int64_t>(n) * (n - 1) / 2);
    }
  });
}

TEST_P(MpiCollectives, GatherCollectsInRankOrder) {
  const int n = GetParam();
  gs::mpi::run(n, [n](Comm& world) {
    const std::array<int, 2> mine{world.rank(), world.rank() * 2};
    std::vector<int> all;
    world.gather(std::span<const int>(mine), all, 0);
    if (world.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * n));
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(2 * r)], r);
        EXPECT_EQ(all[static_cast<std::size_t>(2 * r + 1)], 2 * r);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(MpiCollectives, AllgatherEveryoneSeesAll) {
  const int n = GetParam();
  gs::mpi::run(n, [n](Comm& world) {
    const auto all = world.allgather(world.rank() * 3);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 3);
    }
  });
}

TEST_P(MpiCollectives, AlltoallTransposesBlocks) {
  const int n = GetParam();
  gs::mpi::run(n, [n](Comm& world) {
    // Block sent from s to d carries value 100*s + d.
    std::vector<int> send(static_cast<std::size_t>(n));
    std::vector<int> recv(static_cast<std::size_t>(n), -1);
    for (int d = 0; d < n; ++d) {
      send[static_cast<std::size_t>(d)] = 100 * world.rank() + d;
    }
    world.alltoall_bytes(std::as_bytes(std::span<const int>(send)),
                         std::as_writable_bytes(std::span<int>(recv)));
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(recv[static_cast<std::size_t>(s)], 100 * s + world.rank());
    }
  });
}

TEST_P(MpiCollectives, GathervUnequalContributions) {
  const int n = GetParam();
  gs::mpi::run(n, [n](Comm& world) {
    // Rank r contributes r+1 ints with value 10*r.
    std::vector<int> mine(static_cast<std::size_t>(world.rank() + 1),
                          10 * world.rank());
    std::vector<int> all;
    std::vector<std::size_t> offsets;
    world.gatherv(std::span<const int>(mine), all, offsets, 0);
    if (world.rank() == 0) {
      ASSERT_EQ(offsets.size(), static_cast<std::size_t>(n));
      ASSERT_EQ(all.size(),
                static_cast<std::size_t>(n) * (n + 1) / 2);
      for (int r = 0; r < n; ++r) {
        for (int e = 0; e <= r; ++e) {
          EXPECT_EQ(all[offsets[static_cast<std::size_t>(r)] +
                        static_cast<std::size_t>(e)],
                    10 * r);
        }
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(MpiCollectives, ScatterDistributesBlocks) {
  const int n = GetParam();
  gs::mpi::run(n, [n](Comm& world) {
    std::vector<double> send;
    if (world.rank() == 0) {
      for (int r = 0; r < n; ++r) {
        send.push_back(100.0 + r);
        send.push_back(200.0 + r);
      }
    }
    std::array<double, 2> mine{};
    world.scatter_bytes(std::as_bytes(std::span<const double>(send)),
                        std::as_writable_bytes(std::span<double>(mine)), 0);
    EXPECT_DOUBLE_EQ(mine[0], 100.0 + world.rank());
    EXPECT_DOUBLE_EQ(mine[1], 200.0 + world.rank());
  });
}

TEST_P(MpiCollectives, AllreduceInplaceElementwise) {
  const int n = GetParam();
  gs::mpi::run(n, [n](Comm& world) {
    std::array<double, 3> vals = {1.0 * world.rank(),
                                  -1.0 * world.rank(), 1.0};
    world.allreduce_inplace(std::span<double>(vals), ReduceOp::sum);
    EXPECT_DOUBLE_EQ(vals[0], n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(vals[1], -n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(vals[2], static_cast<double>(n));

    std::array<double, 2> mm = {1.0 * world.rank(), -1.0 * world.rank()};
    world.allreduce_inplace(std::span<double>(mm), ReduceOp::max);
    EXPECT_DOUBLE_EQ(mm[0], n - 1.0);
    EXPECT_DOUBLE_EQ(mm[1], 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, MpiCollectives,
                         testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(Mpi, CollectivesDoNotDisturbPendingUserMessages) {
  gs::mpi::run(2, [](Comm& world) {
    if (world.rank() == 0) world.send_value(11, 1, 2);
    const double s = world.allreduce(1.0, ReduceOp::sum);
    EXPECT_DOUBLE_EQ(s, 2.0);
    world.barrier();
    if (world.rank() == 1) {
      EXPECT_EQ(world.recv_value<int>(0, 2), 11);
    }
  });
}

// ------------------------------------------------------- comm management

TEST(Mpi, DupIsolatesTraffic) {
  gs::mpi::run(2, [](Comm& world) {
    Comm dup = world.dup();
    if (world.rank() == 0) {
      world.send_value(1, 1, 3);
      dup.send_value(2, 1, 3);
    } else {
      // Same (src, tag) but different communicators must not cross-match.
      EXPECT_EQ(dup.recv_value<int>(0, 3), 2);
      EXPECT_EQ(world.recv_value<int>(0, 3), 1);
    }
  });
}

TEST(Mpi, SplitByParity) {
  gs::mpi::run(6, [](Comm& world) {
    const int color = world.rank() % 2;
    Comm sub = world.split(color, world.rank());
    EXPECT_EQ(sub.size(), 3);
    // New ranks ordered by key (= old rank).
    EXPECT_EQ(sub.rank(), world.rank() / 2);
    // Sum within the subgroup to verify isolation and membership.
    const int sum = sub.allreduce(world.rank(), ReduceOp::sum);
    EXPECT_EQ(sum, color == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
}

TEST(Mpi, SplitWithReversedKeysReordersRanks) {
  gs::mpi::run(4, [](Comm& world) {
    Comm sub = world.split(0, -world.rank());
    EXPECT_EQ(sub.rank(), 3 - world.rank());
  });
}

TEST(Mpi, NodeSplitLikeIoAggregation) {
  // 8 ranks, 4 per "node": the split used by the BP writer.
  gs::mpi::run(8, [](Comm& world) {
    const int node = world.rank() / 4;
    Comm node_comm = world.split(node, world.rank());
    EXPECT_EQ(node_comm.size(), 4);
    EXPECT_EQ(node_comm.rank(), world.rank() % 4);
  });
}

// ---------------------------------------------------------------- cart

TEST(Cart, DimsMustCoverSize) {
  gs::mpi::run(4, [](Comm& world) {
    EXPECT_THROW(CartComm(world, {3, 1, 1}, {false, false, false}),
                 gs::Error);
  });
}

TEST(Cart, CoordsRoundTrip) {
  gs::mpi::run(8, [](Comm& world) {
    CartComm cart(world, {2, 2, 2}, {false, false, false});
    const Index3 c = cart.coords();
    EXPECT_EQ(cart.cart_rank(c), cart.rank());
  });
}

TEST(Cart, ShiftMatchesDecompositionNeighbors) {
  gs::mpi::run(8, [](Comm& world) {
    CartComm cart(world, {2, 2, 2}, {false, false, false});
    const gs::Decomposition d({8, 8, 8}, {2, 2, 2});
    for (int axis = 0; axis < 3; ++axis) {
      const auto [src, dst] = cart.shift(axis);
      EXPECT_EQ(dst, static_cast<int>(d.neighbor(cart.rank(), axis, +1)));
      EXPECT_EQ(src, static_cast<int>(d.neighbor(cart.rank(), axis, -1)));
    }
  });
}

TEST(Cart, PeriodicShiftWraps) {
  gs::mpi::run(4, [](Comm& world) {
    CartComm cart(world, {4, 1, 1}, {true, false, false});
    const auto [src, dst] = cart.shift(0);
    EXPECT_EQ(dst, (cart.rank() + 1) % 4);
    EXPECT_EQ(src, (cart.rank() + 3) % 4);
  });
}

TEST(Cart, NonPeriodicEdgesAreProcNull) {
  gs::mpi::run(4, [](Comm& world) {
    CartComm cart(world, {4, 1, 1}, {false, false, false});
    const auto [src, dst] = cart.shift(0);
    if (cart.rank() == 0) {
      EXPECT_EQ(src, gs::mpi::kProcNull);
    }
    if (cart.rank() == 3) {
      EXPECT_EQ(dst, gs::mpi::kProcNull);
    }
    if (cart.rank() == 1) {
      EXPECT_EQ(src, 0);
      EXPECT_EQ(dst, 2);
    }
  });
}

TEST(Cart, NeighborExchangeRing) {
  // Each rank sends its rank to +x neighbor (periodic); everyone must
  // receive rank-1 mod n.
  gs::mpi::run(4, [](Comm& world) {
    CartComm cart(world, {4, 1, 1}, {true, false, false});
    const auto [src, dst] = cart.shift(0);
    const int mine = cart.rank();
    int incoming = -1;
    cart.comm().sendrecv_bytes(
        std::as_bytes(std::span<const int>(&mine, 1)), dst, 1,
        std::as_writable_bytes(std::span<int>(&incoming, 1)), src, 1);
    EXPECT_EQ(incoming, (cart.rank() + 3) % 4);
  });
}

// -------------------------------------------------------------- failure

TEST(Mpi, RankExceptionPropagatesAndUnblocksPeers) {
  EXPECT_THROW(gs::mpi::run(2,
                            [](Comm& world) {
                              if (world.rank() == 0) {
                                throw gs::Error("rank 0 exploded");
                              }
                              // Rank 1 blocks forever unless aborted.
                              world.recv_value<int>(0, 1);
                            }),
               gs::Error);
}

TEST(Mpi, RunRejectsNonPositiveSize) {
  EXPECT_THROW(gs::mpi::run(0, [](Comm&) {}), gs::Error);
}

TEST(Mpi, RandomMessageStormDeliversExactlyOnce) {
  // Property: under a randomized all-to-all storm with mixed tags, every
  // message is delivered exactly once with intact content.
  const int n = 6;
  const int per_pair = 25;
  gs::mpi::run(n, [&](Comm& world) {
    // Send per_pair messages to every rank (incl. self), random tag order.
    for (int d = 0; d < n; ++d) {
      for (int m = 0; m < per_pair; ++m) {
        const std::int64_t payload =
            world.rank() * 1000000 + d * 1000 + m;
        world.send_value(payload, d, /*tag=*/m);
      }
    }
    // Receive per_pair messages from every source; tags arrive in any
    // source order but FIFO per (src, tag).
    std::set<std::int64_t> seen;
    for (int s = 0; s < n; ++s) {
      for (int m = 0; m < per_pair; ++m) {
        const auto v = world.recv_value<std::int64_t>(s, m);
        EXPECT_EQ(v, s * 1000000 + world.rank() * 1000 + m);
        EXPECT_TRUE(seen.insert(v).second) << "duplicate delivery";
      }
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n * per_pair));
    // Nothing left over.
    EXPECT_FALSE(world.iprobe(kAnySource, kAnyTag));
  });
}

TEST(Mpi, ManyRanksStress) {
  // 32 rank-threads on one core: exercises scheduling robustness.
  gs::mpi::run(32, [](Comm& world) {
    const int sum = world.allreduce(1, ReduceOp::sum);
    EXPECT_EQ(sum, 32);
    world.barrier();
    const auto all = world.allgather(world.rank());
    EXPECT_EQ(all.size(), 32u);
  });
}

}  // namespace
