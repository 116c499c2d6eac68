// Tests for the MPI-like message-passing library.
#include <gtest/gtest.h>

#include <numeric>

#include "msg/world.hpp"

namespace vodsm::msg {
namespace {

harness::RunConfig opts(int n) {
  harness::RunConfig o;
  o.nprocs = n;
  return o;
}

TEST(Msg, PointToPointFifoPerTag) {
  World world(opts(2));
  std::vector<int> got;
  world.run([&](Rank& rank) -> sim::Task<void> {
    if (rank.id() == 0) {
      for (int i = 0; i < 5; ++i) {
        Writer w;
        w.u32(static_cast<uint32_t>(i));
        rank.send(1, 7, w.take());
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        Bytes b = co_await rank.recv(0, 7);
        Reader r(b);
        got.push_back(static_cast<int>(r.u32()));
      }
    }
    co_return;
  });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Msg, TagsMatchIndependently) {
  World world(opts(2));
  int got_a = 0, got_b = 0;
  world.run([&](Rank& rank) -> sim::Task<void> {
    if (rank.id() == 0) {
      Writer wa, wb;
      wa.u32(11);
      wb.u32(22);
      rank.send(1, 2, wb.take());  // tag 2 first on the wire
      rank.send(1, 1, wa.take());
    } else {
      Bytes a = co_await rank.recv(0, 1);  // but receive tag 1 first
      Bytes b = co_await rank.recv(0, 2);
      Reader ra(a), rb(b);
      got_a = static_cast<int>(ra.u32());
      got_b = static_cast<int>(rb.u32());
    }
    co_return;
  });
  EXPECT_EQ(got_a, 11);
  EXPECT_EQ(got_b, 22);
}

class MsgCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MsgCollectives, BarrierSynchronizes) {
  World world(opts(GetParam()));
  std::vector<sim::Time> before(static_cast<size_t>(GetParam()));
  std::vector<sim::Time> after(static_cast<size_t>(GetParam()));
  world.run([&](Rank& rank) -> sim::Task<void> {
    rank.charge(sim::msec(rank.id()));  // staggered arrivals
    before[static_cast<size_t>(rank.id())] = rank.now();
    co_await rank.barrier();
    after[static_cast<size_t>(rank.id())] = rank.now();
  });
  sim::Time latest_arrival = *std::max_element(before.begin(), before.end());
  for (sim::Time t : after) EXPECT_GE(t, latest_arrival);
}

TEST_P(MsgCollectives, BcastDeliversRootBuffer) {
  World world(opts(GetParam()));
  std::vector<int> ok(static_cast<size_t>(GetParam()), 0);
  world.run([&](Rank& rank) -> sim::Task<void> {
    Bytes buf;
    if (rank.id() == 0) {
      Writer w;
      w.u64(0xfeedfaceULL);
      buf = w.take();
    }
    co_await rank.bcast(0, buf);
    Reader r(buf);
    ok[static_cast<size_t>(rank.id())] = r.u64() == 0xfeedfaceULL;
  });
  for (int v : ok) EXPECT_EQ(v, 1);
}

TEST_P(MsgCollectives, AllreduceSumsEverywhere) {
  const int P = GetParam();
  World world(opts(P));
  std::vector<std::vector<int64_t>> results(static_cast<size_t>(P));
  world.run([&](Rank& rank) -> sim::Task<void> {
    std::vector<int64_t> v{rank.id() + 1, 10 * (rank.id() + 1)};
    co_await rank.allreduce(v);
    results[static_cast<size_t>(rank.id())] = v;
  });
  int64_t expect0 = 0, expect1 = 0;
  for (int i = 1; i <= P; ++i) {
    expect0 += i;
    expect1 += 10 * i;
  }
  for (const auto& v : results) {
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], expect0);
    EXPECT_EQ(v[1], expect1);
  }
}

TEST_P(MsgCollectives, ReduceOnlyAtRoot) {
  const int P = GetParam();
  World world(opts(P));
  std::vector<int64_t> root_result;
  world.run([&](Rank& rank) -> sim::Task<void> {
    std::vector<int64_t> v{1};
    co_await rank.reduce(0, v);
    if (rank.id() == 0) root_result = v;
  });
  ASSERT_EQ(root_result.size(), 1u);
  EXPECT_EQ(root_result[0], P);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MsgCollectives, ::testing::Values(1, 2, 3, 8),
                         [](const auto& info) {
                           return std::to_string(info.param) + "p";
                         });

TEST(Msg, DeadlockDetected) {
  World world(opts(2));
  EXPECT_THROW(world.run([](Rank& rank) -> sim::Task<void> {
    if (rank.id() == 0) (void)co_await rank.recv(1, 99);  // never sent
  }),
               Error);
}

}  // namespace
}  // namespace vodsm::msg
