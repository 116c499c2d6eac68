// Randomized stress tests: generated VOPP workloads whose results are
// order-independent (commutative updates), validated against analytically
// computed expectations, swept across protocols, processor counts and
// seeds. This is the suite most likely to shake out protocol races.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "harness/parallel_runner.hpp"
#include "sim/rng.hpp"
#include "vopp/cluster.hpp"

namespace vodsm {
namespace {

using dsm::Protocol;

struct StressCase {
  Protocol proto;
  int nprocs;
  uint64_t seed;
};

std::string stressName(const ::testing::TestParamInfo<StressCase>& info) {
  return dsm::protocolName(info.param.proto) + "_" +
         std::to_string(info.param.nprocs) + "p_s" +
         std::to_string(info.param.seed);
}

// Random ledger: K counter views; every node performs R rounds, each round
// adding deterministic pseudo-random amounts to a pseudo-random subset of
// views under exclusive acquires, with a barrier per round. Addition
// commutes, so the expected totals are independent of acquisition order.
constexpr int kLedgerViews = 7;
constexpr int kLedgerCounters = 96;  // crosses a page boundary

struct LedgerOutcome {
  std::vector<std::vector<int64_t>> totals;    // observed, per view
  std::vector<std::vector<int64_t>> expected;  // analytic, per view
};

// Whole ledger workload as a pure function of its case: builds its own
// cluster (engine, network, runtimes), so concurrent invocations share
// nothing — the shape the parallel experiment runner requires.
LedgerOutcome runLedger(const StressCase& param) {
  constexpr int kViews = kLedgerViews;
  constexpr int kRounds = 6;
  constexpr int kCountersPerView = kLedgerCounters;

  vopp::Cluster cluster({.nprocs = param.nprocs,
                         .protocol = param.proto,
                         .seed = param.seed});
  std::vector<dsm::ViewId> views;
  for (int v = 0; v < kViews; ++v)
    views.push_back(cluster.defineView(kCountersPerView * sizeof(int64_t)));

  // Expected totals, computed from the same deterministic op stream.
  std::vector<std::vector<int64_t>> expect(
      kViews, std::vector<int64_t>(kCountersPerView, 0));
  auto opsOf = [&](int pid, int round) {
    // (view, counter, amount) triples for this node and round.
    std::vector<std::tuple<int, int, int64_t>> ops;
    sim::Rng rng(param.seed ^ (static_cast<uint64_t>(pid) << 16 ^
                               static_cast<uint64_t>(round)));
    int n = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < n; ++i)
      ops.emplace_back(static_cast<int>(rng.below(kViews)),
                       static_cast<int>(rng.below(kCountersPerView)),
                       static_cast<int64_t>(rng.below(1000)) - 500);
    return ops;
  };
  for (int pid = 0; pid < param.nprocs; ++pid)
    for (int r = 0; r < kRounds; ++r)
      for (auto [v, c, amt] : opsOf(pid, r))
        expect[static_cast<size_t>(v)][static_cast<size_t>(c)] += amt;

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int r = 0; r < kRounds; ++r) {
      // Group this round's ops by view so each view is acquired once
      // (acquire_view cannot nest).
      std::map<int, std::vector<std::pair<int, int64_t>>> by_view;
      for (auto [v, c, amt] : opsOf(node.id(), r))
        by_view[v].emplace_back(c, amt);
      for (auto& [v, edits] : by_view) {
        dsm::ViewId view = views[static_cast<size_t>(v)];
        co_await node.acquireView(view);
        size_t off = node.cluster().viewOffset(view);
        for (auto [c, amt] : edits) {
          size_t coff = off + static_cast<size_t>(c) * 8;
          co_await node.touchWrite(coff, 8);
          *reinterpret_cast<int64_t*>(node.mem(coff, 8).data()) += amt;
        }
        co_await node.releaseView(view);
      }
      co_await node.barrier();
    }
    // Node 0 pulls everything for validation.
    if (node.id() == 0) co_await node.mergeViews();
    co_await node.barrier();
  });

  LedgerOutcome out;
  out.expected = expect;
  for (int v = 0; v < kViews; ++v) {
    size_t off = cluster.viewOffset(views[static_cast<size_t>(v)]);
    auto raw = cluster.memoryOf(0, off, kCountersPerView * 8);
    std::vector<int64_t> got(kCountersPerView);
    std::memcpy(got.data(), raw.data(), raw.size());
    out.totals.push_back(std::move(got));
  }
  return out;
}

class LedgerStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(LedgerStress, TotalsMatchExpectation) {
  LedgerOutcome out = runLedger(GetParam());
  for (int v = 0; v < kLedgerViews; ++v)
    EXPECT_EQ(out.totals[static_cast<size_t>(v)],
              out.expected[static_cast<size_t>(v)])
        << "view " << v;
}

// Mixed readers and writers: writers bump a generation counter; readers
// assert they never observe torn or stale-beyond-acquire state (the
// generation and its replicated copy in the same view always agree).
class ConsistencyStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(ConsistencyStress, ReadersNeverSeeTornState) {
  const auto& param = GetParam();
  constexpr int kRounds = 12;
  constexpr size_t kBytes = 2 * 4096 + 128;  // three pages

  vopp::Cluster cluster({.nprocs = param.nprocs,
                         .protocol = param.proto,
                         .seed = param.seed});
  dsm::ViewId v = cluster.defineView(kBytes);

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t off = node.cluster().viewOffset(v);
    sim::Rng rng(param.seed ^ static_cast<uint64_t>(node.id()));
    for (int r = 0; r < kRounds; ++r) {
      if (rng.chance(0.5)) {
        co_await node.acquireView(v);
        co_await node.touchWrite(off, kBytes);
        // The generation is written at the start, middle and end of the
        // view; a reader that ever sees disagreement caught a violation of
        // view atomicity.
        auto gen = reinterpret_cast<int64_t*>(node.mem(off, 8).data());
        int64_t next = *gen + 1;
        *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) = next;
        *reinterpret_cast<int64_t*>(node.mem(off + kBytes / 2, 8).data()) =
            next;
        *reinterpret_cast<int64_t*>(node.mem(off + kBytes - 8, 8).data()) =
            next;
        co_await node.releaseView(v);
      } else {
        co_await node.acquireRview(v);
        co_await node.touchRead(off, kBytes);
        int64_t a =
            *reinterpret_cast<const int64_t*>(node.memView(off, 8).data());
        int64_t b = *reinterpret_cast<const int64_t*>(
            node.memView(off + kBytes / 2, 8).data());
        int64_t c = *reinterpret_cast<const int64_t*>(
            node.memView(off + kBytes - 8, 8).data());
        if (a != b || b != c) throw Error("torn view state observed");
        co_await node.releaseRview(v);
      }
      co_await node.barrier();
    }
  });
  SUCCEED();
}

const StressCase kCases[] = {
    {Protocol::kLrcDiff, 3, 1}, {Protocol::kLrcDiff, 8, 2},
    {Protocol::kVcDiff, 3, 1},  {Protocol::kVcDiff, 8, 2},
    {Protocol::kVcDiff, 16, 3}, {Protocol::kVcSd, 3, 1},
    {Protocol::kVcSd, 8, 2},    {Protocol::kVcSd, 16, 3},
    {Protocol::kVcSd, 5, 4},    {Protocol::kVcDiff, 5, 4},
};

INSTANTIATE_TEST_SUITE_P(Sweep, LedgerStress, ::testing::ValuesIn(kCases),
                         stressName);
INSTANTIATE_TEST_SUITE_P(Sweep, ConsistencyStress, ::testing::ValuesIn(kCases),
                         stressName);

// The same sweep through the parallel experiment runner: all cases execute
// concurrently across host threads (each owns its own cluster), and every
// outcome must match both the analytic expectation and a serial rerun —
// the end-to-end proof that simulation results are independent of host
// scheduling.
TEST(ParallelLedgerSweep, MatchesExpectationAndSerialRun) {
  std::vector<std::function<LedgerOutcome()>> tasks;
  for (const StressCase& c : kCases)
    tasks.push_back([c] { return runLedger(c); });

  auto parallel = harness::runAll(tasks, /*jobs=*/0);  // env/core default
  auto serial = harness::runAll(tasks, /*jobs=*/1);

  ASSERT_EQ(parallel.size(), std::size(kCases));
  for (size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].totals, parallel[i].expected)
        << dsm::protocolName(kCases[i].proto) << " " << kCases[i].nprocs
        << "p seed " << kCases[i].seed;
    EXPECT_EQ(parallel[i].totals, serial[i].totals)
        << "parallel vs serial divergence in case " << i;
  }
}

// Lossy-network stress: the same ledger workload must stay correct when
// the wire drops 2% of frames (exercising retransmission paths end to end).
class LossyStress : public ::testing::TestWithParam<Protocol> {};

TEST_P(LossyStress, LedgerSurvivesFrameLoss) {
  harness::RunConfig o;
  o.nprocs = 4;
  o.protocol = GetParam();
  o.net.random_loss = 0.02;
  o.net.rto = sim::msec(20);  // keep simulated time bounded
  vopp::Cluster cluster(o);
  dsm::ViewId v = cluster.defineView(sizeof(int64_t));
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t off = node.cluster().viewOffset(v);
    for (int r = 0; r < 10; ++r) {
      co_await node.acquireView(v);
      co_await node.touchWrite(off, 8);
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) += 1;
      co_await node.releaseView(v);
    }
    co_await node.barrier();
    if (node.id() == 0) {
      co_await node.acquireRview(v);
      co_await node.touchRead(off, 8);
      co_await node.releaseRview(v);
    }
    co_await node.barrier();
  });
  auto raw = cluster.memoryOf(0, cluster.viewOffset(v), 8);
  int64_t got;
  std::memcpy(&got, raw.data(), 8);
  EXPECT_EQ(got, 40);
  EXPECT_GT(cluster.netStats().retransmissions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, LossyStress,
                         ::testing::Values(Protocol::kLrcDiff,
                                           Protocol::kVcDiff,
                                           Protocol::kVcSd),
                         [](const auto& info) {
                           return dsm::protocolName(info.param);
                         });

}  // namespace
}  // namespace vodsm
