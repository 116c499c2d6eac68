// Focused LRC_d semantic tests: happens-before ordering of fetched diffs,
// multi-writer (false sharing) merges, lock manager behaviour, barrier
// consistency and interval bookkeeping.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "vopp/cluster.hpp"

namespace vodsm {
namespace {

using dsm::Protocol;

harness::RunConfig lrc(int nprocs) {
  harness::RunConfig o;
  o.protocol = Protocol::kLrcDiff;
  o.nprocs = nprocs;
  return o;
}

// Regression for the happens-before bug: a counter passed through a long
// lock chain across many nodes, then read cold by a node that must apply
// one diff per predecessor in the right order. Absolute-value diffs applied
// out of order would lose updates.
TEST(LrcSemantics, DiffChainAppliesInHappensBeforeOrder) {
  constexpr int kProcs = 8;
  constexpr int kRounds = 12;
  vopp::Cluster cluster(lrc(kProcs));
  size_t off = cluster.allocShared(8);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int r = 0; r < kRounds; ++r) {
      co_await node.acquireLock(1);
      co_await node.touchWrite(off, 8);
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) += 1;
      co_await node.releaseLock(1);
    }
    co_await node.barrier();
    // Everyone reads cold: must merge the whole chain correctly.
    co_await node.touchRead(off, 8);
    int64_t got =
        *reinterpret_cast<const int64_t*>(node.memView(off, 8).data());
    if (got != int64_t{kProcs} * kRounds) throw Error("lost update in chain");
    co_await node.barrier();
  });
  SUCCEED();
}

// Two nodes write different halves of the same page concurrently (classic
// false sharing). After the barrier both halves must be visible everywhere
// — the multiple-writer merge through twins and diffs.
TEST(LrcSemantics, FalseSharingMergesConcurrentWriters) {
  constexpr int kProcs = 4;
  vopp::Cluster cluster(lrc(kProcs));
  size_t off = cluster.allocShared(kProcs * 64);  // one page, 4 slots
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t mine = off + static_cast<size_t>(node.id()) * 64;
    for (int r = 1; r <= 5; ++r) {
      co_await node.touchWrite(mine, 64);
      auto* p = reinterpret_cast<int64_t*>(node.mem(mine, 64).data());
      for (int k = 0; k < 8; ++k) p[k] = node.id() * 1000 + r;
      co_await node.barrier();
      // Every slot of every node must show this round's value.
      co_await node.touchRead(off, kProcs * 64);
      for (int q = 0; q < kProcs; ++q) {
        auto* s = reinterpret_cast<const int64_t*>(
            node.memView(off + static_cast<size_t>(q) * 64, 64).data());
        for (int k = 0; k < 8; ++k)
          if (s[k] != q * 1000 + r) throw Error("false-sharing merge lost");
      }
      co_await node.barrier();
    }
  });
  SUCCEED();
}

// A node that writes a page under one lock while receiving notices for the
// same page (from writers under another lock) must keep its own uncommitted
// changes through the invalidation (twin survives, fault merges under it).
TEST(LrcSemantics, InvalidationPreservesLocalUncommittedWrites) {
  vopp::Cluster cluster(lrc(2));
  size_t off = cluster.allocShared(128);  // two 64-byte slots, one page
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    if (node.id() == 0) {
      // Write slot 0 without synchronization, then acquire the lock that
      // node 1 used for slot 1: the grant invalidates our dirty page.
      co_await node.touchWrite(off, 64);
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) = 111;
      node.charge(sim::msec(5));  // let node 1 finish its critical section
      co_await node.acquireLock(7);
      co_await node.touchRead(off + 64, 8);
      int64_t theirs = *reinterpret_cast<const int64_t*>(
          node.memView(off + 64, 8).data());
      int64_t ours =
          *reinterpret_cast<const int64_t*>(node.memView(off, 8).data());
      if (theirs != 222) throw Error("missed the other writer's update");
      if (ours != 111) throw Error("lost own uncommitted write");
      co_await node.releaseLock(7);
    } else {
      co_await node.acquireLock(7);
      co_await node.touchWrite(off + 64, 8);
      *reinterpret_cast<int64_t*>(node.mem(off + 64, 8).data()) = 222;
      co_await node.releaseLock(7);
    }
    co_await node.barrier();
  });
  SUCCEED();
}

// Locks must be granted FIFO in manager arrival order under contention.
TEST(LrcSemantics, LocksAreMutuallyExclusive) {
  constexpr int kProcs = 6;
  vopp::Cluster cluster(lrc(kProcs));
  (void)cluster.allocShared(8);
  std::vector<std::pair<sim::Time, sim::Time>> holds;
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int r = 0; r < 3; ++r) {
      co_await node.acquireLock(5);
      sim::Time start = node.now();
      node.charge(sim::usec(500));
      holds.emplace_back(start, node.now());
      co_await node.releaseLock(5);
    }
    co_await node.barrier();
  });
  std::sort(holds.begin(), holds.end());
  for (size_t i = 1; i < holds.size(); ++i)
    EXPECT_GE(holds[i].first, holds[i - 1].second);
  EXPECT_EQ(holds.size(), static_cast<size_t>(kProcs) * 3);
}

// Distinct locks map to distinct managers and do not serialize each other.
TEST(LrcSemantics, IndependentLocksProceedInParallel) {
  constexpr int kProcs = 4;
  vopp::Cluster cluster(lrc(kProcs));
  (void)cluster.allocShared(8);
  std::vector<sim::Time> finish(kProcs);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    // Each node hammers its own lock id.
    for (int r = 0; r < 10; ++r) {
      co_await node.acquireLock(static_cast<dsm::LockId>(100 + node.id()));
      node.charge(sim::msec(1));
      co_await node.releaseLock(static_cast<dsm::LockId>(100 + node.id()));
    }
    finish[static_cast<size_t>(node.id())] = node.now();
    co_await node.barrier();
  });
  // If the locks serialized, the last node would finish ~4x later.
  sim::Time fastest = *std::min_element(finish.begin(), finish.end());
  sim::Time slowest = *std::max_element(finish.begin(), finish.end());
  EXPECT_LT(slowest, 2 * fastest);
}

// Barrier statistics: episodes counted once (not per node), acquires
// counted per call.
TEST(LrcSemantics, StatisticsCounting) {
  constexpr int kProcs = 3;
  vopp::Cluster cluster(lrc(kProcs));
  size_t off = cluster.allocShared(8);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int r = 0; r < 4; ++r) {
      co_await node.acquireLock(2);
      co_await node.touchWrite(off, 8);
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) += 1;
      co_await node.releaseLock(2);
      co_await node.barrier();
    }
  });
  auto stats = cluster.dsmStats();
  EXPECT_EQ(stats.barriers, 4u);                    // episodes
  EXPECT_EQ(stats.acquires, 4u * kProcs);           // calls
  EXPECT_EQ(stats.barrier_waits, 4u * kProcs);      // per-node waits
  EXPECT_GT(stats.diffs_created, 0u);
}

// Lock chains between barriers under false sharing, on every barrier
// algorithm. Each node writes its own slots of one page: an unsynchronized
// slot that a barrier publishes, and a slot it writes under a lock. At each
// barrier exit a node keeps only the vc-sums of the intervals the barrier
// covers. Every read must see the serial result, and every grant must carry
// exactly the intervals its requester has not seen: one interval (one page,
// so one write notice) from each earlier holder since the barrier. Once the
// last barrier is passed, every diff reply has reached its requester, so no
// node still holds reply bytes for resends.
TEST(LrcSemantics, GrantsAfterBarrierCompactionCarryOnlyUncoveredIntervals) {
  constexpr int kProcs = 6;
  constexpr int kRounds = 4;
  for (dsm::BarrierAlg alg : {dsm::BarrierAlg::kCentral, dsm::BarrierAlg::kTree,
                              dsm::BarrierAlg::kButterfly}) {
    SCOPED_TRACE(static_cast<int>(alg));
    harness::RunConfig cfg = lrc(kProcs);
    cfg.barrier = alg;
    vopp::Cluster cluster(cfg);
    // Slot q is node q's unsynchronized slot, slot kProcs + q its locked one.
    const size_t off = cluster.allocShared(2 * kProcs * 8);
    auto slot = [off](int k) { return off + static_cast<size_t>(k) * 8; };
    auto code = [](int q, int round, bool locked) {
      return int64_t{q * 100 + round + (locked ? 50 : 0)};
    };
    int holders = 0;                      // lock holders so far this round
    std::vector<int> held_in(kProcs, 0);  // last round each node held it
    std::vector<std::string> errors;
    std::vector<size_t> cached(kProcs, 1);
    cluster.run([&](vopp::Node& node) -> sim::Task<void> {
      const int me = node.id();
      auto read = [&](int k) {
        return *reinterpret_cast<const int64_t*>(
            node.memView(slot(k), 8).data());
      };
      for (int r = 1; r <= kRounds; ++r) {
        co_await node.touchWrite(slot(me), 8);
        *reinterpret_cast<int64_t*>(node.mem(slot(me), 8).data()) =
            code(me, r, false);
        co_await node.barrier();
        co_await node.touchRead(slot(0), kProcs * 8);
        for (int q = 0; q < kProcs; ++q)
          if (read(q) != code(q, r, false))
            errors.push_back("unsynchronized slot " + std::to_string(q));

        const uint64_t notices = node.ctx().stats.notices_recorded;
        co_await node.acquireLock(1);
        const int earlier = holders++;
        if (node.ctx().stats.notices_recorded - notices !=
            static_cast<uint64_t>(earlier))
          errors.push_back("grant to holder " + std::to_string(earlier) +
                           " of round " + std::to_string(r));
        co_await node.touchRead(slot(kProcs), kProcs * 8);
        for (int q = 0; q < kProcs; ++q) {
          const int64_t want = held_in[q] ? code(q, held_in[q], true) : 0;
          if (read(kProcs + q) != want)
            errors.push_back("locked slot " + std::to_string(q));
        }
        co_await node.touchWrite(slot(kProcs + me), 8);
        *reinterpret_cast<int64_t*>(node.mem(slot(kProcs + me), 8).data()) =
            code(me, r, true);
        held_in[me] = r;
        if (holders == kProcs) holders = 0;
        co_await node.releaseLock(1);
        co_await node.barrier();
        co_await node.touchRead(slot(kProcs), kProcs * 8);
        for (int q = 0; q < kProcs; ++q)
          if (read(kProcs + q) != code(q, r, true))
            errors.push_back("locked slot " + std::to_string(q) +
                             " after the barrier");
      }
      co_await node.barrier();
      cached[me] = node.ctx().endpoint.cachedReplyBytes();
    });
    EXPECT_TRUE(errors.empty()) << errors.size() << " errors, first: "
                                << (errors.empty() ? "" : errors.front());
    EXPECT_EQ(cluster.dsmStats().barriers, 2u * kRounds + 1);
    EXPECT_GT(cluster.dsmStats().diff_requests, 0u);
    for (int n = 0; n < kProcs; ++n) EXPECT_EQ(cached[n], 0u) << "node " << n;
  }
}

// Reads of never-written pages are satisfied locally (zeros, no traffic).
TEST(LrcSemantics, ColdPagesCostNothing) {
  vopp::Cluster cluster(lrc(2));
  size_t off = cluster.allocShared(64 * 1024);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    co_await node.touchRead(off, 64 * 1024);
    auto raw = node.memView(off, 64 * 1024);
    for (std::byte b : raw)
      if (b != std::byte{0}) throw Error("cold page not zeroed");
    co_await node.barrier();
  });
  EXPECT_EQ(cluster.dsmStats().diff_requests, 0u);
}

}  // namespace
}  // namespace vodsm
