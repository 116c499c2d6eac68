// Integration tests of the full stack: VOPP programs running on all three
// DSM runtimes over the simulated cluster.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <numeric>

#include "dsm/msgs.hpp"
#include "dsm/vc.hpp"
#include "mem/diff.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "vopp/cluster.hpp"

namespace vodsm {
namespace {

using dsm::Protocol;

class ProtocolTest : public ::testing::TestWithParam<Protocol> {};

// Each node adds its contribution into a shared accumulator view, one view
// section per node ("sum example" from the paper's Section 2).
TEST_P(ProtocolTest, PartitionedSum) {
  constexpr int kProcs = 4;
  constexpr int kPerNode = 1000;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = GetParam()});
  // One accumulator view per node section plus a result view.
  std::vector<dsm::ViewId> sections;
  for (int i = 0; i < kProcs; ++i)
    sections.push_back(cluster.defineView(sizeof(int64_t)));
  dsm::ViewId result_view = cluster.defineView(sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    // Every node adds i (for its own i values) into every section,
    // exercising cross-node exclusive view access.
    for (int s = 0; s < kProcs; ++s) {
      int section = (node.id() + s) % kProcs;
      dsm::ViewId v = sections[static_cast<size_t>(section)];
      co_await node.acquireView(v);
      size_t off = node.cluster().viewOffset(v);
      co_await node.touchWrite(off, sizeof(int64_t));
      auto* p = reinterpret_cast<int64_t*>(node.mem(off, 8).data());
      for (int k = 0; k < kPerNode; ++k) *p += node.id() + 1;
      node.chargeOps(kPerNode, 20);
      co_await node.releaseView(v);
    }
    co_await node.barrier();
    if (node.id() == 0) {
      int64_t total = 0;
      for (int s = 0; s < kProcs; ++s) {
        dsm::ViewId v = sections[static_cast<size_t>(s)];
        co_await node.acquireRview(v);
        size_t off = node.cluster().viewOffset(v);
        co_await node.touchRead(off, sizeof(int64_t));
        total += *reinterpret_cast<const int64_t*>(node.memView(off, 8).data());
        co_await node.releaseRview(v);
      }
      co_await node.acquireView(result_view);
      size_t roff = node.cluster().viewOffset(result_view);
      co_await node.touchWrite(roff, sizeof(int64_t));
      *reinterpret_cast<int64_t*>(node.mem(roff, 8).data()) = total;
      co_await node.releaseView(result_view);
    }
    co_await node.barrier();
  });

  // Expected: every section accumulates sum over nodes of (id+1)*kPerNode.
  int64_t per_section = 0;
  for (int i = 0; i < kProcs; ++i) per_section += (i + 1) * kPerNode;
  size_t roff = cluster.viewOffset(result_view);
  auto raw = cluster.memoryOf(0, roff, sizeof(int64_t));
  int64_t got;
  std::memcpy(&got, raw.data(), sizeof(got));
  EXPECT_EQ(got, per_section * kProcs);
  EXPECT_GT(cluster.seconds(), 0.0);
  EXPECT_GT(cluster.dsmStats().acquires, 0u);
}

// Producer/consumer chain through a single view: strict ordering via
// repeated exclusive acquisitions must yield a linearizable counter.
TEST_P(ProtocolTest, ExclusiveCounterIsLinearizable) {
  constexpr int kProcs = 8;
  constexpr int kRounds = 25;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = GetParam()});
  dsm::ViewId counter = cluster.defineView(sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t off = node.cluster().viewOffset(counter);
    for (int r = 0; r < kRounds; ++r) {
      co_await node.acquireView(counter);
      co_await node.touchWrite(off, sizeof(int64_t));
      auto* p = reinterpret_cast<int64_t*>(node.mem(off, 8).data());
      *p += 1;
      co_await node.releaseView(counter);
    }
    co_await node.barrier();
  });

  auto raw = cluster.memoryOf(0, cluster.viewOffset(counter), 8);
  // Node 0's copy may be stale (it last saw the view at its own final
  // acquisition) — so re-check via a fresh run that gathers at the end.
  (void)raw;
  SUCCEED();
}

// Same as above but with a final gather so the result is observable.
TEST_P(ProtocolTest, CounterGather) {
  constexpr int kProcs = 5;
  constexpr int kRounds = 10;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = GetParam()});
  dsm::ViewId counter = cluster.defineView(sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t off = node.cluster().viewOffset(counter);
    for (int r = 0; r < kRounds; ++r) {
      co_await node.acquireView(counter);
      co_await node.touchWrite(off, sizeof(int64_t));
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) += 1;
      co_await node.releaseView(counter);
    }
    co_await node.barrier();
    if (node.id() == 0) {
      co_await node.acquireRview(counter);
      co_await node.touchRead(off, 8);
      co_await node.releaseRview(counter);
    }
    co_await node.barrier();
  });

  auto raw = cluster.memoryOf(0, cluster.viewOffset(counter), 8);
  int64_t got;
  std::memcpy(&got, raw.data(), sizeof(got));
  EXPECT_EQ(got, int64_t{kProcs} * kRounds);
}

// Concurrent Rview readers and page-crossing views.
TEST_P(ProtocolTest, RviewConcurrentReaders) {
  constexpr int kProcs = 6;
  constexpr size_t kInts = 3000;  // spans multiple pages
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = GetParam()});
  dsm::ViewId data = cluster.defineView(kInts * sizeof(int));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t off = node.cluster().viewOffset(data);
    if (node.id() == 0) {
      co_await node.acquireView(data);
      co_await node.touchWrite(off, kInts * sizeof(int));
      auto* p = reinterpret_cast<int*>(node.mem(off, kInts * 4).data());
      for (size_t i = 0; i < kInts; ++i) p[i] = static_cast<int>(i * 3);
      co_await node.releaseView(data);
    }
    co_await node.barrier();
    // All nodes read concurrently under Rviews.
    co_await node.acquireRview(data);
    co_await node.touchRead(off, kInts * sizeof(int));
    auto* p = reinterpret_cast<const int*>(node.memView(off, kInts * 4).data());
    int64_t sum = 0;
    for (size_t i = 0; i < kInts; ++i) sum += p[i];
    int64_t expect = 0;
    for (size_t i = 0; i < kInts; ++i) expect += static_cast<int64_t>(i) * 3;
    if (sum != expect) throw Error("reader observed stale data");
    co_await node.releaseRview(data);
    co_await node.barrier();
  });
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolTest,
                         ::testing::Values(Protocol::kLrcDiff,
                                           Protocol::kVcDiff,
                                           Protocol::kVcSd),
                         [](const auto& info) {
                           return dsm::protocolName(info.param);
                         });

// Traditional (lock + barrier) program on LRC_d, with false sharing: many
// counters packed into the same pages, each updated by a different node.
TEST(LrcTraditional, FalseSharingCounters) {
  constexpr int kProcs = 4;
  constexpr int kRounds = 30;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = Protocol::kLrcDiff});
  size_t base = cluster.allocShared(kProcs * sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t mine = base + static_cast<size_t>(node.id()) * sizeof(int64_t);
    for (int r = 0; r < kRounds; ++r) {
      co_await node.touchWrite(mine, sizeof(int64_t));
      *reinterpret_cast<int64_t*>(node.mem(mine, 8).data()) += 1;
      co_await node.barrier();
    }
    // After the last barrier every node observes all counters.
    co_await node.touchRead(base, kProcs * sizeof(int64_t));
    auto* p =
        reinterpret_cast<const int64_t*>(node.memView(base, kProcs * 8).data());
    for (int i = 0; i < kProcs; ++i)
      if (p[i] != kRounds) throw Error("stale counter after barrier");
    co_await node.barrier();
  });
  SUCCEED();
}

// Locks must serialize a read-modify-write on LRC.
TEST(LrcTraditional, LockProtectedCounter) {
  constexpr int kProcs = 7;
  constexpr int kRounds = 15;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = Protocol::kLrcDiff});
  size_t off = cluster.allocShared(sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int r = 0; r < kRounds; ++r) {
      co_await node.acquireLock(3);
      co_await node.touchWrite(off, 8);
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) += 1;
      co_await node.releaseLock(3);
    }
    co_await node.barrier();
    co_await node.touchRead(off, 8);
    int64_t got =
        *reinterpret_cast<const int64_t*>(node.memView(off, 8).data());
    if (got != int64_t{kProcs} * kRounds) throw Error("lost update");
    co_await node.barrier();
  });
  SUCCEED();
}

// The VC_sd home's diff store as (retained bytes, retained diffs, bytes
// reclaimed by GC): the kDiffStoreBytes, kDiffStoreCount and
// kDiffReclaimBytes series of the home node.
using StoreState = std::array<int64_t, 3>;

// Full-scan model of one view's VC_sd home store: every grant recomputes
// the GC floor as the minimum over every node's last granted version,
// capped at the current version, and folds each page's log up to it.
struct SdHomeOracle {
  uint32_t cur = 0;
  uint32_t gc = 0;
  std::map<dsm::NodeId, uint32_t> seen;
  std::map<mem::PageId, mem::Diff> base;
  std::map<mem::PageId, std::vector<std::pair<uint32_t, mem::Diff>>> log;
  StoreState store{};

  static int64_t wire(const mem::Diff& d) {
    return static_cast<int64_t>(d.wireSize());
  }
  void release(const std::vector<mem::Diff>& diffs) {
    ++cur;
    for (const mem::Diff& d : diffs) {
      store[0] += wire(d);
      store[1] += 1;
      log[d.page()].emplace_back(cur, d);
    }
  }
  void grant(dsm::NodeId node, bool write) {
    uint32_t& s = seen[node];
    s = std::max(s, write ? cur + 1 : cur);
    uint32_t floor = cur;
    for (const auto& [n, ver] : seen) floor = std::min(floor, ver);
    if (floor <= gc) return;
    for (auto& [page, entries] : log) {
      size_t k = 0;
      for (; k < entries.size() && entries[k].first <= floor; ++k) {
        mem::Diff& d = entries[k].second;
        auto it = base.find(page);
        if (it == base.end()) {
          base.emplace(page, std::move(d));
          continue;
        }
        mem::Diff merged = mem::Diff::integrate(it->second, d);
        const int64_t freed = wire(it->second) + wire(d) - wire(merged);
        store[0] -= freed;
        store[1] -= 1;
        store[2] += freed;
        it->second = std::move(merged);
      }
      entries.erase(entries.begin(), entries.begin() + static_cast<long>(k));
    }
    gc = floor;
  }
};

// The home keeps its GC floor incrementally. Drive one two-page view
// through a solo writer (its entry sits at cur_version + 1 while it holds
// the view), first acquisitions after GC has folded (last_seen == 0), many
// readers with the node at the minimum advancing last, and then a seeded
// random mix; after every grant the home's store must match the full-scan
// oracle, and every reader must see the serial contents.
TEST(VcSdHomeGc, MinimumMatchesFullScanOracle) {
  constexpr int kProcs = 8;
  constexpr dsm::NodeId kHome = 0;
  constexpr size_t kBytes = 2 * mem::kPageSize;
  obs::MetricsRegistry reg;
  harness::RunConfig cfg;
  cfg.nprocs = kProcs;
  cfg.protocol = Protocol::kVcSd;
  cfg.metrics = &reg;
  vopp::Cluster cluster(cfg);
  const dsm::ViewId view = cluster.defineView(kBytes, kHome);
  const size_t off = cluster.viewOffset(view);
  const mem::PageId first_page = mem::pageOf(off);

  struct Step {
    int node;
    bool write;
  };
  std::vector<Step> steps = {
      {1, true},  {1, true},  {1, true},  {2, false}, {3, false},
      {4, false}, {5, false}, {6, false}, {7, false}, {1, true},
      {3, false}, {4, false}, {5, false}, {6, false}, {7, false},
      {1, false}, {2, false}, {5, true},  {0, false},
  };
  sim::Rng pick(7);
  for (int i = 0; i < 80; ++i)
    steps.push_back({static_cast<int>(pick.below(kProcs)), pick.below(3) == 0});

  Bytes shadow(kBytes, std::byte{0});
  sim::Rng data(11);
  SdHomeOracle oracle;
  std::vector<StoreState> home_series;
  std::vector<StoreState> oracle_series;
  int stale_reads = 0;
  auto homeStore = [&] {
    return StoreState{reg.value(kHome, obs::Metric::kDiffStoreBytes),
                      reg.value(kHome, obs::Metric::kDiffStoreCount),
                      reg.value(kHome, obs::Metric::kDiffReclaimBytes)};
  };
  // The next version's contents, cycling through the shapes the apps
  // write: one rewritten 256-byte block (IS), scattered words, and one
  // run that may cross the page boundary.
  auto nextVersion = [&](size_t k) {
    Bytes next = shadow;
    auto fill = [&](size_t at, size_t len) {
      for (size_t i = at; i < at + len; ++i)
        next[i] = static_cast<std::byte>(data.below(256));
    };
    if (k % 3 == 0) {
      fill(data.below(kBytes / 256) * 256, 256);
    } else if (k % 3 == 1) {
      for (int w = 0; w < 24; ++w) fill(data.below(kBytes / 4) * 4, 4);
    } else {
      const size_t len = 4 + data.below(1024);
      fill(data.below(kBytes - len), len);
    }
    return next;
  };

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (size_t k = 0; k < steps.size(); ++k) {
      const Step& st = steps[k];
      if (st.node == node.id()) {
        const auto id = static_cast<dsm::NodeId>(node.id());
        if (st.write)
          co_await node.acquireView(view);
        else
          co_await node.acquireRview(view);
        oracle.grant(id, st.write);
        home_series.push_back(homeStore());
        oracle_series.push_back(oracle.store);
        co_await node.touchRead(off, kBytes);
        ByteSpan seen = node.memView(off, kBytes);
        if (!std::equal(seen.begin(), seen.end(), shadow.begin()))
          ++stale_reads;
        if (st.write) {
          Bytes next = nextVersion(k);
          co_await node.touchWrite(off, kBytes);
          std::copy(next.begin(), next.end(), node.mem(off, kBytes).begin());
          std::vector<mem::Diff> diffs;
          for (size_t p = 0; p < kBytes / mem::kPageSize; ++p) {
            mem::Diff d = mem::Diff::create(
                first_page + static_cast<mem::PageId>(p),
                ByteSpan(next).subspan(p * mem::kPageSize, mem::kPageSize),
                ByteSpan(shadow).subspan(p * mem::kPageSize, mem::kPageSize));
            if (!d.empty()) diffs.push_back(std::move(d));
          }
          oracle.release(diffs);
          shadow = std::move(next);
          co_await node.releaseView(view);
        } else {
          co_await node.releaseRview(view);
        }
      }
      co_await node.barrier();
    }
  });

  EXPECT_EQ(stale_reads, 0);
  EXPECT_EQ(home_series, oracle_series);
  EXPECT_EQ(homeStore(), oracle.store);
  // The schedule makes GC fold, and folds that overlap reclaim bytes.
  EXPECT_GT(oracle.gc, 3u);
  EXPECT_GT(oracle.store[2], 0);
}

// Under the tree barrier a node forwards the release it received to its
// children as is: node 1's child gets the very buffer node 1's parent
// encoded. Nodes 0 and 5 are bare endpoints standing in for node 1's parent
// and its one child (radix 4, six nodes).
TEST(TreeBarrier, ForwardsTheReleaseBufferItReceived) {
  sim::Engine engine;
  net::Network network(engine, 6, net::NetConfig{}, 1);
  dsm::ViewMap views;
  views.placeHomes(6);
  dsm::NodeCtx ctx(1, 6, engine, network, views, dsm::DsmCosts{}, nullptr,
                   nullptr, dsm::BarrierAlg::kTree);
  dsm::VcRuntime node1(ctx, /*integrated=*/true);
  net::Endpoint parent(engine, network, 0), child(engine, network, 5);
  net::Payload release;
  parent.setHandler([&](net::Delivery&& d, const net::ReplyToken&) {
    ASSERT_EQ(d.type, dsm::kBarrArrive);
    release = dsm::encode(dsm::BarrReleaseMsg{});  // barrier 0
    parent.post(1, dsm::kBarrRelease, release, d.arrive);
  });
  const std::byte* forwarded = nullptr;
  child.setHandler([&](net::Delivery&& d, const net::ReplyToken&) {
    ASSERT_EQ(d.type, dsm::kBarrRelease);
    forwarded = d.payload.data();
  });
  bool passed = false;
  sim::spawn([](dsm::Runtime& rt, bool& done) -> sim::Task<void> {
    co_await rt.barrier(0);
    done = true;
  }(node1, passed));
  dsm::BarrArriveMsg arrive;  // barrier 0
  arrive.node = 5;
  child.post(1, dsm::kBarrArrive, dsm::encode(arrive), 0);
  engine.run();
  EXPECT_TRUE(passed);
  ASSERT_TRUE(release);
  EXPECT_EQ(forwarded, release.data());
}

}  // namespace
}  // namespace vodsm
