// VOPP programming-model contract tests: misuse detection, Rview
// concurrency, determinism, merge_views, per-protocol invariants.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <regex>
#include <string>

#include "vopp/cluster.hpp"

// Global operator new, replaced to count calls while `g_count_news` is set
// (ClusterApi.WarmTouchMakesOneAllocation). The replacements stay out of
// line: inlined into a caller, GCC pairs the builtin `new` with the `free`
// below and warns about a mismatch.
namespace {
bool g_count_news = false;
size_t g_news = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_news) ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vodsm {
namespace {

using dsm::Protocol;

harness::RunConfig opts(Protocol proto, int nprocs, uint64_t seed = 42) {
  harness::RunConfig o;
  o.protocol = proto;
  o.nprocs = nprocs;
  o.seed = seed;
  return o;
}

template <typename Body>
void expectVoppError(Protocol proto, const std::string& needle, Body body,
                     dsm::BarrierAlg barrier = dsm::BarrierAlg::kCentral) {
  harness::RunConfig o = opts(proto, 2);
  o.barrier = barrier;
  vopp::Cluster cluster(o);
  dsm::ViewId v1 = cluster.defineView(64);
  dsm::ViewId v2 = cluster.defineView(64);
  try {
    cluster.run([&](vopp::Node& node) -> sim::Task<void> {
      if (node.id() == 0) co_await body(node, v1, v2);
      co_return;
    });
    FAIL() << "expected Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual: " << e.what();
  }
}

// A failed check's message is built out of line (support/check.hpp), with
// the same text: the expression, where it failed, and the streamed detail.
TEST(CheckMessage, FullTextIsKept) {
  const int want = 4, have = 1;
  int line = 0;
  std::string text;
  try {
    line = __LINE__ + 1;
    VODSM_CHECK_MSG(have >= want, "want " << want << ", have " << have);
  } catch (const Error& e) {
    text = e.what();
  }
  EXPECT_EQ(text, std::string("check failed: have >= want at ") + __FILE__ +
                      ":" + std::to_string(line) + ": want 4, have 1");
}

// The same inside a protocol coroutine: a nested acquire's full message.
TEST(CheckMessage, CoroutineCheckKeepsItsText) {
  vopp::Cluster cluster(opts(Protocol::kVcSd, 2));
  const dsm::ViewId a = cluster.defineView(64);
  const dsm::ViewId b = cluster.defineView(64);
  std::string text;
  try {
    cluster.run([&](vopp::Node& node) -> sim::Task<void> {
      if (node.id() != 0) co_return;
      co_await node.acquireView(a);
      co_await node.acquireView(b);
    });
  } catch (const Error& e) {
    text = e.what();
  }
  EXPECT_TRUE(std::regex_match(
      text, std::regex("check failed: !write_held_\\.has_value\\(\\) at "
                       ".*vc\\.cpp:[0-9]+: acquire_view\\(1\\) nested "
                       "inside acquire_view\\(0\\)")))
      << text;
}

class VcApiTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(VcApiTest, NestedAcquireViewRejected) {
  expectVoppError(GetParam(), "nested",
                  [](vopp::Node& n, dsm::ViewId a,
                     dsm::ViewId b) -> sim::Task<void> {
                    co_await n.acquireView(a);
                    co_await n.acquireView(b);
                  });
}

TEST_P(VcApiTest, ReleaseWithoutAcquireRejected) {
  expectVoppError(GetParam(), "not held",
                  [](vopp::Node& n, dsm::ViewId a,
                     dsm::ViewId) -> sim::Task<void> {
                    co_await n.releaseView(a);
                  });
}

TEST_P(VcApiTest, ReleaseRviewWithoutAcquireRejected) {
  expectVoppError(GetParam(), "not read-held",
                  [](vopp::Node& n, dsm::ViewId a,
                     dsm::ViewId) -> sim::Task<void> {
                    co_await n.releaseRview(a);
                  });
}

TEST_P(VcApiTest, WriteWithoutViewRejected) {
  expectVoppError(GetParam(), "without",
                  [](vopp::Node& n, dsm::ViewId a,
                     dsm::ViewId) -> sim::Task<void> {
                    size_t off = n.cluster().viewOffset(a);
                    co_await n.touchWrite(off, 8);
                  });
}

TEST_P(VcApiTest, WriteUnderRviewRejected) {
  expectVoppError(GetParam(), "without write-acquiring",
                  [](vopp::Node& n, dsm::ViewId a,
                     dsm::ViewId) -> sim::Task<void> {
                    co_await n.acquireRview(a);
                    size_t off = n.cluster().viewOffset(a);
                    co_await n.touchWrite(off, 8);
                  });
}

TEST_P(VcApiTest, WriteToOtherViewRejected) {
  expectVoppError(GetParam(), "without write-acquiring",
                  [](vopp::Node& n, dsm::ViewId a,
                     dsm::ViewId b) -> sim::Task<void> {
                    co_await n.acquireView(a);
                    size_t off = n.cluster().viewOffset(b);
                    co_await n.touchWrite(off, 8);
                  });
}

// The check runs before the barrier algorithm starts, so every algorithm
// rejects the misuse the same way.
TEST_P(VcApiTest, BarrierWhileHoldingViewRejected) {
  for (auto alg : {dsm::BarrierAlg::kCentral, dsm::BarrierAlg::kTree,
                   dsm::BarrierAlg::kButterfly}) {
    SCOPED_TRACE(dsm::barrierAlgName(alg));
    expectVoppError(
        GetParam(), "barrier while holding",
        [](vopp::Node& n, dsm::ViewId a, dsm::ViewId) -> sim::Task<void> {
          co_await n.acquireView(a);
          co_await n.barrier();
        },
        alg);
  }
}

TEST_P(VcApiTest, RviewWhileWriteHoldingSameViewRejected) {
  expectVoppError(GetParam(), "while write-holding",
                  [](vopp::Node& n, dsm::ViewId a,
                     dsm::ViewId) -> sim::Task<void> {
                    co_await n.acquireView(a);
                    co_await n.acquireRview(a);
                  });
}

TEST_P(VcApiTest, LockPrimitivesRejected) {
  expectVoppError(GetParam(), "lock primitives",
                  [](vopp::Node& n, dsm::ViewId,
                     dsm::ViewId) -> sim::Task<void> {
                    co_await n.acquireLock(0);
                  });
}

// Rview holders must actually overlap in time (reader concurrency).
TEST_P(VcApiTest, RviewsOverlapInTime) {
  vopp::Cluster cluster(opts(GetParam(), 4));
  dsm::ViewId v = cluster.defineView(4096);
  std::vector<sim::Time> hold_start(4), hold_end(4);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    co_await node.barrier();
    co_await node.acquireRview(v);
    hold_start[static_cast<size_t>(node.id())] = node.now();
    node.charge(sim::msec(10));  // hold the Rview for a long time
    hold_end[static_cast<size_t>(node.id())] = node.now();
    co_await node.releaseRview(v);
    co_await node.barrier();
  });
  // All four hold intervals of ~10ms must overlap pairwise: end-to-end the
  // program takes ~10ms, not ~40ms.
  sim::Time max_start = *std::max_element(hold_start.begin(), hold_start.end());
  sim::Time min_end = *std::min_element(hold_end.begin(), hold_end.end());
  EXPECT_LT(max_start, min_end) << "readers were serialized";
}

// Writers exclude each other: exclusive hold intervals must not overlap.
TEST_P(VcApiTest, WritersAreSerialized) {
  vopp::Cluster cluster(opts(GetParam(), 4));
  dsm::ViewId v = cluster.defineView(4096);
  std::vector<std::pair<sim::Time, sim::Time>> holds;
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    co_await node.acquireView(v);
    sim::Time start = node.now();
    node.charge(sim::msec(1));
    holds.emplace_back(start, node.now());
    co_await node.releaseView(v);
    co_await node.barrier();
  });
  std::sort(holds.begin(), holds.end());
  for (size_t i = 1; i < holds.size(); ++i)
    EXPECT_GE(holds[i].first, holds[i - 1].second) << "writer overlap";
}

TEST_P(VcApiTest, MergeViewsBringsEverythingUpToDate) {
  vopp::Cluster cluster(opts(GetParam(), 3));
  std::vector<dsm::ViewId> views;
  for (int i = 0; i < 3; ++i) views.push_back(cluster.defineView(256));
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    dsm::ViewId mine = views[static_cast<size_t>(node.id())];
    co_await node.acquireView(mine);
    size_t off = node.cluster().viewOffset(mine);
    co_await node.touchWrite(off, 8);
    *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) = node.id() + 100;
    co_await node.releaseView(mine);
    co_await node.barrier();
    co_await node.mergeViews();
    // After merge_views every view's content is locally visible.
    for (int i = 0; i < 3; ++i) {
      size_t o = node.cluster().viewOffset(views[static_cast<size_t>(i)]);
      int64_t got =
          *reinterpret_cast<const int64_t*>(node.memView(o, 8).data());
      if (got != i + 100) throw Error("merge_views left stale data");
    }
    co_await node.barrier();
  });
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Protocols, VcApiTest,
                         ::testing::Values(Protocol::kVcDiff, Protocol::kVcSd),
                         [](const auto& info) {
                           return dsm::protocolName(info.param);
                         });

// Cross-cutting invariants.
TEST(ClusterApi, RunTwiceRejected) {
  vopp::Cluster cluster(opts(Protocol::kVcSd, 2));
  cluster.defineView(8);
  auto noop = [](vopp::Node& node) -> sim::Task<void> {
    co_await node.barrier();
  };
  cluster.run(noop);
  EXPECT_THROW(cluster.run(noop), Error);
}

TEST(ClusterApi, DefineViewAfterRunRejected) {
  vopp::Cluster cluster(opts(Protocol::kVcSd, 2));
  cluster.defineView(8);
  cluster.run([](vopp::Node& node) -> sim::Task<void> {
    co_await node.barrier();
  });
  EXPECT_THROW(cluster.defineView(8), Error);
}

TEST(ClusterApi, DiagnoseWithoutTraceRejected) {
  harness::RunConfig o = opts(Protocol::kVcSd, 2);
  o.diagnose = true;
  EXPECT_THROW(vopp::Cluster{o}, Error);
  obs::TraceRecorder rec;
  o.trace = &rec;
  EXPECT_NO_THROW(vopp::Cluster{o});
}

TEST(ClusterApi, DeadlockIsDetected) {
  vopp::Cluster cluster(opts(Protocol::kVcSd, 2));
  cluster.defineView(8);
  EXPECT_THROW(
      cluster.run([](vopp::Node& node) -> sim::Task<void> {
        // Node 1 never arrives at node 0's barrier.
        if (node.id() == 0) co_await node.barrier();
      }),
      Error);
}

TEST(ClusterApi, VcSdNeverIssuesDiffRequests) {
  for (int procs : {2, 4, 8}) {
    vopp::Cluster cluster(opts(Protocol::kVcSd, procs));
    dsm::ViewId v = cluster.defineView(8192);
    cluster.run([&](vopp::Node& node) -> sim::Task<void> {
      for (int r = 0; r < 5; ++r) {
        co_await node.acquireView(v);
        size_t off = node.cluster().viewOffset(v);
        co_await node.touchWrite(off, 8192);
        node.mem(off, 1)[0] = static_cast<std::byte>(node.id() + r);
        co_await node.releaseView(v);
      }
      co_await node.barrier();
    });
    EXPECT_EQ(cluster.dsmStats().diff_requests, 0u) << procs << " procs";
  }
}

// A touch of pages the node already maps faults nothing, and costs one
// heap allocation: the runtime's coroutine frame. Node::touchRead and
// SharedArray::touchRead hand back the runtime's task rather than awaiting
// it in frames of their own.
TEST(ClusterApi, WarmTouchMakesOneAllocation) {
  vopp::Cluster cluster(opts(Protocol::kVcSd, 2));
  constexpr size_t kBytes = 3 * 4096;
  const dsm::ViewId v = cluster.defineView(kBytes);
  size_t node_news = 0, array_news = 0;
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    if (node.id() != 0) co_return;
    co_await node.acquireView(v);
    const size_t off = node.cluster().viewOffset(v);
    co_await node.touchRead(off, kBytes);  // maps the pages
    vopp::SharedArray<int32_t> a(node, off, kBytes / sizeof(int32_t));
    g_news = 0;
    g_count_news = true;
    co_await node.touchRead(off, kBytes);
    g_count_news = false;
    node_news = g_news;
    g_news = 0;
    g_count_news = true;
    co_await a.touchRead(0, a.size());
    g_count_news = false;
    array_news = g_news;
    co_await node.releaseView(v);
  });
  EXPECT_EQ(node_news, 1u);
  EXPECT_EQ(array_news, 1u);
}

TEST(ClusterApi, DeterministicAcrossIdenticalRuns) {
  auto once = [](uint64_t seed) {
    vopp::Cluster cluster(opts(Protocol::kVcDiff, 4, seed));
    dsm::ViewId v = cluster.defineView(4096);
    cluster.run([&](vopp::Node& node) -> sim::Task<void> {
      for (int r = 0; r < 10; ++r) {
        co_await node.acquireView(v);
        size_t off = node.cluster().viewOffset(v);
        co_await node.touchWrite(off, 64);
        node.mem(off, 1)[0] = static_cast<std::byte>(r);
        co_await node.releaseView(v);
      }
      co_await node.barrier();
    });
    return std::tuple{cluster.finishTime(), cluster.netStats().messages,
                      cluster.dsmStats().acquires,
                      cluster.dsmStats().diff_requests};
  };
  EXPECT_EQ(once(1), once(1));
  EXPECT_EQ(once(9), once(9));
}

}  // namespace
}  // namespace vodsm
