// Observability invariants: tracing must be a pure observer.
//
//  * A traced run is bit-identical to an untraced run (same config/seed).
//  * The recorded event stream and the folded breakdown are bit-identical
//    across repeated runs and across host-thread interleavings.
//  * Spans nest properly per node and the time buckets partition each
//    node's run time exactly.
//  * Per-kind network counters sum to the global counters exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "apps/nn.hpp"
#include "apps/sor.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/run.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/diagnose.hpp"
#include "obs/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/page_heat.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace vodsm {
namespace {

using harness::RunConfig;
using harness::RunResult;

apps::IsParams smallIs() {
  apps::IsParams p;
  p.n_keys = 1 << 12;
  p.max_key = (1 << 8) - 1;
  p.iterations = 3;
  return p;
}

RunConfig smallConfig(dsm::Protocol proto) {
  RunConfig c;
  c.protocol = proto;
  c.nprocs = 4;
  return c;
}

apps::IsVariant variantFor(dsm::Protocol proto) {
  return proto == dsm::Protocol::kLrcDiff ? apps::IsVariant::kTraditional
                                          : apps::IsVariant::kVopp;
}

struct TracedRun {
  RunResult result;
  std::vector<obs::Event> events;
};

// An export recorder: the stream `--trace` writes, write notices included.
TracedRun runTracedIs(RunConfig c) {
  obs::TraceRecorder rec(obs::TraceMode::kExport);
  c.trace = &rec;
  RunResult r = apps::runIs(c, smallIs(), variantFor(c.protocol)).result;
  return {r, {rec.events().begin(), rec.events().end()}};
}

void expectSameSimResult(const RunResult& a, const RunResult& b,
                         const std::string& what) {
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.dsm.barriers, b.dsm.barriers) << what;
  EXPECT_EQ(a.dsm.acquires, b.dsm.acquires) << what;
  EXPECT_EQ(a.dsm.page_faults, b.dsm.page_faults) << what;
  EXPECT_EQ(a.dsm.diffs_created, b.dsm.diffs_created) << what;
  EXPECT_EQ(a.dsm.barrier_wait_total, b.dsm.barrier_wait_total) << what;
  EXPECT_EQ(a.dsm.acquire_wait_total, b.dsm.acquire_wait_total) << what;
  EXPECT_EQ(a.net.messages, b.net.messages) << what;
  EXPECT_EQ(a.net.payload_bytes, b.net.payload_bytes) << what;
  EXPECT_EQ(a.net.retransmissions, b.net.retransmissions) << what;
}

bool sameEvents(const std::vector<obs::Event>& a,
                const std::vector<obs::Event>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(obs::Event)) == 0);
}

const std::vector<dsm::Protocol> kAllProtocols = {
    dsm::Protocol::kLrcDiff, dsm::Protocol::kVcDiff, dsm::Protocol::kVcSd};

TEST(Obs, TracedRunMatchesUntracedRun) {
  for (auto proto : kAllProtocols) {
    RunConfig c = smallConfig(proto);
    RunResult untraced =
        apps::runIs(c, smallIs(), variantFor(proto)).result;
    TracedRun traced = runTracedIs(c);
    expectSameSimResult(untraced, traced.result, "traced vs untraced");
    EXPECT_FALSE(untraced.breakdown.enabled());
    EXPECT_TRUE(traced.result.breakdown.enabled());
    EXPECT_FALSE(traced.events.empty());
  }
}

TEST(Obs, TraceIsBitIdenticalAcrossRuns) {
  for (auto proto : kAllProtocols) {
    TracedRun first = runTracedIs(smallConfig(proto));
    TracedRun second = runTracedIs(smallConfig(proto));
    expectSameSimResult(first.result, second.result, "repeat");
    EXPECT_TRUE(sameEvents(first.events, second.events));
    // The compared streams carry every write notice the runtimes recorded.
    const auto notices =
        std::count_if(first.events.begin(), first.events.end(),
                      [](const obs::Event& e) {
                        return e.cat == obs::Cat::kNotice;
                      });
    EXPECT_EQ(static_cast<uint64_t>(notices),
              first.result.dsm.notices_recorded);
  }
}

TEST(Obs, TraceIsIndependentOfHostThreading) {
  // Same cells as a traced parallel sweep: each cell owns its recorder, so
  // host-thread interleaving must not leak into any event stream.
  std::vector<std::function<TracedRun()>> cells;
  for (auto proto : kAllProtocols)
    cells.push_back([proto] { return runTracedIs(smallConfig(proto)); });

  auto serial = harness::runAll(cells, /*jobs=*/1);
  auto parallel = harness::runAll(cells, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    expectSameSimResult(serial[i].result, parallel[i].result, "jobs");
    EXPECT_TRUE(sameEvents(serial[i].events, parallel[i].events));
  }
}

TEST(Obs, SpansNestPerNode) {
  TracedRun run = runTracedIs(smallConfig(dsm::Protocol::kVcSd));
  // Per-node stack check: every end matches the innermost open begin of the
  // same category, and spans never run backwards in simulated time.
  std::map<uint32_t, std::vector<const obs::Event*>> open;
  for (const obs::Event& e : run.events) {
    if (e.phase == obs::Phase::kBegin) {
      open[e.node].push_back(&e);
    } else if (e.phase == obs::Phase::kEnd) {
      auto& stack = open[e.node];
      ASSERT_FALSE(stack.empty()) << "end without begin";
      EXPECT_EQ(stack.back()->cat, e.cat) << "mismatched span nesting";
      EXPECT_LE(stack.back()->ts, e.ts) << "span ends before it begins";
      stack.pop_back();
    }
  }
  for (auto& [node, stack] : open)
    EXPECT_TRUE(stack.empty()) << "unterminated span on node " << node;
}

TEST(Obs, BucketsPartitionRunTime) {
  for (auto proto : kAllProtocols) {
    TracedRun run = runTracedIs(smallConfig(proto));
    const obs::Breakdown& b = run.result.breakdown;
    ASSERT_TRUE(b.enabled());
    ASSERT_EQ(b.nodes.size(), 4u);
    EXPECT_EQ(sim::toSeconds(b.run_time), run.result.seconds);
    obs::BucketSet sum;
    for (const obs::BucketSet& n : b.nodes) {
      // The five buckets partition this node's time exactly.
      EXPECT_EQ(n.total(), b.run_time);
      EXPECT_GE(n.compute, 0);
      EXPECT_GE(n.idle, 0);
      sum.add(n);
    }
    EXPECT_EQ(sum.compute, b.aggregate.compute);
    EXPECT_EQ(sum.barrier_wait, b.aggregate.barrier_wait);
    EXPECT_EQ(sum.acquire_wait, b.aggregate.acquire_wait);
    EXPECT_EQ(sum.fault_diff, b.aggregate.fault_diff);
    EXPECT_EQ(sum.idle, b.aggregate.idle);
    EXPECT_GT(b.aggregate.compute, 0);
  }
}

TEST(Obs, BreakdownSeesProtocolDifferences) {
  // LRC_d synchronizes through barriers (traditional IS), VC_sd through
  // view acquires; the breakdown must attribute the wait accordingly.
  TracedRun lrc = runTracedIs(smallConfig(dsm::Protocol::kLrcDiff));
  TracedRun vcsd = runTracedIs(smallConfig(dsm::Protocol::kVcSd));
  EXPECT_GT(lrc.result.breakdown.aggregate.barrier_wait, 0);
  EXPECT_EQ(lrc.result.breakdown.aggregate.acquire_wait, 0);
  EXPECT_GT(vcsd.result.breakdown.aggregate.acquire_wait, 0);
}

TEST(Obs, MpiRunsAreNotTraced) {
  apps::NnParams p;
  p.samples = 64;
  p.epochs = 2;
  RunConfig c = smallConfig(dsm::Protocol::kVcSd);
  obs::TraceRecorder rec;
  obs::MetricsRegistry reg{sim::usec(100)};
  c.trace = &rec;
  c.metrics = &reg;
  RunResult r = apps::runNn(c, p, apps::NnVariant::kMpi).result;
  // NN/MPI runs in the message-passing world, not through the DSM cluster:
  // no trace, no breakdown, no metrics.
  EXPECT_FALSE(r.breakdown.enabled());
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_FALSE(r.metrics.enabled());
  EXPECT_TRUE(reg.samples().empty());
}

TEST(Obs, PerKindStatsSumToGlobals) {
  RunConfig c = smallConfig(dsm::Protocol::kVcSd);
  // Lossy network so the per-kind retransmission attribution is exercised.
  c.net.random_loss = 0.02;
  c.net.rto = sim::msec(20);
  RunResult r = apps::runIs(c, smallIs(), apps::IsVariant::kVopp).result;

  uint64_t messages = 0, payload = 0, rexmit = 0;
  for (int k = 0; k < net::kMsgClassCount; ++k) {
    messages += r.net.kind[k].messages;
    payload += r.net.kind[k].payload_bytes;
    rexmit += r.net.kind[k].retransmissions;
  }
  EXPECT_EQ(messages, r.net.messages);
  EXPECT_EQ(payload, r.net.payload_bytes);
  EXPECT_EQ(rexmit, r.net.retransmissions);
  EXPECT_GT(rexmit, 0u) << "lossy run should retransmit";
  // IS under VC_sd moves its data through view grants.
  EXPECT_GT(r.net.of(net::MsgClass::kGrant).payload_bytes, 0u);
  EXPECT_GT(r.net.of(net::MsgClass::kBarrier).messages, 0u);
}

TEST(Obs, CriticalPathOnHandCraftedStream) {
  // Two nodes, known longest chain. All times in microseconds:
  //   node 0: program [0,100], fault page 3 [50,60], barrier_wait [70,95];
  //           grant (view 7 -> node 1) at 25; barrier folds at 72 and 73.
  //   node 1: program [0,85], acquire_wait view 7 [10,40],
  //           barrier_wait [60,85].
  // The walk starts at node 0's finish (makespan 100): compute (95,100],
  // barrier_release from the releasing fold at 73 to the wait end at 95,
  // then local time (0,73] = compute 50 + fault 10 + compute 10 +
  // barrier_wait 3. Exact per-category expectations below.
  obs::TraceRecorder rec;
  auto us = [](int64_t n) { return sim::usec(n); };
  rec.begin(0, obs::Cat::kProgram, us(0));
  rec.begin(1, obs::Cat::kProgram, us(0));
  rec.begin(1, obs::Cat::kAcquireWait, us(10), /*id=*/7);
  rec.instant(0, obs::Cat::kGrant, us(25), /*id=*/7, /*requester=*/1);
  rec.end(1, obs::Cat::kAcquireWait, us(40), 7);
  rec.begin(0, obs::Cat::kFault, us(50), /*page=*/3);
  rec.end(0, obs::Cat::kFault, us(60), 3);
  rec.begin(1, obs::Cat::kBarrierWait, us(60), /*barrier=*/0);
  rec.begin(0, obs::Cat::kBarrierWait, us(70), 0);
  rec.instant(0, obs::Cat::kBarrFold, us(72), 0, /*notices=*/0);
  rec.instant(0, obs::Cat::kBarrFold, us(73), 0, 0);
  rec.end(1, obs::Cat::kBarrierWait, us(85), 0);
  rec.end(1, obs::Cat::kProgram, us(85));
  rec.end(0, obs::Cat::kBarrierWait, us(95), 0);
  rec.end(0, obs::Cat::kProgram, us(100));

  obs::EventGraph g = obs::buildEventGraph(rec, /*nprocs=*/2);
  EXPECT_EQ(g.waits_without_trigger, 0u);
  EXPECT_EQ(g.unmatched_spans, 0u);
  ASSERT_EQ(g.nodes.size(), 2u);
  EXPECT_EQ(g.nodes[0].program_end, us(100));
  ASSERT_EQ(g.nodes[1].waits.size(), 2u);
  // The acquire wait's wakeup edge is the grant instant on node 0.
  EXPECT_EQ(g.nodes[1].waits[0].trigger_node, 0u);
  EXPECT_EQ(g.nodes[1].waits[0].trigger_ts, us(25));
  // Both barrier waits were released by the episode's last fold (t=73).
  EXPECT_EQ(g.nodes[0].waits[0].trigger_ts, us(73));
  EXPECT_EQ(g.nodes[1].waits[1].trigger_ts, us(73));

  obs::CriticalPath cp = obs::computeCriticalPath(g, us(100));
  EXPECT_EQ(cp.makespan, us(100));
  EXPECT_EQ(cp.total(), us(100)) << "attributions must sum to the makespan";
  using PC = obs::PathCat;
  EXPECT_EQ(cp.by_cat[static_cast<int>(PC::kCompute)], us(65));
  EXPECT_EQ(cp.by_cat[static_cast<int>(PC::kFault)], us(10));
  EXPECT_EQ(cp.by_cat[static_cast<int>(PC::kBarrierWait)], us(3));
  EXPECT_EQ(cp.by_cat[static_cast<int>(PC::kBarrierRelease)], us(22));
  EXPECT_EQ(cp.by_cat[static_cast<int>(PC::kAcquireWait)], 0);
  EXPECT_EQ(cp.by_cat[static_cast<int>(PC::kGrantTransfer)], 0);
  EXPECT_EQ(cp.by_cat[static_cast<int>(PC::kDiffCreate)], 0);
  EXPECT_EQ(cp.hops, 1);
  // The whole path stays on node 0 (the fold that released the barrier was
  // recorded there too).
  ASSERT_EQ(cp.by_node.size(), 2u);
  EXPECT_EQ(cp.by_node[0], us(100));
  EXPECT_EQ(cp.by_node[1], 0);
  // Slices are sorted by critical nanoseconds, largest first.
  ASSERT_FALSE(cp.slices.empty());
  EXPECT_EQ(cp.slices[0].cat, PC::kCompute);
  EXPECT_EQ(cp.slices[0].nanos, us(65));
}

// The breakdown folds the spans the event graph paired. All times in
// microseconds:
//   node 0: program [0,100], fault [50,60], barrier_wait [70,95];
//   node 1: program [0,85], acquire_wait [10,40], diff_create [41,45],
//           barrier_wait [60,85].
void recordTwoNodeSpans(obs::TraceRecorder& rec) {
  auto us = [](int64_t n) { return sim::usec(n); };
  rec.begin(0, obs::Cat::kProgram, us(0));
  rec.begin(1, obs::Cat::kProgram, us(0));
  rec.begin(1, obs::Cat::kAcquireWait, us(10), /*id=*/7);
  rec.end(1, obs::Cat::kAcquireWait, us(40), 7);
  rec.begin(1, obs::Cat::kDiffCreate, us(41));
  rec.end(1, obs::Cat::kDiffCreate, us(45), /*pages=*/1, /*bytes=*/64);
  rec.begin(0, obs::Cat::kFault, us(50), /*page=*/3);
  rec.end(0, obs::Cat::kFault, us(60), 3);
  rec.begin(1, obs::Cat::kBarrierWait, us(60), /*barrier=*/0);
  rec.begin(0, obs::Cat::kBarrierWait, us(70), 0);
  rec.end(1, obs::Cat::kBarrierWait, us(85), 0);
  rec.end(1, obs::Cat::kProgram, us(85));
  rec.end(0, obs::Cat::kBarrierWait, us(95), 0);
  rec.end(0, obs::Cat::kProgram, us(100));
}

TEST(Obs, BreakdownFoldsTheEventGraph) {
  auto us = [](int64_t n) { return sim::usec(n); };
  obs::TraceRecorder rec;
  recordTwoNodeSpans(rec);
  const obs::Breakdown b = obs::foldRun(rec, 2, us(100)).breakdown;
  ASSERT_EQ(b.nodes.size(), 2u);
  EXPECT_EQ(b.nodes[0].compute, us(65));
  EXPECT_EQ(b.nodes[0].barrier_wait, us(25));
  EXPECT_EQ(b.nodes[0].acquire_wait, 0);
  EXPECT_EQ(b.nodes[0].fault_diff, us(10));
  EXPECT_EQ(b.nodes[0].idle, 0);
  EXPECT_EQ(b.nodes[1].compute, us(26));
  EXPECT_EQ(b.nodes[1].barrier_wait, us(25));
  EXPECT_EQ(b.nodes[1].acquire_wait, us(30));
  EXPECT_EQ(b.nodes[1].fault_diff, us(4));
  EXPECT_EQ(b.nodes[1].idle, us(15));
  EXPECT_EQ(b.aggregate.total(), us(200));
  const obs::Breakdown direct = obs::foldBreakdown(rec, 2, us(100));
  EXPECT_EQ(direct.aggregate.compute, b.aggregate.compute);
  EXPECT_EQ(direct.aggregate.idle, b.aggregate.idle);
}

// A span without its end, an end without its begin, or a span that ends
// before it begins is a broken trace, and folding it throws.
TEST(Obs, FoldRunRejectsBrokenSpans) {
  auto us = [](int64_t n) { return sim::usec(n); };
  {
    obs::TraceRecorder rec;
    recordTwoNodeSpans(rec);
    rec.begin(1, obs::Cat::kAcquireWait, us(90), 7);  // never ends
    EXPECT_THROW(obs::foldRun(rec, 2, us(100)), Error);
  }
  {
    obs::TraceRecorder rec;
    recordTwoNodeSpans(rec);
    rec.end(0, obs::Cat::kFault, us(99), 3);  // no begin
    EXPECT_THROW(obs::foldRun(rec, 2, us(100)), Error);
  }
  {
    obs::TraceRecorder rec;
    recordTwoNodeSpans(rec);
    rec.begin(0, obs::Cat::kFault, us(99), 4);
    rec.end(0, obs::Cat::kFault, us(98), 4);  // ends before it begins
    EXPECT_THROW(obs::foldRun(rec, 2, us(100)), Error);
  }
}

TEST(Obs, PageHeatFoldsKnownCounts) {
  obs::TraceRecorder rec;
  auto us = [](int64_t n) { return sim::usec(n); };
  // Two nodes fault page 5 concurrently; the spans must be matched per
  // (page, node), giving 10 + 15 microseconds of fault time.
  rec.begin(0, obs::Cat::kFault, us(10), /*page=*/5);
  rec.begin(1, obs::Cat::kFault, us(15), 5);
  rec.end(0, obs::Cat::kFault, us(20), 5);
  rec.end(1, obs::Cat::kFault, us(30), 5);
  rec.instant(0, obs::Cat::kTwin, us(11), 5);
  rec.instant(1, obs::Cat::kDiffApply, us(29), 5, /*bytes=*/256);
  rec.instant(0, obs::Cat::kNotice, us(40), 5, /*writer=*/1);
  rec.begin(1, obs::Cat::kFault, us(50), /*page=*/9);
  rec.end(1, obs::Cat::kFault, us(52), 9);

  obs::PageHeat heat = obs::foldPageHeat(rec);
  ASSERT_EQ(heat.rows.size(), 2u);
  const obs::PageHeatRow& p5 = heat.rows[0];
  EXPECT_EQ(p5.page, 5u);
  EXPECT_EQ(p5.faults, 2u);
  EXPECT_EQ(p5.fault_time, us(25));
  EXPECT_EQ(p5.twins, 1u);
  EXPECT_EQ(p5.diff_applies, 1u);
  EXPECT_EQ(p5.diff_bytes, 256u);
  EXPECT_EQ(p5.notices, 1u);
  EXPECT_EQ(p5.sharers, 2u);
  EXPECT_EQ(p5.writers, 1u);
  const obs::PageHeatRow& p9 = heat.rows[1];
  EXPECT_EQ(p9.page, 9u);
  EXPECT_EQ(p9.faults, 1u);
  EXPECT_EQ(p9.fault_time, us(2));
  EXPECT_EQ(p9.sharers, 1u);

  std::ostringstream csv;
  obs::writePageHeatCsv(csv, heat);
  EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
            "page,faults,fault_seconds,twins,diff_applies,diff_bytes,"
            "notices,sharers,writers");
}

// The page-heat fold as a walk over the stored events, as it was before
// recorders folded page heat online: the reference the online fold must
// match. It needs an export recorder, the one that stores write notices.
obs::PageHeat walkPageHeat(const obs::TraceRecorder& trace) {
  struct Acc {
    obs::PageHeatRow row;
    std::set<uint32_t> sharers;
    std::set<uint32_t> writers;
  };
  std::map<uint64_t, Acc> pages;
  std::map<std::pair<uint64_t, uint32_t>, sim::Time> open_faults;
  auto touch = [&](uint64_t page, uint32_t node) -> Acc& {
    Acc& a = pages[page];
    a.row.page = page;
    a.sharers.insert(node);
    return a;
  };
  for (const obs::Event& e : trace.events()) {
    if (e.node == obs::kEngineNode) continue;
    switch (e.cat) {
      case obs::Cat::kFault: {
        Acc& a = touch(e.a0, e.node);
        if (e.phase == obs::Phase::kBegin) {
          open_faults[{e.a0, e.node}] = e.ts;
          break;
        }
        if (e.phase != obs::Phase::kEnd) break;
        auto it = open_faults.find({e.a0, e.node});
        if (it == open_faults.end()) break;
        a.row.faults++;
        a.row.fault_time += e.ts - it->second;
        open_faults.erase(it);
        break;
      }
      case obs::Cat::kTwin:
        touch(e.a0, e.node).row.twins++;
        break;
      case obs::Cat::kDiffApply: {
        Acc& a = touch(e.a0, e.node);
        a.row.diff_applies++;
        a.row.diff_bytes += e.a1;
        break;
      }
      case obs::Cat::kNotice: {
        Acc& a = touch(e.a0, e.node);
        a.row.notices++;
        a.writers.insert(static_cast<uint32_t>(e.a1));
        break;
      }
      default:
        break;
    }
  }
  obs::PageHeat out;
  for (auto& [page, a] : pages) {
    a.row.sharers = static_cast<uint32_t>(a.sharers.size());
    a.row.writers = static_cast<uint32_t>(a.writers.size());
    out.rows.push_back(a.row);
  }
  return out;
}

void expectSameRows(const obs::PageHeat& got, const obs::PageHeat& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << what;
  for (size_t i = 0; i < got.rows.size(); ++i) {
    const obs::PageHeatRow& g = got.rows[i];
    const obs::PageHeatRow& w = want.rows[i];
    EXPECT_EQ(g.page, w.page) << what;
    EXPECT_EQ(g.faults, w.faults) << what << " page " << w.page;
    EXPECT_EQ(g.fault_time, w.fault_time) << what << " page " << w.page;
    EXPECT_EQ(g.twins, w.twins) << what << " page " << w.page;
    EXPECT_EQ(g.diff_applies, w.diff_applies) << what << " page " << w.page;
    EXPECT_EQ(g.diff_bytes, w.diff_bytes) << what << " page " << w.page;
    EXPECT_EQ(g.notices, w.notices) << what << " page " << w.page;
    EXPECT_EQ(g.sharers, w.sharers) << what << " page " << w.page;
    EXPECT_EQ(g.writers, w.writers) << what << " page " << w.page;
  }
}

uint64_t countOf(const obs::TraceRecorder& rec, obs::Cat cat) {
  uint64_t n = 0;
  for (const obs::Event& e : rec.events()) n += e.cat == cat;
  return n;
}

// Runs `app` on `c` at test sizes; LRC_d runs the traditional variant.
RunResult runApp(const std::string& app, const RunConfig& c) {
  const bool traditional = c.protocol == dsm::Protocol::kLrcDiff;
  if (app == "is") {
    apps::IsParams p;
    p.n_keys = 1 << 10;
    p.max_key = (1 << 7) - 1;
    p.iterations = 2;
    return apps::runIs(c, p, variantFor(c.protocol)).result;
  }
  if (app == "gauss") {
    apps::GaussParams p;
    p.n = 32;
    const auto v = traditional ? apps::GaussVariant::kTraditional
                               : apps::GaussVariant::kVopp;
    return apps::runGauss(c, p, v).result;
  }
  if (app == "sor") {
    apps::SorParams p;
    p.rows = 32;
    p.cols = 32;
    p.iterations = 2;
    const auto v = traditional ? apps::SorVariant::kTraditional
                               : apps::SorVariant::kVopp;
    return apps::runSor(c, p, v).result;
  }
  apps::NnParams p;
  p.samples = 16;
  p.epochs = 2;
  p.hidden = 8;
  const auto v =
      traditional ? apps::NnVariant::kTraditional : apps::NnVariant::kVopp;
  return apps::runNn(c, p, v).result;
}

// Runs `app` on `c` under an export recorder and under a fold-only one,
// and checks both recorders' page heat against the walk over the export
// recorder's events. Returns the write notices the run recorded.
uint64_t expectOnlineFoldMatchesWalk(const std::string& app, RunConfig c) {
  std::ostringstream os;
  os << app << " proto " << static_cast<int>(c.protocol) << " "
     << dsm::barrierAlgName(c.barrier) << (c.faults ? " lossy" : "");
  const std::string what = os.str();
  obs::TraceRecorder exported(obs::TraceMode::kExport);
  obs::TraceRecorder folded;
  c.trace = &exported;
  const RunResult r = runApp(app, c);
  c.trace = &folded;
  (void)runApp(app, c);

  const obs::PageHeat walk = walkPageHeat(exported);
  EXPECT_FALSE(walk.rows.empty()) << what;
  expectSameRows(obs::foldPageHeat(exported), walk, what);
  expectSameRows(obs::foldPageHeat(folded), walk, what);
  expectSameRows(r.pageheat, walk, what);
  const uint64_t notices = r.dsm.notices_recorded;
  EXPECT_EQ(countOf(folded, obs::Cat::kNotice), 0u) << what;
  EXPECT_EQ(countOf(exported, obs::Cat::kNotice), notices) << what;
  EXPECT_EQ(exported.size(), folded.size() + notices) << what;
  return notices;
}

// The recorder folds page heat as it records. On every app, protocol and
// barrier, fault-free and lossy, the online rows equal the walk over an
// export recorder's events; a fold-only recorder yields the same rows
// without storing a single write notice, and an export recorder stores
// one per notice the runtimes recorded.
TEST(Obs, OnlinePageHeatMatchesTheTraceWalk) {
  using B = dsm::BarrierAlg;
  const net::FaultPlan lossy = net::parseFaultPlan("profile:lossy");
  uint64_t notices = 0;
  for (const char* app : {"is", "gauss", "sor", "nn"})
    for (auto proto : kAllProtocols)
      for (B barrier : {B::kCentral, B::kTree, B::kButterfly})
        for (bool faulted : {false, true}) {
          RunConfig c;
          c.protocol = proto;
          c.nprocs = 8;
          c.barrier = barrier;
          if (faulted) c.faults = &lossy;
          notices += expectOnlineFoldMatchesWalk(app, c);
        }
  EXPECT_GT(notices, 0u);
}

// The event log grows in chunks that never move: across a chunk boundary
// the events keep their order and indices, and an event's address does
// not change as the log grows.
TEST(Obs, EventLogKeepsOrderAndAddressesAcrossChunks) {
  constexpr size_t kChunk = obs::EventLog::kChunkEvents;
  obs::TraceRecorder rec;
  auto record = [&](size_t i) {
    rec.instant(static_cast<uint32_t>(i % 8), obs::Cat::kSend,
                static_cast<sim::Time>(i), /*type=*/i);
  };
  for (size_t i = 0; i < kChunk; ++i) record(i);
  const obs::Event* first = &rec.events()[0];
  const obs::Event* last = &rec.events()[kChunk - 1];
  for (size_t i = kChunk; i < kChunk + 3; ++i) record(i);

  ASSERT_EQ(rec.size(), kChunk + 3);
  EXPECT_EQ(&rec.events()[0], first);
  EXPECT_EQ(&rec.events()[kChunk - 1], last);
  EXPECT_EQ(rec.events()[kChunk - 1].a0, kChunk - 1);
  EXPECT_EQ(rec.events()[kChunk].a0, kChunk);
  EXPECT_EQ(rec.events()[kChunk + 2].ts, static_cast<sim::Time>(kChunk + 2));
  size_t i = 0, misplaced = 0;
  for (const obs::Event& e : rec.events()) {
    misplaced += e.a0 != i || e.node != i % 8 || &e != &rec.events()[i];
    ++i;
  }
  EXPECT_EQ(i, kChunk + 3);
  EXPECT_EQ(misplaced, 0u);
  const std::vector<obs::Event> copy(rec.events().begin(),
                                     rec.events().end());
  ASSERT_EQ(copy.size(), kChunk + 3);
  EXPECT_EQ(copy[kChunk].a0, kChunk);
}

// Only an export recorder stores write notices, so only it can be written
// as a Chrome trace.
TEST(Obs, OnlyAnExportRecorderWritesAChromeTrace) {
  obs::TraceRecorder folded;
  obs::TraceRecorder exported(obs::TraceMode::kExport);
  for (obs::TraceRecorder* rec : {&folded, &exported}) {
    recordTwoNodeSpans(*rec);
    rec->instant(0, obs::Cat::kNotice, sim::usec(40), /*page=*/5,
                 /*writer=*/1);
  }
  EXPECT_EQ(exported.size(), folded.size() + 1);
  EXPECT_EQ(countOf(folded, obs::Cat::kNotice), 0u);
  EXPECT_EQ(obs::foldPageHeat(folded).rows.back().notices, 1u);
  std::ostringstream os;
  EXPECT_THROW(obs::writeChromeTrace(os, folded), Error);
  obs::writeChromeTrace(os, exported);
  EXPECT_NE(os.str().find("\"write_notice\""), std::string::npos);
}

TEST(Obs, EventGraphIsCompleteOnRealRuns) {
  for (auto proto : kAllProtocols) {
    for (bool lossy : {false, true}) {
      RunConfig c = smallConfig(proto);
      if (lossy) {
        c.net.random_loss = 0.02;
        c.net.rto = sim::msec(20);
      }
      obs::TraceRecorder rec;
      c.trace = &rec;
      (void)apps::runIs(c, smallIs(), variantFor(proto));
      obs::EventGraph g = obs::buildEventGraph(rec, c.nprocs);
      const obs::FlowFold flows = obs::foldFlows(rec);
      const std::string what =
          std::string(lossy ? "lossy " : "") + "proto " +
          std::to_string(static_cast<int>(proto));
      // Every deliver has a matching send, every wait a wakeup edge, every
      // span a begin/end pair — even under loss and retransmission.
      EXPECT_EQ(flows.delivers_without_send, 0u) << what;
      EXPECT_EQ(g.waits_without_trigger, 0u) << what;
      EXPECT_EQ(g.unmatched_spans, 0u) << what;
      EXPECT_FALSE(flows.flows.empty()) << what;
      uint64_t delivered = 0, retransmitted = 0;
      for (const obs::Flow& f : flows.flows) {
        EXPECT_NE(f.corr, obs::kNoCorr);
        EXPECT_GE(f.send, 0) << what;
        if (f.deliver >= 0) delivered++;
        retransmitted += f.retransmits;
      }
      EXPECT_GT(delivered, 0u) << what;
      if (lossy) {
        EXPECT_GT(retransmitted, 0u) << what;
      }
    }
  }
}

// Correlation ids name one frame each: on a fault-free run every traced
// send (acks included) starts its own flow, and every flow is delivered.
TEST(Obs, EverySendHasItsOwnFlow) {
  RunConfig c = smallConfig(dsm::Protocol::kVcSd);
  c.nprocs = 8;
  obs::TraceRecorder rec;
  c.trace = &rec;
  (void)apps::runIs(c, smallIs(), apps::IsVariant::kVopp);
  uint64_t sends = 0;
  for (const obs::Event& e : rec.events())
    if (e.cat == obs::Cat::kSend) sends++;
  const obs::FlowFold flows = obs::foldFlows(rec);
  EXPECT_GT(sends, 0u);
  EXPECT_EQ(flows.flows.size(), sends);
  for (const obs::Flow& f : flows.flows) {
    EXPECT_GE(f.send, 0);
    EXPECT_GE(f.deliver, 0);
  }
}

// Sequence numbers are per connection, so the peer is part of the id: one
// owner's frames to two peers with the same number must not share a flow.
TEST(Obs, CorrIdSeparatesConnections) {
  const net::Frame data{net::FrameKind::kData, 9, 5, net::share(Bytes(8))};
  const net::Frame ack{net::FrameKind::kAck, 0, 5, nullptr};
  EXPECT_NE(net::frameCorr(data, 0, 1), net::frameCorr(data, 0, 2));
  EXPECT_NE(net::frameCorr(data, 0, 1), net::frameCorr(data, 1, 0));
  // An ack travels the other way but belongs to the same connection.
  EXPECT_EQ(net::frameCorr(ack, 1, 0),
            obs::corrId(static_cast<uint8_t>(net::FrameKind::kAck), 0, 1, 5));
  EXPECT_NE(net::frameCorr(ack, 1, 0), net::frameCorr(data, 0, 1));
  EXPECT_EQ(obs::corrKind(net::frameCorr(ack, 1, 0)),
            static_cast<uint8_t>(net::FrameKind::kAck));
}

TEST(Obs, CorrIdRejectsOutOfRangeFields) {
  constexpr uint32_t kMaxNode = (1u << obs::kCorrNodeBits) - 1;
  constexpr uint64_t kMaxSeq = (uint64_t{1} << obs::kCorrSeqBits) - 1;
  EXPECT_NE(obs::corrId(3, kMaxNode, kMaxNode, kMaxSeq),
            obs::corrId(3, kMaxNode, kMaxNode - 1, kMaxSeq));
  EXPECT_THROW(obs::corrId(0, kMaxNode + 1, 0, 0), Error);
  EXPECT_THROW(obs::corrId(0, 0, kMaxNode + 1, 0), Error);
  EXPECT_THROW(obs::corrId(0, 0, 0, kMaxSeq + 1), Error);
}

TEST(Obs, CriticalPathSumsToMakespanOnRealRuns) {
  for (auto proto : kAllProtocols) {
    RunConfig c = smallConfig(proto);
    obs::TraceRecorder rec;
    c.trace = &rec;
    RunResult r = apps::runIs(c, smallIs(), variantFor(proto)).result;
    const obs::CriticalPath& cp = r.critpath;
    ASSERT_TRUE(cp.enabled());
    // The partition invariant: per-category and per-node attributions both
    // sum to the makespan to the nanosecond.
    EXPECT_EQ(cp.total(), cp.makespan);
    sim::Time node_sum = 0;
    for (sim::Time t : cp.by_node) node_sum += t;
    EXPECT_EQ(node_sum, cp.makespan);
    sim::Time slice_sum = 0;
    for (const obs::PathSlice& s : cp.slices) slice_sum += s.nanos;
    EXPECT_EQ(slice_sum, cp.makespan);
    EXPECT_EQ(sim::toSeconds(cp.makespan), r.seconds);
    EXPECT_GT(cp.by_cat[static_cast<int>(obs::PathCat::kCompute)], 0);
    EXPECT_TRUE(r.pageheat.enabled());
    EXPECT_FALSE(r.pageheat.rows.empty());
  }
}

TEST(Obs, CriticalPathOutputIndependentOfHostThreading) {
  // The rendered report — category table, slice order, every digit — must
  // not depend on how many host threads ran the cells.
  std::vector<std::function<std::string()>> cells;
  for (auto proto : kAllProtocols)
    cells.push_back([proto] {
      RunConfig c = smallConfig(proto);
      obs::TraceRecorder rec;
      c.trace = &rec;
      RunResult r = apps::runIs(c, smallIs(), variantFor(proto)).result;
      std::ostringstream os;
      obs::printCriticalPath(os, r.critpath, "cp");
      return os.str();
    });
  auto serial = harness::runAll(cells, /*jobs=*/1);
  auto parallel = harness::runAll(cells, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], parallel[i]);
}

TEST(Obs, DropAttributionSumsToFrameCounters) {
  RunConfig c = smallConfig(dsm::Protocol::kVcSd);
  c.net.random_loss = 0.05;
  c.net.rto = sim::msec(20);
  RunResult r = apps::runIs(c, smallIs(), apps::IsVariant::kVopp).result;
  uint64_t class_drops = 0;
  for (int k = 0; k < net::kMsgClassCount; ++k)
    class_drops += r.net.kind[k].drops;
  EXPECT_EQ(class_drops + r.net.ack_drops,
            r.net.frames_dropped_overflow + r.net.frames_dropped_random +
                r.net.frames_dropped_fault);
  EXPECT_GT(class_drops + r.net.ack_drops, 0u) << "lossy run should drop";
}

TEST(Obs, ChromeTraceExportIsDeterministic) {
  RunConfig c = smallConfig(dsm::Protocol::kVcSd);
  obs::TraceRecorder live(obs::TraceMode::kExport);
  c.trace = &live;
  (void)apps::runIs(c, smallIs(), apps::IsVariant::kVopp);

  std::ostringstream a, b;
  obs::writeChromeTrace(a, live);
  obs::writeChromeTrace(b, live);
  EXPECT_EQ(a.str(), b.str());
  const std::string& s = a.str();
  EXPECT_EQ(s.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(s.find("\"process_name\""), std::string::npos);
  EXPECT_NE(s.find("\"acquire_view\""), std::string::npos);
  EXPECT_NE(s.find("\"barrier_wait\""), std::string::npos);
  // Wire events carry flow bindings so the viewer draws send->deliver
  // arrows; sends originate the flow, delivers terminate it.
  EXPECT_NE(s.find("\"bind_id\""), std::string::npos);
  EXPECT_NE(s.find("\"flow_out\":true"), std::string::npos);
  EXPECT_NE(s.find("\"flow_in\":true"), std::string::npos);
  EXPECT_EQ(s.substr(s.size() - 3), "]}\n");
}

// ---- counter/gauge metrics (obs/metrics.hpp) ----

using M = obs::Metric;

int64_t finalOf(const obs::MetricsSummary& s, uint32_t node, M m) {
  for (const auto& row : s.rows)
    if (row.node == node && row.metric == m) return row.final_value;
  return 0;
}

RunResult runMeteredIs(RunConfig c, obs::MetricsRegistry* reg) {
  c.metrics = reg;
  return apps::runIs(c, smallIs(), variantFor(c.protocol)).result;
}

TEST(Metrics, RegistryAccountsPeaksFinalsAndMeans) {
  obs::MetricsRegistry reg;  // interval 0: no sampler, aggregates only
  // Node 0 holds 10 over [0, 100) ns then 4 over [100, 200); node 1 holds
  // 3 from t=50 on.
  reg.add(0, M::kTwinBytes, 10, 0);
  reg.add(0, M::kTwinBytes, -6, 100);
  reg.add(1, M::kTwinBytes, 3, 50);
  reg.closeRun(/*nprocs=*/2, /*finish=*/200);
  obs::MetricsSummary s = reg.summary();
  ASSERT_TRUE(s.enabled());
  EXPECT_EQ(s.maxPeak(M::kTwinBytes), 10);
  EXPECT_EQ(s.totalFinal(M::kTwinBytes), 7);
  ASSERT_EQ(s.rows.size(), 2u);
  EXPECT_EQ(s.rows[0].node, 0u);
  EXPECT_EQ(s.rows[0].peak, 10);
  EXPECT_EQ(s.rows[0].peak_ts, 0);
  EXPECT_EQ(s.rows[0].final_value, 4);
  EXPECT_DOUBLE_EQ(s.rows[0].mean, (10.0 * 100 + 4.0 * 100) / 200.0);
  EXPECT_DOUBLE_EQ(s.rows[1].mean, 3.0 * 150 / 200.0);
  EXPECT_TRUE(reg.samples().empty());
}

using Row = std::tuple<sim::Time, uint32_t, M, int64_t>;

std::vector<Row> rowsOf(const obs::MetricsRegistry& reg) {
  std::vector<Row> rows;
  for (const obs::MetricSample& s : reg.samples())
    rows.emplace_back(s.ts, s.node, s.metric, s.value);
  return rows;
}

// The sampler's ticks fall at start + k * interval. The tick at T sees
// every event at a time <= T, records only series that changed since their
// last row (or never had one), and is taken only if some event runs after
// it. closeRun then records every live series at the finish time.
TEST(Metrics, SamplerTicksFollowTheEngine) {
  auto change = [](sim::Engine& e, obs::MetricsRegistry& reg, sim::Time t,
                   uint32_t node, M m, int64_t delta) {
    e.at(t, [&e, &reg, node, m, delta] { reg.add(node, m, delta, e.now()); });
  };
  {
    sim::Engine e;
    obs::MetricsRegistry reg{10};
    change(e, reg, 2, 0, M::kTwinBytes, 3);
    ASSERT_TRUE(e.step());  // the sampler starts at 2: ticks at 12, 22, ...
    reg.startSampling(e);
    change(e, reg, 12, 0, M::kTwinBytes, 1);  // the tick at 12 sees it
    change(e, reg, 17, 1, M::kHeldViews, 1);
    change(e, reg, 17, 1, M::kHeldLocks, 0);  // never sampled: a row at 22
    change(e, reg, 49, 0, M::kTwinBytes, -4);
    change(e, reg, 57, 1, M::kHeldViews, 1);
    change(e, reg, 72, 0, M::kTwinBytes, 7);
    e.at(95, [] {});  // changes nothing, but the tick at 72 is taken
    EXPECT_EQ(e.run(), 7u);
    reg.closeRun(/*nprocs=*/2, /*finish=*/90);
    EXPECT_EQ(rowsOf(reg),
              (std::vector<Row>{{12, 0, M::kTwinBytes, 4},
                                {22, 1, M::kHeldViews, 1},
                                {22, 1, M::kHeldLocks, 0},
                                {52, 0, M::kTwinBytes, 0},
                                {62, 1, M::kHeldViews, 2},
                                {72, 0, M::kTwinBytes, 7},
                                {90, 0, M::kTwinBytes, 7},
                                {90, 1, M::kHeldViews, 2},
                                {90, 1, M::kHeldLocks, 0}}));
  }
  {
    // The last event falls on the tick at 30: no event runs after that
    // tick, so it is not taken, and only the closing row records 6.
    sim::Engine e;
    obs::MetricsRegistry reg{10};
    reg.startSampling(e);
    change(e, reg, 4, 0, M::kTwinBytes, 5);
    change(e, reg, 30, 0, M::kTwinBytes, 1);
    EXPECT_EQ(e.run(), 2u);
    reg.closeRun(/*nprocs=*/1, /*finish=*/30);
    EXPECT_EQ(rowsOf(reg), (std::vector<Row>{{10, 0, M::kTwinBytes, 5},
                                             {30, 0, M::kTwinBytes, 6}}));
  }
}

const obs::Event& engineRunEnd(const std::vector<obs::Event>& events) {
  for (const obs::Event& e : events)
    if (e.node == obs::kEngineNode && e.cat == obs::Cat::kEngineRun &&
        e.phase == obs::Phase::kEnd)
      return e;
  throw Error("trace has no engine_run end");
}

TEST(Metrics, MeteredRunMatchesUnmeteredRun) {
  // The tentpole invariant: metering — including the engine-driven sampler
  // — must leave every simulated figure bit-identical.
  for (auto proto : kAllProtocols) {
    RunConfig c = smallConfig(proto);
    RunResult plain = apps::runIs(c, smallIs(), variantFor(proto)).result;
    obs::MetricsRegistry reg{sim::usec(200)};
    RunResult metered = runMeteredIs(c, &reg);
    expectSameSimResult(plain, metered, "metered vs unmetered");
    EXPECT_FALSE(plain.metrics.enabled());
    ASSERT_TRUE(metered.metrics.enabled());
    EXPECT_FALSE(reg.samples().empty());
    EXPECT_GT(metered.metrics.maxPeak(M::kTwinBytes), 0);
    // Metering composes with tracing without disturbing either.
    obs::TraceRecorder rec;
    obs::MetricsRegistry reg2{sim::usec(200)};
    RunConfig c2 = c;
    c2.trace = &rec;
    RunResult both = runMeteredIs(c2, &reg2);
    expectSameSimResult(plain, both, "traced+metered vs plain");
    EXPECT_FALSE(rec.events().empty());
    // The sampler adds no engine events: the engine_run span closes at the
    // same time with the same event count as in a traced, unsampled run.
    const TracedRun traced = runTracedIs(c);
    const std::vector<obs::Event> events(rec.events().begin(),
                                         rec.events().end());
    const obs::Event& sampled = engineRunEnd(events);
    const obs::Event& unsampled = engineRunEnd(traced.events);
    EXPECT_EQ(sampled.ts, unsampled.ts);
    EXPECT_EQ(sampled.a0, unsampled.a0);
    EXPECT_GT(sampled.a0, 0u);
  }
}

TEST(Metrics, ConservationInvariantsOnRealRuns) {
  // Every app ends with a barrier/release, so all twins must be reclaimed;
  // the engine drains, so no bytes remain queued or in flight.
  struct Case {
    const char* name;
    std::function<RunResult(RunConfig&)> run;
  };
  std::vector<Case> cases = {
      {"is", [](RunConfig& c) {
         return apps::runIs(c, smallIs(), apps::IsVariant::kVopp).result;
       }},
      {"gauss", [](RunConfig& c) {
         apps::GaussParams p;
         p.n = 64;
         return apps::runGauss(c, p, apps::GaussVariant::kVopp).result;
       }},
      {"sor", [](RunConfig& c) {
         apps::SorParams p;
         p.rows = 64;
         p.cols = 48;
         p.iterations = 4;
         return apps::runSor(c, p, apps::SorVariant::kVopp).result;
       }},
      {"nn", [](RunConfig& c) {
         apps::NnParams p;
         p.samples = 64;
         p.epochs = 2;
         return apps::runNn(c, p, apps::NnVariant::kVopp).result;
       }},
  };
  for (const Case& app : cases) {
    for (auto proto : {dsm::Protocol::kVcDiff, dsm::Protocol::kVcSd}) {
      RunConfig c = smallConfig(proto);
      obs::MetricsRegistry reg{sim::usec(200)};
      c.metrics = &reg;
      RunResult r = app.run(c);
      ASSERT_TRUE(r.metrics.enabled()) << app.name;
      for (int node = 0; node < c.nprocs; ++node) {
        const uint32_t n = static_cast<uint32_t>(node);
        EXPECT_EQ(finalOf(r.metrics, n, M::kTwinBytes), 0)
            << app.name << " node " << node << ": live twins after the run";
        EXPECT_EQ(finalOf(r.metrics, n, M::kRxQueueBytes), 0) << app.name;
        EXPECT_EQ(finalOf(r.metrics, n, M::kRxQueueFrames), 0) << app.name;
        EXPECT_EQ(finalOf(r.metrics, n, M::kInflightBytes), 0) << app.name;
      }
      EXPECT_EQ(r.metrics.totalFinal(M::kFrameDrops),
                static_cast<int64_t>(r.net.frames_dropped_overflow +
                                     r.net.frames_dropped_random +
                                     r.net.frames_dropped_fault))
          << app.name;
      EXPECT_GT(r.metrics.totalFinal(M::kDiffsCreated), 0) << app.name;
      EXPECT_GT(r.metrics.totalFinal(M::kTwinReclaimBytes), 0) << app.name;
    }
  }
  // The traditional-IS LRC path exercises lock-interval twins.
  RunConfig c = smallConfig(dsm::Protocol::kLrcDiff);
  obs::MetricsRegistry reg{sim::usec(200)};
  RunResult r = runMeteredIs(c, &reg);
  for (int node = 0; node < c.nprocs; ++node)
    EXPECT_EQ(finalOf(r.metrics, static_cast<uint32_t>(node), M::kTwinBytes),
              0);
}

TEST(Metrics, DropCounterMatchesNetStatsOnLossyRuns) {
  RunConfig c = smallConfig(dsm::Protocol::kVcSd);
  c.net.random_loss = 0.05;
  c.net.rto = sim::msec(20);
  obs::MetricsRegistry reg{sim::usec(200)};
  RunResult r = runMeteredIs(c, &reg);
  const int64_t dropped = static_cast<int64_t>(r.net.frames_dropped_overflow +
                                               r.net.frames_dropped_random +
                                               r.net.frames_dropped_fault);
  EXPECT_GT(dropped, 0) << "lossy run should drop frames";
  EXPECT_EQ(r.metrics.totalFinal(M::kFrameDrops), dropped);
  // Dropped frames left the sender's in-flight gauge too.
  for (int node = 0; node < c.nprocs; ++node)
    EXPECT_EQ(finalOf(r.metrics, static_cast<uint32_t>(node),
                      M::kInflightBytes),
              0);
}

TEST(Metrics, SdHomeGcBoundsDiffStorage) {
  // The paper's memory argument: LRC_d retains every diff it ever made,
  // while the VC_sd home folds superseded versions into one base diff per
  // page. Same app, same size — VC_sd's high-water mark must be lower and
  // its GC must actually reclaim.
  obs::MetricsRegistry lrc_reg;
  RunResult lrc =
      runMeteredIs(smallConfig(dsm::Protocol::kLrcDiff), &lrc_reg);
  obs::MetricsRegistry sd_reg;
  RunResult sd = runMeteredIs(smallConfig(dsm::Protocol::kVcSd), &sd_reg);
  EXPECT_LT(sd.metrics.maxPeak(M::kDiffStoreBytes),
            lrc.metrics.maxPeak(M::kDiffStoreBytes));
  EXPECT_GT(sd.metrics.totalFinal(M::kDiffReclaimBytes), 0);
  EXPECT_EQ(lrc.metrics.totalFinal(M::kDiffReclaimBytes), 0);
  // Retained + reclaimed can never exceed what the store ever accumulated
  // at peak times the node count, but retained alone must sit below LRC's.
  EXPECT_LT(sd.metrics.totalFinal(M::kDiffStoreBytes),
            lrc.metrics.totalFinal(M::kDiffStoreBytes));
}

TEST(Metrics, CsvAndMemstatsDeterministicAcrossHostThreads) {
  // The rendered CSV and summary table — every digit — must not depend on
  // how many host threads ran the cells.
  std::vector<std::function<std::string()>> cells;
  for (auto proto : kAllProtocols)
    cells.push_back([proto] {
      RunConfig c = smallConfig(proto);
      obs::MetricsRegistry reg{sim::usec(200)};
      RunResult r = runMeteredIs(c, &reg);
      std::ostringstream os;
      obs::writeMetricsCsv(os, reg);
      obs::printMemstats(os, r.metrics, "memstats");
      return os.str();
    });
  auto serial = harness::runAll(cells, /*jobs=*/1);
  auto parallel = harness::runAll(cells, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]);
    EXPECT_EQ(serial[i].rfind("t_seconds,node,metric,value\n", 0), 0u);
  }
}

TEST(Metrics, ChromeTraceGainsCounterTracks) {
  RunConfig c = smallConfig(dsm::Protocol::kVcSd);
  obs::TraceRecorder rec(obs::TraceMode::kExport);
  obs::MetricsRegistry reg{sim::usec(200)};
  c.trace = &rec;
  c.metrics = &reg;
  (void)apps::runIs(c, smallIs(), apps::IsVariant::kVopp);

  std::ostringstream with, without;
  obs::writeChromeTrace(with, rec, &reg);
  obs::writeChromeTrace(without, rec);
  const std::string& s = with.str();
  EXPECT_NE(s.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(s.find("\"dsm.twin_bytes\""), std::string::npos);
  EXPECT_NE(s.find("\"net.inflight_bytes\""), std::string::npos);
  EXPECT_EQ(without.str().find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(s.substr(s.size() - 3), "]}\n");
}

}  // namespace
}  // namespace vodsm
