// Diagnosis contracts (see src/obs/diagnose.hpp):
//
//  * Pass mechanics: the pass list holds the ten built-in passes, and
//    rankFindings sorts findings by severity then category then location.
//  * One analysis: a diagnosed run's result.diagnosis is the report that
//    obs::diagnose builds from the run's trace with the same hooks.
//  * Exactness on hand-crafted streams: the imbalance, grant-storm, and
//    partition detectors report the precisely-known gap, id, window, and
//    attribution encoded in a synthetic trace — and the partition's own
//    drops are never double-claimed by the retransmission-storm pass.
//  * Root causes outrank symptoms: for each injected-fault profile of the
//    chaos PR gate, the TOP-ranked finding on a real run names the injected
//    fault class and its location (straggler -> the slow node, partition ->
//    the cut node and a window inside the injected interval, loss -> a
//    retransmission storm, single-link degrade -> that link).
//  * Determinism: the rendered report (text + JSON) is byte-identical
//    across host-thread interleavings (--jobs), and a diagnosed run's
//    simulated results are bit-identical to an undiagnosed run's.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "apps/is.hpp"
#include "dsm/msgs.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/run.hpp"
#include "net/faults.hpp"
#include "obs/diagnose.hpp"
#include "obs/metrics.hpp"
#include "obs/passes/passes.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace vodsm {
namespace {

using harness::RunConfig;
using harness::RunResult;
using support::Json;

const obs::Finding* findCat(const obs::Diagnosis& d, obs::FindingCat c) {
  for (const obs::Finding& f : d.findings)
    if (f.cat == c) return &f;
  return nullptr;
}

std::string render(const obs::Diagnosis& d) {
  std::ostringstream os;
  obs::printDiagnosis(os, d, "test");
  obs::writeDiagnosisJson(os, d);
  return os.str();
}

// --- pass framework ----------------------------------------------------

TEST(Diagnoser, DefaultCatalogIsLoaded) {
  EXPECT_EQ(std::size(obs::passes::kPasses), 10u);
}

TEST(Diagnoser, FindingsRankBySeverityThenCategoryThenLocation) {
  obs::Finding weak;
  weak.cat = obs::FindingCat::kPartition;  // best category, worst severity
  weak.severity = 0.1;
  weak.location = "a";
  obs::Finding strong;
  strong.cat = obs::FindingCat::kHotspot;  // worst category, best severity
  strong.severity = 0.9;
  strong.location = "b";
  obs::Finding tied;  // ties with `strong` on severity; better category
  tied.cat = obs::FindingCat::kStraggler;
  tied.severity = 0.9;
  tied.location = "c";

  obs::Finding over;  // out of range: clamped to 1, so it ranks first
  over.cat = obs::FindingCat::kHotspot;
  over.severity = 1.5;
  over.location = "d";

  std::vector<obs::Finding> findings{weak, strong, tied, over};
  obs::rankFindings(findings);
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].location, "d");
  EXPECT_DOUBLE_EQ(findings[0].severity, 1.0);
  EXPECT_EQ(findings[1].cat, obs::FindingCat::kStraggler);
  EXPECT_EQ(findings[2].cat, obs::FindingCat::kHotspot);
  EXPECT_EQ(findings[3].cat, obs::FindingCat::kPartition);
}

TEST(Diagnoser, HealthyReportSaysSo) {
  obs::Diagnosis d;
  d.on = true;
  d.makespan = sim::usec(100);
  d.nprocs = 4;
  std::ostringstream os;
  obs::printDiagnosis(os, d, "healthy run");
  EXPECT_NE(os.str().find("no significant pattern detected"),
            std::string::npos);
  EXPECT_EQ(d.top(), nullptr);
}

TEST(Diagnoser, JsonEscapesAndParsesBack) {
  obs::Diagnosis d;
  d.on = true;
  d.makespan = sim::msec(5);
  d.nprocs = 3;
  obs::Finding f;
  f.cat = obs::FindingCat::kGrantStorm;
  f.severity = 0.25;
  f.location = "id \"7\" \\ strange\nname\ttab";
  f.node = 2;
  f.id = 7;
  f.window_begin = sim::usec(10);
  f.window_end = sim::usec(20);
  f.evidence = "because";
  f.remedy = "try things";
  d.findings.push_back(f);

  std::ostringstream os;
  obs::writeDiagnosisJson(os, d);
  Json doc = Json::parse(os.str());
  EXPECT_DOUBLE_EQ(doc.at("makespan_seconds").asNumber(), 0.005);
  EXPECT_EQ(doc.at("nprocs").asNumber(), 3);
  const auto& items = doc.at("findings").items();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].at("rank").asNumber(), 1);
  EXPECT_EQ(items[0].at("category").asString(), "grant_storm");
  EXPECT_DOUBLE_EQ(items[0].at("severity").asNumber(), 0.25);
  EXPECT_EQ(items[0].at("location").asString(),
            "id \"7\" \\ strange\nname\ttab");
  EXPECT_EQ(items[0].at("node").asNumber(), 2);
  EXPECT_DOUBLE_EQ(items[0].at("window_begin_seconds").asNumber(), 1e-5);
}

// --- exactness on hand-crafted streams ---------------------------------

TEST(DiagnosePasses, ImbalanceAttributesTheExactGap) {
  // Two nodes, one barrier episode. Node 0 arrives at t=20us; node 1
  // arrives at t=70us after a fault span [30, 60]. The imbalance gap is
  // exactly 50us = 30us fault/diff + 20us compute, window [20, 70].
  obs::TraceRecorder rec;
  auto us = [](int64_t n) { return sim::usec(n); };
  rec.begin(0, obs::Cat::kProgram, us(0));
  rec.begin(1, obs::Cat::kProgram, us(0));
  rec.begin(0, obs::Cat::kBarrierWait, us(20), /*barrier=*/0);
  rec.begin(1, obs::Cat::kFault, us(30), /*page=*/7);
  rec.end(1, obs::Cat::kFault, us(60), 7);
  rec.begin(1, obs::Cat::kBarrierWait, us(70), 0);
  rec.instant(0, obs::Cat::kBarrFold, us(71), 0, /*notices=*/0);
  rec.instant(0, obs::Cat::kBarrFold, us(72), 0, 0);
  rec.end(1, obs::Cat::kBarrierWait, us(80), 0);
  rec.end(0, obs::Cat::kBarrierWait, us(80), 0);
  rec.end(1, obs::Cat::kProgram, us(90));
  rec.end(0, obs::Cat::kProgram, us(100));

  obs::Diagnosis d = obs::diagnose(rec, /*nprocs=*/2, us(100));
  ASSERT_TRUE(d.enabled());
  const obs::Finding* f = findCat(d, obs::FindingCat::kLoadImbalance);
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->severity, 0.5);  // 50us of a 100us makespan
  EXPECT_EQ(f->node, 1);
  EXPECT_EQ(f->id, 0);
  EXPECT_EQ(f->window_begin, us(20));
  EXPECT_EQ(f->window_end, us(70));
  EXPECT_EQ(f->location, "barrier 0 episode 0, node 1");
  // 30us of the gap was fault service, 20us plain compute — so the remedy
  // points at fault/diff, not at work placement.
  EXPECT_NE(f->evidence.find("20.00 us compute"), std::string::npos)
      << f->evidence;
  EXPECT_NE(f->evidence.find("30.00 us fault/diff"), std::string::npos)
      << f->evidence;
  EXPECT_NE(f->remedy.find("fault/diff"), std::string::npos);
}

TEST(DiagnosePasses, GrantStormNamesTheIdAndManager) {
  // One id (5) granted 6 times from manager node 0 to both nodes: over the
  // 2*nprocs grant threshold with every node a requester.
  obs::TraceRecorder rec;
  auto us = [](int64_t n) { return sim::usec(n); };
  rec.begin(0, obs::Cat::kProgram, us(0));
  rec.begin(1, obs::Cat::kProgram, us(0));
  for (int i = 0; i < 6; ++i)
    rec.instant(0, obs::Cat::kGrant, us(10 + i * 10), /*id=*/5,
                /*requester=*/static_cast<uint64_t>(i % 2));
  rec.end(0, obs::Cat::kProgram, us(100));
  rec.end(1, obs::Cat::kProgram, us(100));

  obs::Diagnosis d = obs::diagnose(rec, /*nprocs=*/2, us(100));
  const obs::Finding* f = findCat(d, obs::FindingCat::kGrantStorm);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->location, "id 5 (manager node 0)");
  EXPECT_EQ(f->node, 0);
  EXPECT_EQ(f->id, 5);
  EXPECT_NE(f->evidence.find("granted 6 times to 2 distinct requesters"),
            std::string::npos)
      << f->evidence;
}

TEST(DiagnosePasses, PartitionClaimsItsDropsExactlyOnce) {
  // Three nodes; four drops in [10us, 20us], every one involving node 1
  // (as sender or receiver), all four flows recovered by t=40us. That is a
  // partition of node 1 with window [10, 20] and severity
  // (recovery - t0) / finish = (40 - 10) / 100 = 0.3 — and because the
  // partition claims those flows, the retransmission-storm pass must stay
  // silent rather than re-reporting the same drops.
  obs::TraceRecorder rec;
  auto us = [](int64_t n) { return sim::usec(n); };
  for (uint32_t n = 0; n < 3; ++n) rec.begin(n, obs::Cat::kProgram, us(0));

  struct Wire {
    uint32_t src, dst;
    int64_t send_us, drop_us, deliver_us;
    uint64_t corr;
  };
  const std::vector<Wire> wires = {{1, 0, 9, 10, 35, 101},
                                   {1, 2, 11, 12, 36, 102},
                                   {0, 1, 14, 15, 38, 103},
                                   {2, 1, 18, 20, 40, 104}};
  for (const Wire& w : wires) {
    rec.instant(w.src, obs::Cat::kSend, us(w.send_us), /*type=*/0,
                /*bytes=*/256, w.corr);
    rec.instant(w.dst, obs::Cat::kDrop, us(w.drop_us), /*sender=*/w.src,
                /*bytes=*/256, w.corr);
    rec.instant(w.dst, obs::Cat::kDeliver, us(w.deliver_us), /*kind=*/0,
                /*bytes=*/256, w.corr);
  }
  for (uint32_t n = 0; n < 3; ++n) rec.end(n, obs::Cat::kProgram, us(100));

  obs::Diagnosis d = obs::diagnose(rec, /*nprocs=*/3, us(100));
  const obs::Finding* f = findCat(d, obs::FindingCat::kPartition);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->node, 1);
  EXPECT_EQ(f->window_begin, us(10));
  EXPECT_EQ(f->window_end, us(20));
  EXPECT_DOUBLE_EQ(f->severity, 0.3);
  EXPECT_NE(f->location.find("node 1 cut off"), std::string::npos);
  EXPECT_NE(f->evidence.find("4 of 4 dropped frames"), std::string::npos)
      << f->evidence;
  EXPECT_EQ(findCat(d, obs::FindingCat::kRetransmitStorm), nullptr)
      << "the storm pass re-claimed the partition's drops";
}

// --- injected-fault profiles: the top finding names the fault -----------

apps::IsParams diagIs() {
  apps::IsParams p;
  p.n_keys = 1 << 12;
  p.max_key = (1 << 7) - 1;
  p.iterations = 2;
  return p;
}

constexpr int kDiagProcs = 4;

struct DiagRun {
  RunResult result;
  std::string rendered;  // text report + JSON, for byte comparison
};

DiagRun runDiagnosedIs(const std::string& spec) {
  net::FaultPlan plan;
  if (!spec.empty()) plan = net::parseFaultPlan(spec);
  obs::TraceRecorder rec;
  obs::MetricsRegistry mets;
  RunConfig c;
  c.protocol = dsm::Protocol::kVcSd;
  c.nprocs = kDiagProcs;
  if (!spec.empty()) c.faults = &plan;
  c.trace = &rec;
  c.metrics = &mets;
  c.diagnose = true;
  RunResult r = apps::runIs(c, diagIs(), apps::IsVariant::kVopp).result;
  return {std::move(r), render(r.diagnosis)};
}

TEST(DiagnoseProfiles, StragglerTopFindingNamesTheSlowNode) {
  DiagRun run = runDiagnosedIs("slow:node=1,factor=6,t0=0.001,t1=0.25");
  ASSERT_TRUE(run.result.diagnosis.enabled());
  const obs::Finding* top = run.result.diagnosis.top();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->cat, obs::FindingCat::kStraggler) << run.rendered;
  EXPECT_EQ(top->node, 1) << run.rendered;
}

TEST(DiagnoseProfiles, PartitionTopFindingNamesTheCutNodeAndWindow) {
  DiagRun run = runDiagnosedIs("partition:nodes=1,t0=0.002,t1=0.012");
  const obs::Finding* top = run.result.diagnosis.top();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->cat, obs::FindingCat::kPartition) << run.rendered;
  EXPECT_EQ(top->node, 1) << run.rendered;
  // The detected drop window sits inside the injected [2ms, 12ms] cut
  // (drops stop as soon as the senders back off into retransmit timers, so
  // the window may end well before the cut heals).
  EXPECT_GE(top->window_begin, sim::msec(2)) << run.rendered;
  EXPECT_LE(top->window_end, sim::msec(12)) << run.rendered;
}

TEST(DiagnoseProfiles, LossTopFindingIsARetransmissionStorm) {
  DiagRun run = runDiagnosedIs("loss:p=0.01");
  const obs::Finding* top = run.result.diagnosis.top();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->cat, obs::FindingCat::kRetransmitStorm) << run.rendered;
}

TEST(DiagnoseProfiles, DegradedLinkTopFindingNamesTheLink) {
  DiagRun run = runDiagnosedIs("degrade:bw=8,to=2");
  const obs::Finding* top = run.result.diagnosis.top();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->cat, obs::FindingCat::kDegradedLink) << run.rendered;
  EXPECT_EQ(top->node, 2) << run.rendered;
  EXPECT_NE(top->location.find("downlink to node 2"), std::string::npos)
      << run.rendered;
}

TEST(DiagnoseProfiles, FaultFreeRunHasNoFaultFindings) {
  DiagRun run = runDiagnosedIs("");
  ASSERT_TRUE(run.result.diagnosis.enabled());
  EXPECT_EQ(findCat(run.result.diagnosis, obs::FindingCat::kPartition),
            nullptr);
  EXPECT_EQ(findCat(run.result.diagnosis, obs::FindingCat::kStraggler),
            nullptr);
  EXPECT_EQ(findCat(run.result.diagnosis, obs::FindingCat::kDegradedLink),
            nullptr);
  EXPECT_EQ(findCat(run.result.diagnosis, obs::FindingCat::kRetransmitStorm),
            nullptr);
  // The report's JSON half parses and mirrors the findings list.
  std::ostringstream os;
  obs::writeDiagnosisJson(os, run.result.diagnosis);
  Json doc = Json::parse(os.str());
  EXPECT_EQ(doc.at("findings").items().size(),
            run.result.diagnosis.findings.size());
  EXPECT_EQ(doc.at("nprocs").asNumber(), kDiagProcs);
}

// --- determinism --------------------------------------------------------

TEST(DiagnoseDeterminism, ReportIsByteIdenticalAcrossHostThreads) {
  // The same diagnosed cell swept under a multi-threaded host runner (the
  // --jobs path): every interleaving must render the identical report.
  DiagRun reference = runDiagnosedIs("loss:p=0.01");
  std::vector<std::string> rendered(3);
  harness::ParallelRunner(3).forEach(rendered.size(), [&](size_t i) {
    rendered[i] = runDiagnosedIs("loss:p=0.01").rendered;
  });
  for (const std::string& r : rendered) EXPECT_EQ(r, reference.rendered);
}

TEST(DiagnoseDeterminism, RunDiagnosisMatchesDiagnosingTheTrace) {
  // The run builds its analysis once and hands the same folds to the
  // passes; diagnosing the recorded trace from scratch, with the hooks the
  // cluster wires, must render the identical report. The faults make the
  // flow fold (partition, loss) and both hooks plus the metrics (degraded
  // link) decide findings.
  for (const char* spec :
       {"profile:partition", "loss:p=0.01", "degrade:bw=8,to=2"}) {
    const net::FaultPlan plan = net::parseFaultPlan(spec);
    obs::TraceRecorder rec;
    obs::MetricsRegistry mets;
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = kDiagProcs;
    c.faults = &plan;
    c.trace = &rec;
    c.metrics = &mets;
    c.diagnose = true;
    const RunResult r =
        apps::runIs(c, diagIs(), apps::IsVariant::kVopp).result;
    ASSERT_TRUE(r.diagnosis.enabled()) << spec;
    ASSERT_FALSE(r.diagnosis.findings.empty()) << spec;
    const obs::MetricsSummary summary = mets.summary();
    const net::NetConfig net = c.net;
    const obs::Diagnosis direct = obs::diagnose(
        rec, c.nprocs, r.profile.makespan, &summary,
        [](uint64_t type) {
          return static_cast<obs::WireClass>(
              dsm::classifyMsg(static_cast<uint16_t>(type)));
        },
        [net](uint64_t bytes) {
          return net.txTime(static_cast<size_t>(bytes));
        });
    EXPECT_EQ(render(r.diagnosis), render(direct)) << spec;
  }
}

TEST(DiagnoseDeterminism, DiagnosedRunMatchesUndiagnosedRun) {
  const net::FaultPlan plan = net::parseFaultPlan("loss:p=0.01");
  auto once = [&](bool diagnose, obs::TraceRecorder* rec,
                  obs::MetricsRegistry* mets) {
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = kDiagProcs;
    c.faults = &plan;
    c.trace = rec;
    c.metrics = mets;
    c.diagnose = diagnose;
    return apps::runIs(c, diagIs(), apps::IsVariant::kVopp).result;
  };
  RunResult plain = once(false, nullptr, nullptr);
  obs::TraceRecorder rec;
  obs::MetricsRegistry mets;
  RunResult diagnosed = once(true, &rec, &mets);
  EXPECT_FALSE(plain.diagnosis.enabled());
  EXPECT_TRUE(diagnosed.diagnosis.enabled());
  EXPECT_EQ(plain.seconds, diagnosed.seconds);
  EXPECT_EQ(plain.net.messages, diagnosed.net.messages);
  EXPECT_EQ(plain.net.payload_bytes, diagnosed.net.payload_bytes);
  EXPECT_EQ(plain.net.retransmissions, diagnosed.net.retransmissions);
  EXPECT_EQ(plain.dsm.barriers, diagnosed.dsm.barriers);
  EXPECT_EQ(plain.dsm.acquires, diagnosed.dsm.acquires);
}

}  // namespace
}  // namespace vodsm
