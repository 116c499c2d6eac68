// Persisted run profiles and the differential engine (src/obs/profile.hpp,
// src/obs/profile_diff.hpp):
//
//  * Round trip: write -> load -> write is byte-identical, so a profile can
//    live in git and be compared across commits.
//  * One analysis: a traced run's profile is byte-identical to the one
//    buildRunProfile folds from the same trace with the same net counters.
//  * Purity: a profiled (traced) run's simulated results are bit-identical
//    to an untraced run's, for every protocol.
//  * Determinism: the profile JSON and the differential report are
//    byte-identical across host-thread interleavings (--jobs).
//  * Exactness: on hand-crafted profiles the per-category deltas partition
//    the makespan difference to the nanosecond, and severities are the
//    calibrated fractions of that delta.
//  * Calibration on real runs: comparing 16-processor IS under LRC_d
//    against VC_sd ranks the transfer shift (diff fetch at fault time vs
//    grant-time carriage) as the top finding.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/is.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/run.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/profile_diff.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace vodsm {
namespace {

using harness::RunConfig;
using harness::RunResult;
using support::Json;

apps::IsParams testIs() {
  apps::IsParams p;
  p.n_keys = 1 << 12;
  p.max_key = (1 << 7) - 1;
  p.iterations = 2;
  return p;
}

RunResult runProfiledIs(dsm::Protocol proto, apps::IsVariant variant,
                        int nprocs, apps::IsParams params = testIs()) {
  obs::TraceRecorder rec;
  obs::MetricsRegistry mets;
  RunConfig c;
  c.protocol = proto;
  c.nprocs = nprocs;
  c.trace = &rec;
  c.metrics = &mets;
  return apps::runIs(c, params, variant).result;
}

std::string renderProfile(const obs::RunProfile& p) {
  std::ostringstream os;
  obs::writeRunProfileJson(os, p);
  return os.str();
}

// --- round trip ---------------------------------------------------------

TEST(RunProfile, WriteLoadWriteIsByteIdentical) {
  RunResult r = runProfiledIs(dsm::Protocol::kVcSd, apps::IsVariant::kVopp,
                              /*nprocs=*/4);
  ASSERT_TRUE(r.profile.enabled());
  const std::string first = renderProfile(r.profile);
  const obs::RunProfile loaded = obs::loadRunProfile(Json::parse(first));
  EXPECT_EQ(renderProfile(loaded), first);

  // The document carries the schema marker and the exact makespan.
  Json doc = Json::parse(first);
  EXPECT_EQ(doc.at("profile").asString(), "vodsm_run_profile");
  EXPECT_EQ(static_cast<sim::Time>(doc.at("makespan_ns").asNumber()),
            r.profile.makespan);
  EXPECT_EQ(doc.at("nprocs").asNumber(), 4);
}

TEST(RunProfile, CriticalPathCategoriesPartitionTheMakespan) {
  RunResult r = runProfiledIs(dsm::Protocol::kLrcDiff,
                              apps::IsVariant::kTraditional, /*nprocs=*/4);
  ASSERT_TRUE(r.profile.enabled());
  sim::Time sum = 0;
  for (int c = 0; c < obs::kPathCatCount; ++c) sum += r.profile.critpath[c];
  EXPECT_EQ(sum, r.profile.makespan);
}

// --- one analysis -------------------------------------------------------

TEST(RunProfile, TracedRunProfileMatchesFoldingTheTrace) {
  obs::TraceRecorder rec;
  obs::MetricsRegistry mets;
  RunConfig c;
  c.protocol = dsm::Protocol::kLrcDiff;
  c.nprocs = 4;
  c.trace = &rec;
  c.metrics = &mets;
  const RunResult r =
      apps::runIs(c, testIs(), apps::IsVariant::kTraditional).result;
  ASSERT_TRUE(r.profile.enabled());
  const obs::MetricsSummary summary = mets.summary();
  obs::RunProfile direct =
      obs::buildRunProfile(rec, c.nprocs, r.profile.makespan, &summary);
  // The wire half comes from the transport counters, not the trace.
  direct.has_net = true;
  for (int k = 0; k < obs::kProfileClassCount; ++k) {
    direct.classes[k].messages = r.net.kind[k].messages;
    direct.classes[k].payload_bytes = r.net.kind[k].payload_bytes;
    direct.classes[k].retransmissions = r.net.kind[k].retransmissions;
    direct.classes[k].drops = r.net.kind[k].drops;
  }
  direct.net_messages = r.net.messages;
  direct.net_payload_bytes = r.net.payload_bytes;
  direct.net_retransmissions = r.net.retransmissions;
  direct.net_acks = r.net.acks;
  direct.net_ack_drops = r.net.ack_drops;
  direct.net_frames_sent = r.net.frames_sent;
  direct.net_frames_delivered = r.net.frames_delivered;
  EXPECT_EQ(renderProfile(r.profile), renderProfile(direct));
}

// --- purity -------------------------------------------------------------

TEST(RunProfile, ProfiledRunMatchesUnprofiledRun) {
  for (dsm::Protocol proto : {dsm::Protocol::kLrcDiff, dsm::Protocol::kVcDiff,
                              dsm::Protocol::kVcSd}) {
    const apps::IsVariant variant = proto == dsm::Protocol::kLrcDiff
                                        ? apps::IsVariant::kTraditional
                                        : apps::IsVariant::kVopp;
    RunConfig plain_cfg;
    plain_cfg.protocol = proto;
    plain_cfg.nprocs = 4;
    RunResult plain = apps::runIs(plain_cfg, testIs(), variant).result;
    RunResult profiled = runProfiledIs(proto, variant, /*nprocs=*/4);
    EXPECT_FALSE(plain.profile.enabled());
    ASSERT_TRUE(profiled.profile.enabled());
    EXPECT_EQ(plain.seconds, profiled.seconds);
    EXPECT_EQ(plain.net.messages, profiled.net.messages);
    EXPECT_EQ(plain.net.payload_bytes, profiled.net.payload_bytes);
    EXPECT_EQ(plain.dsm.barriers, profiled.dsm.barriers);
    EXPECT_EQ(plain.dsm.acquires, profiled.dsm.acquires);
    EXPECT_EQ(plain.dsm.diff_requests, profiled.dsm.diff_requests);
  }
}

// --- determinism --------------------------------------------------------

TEST(RunProfile, ProfileAndReportAreByteIdenticalAcrossHostThreads) {
  const RunResult base = runProfiledIs(dsm::Protocol::kLrcDiff,
                                       apps::IsVariant::kTraditional,
                                       /*nprocs=*/4);
  const RunResult cand = runProfiledIs(dsm::Protocol::kVcSd,
                                       apps::IsVariant::kVopp, /*nprocs=*/4);
  auto renderDiff = [](const obs::RunProfile& a, const obs::RunProfile& b) {
    const obs::DiffReport rep = obs::diffProfiles(a, b);
    std::ostringstream os;
    obs::printDiffReport(os, rep, "test");
    obs::writeDiffReportJson(os, rep);
    return os.str();
  };
  const std::string reference =
      renderProfile(base.profile) + renderDiff(base.profile, cand.profile);
  std::vector<std::string> rendered(3);
  harness::ParallelRunner(3).forEach(rendered.size(), [&](size_t i) {
    const RunResult a = runProfiledIs(dsm::Protocol::kLrcDiff,
                                      apps::IsVariant::kTraditional,
                                      /*nprocs=*/4);
    const RunResult b = runProfiledIs(dsm::Protocol::kVcSd,
                                      apps::IsVariant::kVopp, /*nprocs=*/4);
    rendered[i] = renderProfile(a.profile) + renderDiff(a.profile, b.profile);
  });
  for (const std::string& r : rendered) EXPECT_EQ(r, reference);
}

// --- exactness on hand-crafted profiles ---------------------------------

// Two synthetic profiles whose critical paths partition their makespans
// exactly, differing by precisely known amounts: fault +500us and
// barrier_wait +100us (delta = +600us), plus one aligned barrier episode
// whose imbalance gap grows by 200us.
obs::RunProfile craftedA() {
  obs::RunProfile p;
  p.on = true;
  p.label = "A";
  p.nprocs = 4;
  p.makespan = 1'000'000;
  p.critpath[static_cast<int>(obs::PathCat::kCompute)] = 600'000;
  p.critpath[static_cast<int>(obs::PathCat::kFault)] = 250'000;
  p.critpath[static_cast<int>(obs::PathCat::kBarrierWait)] = 150'000;
  p.episodes_total = 1;
  obs::ProfileEpisode e;
  e.barrier = 7;
  e.episode = 0;
  e.slow_node = 2;
  e.first = 0;
  e.second = 10'000;
  e.last = 20'000;  // gap 10us
  e.release = 25'000;
  p.episodes.push_back(e);
  return p;
}

obs::RunProfile craftedB() {
  obs::RunProfile p = craftedA();
  p.label = "B";
  p.makespan = 1'600'000;
  p.critpath[static_cast<int>(obs::PathCat::kFault)] = 750'000;
  p.critpath[static_cast<int>(obs::PathCat::kBarrierWait)] = 250'000;
  p.episodes[0].slow_node = 3;
  p.episodes[0].last = 220'000;  // gap 210us: +200us vs A
  p.episodes[0].release = 230'000;
  return p;
}

TEST(DiffReport, HandCraftedDeltasAreNanosecondExact) {
  const obs::RunProfile a = craftedA();
  const obs::RunProfile b = craftedB();
  const obs::DiffReport r = obs::diffProfiles(a, b);
  ASSERT_TRUE(r.enabled());
  EXPECT_EQ(r.delta, 600'000);

  // The per-category deltas partition the makespan delta exactly.
  sim::Time sum = 0;
  for (int c = 0; c < obs::kPathCatCount; ++c)
    sum += r.cat_b[c] - r.cat_a[c];
  EXPECT_EQ(sum, r.delta);
  EXPECT_EQ(r.cat_b[static_cast<int>(obs::PathCat::kFault)] -
                r.cat_a[static_cast<int>(obs::PathCat::kFault)],
            500'000);
  EXPECT_EQ(r.cat_b[static_cast<int>(obs::PathCat::kBarrierWait)] -
                r.cat_a[static_cast<int>(obs::PathCat::kBarrierWait)],
            100'000);

  // Three findings, ranked: the fault service delta (0.95 * 500/600),
  // the episode gap growth (0.9 * 200/600), the barrier-wait symptom
  // (0.5 * 100/600).
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].cat, obs::FindingCat::kPathDelta);
  EXPECT_EQ(r.findings[0].location, "critical path: fault");
  EXPECT_DOUBLE_EQ(r.findings[0].severity, 0.95 * (500'000.0 / 600'000.0));
  EXPECT_EQ(r.findings[1].cat, obs::FindingCat::kEpisodeDelta);
  EXPECT_EQ(r.findings[1].location, "barrier 7 episode 0");
  EXPECT_EQ(r.findings[1].node, 3);
  EXPECT_DOUBLE_EQ(r.findings[1].severity, 0.9 * (200'000.0 / 600'000.0));
  EXPECT_EQ(r.findings[2].cat, obs::FindingCat::kPathDelta);
  EXPECT_EQ(r.findings[2].location, "critical path: barrier_wait");
  EXPECT_DOUBLE_EQ(r.findings[2].severity, 0.5 * (100'000.0 / 600'000.0));
  EXPECT_EQ(r.top(), &r.findings[0]);
}

TEST(DiffReport, IdenticalProfilesProduceNoFindings) {
  const obs::RunProfile a = craftedA();
  const obs::DiffReport r = obs::diffProfiles(a, a);
  EXPECT_EQ(r.delta, 0);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.top(), nullptr);
}

TEST(DiffReport, StructureMismatchIsFlagged) {
  const obs::RunProfile a = craftedA();
  obs::RunProfile b = craftedA();
  b.nprocs = 8;
  const obs::DiffReport r = obs::diffProfiles(a, b);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].cat, obs::FindingCat::kStructureDelta);
}

// --- calibration on real runs -------------------------------------------

TEST(DiffReport, LrcVsVcSdTopFindingIsTheTransferShift) {
  // The paper's central comparison at 16 processors: LRC_d fetches diffs at
  // fault time, VC_sd carries them on the grant. The differential engine
  // must name that protocol-point shift as the top finding, ahead of the
  // category/page/wire deltas it manifests as. Needs enough keys per page
  // for fault service to dominate LRC_d (at toy sizes VC_sd's extra
  // barriers win instead), so this test runs one bench-scale cell pair.
  apps::IsParams params;
  params.max_key = (1u << 13) - 1;
  params.n_keys = 1u << 20;
  params.iterations = 10;
  RunResult lrc = runProfiledIs(dsm::Protocol::kLrcDiff,
                                apps::IsVariant::kTraditional,
                                /*nprocs=*/16, params);
  RunResult vcsd = runProfiledIs(dsm::Protocol::kVcSd, apps::IsVariant::kVopp,
                                 /*nprocs=*/16, params);
  const obs::DiffReport r = obs::diffProfiles(lrc.profile, vcsd.profile);
  ASSERT_FALSE(r.findings.empty());
  std::ostringstream os;
  obs::printDiffReport(os, r, "LRC_d vs VC_sd");
  EXPECT_EQ(r.top()->cat, obs::FindingCat::kTransferShift) << os.str();
  EXPECT_LT(r.makespan_b, r.makespan_a) << os.str();
}

}  // namespace
}  // namespace vodsm
