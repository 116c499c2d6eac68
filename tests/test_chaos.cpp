// Chaos suite: every app under every protocol must survive injected
// network and node faults with its results intact and its books balanced.
//
// Each cell runs one small app instance (4 processors, centralized barrier)
// under one chaos profile and one seed, traced and metered, and asserts:
//
//  * the run terminates and its result matches the serial reference
//    bit for bit (faults may change timing, never answers);
//  * the frame books reconcile exactly: delivered + dropped equals
//    sent + duplicated, per-class drops plus ack drops equal the three
//    drop counters, and the metrics registry agrees with NetStats;
//  * the critical-path attribution still partitions the makespan to the
//    nanosecond on a faulted, traced run.
//
// The PR gate sweeps 3 profiles x 3 seeds; the nightly chaos workflow
// extends the sweep via VODSM_CHAOS_PROFILES=all / VODSM_CHAOS_SEEDS=N and
// collects failing-run traces, diagnosis JSONs, and repro lines under
// VODSM_CHAOS_ARTIFACTS (see .github/workflows/chaos.yml). A fixed set of
// 8-processor cells runs the same assertions under the scalable barriers
// (tree: two levels; butterfly: three rounds, with early-round parking),
// so their fan-in/fan-out paths also see retransmissions and partitions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "apps/nn.hpp"
#include "apps/sor.hpp"
#include "harness/run.hpp"
#include "net/faults.hpp"
#include "obs/diagnose.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/trace.hpp"

namespace vodsm {
namespace {

using harness::RunConfig;
using harness::RunResult;

constexpr int kChaosProcs = 4;

struct ChaosParam {
  std::string app;      // is | gauss | sor | nn
  dsm::Protocol proto;  // kLrcDiff runs the traditional variant
  std::string profile;  // chaos profile name (net::chaosProfileSpec)
  uint64_t seed;
  dsm::BarrierAlg barrier = dsm::BarrierAlg::kCentral;
  int nprocs = kChaosProcs;
};

std::string protoName(dsm::Protocol p) {
  switch (p) {
    case dsm::Protocol::kLrcDiff: return "lrc_d";
    case dsm::Protocol::kVcDiff: return "vc_d";
    case dsm::Protocol::kVcSd: return "vc_sd";
  }
  return "?";
}

std::string paramName(const testing::TestParamInfo<ChaosParam>& info) {
  const ChaosParam& p = info.param;
  std::string name = p.app + "_" + protoName(p.proto) + "_" + p.profile +
                     "_s" + std::to_string(p.seed);
  if (p.barrier != dsm::BarrierAlg::kCentral)
    name += std::string("_") + dsm::barrierAlgName(p.barrier) + "_" +
            std::to_string(p.nprocs) + "p";
  return name;
}

// Problem sizes chosen so one cell simulates in well under a second of
// host time while still crossing every protocol path a few times.
apps::IsParams chaosIs() {
  apps::IsParams p;
  p.n_keys = 1 << 10;
  p.max_key = (1 << 7) - 1;
  p.iterations = 2;
  return p;
}

apps::GaussParams chaosGauss() {
  apps::GaussParams p;
  p.n = 32;
  return p;
}

apps::SorParams chaosSor() {
  apps::SorParams p;
  p.rows = 32;
  p.cols = 32;
  p.iterations = 2;
  return p;
}

apps::NnParams chaosNn() {
  apps::NnParams p;
  p.samples = 16;
  p.epochs = 2;
  p.hidden = 8;
  return p;
}

// The sweep axes, extendable for the nightly run without recompiling.
std::vector<std::string> sweepProfiles() {
  const char* env = std::getenv("VODSM_CHAOS_PROFILES");
  if (!env || !*env) return {"lossy", "partition", "straggler"};
  if (std::string(env) == "all") return net::chaosProfileNames();
  std::vector<std::string> out;
  std::string cur;
  for (const char* c = env;; ++c) {
    if (*c == ',' || *c == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*c == '\0') break;
    } else {
      cur.push_back(*c);
    }
  }
  return out;
}

int sweepSeeds() {
  const char* env = std::getenv("VODSM_CHAOS_SEEDS");
  if (!env || !*env) return 3;
  const int n = std::atoi(env);
  return n > 0 ? n : 3;
}

std::vector<ChaosParam> sweep() {
  const std::vector<dsm::Protocol> protos = {
      dsm::Protocol::kLrcDiff, dsm::Protocol::kVcDiff, dsm::Protocol::kVcSd};
  std::vector<ChaosParam> out;
  for (const char* app : {"is", "gauss", "sor", "nn"})
    for (dsm::Protocol proto : protos)
      for (const std::string& profile : sweepProfiles())
        for (int s = 0; s < sweepSeeds(); ++s)
          out.push_back({app, proto, profile, static_cast<uint64_t>(s + 1)});
  for (dsm::BarrierAlg barrier :
       {dsm::BarrierAlg::kTree, dsm::BarrierAlg::kButterfly})
    for (dsm::Protocol proto : protos)
      for (const char* app : {"is", "sor"})
        for (const char* profile : {"lossy", "partition"})
          out.push_back({app, proto, profile, 1, barrier, 8});
  return out;
}

class ChaosSweep : public testing::TestWithParam<ChaosParam> {
 protected:
  // On failure, drop the run's trace, its ranked diagnosis, and an exact
  // repro line where the nightly workflow can pick them up as artifacts —
  // the diagnosis is the "why was this cell slow/broken" head start for
  // whoever picks the bundle up.
  void TearDown() override {
    const char* dir = std::getenv("VODSM_CHAOS_ARTIFACTS");
    if (!HasFailure() || !dir || !*dir) return;
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info->name();  // "Suite/cell" -> "Suite_cell"
    for (char& ch : name)
      if (ch == '/') ch = '_';
    const std::string stem = std::string(dir) + "/" + name;
    {
      std::ofstream out(stem + ".trace.json");
      obs::writeChromeTrace(out, trace_);
    }
    if (diagnosis_.enabled()) {
      std::ofstream out(stem + ".diagnosis.json");
      obs::writeDiagnosisJson(out, diagnosis_);
    }
    std::ofstream repro(stem + ".repro.txt");
    repro << "tests/test_chaos --gtest_filter=" << info->test_suite_name()
          << "." << info->name() << "\n"
          << "faults spec: " << spec_ << " (seed " << GetParam().seed
          << ", " << GetParam().nprocs << " procs, "
          << dsm::barrierAlgName(GetParam().barrier) << " barrier)\n";
  }

  obs::TraceRecorder trace_{obs::TraceMode::kExport};  // written on failure
  obs::Diagnosis diagnosis_;
  std::string spec_;
};

TEST_P(ChaosSweep, SurvivesWithBooksBalanced) {
  const ChaosParam& param = GetParam();
  spec_ = "profile:" + param.profile;
  const net::FaultPlan plan = net::parseFaultPlan(spec_);

  obs::MetricsRegistry reg;  // aggregates only; no sampler
  RunConfig c;
  c.protocol = param.proto;
  c.nprocs = param.nprocs;
  c.barrier = param.barrier;
  c.seed = param.seed;
  c.faults = &plan;
  c.trace = &trace_;
  c.metrics = &reg;
  c.diagnose = true;

  // Faults may change timing, never answers: every app's output matches
  // its serial reference.
  const bool traditional = param.proto == dsm::Protocol::kLrcDiff;
  RunResult r;
  if (param.app == "is") {
    apps::IsParams p = chaosIs();
    apps::IsRun run = apps::runIs(
        c, p,
        traditional ? apps::IsVariant::kTraditional : apps::IsVariant::kVopp);
    EXPECT_EQ(run.rank_sums, apps::isSerialRankSums(p, c.nprocs));
    r = run.result;
  } else if (param.app == "gauss") {
    apps::GaussParams p = chaosGauss();
    apps::GaussRun run =
        apps::runGauss(c, p,
                       traditional ? apps::GaussVariant::kTraditional
                                   : apps::GaussVariant::kVopp);
    EXPECT_EQ(run.checksum, apps::gaussSerialChecksum(p));
    r = run.result;
  } else if (param.app == "sor") {
    apps::SorParams p = chaosSor();
    apps::SorRun run =
        apps::runSor(c, p,
                     traditional ? apps::SorVariant::kTraditional
                                 : apps::SorVariant::kVopp);
    EXPECT_EQ(run.checksum, apps::sorSerialChecksum(p));
    r = run.result;
  } else {
    apps::NnParams p = chaosNn();
    apps::NnRun run = apps::runNn(
        c, p,
        traditional ? apps::NnVariant::kTraditional : apps::NnVariant::kVopp);
    EXPECT_EQ(run.checksum, apps::nnSerialChecksum(p, c.nprocs));
    r = run.result;
  }
  diagnosis_ = r.diagnosis;

  // The run terminated (Engine::run drained) with positive simulated time.
  EXPECT_GT(r.seconds, 0.0);

  // The diagnoser ran over the faulted trace and produced a well-formed
  // report (its findings are the failure bundle's first lead).
  ASSERT_TRUE(r.diagnosis.enabled());
  EXPECT_EQ(r.diagnosis.nprocs, c.nprocs);

  // Frame conservation: everything sent was delivered or accounted to
  // exactly one drop counter; switch-made duplicates enter the books too.
  const net::NetStats& s = r.net;
  const uint64_t drops = s.frames_dropped_overflow + s.frames_dropped_random +
                         s.frames_dropped_fault;
  EXPECT_EQ(s.frames_delivered + drops, s.frames_sent + s.frames_duplicated);

  // Per-class attribution reconciles with the global counters exactly.
  uint64_t class_drops = 0, class_rexmit = 0, class_msgs = 0;
  for (int k = 0; k < net::kMsgClassCount; ++k) {
    class_drops += s.kind[k].drops;
    class_rexmit += s.kind[k].retransmissions;
    class_msgs += s.kind[k].messages;
  }
  EXPECT_EQ(class_drops + s.ack_drops, drops);
  EXPECT_EQ(class_rexmit, s.retransmissions);
  EXPECT_EQ(class_msgs, s.messages);

  // The metrics registry saw the same drops the network counted.
  ASSERT_TRUE(r.metrics.enabled());
  EXPECT_EQ(r.metrics.totalFinal(obs::Metric::kFrameDrops),
            static_cast<int64_t>(drops));
  // Nothing left in flight once the run drained.
  EXPECT_EQ(r.metrics.totalFinal(obs::Metric::kInflightBytes), 0);

  // Critical-path attribution still partitions the faulted makespan.
  ASSERT_TRUE(r.critpath.enabled());
  EXPECT_EQ(r.critpath.total(), r.critpath.makespan);

  // Profile-specific sanity, only where firing is deterministic: the
  // partition window overlaps every run; probabilistic profiles (flaky's
  // 2% dup rate, say) may legitimately draw nothing on a tiny run.
  if (param.profile == "partition") {
    EXPECT_GT(s.frames_dropped_fault, 0u) << "partition window never hit";
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ChaosSweep, testing::ValuesIn(sweep()),
                         paramName);

// Replaying one faulted cell with the same seeds must reproduce every
// counter exactly: chaos runs are as deterministic as clean ones.
TEST(ChaosDeterminism, FaultedRunReplaysBitIdentically) {
  auto once = [] {
    const net::FaultPlan plan = net::parseFaultPlan("profile:mixed");
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = kChaosProcs;
    c.faults = &plan;
    return apps::runIs(c, chaosIs(), apps::IsVariant::kVopp).result;
  };
  RunResult a = once(), b = once();
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.net.frames_sent, b.net.frames_sent);
  EXPECT_EQ(a.net.frames_dropped_fault, b.net.frames_dropped_fault);
  EXPECT_EQ(a.net.frames_duplicated, b.net.frames_duplicated);
  EXPECT_EQ(a.net.frames_reordered, b.net.frames_reordered);
  EXPECT_EQ(a.net.retransmissions, b.net.retransmissions);
}

// Different plan seeds over the same run seed draw different fault
// streams: `seed:` exists so the nightly sweep explores distinct chaos.
TEST(ChaosDeterminism, PlanSeedVariesTheFaultStream) {
  auto withPlanSeed = [](uint64_t ps) {
    const net::FaultPlan plan =
        net::parseFaultPlan("seed:" + std::to_string(ps) + ";profile:mixed");
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = kChaosProcs;
    c.faults = &plan;
    return apps::runIs(c, chaosIs(), apps::IsVariant::kVopp).result;
  };
  RunResult a = withPlanSeed(1), b = withPlanSeed(2);
  // Timing, not answers, may differ; with the mixed profile's rates the
  // streams are overwhelmingly unlikely to coincide.
  EXPECT_NE(a.net.frames_dropped_fault + a.net.frames_duplicated +
                a.net.frames_reordered,
            b.net.frames_dropped_fault + b.net.frames_duplicated +
                b.net.frames_reordered);
}

}  // namespace
}  // namespace vodsm
