// Experiment harness: shared configuration and result records used by the
// application runners, the test suite, and the table benchmarks.
#pragma once

#include "dsm/types.hpp"
#include "net/faults.hpp"
#include "net/stats.hpp"
#include "net/types.hpp"
#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/diagnose.hpp"
#include "obs/metrics.hpp"
#include "obs/page_heat.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace vodsm::harness {

struct RunConfig {
  dsm::Protocol protocol = dsm::Protocol::kVcSd;
  int nprocs = 16;
  net::NetConfig net;
  dsm::DsmCosts costs;
  // Barrier algorithm (the default reproduces the paper's centralized
  // protocol byte-for-byte).
  dsm::BarrierAlg barrier = dsm::BarrierAlg::kCentral;
  uint64_t seed = 42;
  // Caller-owned recorder; null disables tracing (see vopp::ClusterOptions).
  obs::TraceRecorder* trace = nullptr;
  // Caller-owned counter/gauge registry; null disables metrics. Like the
  // recorder, metering never changes what the run computes.
  obs::MetricsRegistry* metrics = nullptr;
  // Also runs the diagnosis passes over the traced run's analysis (requires
  // `trace`; consumes the metrics summary too when metered). Post-processing
  // like the rest of the analysis: a diagnosed run is bit-identical to an
  // undiagnosed one, and the report itself is deterministic across --jobs.
  bool diagnose = false;
  // Caller-owned fault plan (net::FaultPlan); null or empty disables
  // injection and keeps the run byte-identical to a plan-free build.
  const net::FaultPlan* faults = nullptr;
};

// Everything the paper's statistics tables report about one run.
struct RunResult {
  double seconds = 0;
  dsm::DsmStats dsm;
  net::NetStats net;
  // The trace analysis, built once from one set of trace folds (see
  // vopp::Cluster::analyze) and kept by value so it outlives the recorder:
  // a traced run (RunConfig::trace) always fills the per-node time
  // buckets, the critical path, the per-page contention rows and the
  // persisted run profile (unlabelled; the caller names it before writing).
  // All are empty on an untraced run.
  obs::Breakdown breakdown;
  obs::CriticalPath critpath;
  obs::PageHeat pageheat;
  obs::RunProfile profile;
  // Ranked findings of the diagnosis passes; empty unless
  // RunConfig::diagnose was set on a traced run.
  obs::Diagnosis diagnosis;
  // Counter/gauge aggregates (peaks, finals, means); empty unless the run
  // was metered via RunConfig::metrics. The MPI reference runner does not
  // meter, so its results leave this empty.
  obs::MetricsSummary metrics;

  double dataMBytes() const {
    return static_cast<double>(net.payload_bytes) / 1e6;
  }
  double dataGBytes() const {
    return static_cast<double>(net.payload_bytes) / 1e9;
  }
  // Barrier *episodes* (program-level barrier count, as the paper reports).
  uint64_t barrierEpisodes() const { return dsm.barriers; }
};

// Copies the standard result fields out of a finished cluster and, on a
// traced run, its analysis. Templated so this header does not depend on the
// vopp layer; any type with seconds()/dsmStats()/netStats()/
// metricsSummary()/analyze(bool) works.
template <typename ClusterT>
void collectResult(const ClusterT& cluster, const RunConfig& cfg,
                   RunResult& out) {
  out.seconds = cluster.seconds();
  out.dsm = cluster.dsmStats();
  out.net = cluster.netStats();
  if (cfg.trace) {
    auto a = cluster.analyze(cfg.diagnose);
    out.breakdown = std::move(a.breakdown);
    out.critpath = std::move(a.critpath);
    out.pageheat = std::move(a.pageheat);
    out.profile = std::move(a.profile);
    out.diagnosis = std::move(a.diagnosis);
  }
  if (cfg.metrics) out.metrics = cluster.metricsSummary();
}

}  // namespace vodsm::harness
