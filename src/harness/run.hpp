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
  // Trace analyses to fold into the result (require `trace`). Pure
  // post-processing: they never change what the run computes.
  bool critpath = false;
  bool pageheat = false;
  // Runs the diagnosis pass catalog over the trace (requires `trace`;
  // consumes the metrics summary too when metered). Post-processing like
  // the other analyses: a diagnosed run is bit-identical to an undiagnosed
  // one, and the report itself is deterministic across --jobs.
  bool diagnose = false;
  // Builds a persisted run profile (obs::RunProfile) from the trace and
  // metrics (requires `trace`). Pure post-processing like the analyses
  // above: a profiled run is bit-identical to an unprofiled one.
  bool profile = false;
  // Caller-owned fault plan (net::FaultPlan); null or empty disables
  // injection and keeps the run byte-identical to a plan-free build.
  const net::FaultPlan* faults = nullptr;
};

// Everything the paper's statistics tables report about one run.
struct RunResult {
  double seconds = 0;
  dsm::DsmStats dsm;
  net::NetStats net;
  // Per-node time buckets folded from the trace; empty unless the run was
  // traced (RunConfig::trace). Kept by value so it outlives the recorder.
  obs::Breakdown breakdown;
  // Critical-path and per-page contention analyses; empty unless requested
  // via RunConfig::critpath / pageheat on a traced run.
  obs::CriticalPath critpath;
  obs::PageHeat pageheat;
  // Ranked findings from the diagnosis passes; empty unless requested via
  // RunConfig::diagnose on a traced run.
  obs::Diagnosis diagnosis;
  // Persisted run profile; empty unless requested via RunConfig::profile on
  // a traced run. The caller labels it before writing.
  obs::RunProfile profile;
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

// Copies the standard result fields out of a finished cluster, honoring the
// analysis toggles. Templated so this header does not depend on the vopp
// layer; any type with seconds()/dsmStats()/netStats()/breakdown()/
// criticalPath()/pageHeat() works.
template <typename ClusterT>
void collectResult(const ClusterT& cluster, const RunConfig& cfg,
                   RunResult& out) {
  out.seconds = cluster.seconds();
  out.dsm = cluster.dsmStats();
  out.net = cluster.netStats();
  if (cfg.trace) {
    out.breakdown = cluster.breakdown();
    if (cfg.critpath) out.critpath = cluster.criticalPath();
    if (cfg.pageheat) out.pageheat = cluster.pageHeat();
    if (cfg.diagnose) out.diagnosis = cluster.diagnosis();
    if (cfg.profile) out.profile = cluster.runProfile();
  }
  if (cfg.metrics) out.metrics = cluster.metricsSummary();
}

}  // namespace vodsm::harness
