// Experiment harness: the one configuration every runtime takes
// (vopp::Cluster, msg::World) and the one result record it returns, shared
// by the application runners, the test suite, and the table benchmarks.
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
  int nprocs = 16;
  dsm::Protocol protocol = dsm::Protocol::kVcSd;
  net::NetConfig net;
  dsm::DsmCosts costs;
  // Barrier algorithm (the default reproduces the paper's centralized
  // protocol byte-for-byte).
  dsm::BarrierAlg barrier = dsm::BarrierAlg::kCentral;
  uint64_t seed = 42;
  // Caller-owned event recorder, threaded through every layer of the run
  // (programs, protocol engines, transport, network). Null disables
  // tracing; recording never charges simulated time, so traced and
  // untraced runs produce identical results.
  obs::TraceRecorder* trace = nullptr;
  // Caller-owned counter/gauge registry, threaded the same way (protocol
  // engines, network, VOPP primitives). Null disables metrics; like
  // tracing, metering never changes what the run computes.
  obs::MetricsRegistry* metrics = nullptr;
  // Caller-owned fault plan. Null (or an empty plan) installs no injector,
  // so fault-free runs stay byte-identical; otherwise the machine binds the
  // plan to this run's seed and wires it into the network and every node
  // clock (straggler rules).
  const net::FaultPlan* faults = nullptr;
  // Also runs the diagnosis passes over the traced run's analysis (requires
  // `trace`; consumes the metrics summary too when metered). Post-processing
  // like the rest of the analysis: a diagnosed run is bit-identical to an
  // undiagnosed one, and the report itself is deterministic across --jobs.
  bool diagnose = false;
};

// Everything the paper's statistics tables report about one run.
struct RunResult {
  double seconds = 0;
  dsm::DsmStats dsm;
  net::NetStats net;
  // The trace analysis, built once from one set of trace folds (see
  // vopp::Cluster::result) and kept by value so it outlives the recorder:
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

}  // namespace vodsm::harness
