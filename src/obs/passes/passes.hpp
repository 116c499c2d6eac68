// The diagnosis pass list: ten free functions, each reading one
// DiagnosisInput and appending zero or more findings. diagnose() runs them
// in list order; the order does not affect the report, which rankFindings
// orders by severity.
#pragma once

#include <functional>
#include <vector>

#include "obs/diagnose.hpp"

namespace vodsm::obs::passes {

// Everything a pass reads: the run's folds, built once per traced run, and
// the flow fold, built once per diagnosis.
struct DiagnosisInput {
  const TraceRecorder& trace;
  const EventGraph& graph;
  const Breakdown& breakdown;
  const CriticalPath& critpath;
  const PageHeat& pageheat;
  const FlowFold& flows;
  const MetricsSummary* metrics;  // null when the run was not metered
  int nprocs;
  sim::Time finish;
  const std::function<WireClass(uint64_t)>& classify;  // may be empty
  const std::function<sim::Time(uint64_t)>& tx_time;   // may be empty
};

using PassFn = void (*)(const DiagnosisInput& in, std::vector<Finding>& out);

// Detectors for injected/physical faults (root causes): anomalies.cpp
// (partition, retransmitStorm) and skew.cpp (straggler, degradedLink).
void partition(const DiagnosisInput& in, std::vector<Finding>& out);
void straggler(const DiagnosisInput& in, std::vector<Finding>& out);
void degradedLink(const DiagnosisInput& in, std::vector<Finding>& out);
void retransmitStorm(const DiagnosisInput& in, std::vector<Finding>& out);

// Communication-pattern detectors (comm_patterns.cpp).
void grantStorm(const DiagnosisInput& in, std::vector<Finding>& out);
void allToAllDiff(const DiagnosisInput& in, std::vector<Finding>& out);

// Load / memory structure: imbalance.cpp, page_imbalance.cpp, memory.cpp.
void loadImbalance(const DiagnosisInput& in, std::vector<Finding>& out);
void pageImbalance(const DiagnosisInput& in, std::vector<Finding>& out);
void diffStoreGrowth(const DiagnosisInput& in, std::vector<Finding>& out);

// Catch-all critical-path summarizer, always emitting when a path exists
// (hotspot.cpp).
void hotspot(const DiagnosisInput& in, std::vector<Finding>& out);

inline constexpr PassFn kPasses[] = {
    partition,    straggler,     degradedLink,  retransmitStorm, grantStorm,
    allToAllDiff, loadImbalance, pageImbalance, diffStoreGrowth, hotspot,
};

}  // namespace vodsm::obs::passes
