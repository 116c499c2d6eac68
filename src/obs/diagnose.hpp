// Automated "why is this run slow" diagnosis over the observability stack.
//
// diagnose() runs a fixed list of analysis passes (PerFlow-style; see
// src/obs/passes/) over the folds a traced run already built — the run DAG
// (obs/graph.hpp), the exact critical path, the five-bucket breakdown, the
// page-heat fold (bundled as obs::RunFolds) — plus the per-frame flow fold
// below and the metrics summary, and emits ranked Finding records: what
// pattern was detected, how much of the makespan it explains, where it
// lives (node / link / id / barrier episode / time window), the evidence
// behind the claim, and a remediation hint.
//
// Contracts, asserted in tests/test_diagnose.cpp:
//  * Pure post-processing: diagnosing a run never touches simulated state,
//    so a diagnosed run is bit-identical to an undiagnosed one.
//  * Deterministic output: every pass iterates ordered containers and
//    rankFindings breaks severity ties by category then location, so the
//    text and JSON reports are byte-identical across --jobs values.
//  * Root causes outrank symptoms: on an injected-fault run the top-ranked
//    finding names the injected fault class and its location. Detector
//    severities are calibrated for this — e.g. the hotspot summarizer
//    scores compute slices by their *excess* over a uniform share so a
//    straggler's own compute never outranks the straggler finding.
//
// Layering: vodsm_obs sits below net and dsm, so passes that need
// network-config or message-class knowledge receive it through the plain
// std::function hooks of diagnose() (wired by the vopp layer); empty hooks
// degrade those detectors gracefully instead of breaking the build
// layering.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace vodsm::obs {

// Finding categories. Enum order is the ranking tie-break (lower wins), so
// injected-fault root causes come before generic communication patterns,
// which come before the catch-all critical-path hotspot.
enum class FindingCat : uint8_t {
  kPartition = 0,
  kStraggler,
  kDegradedLink,
  kRetransmitStorm,
  kGrantStorm,
  kAllToAllDiff,
  kLoadImbalance,
  kDiffStoreGrowth,
  kHotspot,
  // Page-granular refinement of a barrier-imbalance finding: which pages
  // the slow node was stalled on inside the gap (passes/page_imbalance.cpp).
  kPageImbalance,
  // Differential categories, emitted only by obs::diffProfiles
  // (profile_diff.hpp) when explaining the makespan delta between two run
  // profiles — never by the single-run passes. Order encodes the same
  // root-cause-over-symptom rule: a detected transfer shift outranks the
  // per-category deltas it manifests as, which outrank the secondary
  // episode/page/wire attributions.
  kTransferShift,
  kPathDelta,
  kEpisodeDelta,
  kPageDelta,
  kNetDelta,
  kMetricDelta,
  kStructureDelta,
  kFindingCatCount,
};
inline constexpr int kFindingCatCount =
    static_cast<int>(FindingCat::kFindingCatCount);
inline constexpr const char* kFindingCatName[kFindingCatCount] = {
    "partition",       "straggler",
    "degraded_link",   "retransmission_storm",
    "grant_storm",     "all_to_all_diff",
    "load_imbalance",  "diff_store_growth",
    "critical_path_hotspot", "page_imbalance",
    "transfer_shift",  "critical_path_delta",
    "episode_delta",   "page_heat_delta",
    "net_delta",       "metric_delta",
    "structure_delta",
};

inline const char* findingCatName(FindingCat c) {
  return kFindingCatName[static_cast<int>(c)];
}

// One scored diagnosis record. `severity` is the fraction of the run's
// makespan the detected pattern explains, clamped to [0, 1]; machine
// location fields are -1 when not applicable.
struct Finding {
  FindingCat cat = FindingCat::kHotspot;
  double severity = 0;          // fraction of makespan explained
  std::string location;         // human-readable: node / link / id / window
  int64_t node = -1;            // machine location: node id
  int64_t id = -1;              // machine location: page/lock/view/barrier
  sim::Time window_begin = -1;  // machine location: time window
  sim::Time window_end = -1;
  std::string evidence;  // why the detector believes this
  std::string remedy;    // what to try about it
};

struct Diagnosis {
  bool on = false;
  sim::Time makespan = 0;
  int nprocs = 0;
  std::vector<Finding> findings;  // ranked: severity desc, cat, location

  bool enabled() const { return on; }
  const Finding* top() const {
    return findings.empty() ? nullptr : &findings.front();
  }
};

// Wire message classes, mirroring net::MsgClass order so the vopp layer can
// wire diagnose()'s `classify` hook with a plain cast (asserted where
// wired).
enum class WireClass : uint8_t {
  kAcquire = 0,
  kGrant,
  kRelease,
  kDiffRequest,
  kDiffReply,
  kBarrier,
  kData,
  kOther,
};

// All net-track events concerning one transport frame, keyed by the wire
// correlation id. Indices point into the trace's event vector; -1 = absent.
struct Flow {
  uint64_t corr = kNoCorr;
  int64_t send = -1;     // first kSend with this id
  int64_t deliver = -1;  // first kDeliver (later ones are duplicates)
  uint32_t retransmits = 0;
  uint32_t drops = 0;
};

// The per-frame fold the network passes read; built only when diagnosing.
struct FlowFold {
  std::vector<Flow> flows;  // sorted by corr (deterministic)
  // Diagnostic; zero on a well-formed trace (asserted in tests).
  uint64_t delivers_without_send = 0;

  const Flow* find(uint64_t corr) const;  // nullptr when unknown
};

// Folds the trace's kSend / kDeliver / kRetransmit / kDrop events by
// correlation id. Engine pseudo-node events are skipped.
FlowFold foldFlows(const TraceRecorder& trace);

// Runs the pass list over a traced run's folds and ranks the findings.
// `metrics` may be null; `classify` (kSend a0 -> WireClass) and `tx_time`
// (undegraded serialization time of a frame of that many bytes, i.e.
// net::NetConfig::txTime) may be empty, silencing the passes that need
// them.
Diagnosis diagnose(const TraceRecorder& trace, const RunFolds& folds,
                   const MetricsSummary* metrics,
                   const std::function<WireClass(uint64_t)>& classify,
                   const std::function<sim::Time(uint64_t)>& tx_time);

// Convenience: fold the trace (foldRun), then diagnose.
Diagnosis diagnose(const TraceRecorder& trace, int nprocs, sim::Time finish,
                   const MetricsSummary* metrics = nullptr,
                   std::function<WireClass(uint64_t)> classify = {},
                   std::function<sim::Time(uint64_t)> tx_time = {});

// The one ranking of single-run and differential findings: clamps every
// severity to [0, 1], then orders by severity desc, category (root causes
// enumerate before symptoms), location, node and id — a total order, so
// reports are deterministic regardless of which pass emitted what first.
void rankFindings(std::vector<Finding>& findings);

// Prints ranked findings as "#N [sev%] category: location" lines, each
// with its evidence and remedy; the findings block of both the diagnosis
// and the differential report.
void printFindings(std::ostream& os, const std::vector<Finding>& findings);

// Renders the ranked findings as a fixed-width report with evidence and
// remediation lines. Deterministic: fixed precision, no host state.
void printDiagnosis(std::ostream& os, const Diagnosis& d,
                    const std::string& title);

// Machine-readable report: hand-written JSON with six fixed decimals, in a
// layout older than support::JsonWriter's and kept byte-stable; parses back
// via support/json.hpp.
void writeDiagnosisJson(std::ostream& os, const Diagnosis& d);

}  // namespace vodsm::obs
