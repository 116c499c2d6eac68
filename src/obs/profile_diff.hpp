// Differential run analysis: why is run B slower (or faster) than run A?
//
// diffProfiles aligns two persisted RunProfiles by program structure —
// critical-path categories, barrier episodes keyed (barrier, episode),
// pages keyed by page id, wire message classes — and explains the makespan
// delta as ranked Finding records (the diagnoser's record, ranked by the
// same rankFindings, with differential categories).
//
// The foundation is exact: each profile's critical-path category totals
// partition its makespan to the nanosecond (obs/critical_path.hpp), so the
// per-category deltas partition `makespan_b - makespan_a` exactly — an
// identity diffProfiles asserts and tests pin. Severity is the fraction of
// the *delta* a finding explains (not of either makespan), clamped to
// [0, 1], and the calibration follows the diagnoser's
// root-cause-over-symptom rule: a detected transfer shift (time moving
// between fault/diff service and grant transfer — the LRC-vs-VC signature)
// outranks the per-category deltas it manifests as, which outrank the
// secondary episode / page / wire attributions.
//
// Pure post-processing over two loaded profiles: deterministic for a given
// pair of inputs, byte-identical text and JSON reports on any host.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/diagnose.hpp"
#include "obs/profile.hpp"
#include "sim/time.hpp"

namespace vodsm::obs {

struct DiffReport {
  bool on = false;
  std::string label_a;
  std::string label_b;
  int nprocs_a = 0;
  int nprocs_b = 0;
  sim::Time makespan_a = 0;
  sim::Time makespan_b = 0;
  sim::Time delta = 0;  // makespan_b - makespan_a, exact
  // Critical-path category totals of both runs; (cat_b[c] - cat_a[c]) sums
  // to `delta` exactly.
  sim::Time cat_a[kPathCatCount] = {};
  sim::Time cat_b[kPathCatCount] = {};
  std::vector<Finding> findings;  // ranked like a Diagnosis

  bool enabled() const { return on; }
  const Finding* top() const {
    return findings.empty() ? nullptr : &findings.front();
  }
};

// Aligns `a` (baseline) with `b` (candidate) and ranks the delta findings.
// Both profiles must be enabled; nprocs may differ (a structure finding
// flags it). Asserts the exact-partition invariant on both inputs.
DiffReport diffProfiles(const RunProfile& a, const RunProfile& b);

// Renders the makespan header, the per-category delta table, and the ranked
// findings. Deterministic: fixed precision, no host state.
void printDiffReport(std::ostream& os, const DiffReport& r,
                     const std::string& title);

// Machine-readable report via support::JsonWriter; byte-stable.
void writeDiffReportJson(std::ostream& os, const DiffReport& r);

}  // namespace vodsm::obs
