// Diff-store growth detector, from the metrics integrals: a retained diff
// log whose time-weighted mean tracks its peak and whose final value never
// comes back down is growing monotonically — the signature that led to the
// VC_sd home-diff GC. Informational: severity is capped low because memory
// growth explains footprint, not makespan.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/passes/common.hpp"

namespace vodsm::obs::passes {
namespace {

constexpr int64_t kMinPeakBytes = 64 * 1024;
constexpr double kSeverityCap = 0.05;

}  // namespace

void diffStoreGrowth(const DiagnosisInput& in, std::vector<Finding>& out) {
  const MetricsSummary* m = in.metrics;
  if (!m) return;

  int64_t sum_peak = 0, sum_final = 0, max_peak = 0;
  double sum_mean = 0;
  uint32_t peak_node = 0;
  sim::Time peak_ts = 0;
  for (const MetricSummaryRow& r : m->rows) {
    if (r.metric != Metric::kDiffStoreBytes) continue;
    sum_peak += r.peak;
    sum_final += r.final_value;
    sum_mean += r.mean;
    if (r.peak > max_peak) {
      max_peak = r.peak;
      peak_node = r.node;
      peak_ts = r.peak_ts;
    }
  }
  if (sum_peak < kMinPeakBytes) return;
  const double retained =
      static_cast<double>(sum_final) / static_cast<double>(sum_peak);
  if (retained < 0.7) return;  // the log is being reclaimed; healthy

  Finding f;
  f.cat = FindingCat::kDiffStoreGrowth;
  f.severity = kSeverityCap * clamp01(retained);
  f.location = "node " + std::to_string(peak_node) + " diff store";
  f.node = peak_node;
  f.evidence = "the retained diff log peaks at " + fmtBytes(max_peak) +
               " (node " + std::to_string(peak_node) + " at " +
               fmtSecs(peak_ts) + "); " + fmtPct(retained) +
               " of the cluster-wide peak is still retained at finish "
               "(mean occupancy " +
               fmtBytes(static_cast<int64_t>(sum_mean)) + ")";
  f.remedy = "the diff log grows without reclamation; enable or "
             "strengthen home-side diff GC, or shorten release intervals";
  out.push_back(std::move(f));
}

}  // namespace vodsm::obs::passes
