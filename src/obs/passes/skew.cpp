// Whole-run skew detectors: stragglers (charge-scaled compute skew from the
// breakdown) and degraded links (per-node downlink busy time versus the
// serialization time the delivered bytes should have cost).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/passes/common.hpp"

namespace vodsm::obs::passes {

// A straggler burns notably more charged CPU time than the median node;
// every barrier episode then waits for it, so the skew is pure added
// makespan. "Charged CPU time" is compute + fault/diff service: a slow
// host's charge scaler stretches both its application compute and the
// local CPU half of its DSM service, so either bucket alone understates
// the skew.
void straggler(const DiagnosisInput& in, std::vector<Finding>& out) {
  const Breakdown& b = in.breakdown;
  if (b.nodes.size() < 2 || in.finish <= 0) return;

  std::vector<sim::Time> busy;
  busy.reserve(b.nodes.size());
  for (const BucketSet& n : b.nodes)
    busy.push_back(n.compute + n.fault_diff);
  const sim::Time med = medianOf(busy);
  uint32_t slow = 0;
  sim::Time mx = 0;
  for (uint32_t n = 0; n < busy.size(); ++n)
    if (busy[n] > mx) {
      mx = busy[n];
      slow = n;
    }
  const sim::Time skew = mx - std::min(mx, med);
  const double sev =
      static_cast<double>(skew) / static_cast<double>(in.finish);
  // Fire on a clear outlier only: >= 1.5x the median and >= 10% of the
  // makespan, so ordinary decomposition roughness stays below the radar.
  if (sev < 0.1 || 2 * mx < 3 * med) return;

  const double ratio = med > 0 ? static_cast<double>(mx) /
                                     static_cast<double>(med)
                               : 0.0;
  Finding f;
  f.cat = FindingCat::kStraggler;
  f.severity = clamp01(sev);
  f.location = "node " + std::to_string(slow);
  f.node = slow;
  f.evidence = "node " + std::to_string(slow) + " charged " +
               fmtSecs(mx) + " of CPU time (compute + fault/diff "
               "service) against a median " +
               fmtSecs(med) +
               (med > 0 ? " (" + fmtTimes(ratio) + ")" : "") +
               "; the rest of the cluster idles at every barrier waiting "
               "for it";
  f.remedy = "the node runs slow (degraded CPU or oversized shard); "
             "rebalance work away from it or replace the host";
  out.push_back(std::move(f));
}

// A degraded link stretches frame serialization, so the downlink's metered
// busy time exceeds what tx_time says the delivered bytes should cost.
// Ratios near 1 are healthy; a single downlink at >= 2x the cluster median
// names that link, and a median >= 2 across nodes means every link is
// degraded (uniform bandwidth cuts have no outlier to compare against).
void degradedLink(const DiagnosisInput& in, std::vector<Finding>& out) {
  if (!in.metrics || !in.tx_time || in.finish <= 0) return;

  // Expected serialization per downlink: every frame that crossed it,
  // delivered or dropped at the NIC, at the undegraded rate.
  std::vector<sim::Time> expected(static_cast<size_t>(in.nprocs), 0);
  for (const Event& ev : in.trace.events()) {
    if (ev.phase != Phase::kInstant) continue;
    if (ev.cat != Cat::kDeliver && ev.cat != Cat::kDrop) continue;
    if (ev.node >= expected.size()) continue;
    expected[ev.node] += in.tx_time(ev.a1);
  }
  std::vector<sim::Time> actual(static_cast<size_t>(in.nprocs), 0);
  for (const MetricSummaryRow& r : in.metrics->rows)
    if (r.metric == Metric::kDownlinkBusyNs && r.node < actual.size())
      actual[r.node] = r.final_value;

  constexpr sim::Time kMinExpected = 50'000;  // 50 us of traffic
  std::vector<double> ratios;
  for (size_t n = 0; n < expected.size(); ++n)
    if (expected[n] >= kMinExpected)
      ratios.push_back(static_cast<double>(actual[n]) /
                       static_cast<double>(expected[n]));
  if (ratios.size() < 2) return;
  const double med = medianOf(ratios);

  int worst = -1;
  double worst_ratio = 0;
  for (size_t n = 0; n < expected.size(); ++n) {
    if (expected[n] < kMinExpected) continue;
    const double r = static_cast<double>(actual[n]) /
                     static_cast<double>(expected[n]);
    if (r >= 2.0 && r >= 2.0 * med && r > worst_ratio) {
      worst = static_cast<int>(n);
      worst_ratio = r;
    }
  }

  Finding f;
  f.cat = FindingCat::kDegradedLink;
  if (worst >= 0) {
    const size_t n = static_cast<size_t>(worst);
    f.severity = clamp01(static_cast<double>(actual[n] - expected[n]) /
                         static_cast<double>(in.finish));
    f.location = "downlink to node " + std::to_string(worst);
    f.node = worst;
    f.evidence = "node " + std::to_string(worst) +
                 "'s downlink was busy " + fmtDur(actual[n]) +
                 " serializing traffic that should cost " +
                 fmtDur(expected[n]) + " (" + fmtTimes(worst_ratio) +
                 "; cluster median " + fmtTimes(med) + ")";
    f.remedy = "one link runs far below nominal bandwidth; check the "
               "node's NIC/cable/switch port";
  } else if (med >= 2.0) {
    sim::Time worst_extra = 0;
    size_t worst_node = 0;
    for (size_t n = 0; n < expected.size(); ++n)
      if (expected[n] >= kMinExpected &&
          actual[n] - expected[n] > worst_extra) {
        worst_extra = actual[n] - expected[n];
        worst_node = n;
      }
    f.severity = clamp01(static_cast<double>(worst_extra) /
                         static_cast<double>(in.finish));
    f.location = "all links (median " + fmtTimes(med) + " nominal cost)";
    f.evidence = "every measured downlink serializes at ~" + fmtTimes(med) +
                 " its nominal cost; the worst (node " +
                 std::to_string(worst_node) + ") spent " +
                 fmtDur(worst_extra) + " extra on the wire";
    f.remedy = "the whole fabric runs below nominal bandwidth; check "
               "switch uplinks or provisioned rate limits";
  } else {
    return;
  }
  out.push_back(std::move(f));
}

}  // namespace vodsm::obs::passes
