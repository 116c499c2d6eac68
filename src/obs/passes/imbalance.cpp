// Per-barrier-episode load-imbalance attribution.
//
// For every barrier episode (the j-th arrival of each node at barrier b)
// the cost of imbalance is the gap between the slowest arrival and the
// next-slowest one: that gap is exactly how much earlier the episode would
// have released had the slowest node kept up. The gap interval on the
// slowest node is attributed to fault/diff service (its LocalSpans that
// overlap it) versus plain compute, and episodes are ranked by cost —
// severity is one episode's gap as a fraction of the makespan, never a sum
// across episodes, so a whole-run straggler finding always outranks the
// per-episode symptoms it causes.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/passes/common.hpp"

namespace vodsm::obs::passes {
namespace {

constexpr double kMinSeverity = 0.005;
constexpr size_t kMaxFindings = 3;

}  // namespace

void loadImbalance(const DiagnosisInput& in, std::vector<Finding>& out) {
  if (in.finish <= 0 || in.nprocs < 2) return;

  std::vector<Finding> found;
  for (const auto& [barrier, eps] : barrierEpisodes(in.graph)) {
    for (size_t j = 0; j < eps.size(); ++j) {
      const std::vector<Arrival>& a = eps[j];
      if (a.size() < 2) continue;
      const Arrival& slow = a.back();
      const sim::Time gap_begin = a[a.size() - 2].begin;
      const sim::Time gap = slow.begin - gap_begin;
      const double sev =
          static_cast<double>(gap) / static_cast<double>(in.finish);
      if (gap <= 0 || sev < kMinSeverity) continue;

      // Attribute the gap interval on the slowest node.
      sim::Time fault_part = 0;
      for (const LocalSpan& s : in.graph.nodes[slow.node].spans) {
        if (s.begin >= slow.begin) break;  // spans sorted by begin
        const sim::Time b = std::max(s.begin, gap_begin);
        const sim::Time e = std::min(s.end, slow.begin);
        if (e > b) fault_part += e - b;
      }
      const sim::Time compute_part = gap - std::min(gap, fault_part);

      Finding f;
      f.cat = FindingCat::kLoadImbalance;
      f.severity = clamp01(sev);
      f.location = "barrier " + std::to_string(barrier) + " episode " +
                   std::to_string(j) + ", node " +
                   std::to_string(slow.node);
      f.node = slow.node;
      f.id = static_cast<int64_t>(barrier);
      f.window_begin = gap_begin;
      f.window_end = slow.begin;
      f.evidence = "node " + std::to_string(slow.node) + " arrived " +
                   fmtDur(gap) + " after the next-slowest node (" +
                   fmtDur(compute_part) + " compute, " + fmtDur(fault_part) +
                   " fault/diff in the gap); episode released at " +
                   fmtSecs(slow.end);
      f.remedy = compute_part >= fault_part
                     ? "shift work off the slow node for this phase of "
                       "the program"
                     : "the slow node stalls on fault/diff service before "
                       "this barrier; pre-fetch or re-home its hot pages";
      found.push_back(std::move(f));
    }
  }

  std::sort(found.begin(), found.end(),
            [](const Finding& x, const Finding& y) {
              if (x.severity != y.severity) return x.severity > y.severity;
              if (x.id != y.id) return x.id < y.id;
              return x.window_begin < y.window_begin;
            });
  if (found.size() > kMaxFindings) found.resize(kMaxFindings);
  for (Finding& f : found) out.push_back(std::move(f));
}

}  // namespace vodsm::obs::passes
