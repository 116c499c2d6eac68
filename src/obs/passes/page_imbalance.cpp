// Page-granular refinement of barrier imbalance.
//
// The imbalance pass (imbalance.cpp) says *which node* arrived late at
// *which barrier episode*; this pass says *which pages* that node was
// stalled on inside the gap. It recomputes the single largest-gap episode
// from the same barrierEpisodes grouping, folds the slow node's kFault
// spans that overlap the gap interval by page id, and emits the top pages
// with severity strictly below the parent imbalance finding (the page view
// is a localization, never the headline), enriched with the run-wide
// page-heat row so the sharer/writer structure of the page is visible.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/passes/common.hpp"

namespace vodsm::obs::passes {
namespace {

constexpr double kMinSeverity = 0.005;  // episode gate, as imbalance.cpp
constexpr double kPageDiscount = 0.9;   // strictly below the parent finding
constexpr size_t kMaxPages = 2;

}  // namespace

void pageImbalance(const DiagnosisInput& in, std::vector<Finding>& out) {
  if (in.finish <= 0 || in.nprocs < 2) return;

  // Pick the single largest gap (ties: lower barrier id, earlier window —
  // the same order the imbalance ranking would surface first).
  bool found = false;
  uint64_t barrier = 0;
  size_t episode = 0;
  uint32_t slow_node = 0;
  sim::Time gap_begin = 0, gap_end = 0, gap = 0;
  for (const auto& [b, eps] : barrierEpisodes(in.graph)) {
    for (size_t j = 0; j < eps.size(); ++j) {
      const std::vector<Arrival>& a = eps[j];
      if (a.size() < 2) continue;
      const sim::Time gb = a[a.size() - 2].begin;
      const sim::Time ge = a.back().begin;
      if (ge - gb > gap) {
        found = true;
        barrier = b;
        episode = j;
        slow_node = a.back().node;
        gap_begin = gb;
        gap_end = ge;
        gap = ge - gb;
      }
    }
  }
  const double gap_sev =
      static_cast<double>(gap) / static_cast<double>(in.finish);
  if (!found || gap <= 0 || gap_sev < kMinSeverity) return;

  // Fold the slow node's fault spans inside the gap by page.
  std::map<uint64_t, sim::Time> by_page;
  for (const LocalSpan& s : in.graph.nodes[slow_node].spans) {
    if (s.begin >= gap_end) break;  // spans sorted by begin
    if (s.cat != Cat::kFault) continue;
    const sim::Time b = std::max(s.begin, gap_begin);
    const sim::Time e = std::min(s.end, gap_end);
    if (e > b) by_page[s.id] += e - b;
  }
  if (by_page.empty()) return;

  std::vector<std::pair<uint64_t, sim::Time>> pages(by_page.begin(),
                                                    by_page.end());
  std::sort(pages.begin(), pages.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second > y.second;
    return x.first < y.first;
  });
  if (pages.size() > kMaxPages) pages.resize(kMaxPages);

  for (const auto& [page, stalled] : pages) {
    Finding f;
    f.cat = FindingCat::kPageImbalance;
    // Strictly below the parent load_imbalance finding: the discounted
    // share of the *page's* stall, which is at most the gap.
    f.severity = kPageDiscount *
                 clamp01(static_cast<double>(stalled) /
                         static_cast<double>(in.finish));
    f.location = "page " + std::to_string(page) + " at barrier " +
                 std::to_string(barrier) + " episode " +
                 std::to_string(episode) + ", node " +
                 std::to_string(slow_node);
    f.node = slow_node;
    f.id = static_cast<int64_t>(page);
    f.window_begin = gap_begin;
    f.window_end = gap_end;
    f.evidence = "node " + std::to_string(slow_node) + " spent " +
                 fmtDur(stalled) + " of the " + fmtDur(gap) +
                 " imbalance gap faulting on page " + std::to_string(page);
    for (const PageHeatRow& r : in.pageheat.rows) {
      if (r.page != page) continue;
      f.evidence += " (run-wide: " + std::to_string(r.faults) +
                    " faults, " + fmtDur(r.fault_time) + ", " +
                    std::to_string(r.sharers) + " sharers, " +
                    std::to_string(r.writers) + " writers)";
      break;
    }
    f.remedy =
        "re-home or pre-fetch this page for the slow node, or "
        "restructure the phase so its writers do not precede the "
        "slow node's reads";
    out.push_back(std::move(f));
  }
}

}  // namespace vodsm::obs::passes
