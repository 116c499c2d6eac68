// Critical-path hotspot summarizer: the catch-all pass that names the
// dominant critical-path category and its heaviest slice.
//
// Severity calibration — the hotspot describes where the time went, while
// the other detectors describe why, so a root cause with the same
// explanatory power must outrank it:
//  * compute is scored by its *excess* over a uniform 1/nprocs share
//    (perfectly balanced compute is not a finding);
//  * wait categories (barrier_wait, acquire_wait) are halved: the
//    critical-path walk attributes a manager's own wait span to itself, so
//    it cannot tell how much of a wait is the waiter's problem versus the
//    straggler/partition/contention that kept the wakeup away;
//  * service categories keep a light 0.95 discount.

#include <string>
#include <vector>

#include "obs/passes/common.hpp"

namespace vodsm::obs::passes {
namespace {

constexpr double kServiceDiscount = 0.95;
constexpr double kWaitDiscount = 0.5;

bool isWaitCat(int c) {
  return c == static_cast<int>(PathCat::kAcquireWait) ||
         c == static_cast<int>(PathCat::kBarrierWait);
}

std::string idLabel(PathCat c, uint64_t id) {
  switch (c) {
    case PathCat::kFault: return " page " + std::to_string(id);
    case PathCat::kAcquireWait:
    case PathCat::kGrantTransfer: return " id " + std::to_string(id);
    case PathCat::kBarrierWait:
    case PathCat::kBarrierRelease: return " barrier " + std::to_string(id);
    default: return "";
  }
}

const char* remedyFor(PathCat c) {
  switch (c) {
    case PathCat::kBarrierWait:
    case PathCat::kBarrierRelease:
      return "reduce barrier frequency or balance the work between "
             "barriers; a tree barrier cuts manager fan-in";
    case PathCat::kAcquireWait:
    case PathCat::kGrantTransfer:
      return "the id is contended; split the view/lock or privatize "
             "read-mostly data per node";
    case PathCat::kFault:
    case PathCat::kDiffCreate:
      return "page-fault and diff service dominate; improve locality or "
             "coarsen views so fewer pages ping-pong";
    default:
      return "compute on one node dominates the path; rebalance the "
             "decomposition";
  }
}

}  // namespace

void hotspot(const DiagnosisInput& in, std::vector<Finding>& out) {
  const CriticalPath& cp = in.critpath;
  if (cp.makespan <= 0 || in.nprocs <= 0) return;
  const double makespan = static_cast<double>(cp.makespan);

  // Dominant category by calibrated severity.
  int best_cat = -1;
  double best_sev = 0;
  for (int c = 0; c < kPathCatCount; ++c) {
    const double share = static_cast<double>(cp.by_cat[c]) / makespan;
    double sev;
    if (c == static_cast<int>(PathCat::kCompute))
      sev = share - 1.0 / in.nprocs;
    else if (isWaitCat(c))
      sev = kWaitDiscount * share;
    else
      sev = kServiceDiscount * share;
    if (sev > best_sev) {
      best_sev = sev;
      best_cat = c;
    }
  }
  if (best_cat < 0) return;

  // Heaviest slice inside the dominant category (slices are sorted by
  // nanos desc then key, so the first match is the deterministic winner).
  const PathSlice* top = nullptr;
  for (const PathSlice& s : cp.slices) {
    if (static_cast<int>(s.cat) == best_cat) {
      top = &s;
      break;
    }
  }

  Finding f;
  f.cat = FindingCat::kHotspot;
  f.severity = clamp01(best_sev);
  const PathCat cat = static_cast<PathCat>(best_cat);
  f.location = std::string(kPathCatName[best_cat]);
  if (top) {
    f.location += " on node " + std::to_string(top->node) +
                  idLabel(cat, top->id);
    f.node = top->node;
    f.id = static_cast<int64_t>(top->id);
  }
  std::string ev = "critical path:";
  bool first = true;
  for (const PathSlice& s : cp.slices) {
    // Top three slices overall give the reader the path's shape.
    if (&s - cp.slices.data() >= 3) break;
    ev += first ? " " : ", ";
    first = false;
    ev += "node " + std::to_string(s.node) + " " +
          kPathCatName[static_cast<int>(s.cat)] + idLabel(s.cat, s.id) +
          " " + fmtPct(static_cast<double>(s.nanos) / makespan);
  }
  ev += "; " + std::string(kPathCatName[best_cat]) + " explains " +
        fmtPct(static_cast<double>(cp.by_cat[best_cat]) / makespan) +
        " of the makespan overall";
  f.evidence = ev;
  f.remedy = remedyFor(cat);
  out.push_back(std::move(f));
}

}  // namespace vodsm::obs::passes
