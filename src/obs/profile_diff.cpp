#include "obs/profile_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>

#include "obs/passes/common.hpp"
#include "support/check.hpp"
#include "support/json_writer.hpp"

namespace vodsm::obs {
namespace {

using passes::clamp01;
using passes::fmtBytes;
using passes::fmtDur;
using passes::fmtPct;

// Calibration. All fractions are of |delta| (the makespan difference being
// explained), mirroring the diagnoser's severity = fraction-of-makespan
// convention at the differential level.
constexpr double kMinCatFrac = 0.01;     // ignore category deltas below 1%
constexpr double kMinShiftShare = 0.05;  // per-side makespan-share movement
                                         // (5 points) for a transfer shift
constexpr double kServiceWeight = 0.95;  // service categories (cf. hotspot)
constexpr double kWaitWeight = 0.5;      // wait categories are symptoms
constexpr double kShiftedWeight = 0.45;  // categories a shift already claims
constexpr double kEpisodeWeight = 0.9;   // secondary attributions never
constexpr double kPageWeight = 0.9;      // outrank the category they refine
constexpr double kNetWeight = 0.6;
constexpr double kShiftedNetWeight = 0.25;  // wire echo of a detected shift
constexpr double kStructureSeverity = 0.02;
constexpr double kMetricSeverityCap = 0.05;  // cf. passes/memory.cpp
constexpr size_t kMaxEpisodeFindings = 3;
constexpr size_t kMaxPageFindings = 3;

std::string fmtSignedDur(sim::Time d) {
  return (d < 0 ? "-" : "+") + fmtDur(d < 0 ? -d : d);
}

const ProfileMetricRow* findMetric(const RunProfile& p, Metric m) {
  for (const ProfileMetricRow& r : p.metrics)
    if (r.metric == m) return &r;
  return nullptr;
}

sim::Time pageFaultTime(const RunProfile& p, uint64_t page) {
  for (const PageHeatRow& r : p.pages)
    if (r.page == page) return r.fault_time;
  return 0;
}

// Union of the two profiles' page tables with per-page fault-time deltas,
// sorted by |delta| desc then page id — the differential page-heat fold.
std::vector<std::pair<uint64_t, sim::Time>> pageDeltas(const RunProfile& a,
                                                       const RunProfile& b) {
  std::map<uint64_t, sim::Time> delta;
  for (const PageHeatRow& r : b.pages) delta[r.page] += r.fault_time;
  for (const PageHeatRow& r : a.pages) delta[r.page] -= r.fault_time;
  std::vector<std::pair<uint64_t, sim::Time>> out(delta.begin(), delta.end());
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    const sim::Time ax = x.second < 0 ? -x.second : x.second;
    const sim::Time ay = y.second < 0 ? -y.second : y.second;
    if (ax != ay) return ax > ay;
    return x.first < y.first;
  });
  return out;
}

void checkPartition(const RunProfile& p, const char* which) {
  sim::Time sum = 0;
  for (int c = 0; c < kPathCatCount; ++c) sum += p.critpath[c];
  VODSM_CHECK_MSG(sum == p.makespan,
                  std::string("profile ") + which +
                      ": critical-path categories do not sum to the "
                      "makespan — stale or hand-edited profile");
}

}  // namespace

DiffReport diffProfiles(const RunProfile& a, const RunProfile& b) {
  VODSM_CHECK_MSG(a.enabled() && b.enabled(),
                  "diffProfiles needs two enabled profiles");
  checkPartition(a, "A");
  checkPartition(b, "B");

  DiffReport r;
  r.on = true;
  r.label_a = a.label;
  r.label_b = b.label;
  r.nprocs_a = a.nprocs;
  r.nprocs_b = b.nprocs;
  r.makespan_a = a.makespan;
  r.makespan_b = b.makespan;
  r.delta = b.makespan - a.makespan;
  for (int c = 0; c < kPathCatCount; ++c) {
    r.cat_a[c] = a.critpath[c];
    r.cat_b[c] = b.critpath[c];
  }

  const sim::Time denom = std::max<sim::Time>(1, std::llabs(r.delta));
  const double dd = static_cast<double>(denom);
  sim::Time cat_delta[kPathCatCount];
  for (int c = 0; c < kPathCatCount; ++c)
    cat_delta[c] = r.cat_b[c] - r.cat_a[c];

  // Transfer shift: update movement changing protocol point between
  // fault-time diff fetch and grant-time carriage — the LRC_d-vs-VC_sd
  // signature. Absolute times shrink together when one run is uniformly
  // faster, so the detector looks at makespan *shares*: the fault/diff side
  // and the grant side each moved at least kMinShiftShare of their run's
  // makespan, in opposite directions. The finding's severity is the
  // fraction of the delta the whole transfer chain (fault + grant transfer
  // + diff creation) accounts for — the root cause the discounted
  // per-category, page, and wire findings below are symptoms of.
  const sim::Time ft = cat_delta[static_cast<int>(PathCat::kFault)];
  const sim::Time gt = cat_delta[static_cast<int>(PathCat::kGrantTransfer)];
  const sim::Time dc = cat_delta[static_cast<int>(PathCat::kDiffCreate)];
  auto share = [](sim::Time part, sim::Time whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  const double fault_shift =
      share(r.cat_b[static_cast<int>(PathCat::kFault)] +
                r.cat_b[static_cast<int>(PathCat::kDiffCreate)],
            b.makespan) -
      share(r.cat_a[static_cast<int>(PathCat::kFault)] +
                r.cat_a[static_cast<int>(PathCat::kDiffCreate)],
            a.makespan);
  const double grant_shift =
      share(r.cat_b[static_cast<int>(PathCat::kGrantTransfer)], b.makespan) -
      share(r.cat_a[static_cast<int>(PathCat::kGrantTransfer)], a.makespan);
  const bool shift =
      (fault_shift > 0) != (grant_shift > 0) &&
      std::min(std::abs(fault_shift), std::abs(grant_shift)) >=
          kMinShiftShare;
  if (shift) {
    const double chain = static_cast<double>(std::llabs(ft) + std::llabs(gt) +
                                             std::llabs(dc));
    Finding f;
    f.cat = FindingCat::kTransferShift;
    f.severity = clamp01(chain / dd);
    f.location = "critical path: fault/diff <-> grant_transfer";
    f.evidence =
        "update transfer changed protocol point: fault/diff service is " +
        fmtPct(std::abs(fault_shift)) + " of the makespan " +
        (fault_shift < 0 ? "smaller" : "larger") +
        " in B while grant transfer is " + fmtPct(std::abs(grant_shift)) +
        " " + (grant_shift < 0 ? "smaller" : "larger") +
        "; critical-path deltas: fault " + fmtSignedDur(ft) +
        ", grant transfer " + fmtSignedDur(gt) + ", diff creation " +
        fmtSignedDur(dc);
    f.remedy =
        "the runs ship the same updates at different protocol points "
        "(fault-time diff fetch vs grant-time carriage); compare their "
        "diff_request/diff_reply and grant wire volumes before crediting "
        "either side";
    r.findings.push_back(std::move(f));
  }

  // Per-category critical-path deltas: the exact partition of the makespan
  // difference. Waits are discounted as symptoms (cf. passes/hotspot.cpp),
  // and the categories a detected shift already explains are discounted
  // below the shift finding (root cause over symptom).
  for (int c = 0; c < kPathCatCount; ++c) {
    const sim::Time d = cat_delta[c];
    if (static_cast<double>(std::llabs(d)) < dd * kMinCatFrac) continue;
    const PathCat cat = static_cast<PathCat>(c);
    double weight = kServiceWeight;
    if (cat == PathCat::kCompute) weight = 1.0;
    if (cat == PathCat::kAcquireWait || cat == PathCat::kBarrierWait)
      weight = kWaitWeight;
    if (shift && (cat == PathCat::kFault || cat == PathCat::kGrantTransfer ||
                  cat == PathCat::kDiffCreate))
      weight = kShiftedWeight;
    Finding f;
    f.cat = FindingCat::kPathDelta;
    f.severity = weight * clamp01(static_cast<double>(std::llabs(d)) / dd);
    f.location = std::string("critical path: ") + kPathCatName[c];
    f.id = c;
    f.evidence = std::string(kPathCatName[c]) + " " + fmtDur(r.cat_a[c]) +
                 " in A vs " + fmtDur(r.cat_b[c]) + " in B (" +
                 fmtSignedDur(d) + ", " +
                 fmtPct(static_cast<double>(std::llabs(d)) / dd) +
                 " of the makespan delta)";
    f.remedy = d > 0 ? "B spends more critical-path time here; drill into "
                       "this category's slices on B's single-run report"
                     : "B spends less critical-path time here; this "
                       "category is where B wins";
    r.findings.push_back(std::move(f));
  }

  // Barrier-episode alignment: same (barrier, episode) key in both runs,
  // delta of the imbalance gap (slowest minus next-slowest arrival).
  const auto pages = pageDeltas(a, b);
  {
    std::map<std::pair<uint64_t, uint32_t>, const ProfileEpisode*> in_a;
    for (const ProfileEpisode& e : a.episodes)
      in_a[{e.barrier, e.episode}] = &e;
    std::vector<Finding> eps;
    for (const ProfileEpisode& eb : b.episodes) {
      auto it = in_a.find({eb.barrier, eb.episode});
      if (it == in_a.end()) continue;
      const ProfileEpisode& ea = *it->second;
      const sim::Time gd = eb.gap() - ea.gap();
      if (static_cast<double>(std::llabs(gd)) < dd * kMinCatFrac) continue;
      Finding f;
      f.cat = FindingCat::kEpisodeDelta;
      f.severity =
          kEpisodeWeight * clamp01(static_cast<double>(std::llabs(gd)) / dd);
      f.location = "barrier " + std::to_string(eb.barrier) + " episode " +
                   std::to_string(eb.episode);
      f.id = static_cast<int64_t>(eb.barrier);
      f.node = eb.slow_node;
      f.evidence = "imbalance gap " + fmtDur(ea.gap()) + " in A (node " +
                   std::to_string(ea.slow_node) + ") vs " + fmtDur(eb.gap()) +
                   " in B (node " + std::to_string(eb.slow_node) + "), " +
                   fmtSignedDur(gd);
      if (!pages.empty() && pages.front().second != 0) {
        f.evidence += "; run-wide page fault-time deltas: ";
        size_t shown = 0;
        for (const auto& [page, pdt] : pages) {
          if (pdt == 0 || shown == 2) break;
          if (shown) f.evidence += ", ";
          f.evidence +=
              "page " + std::to_string(page) + " " + fmtSignedDur(pdt);
          ++shown;
        }
      }
      f.remedy = gd > 0 ? "this phase got more imbalanced in B; check what "
                          "the slow node stalls on before this barrier"
                        : "this phase is better balanced in B";
      eps.push_back(std::move(f));
    }
    std::sort(eps.begin(), eps.end(), [](const Finding& x, const Finding& y) {
      if (x.severity != y.severity) return x.severity > y.severity;
      if (x.id != y.id) return x.id < y.id;
      return x.location < y.location;
    });
    if (eps.size() > kMaxEpisodeFindings) eps.resize(kMaxEpisodeFindings);
    for (Finding& f : eps) r.findings.push_back(std::move(f));
  }

  // Page-heat alignment: fault-time delta per page over the union of both
  // page tables. A localization of the fault-side category delta, so it is
  // discounted like that category when a shift already claims it.
  {
    const double page_weight = shift ? kShiftedWeight : kPageWeight;
    size_t emitted = 0;
    for (const auto& [page, pdt] : pages) {
      if (emitted == kMaxPageFindings) break;
      if (static_cast<double>(std::llabs(pdt)) < dd * kMinCatFrac) break;
      Finding f;
      f.cat = FindingCat::kPageDelta;
      f.severity =
          page_weight * clamp01(static_cast<double>(std::llabs(pdt)) / dd);
      f.location = "page " + std::to_string(page);
      f.id = static_cast<int64_t>(page);
      f.evidence = "fault time " + fmtDur(pageFaultTime(a, page)) +
                   " in A vs " + fmtDur(pageFaultTime(b, page)) + " in B (" +
                   fmtSignedDur(pdt) + ")";
      f.remedy = pdt > 0 ? "B faults longer on this page; check its sharer "
                           "and writer sets for new false sharing"
                         : "B resolves this page's faults faster";
      r.findings.push_back(std::move(f));
      ++emitted;
    }
  }

  // Wire-level delta: uplink serialization time (the transport's own view
  // of how much longer the wire was busy), with per-class volume evidence.
  const ProfileMetricRow* ua = findMetric(a, Metric::kUplinkBusyNs);
  const ProfileMetricRow* ub = findMetric(b, Metric::kUplinkBusyNs);
  if (ua && ub) {
    const sim::Time ud = ub->final_total - ua->final_total;
    if (static_cast<double>(std::llabs(ud)) >= dd * kMinCatFrac) {
      Finding f;
      f.cat = FindingCat::kNetDelta;
      // The wire's busy-time delta is itself an echo of a detected transfer
      // shift (the same bytes moved to another message class), so it is
      // discounted harder than the time attributions when one fired.
      f.severity = (shift ? kShiftedNetWeight : kNetWeight) *
                   clamp01(static_cast<double>(std::llabs(ud)) / dd);
      f.location = "wire: uplink busy time";
      f.evidence = "summed uplink serialization " + fmtDur(ua->final_total) +
                   " in A vs " + fmtDur(ub->final_total) + " in B (" +
                   fmtSignedDur(ud) + ")";
      if (a.has_net && b.has_net) {
        std::vector<std::pair<int64_t, int>> by_class;
        for (int c = 0; c < kProfileClassCount; ++c) {
          const int64_t pd =
              static_cast<int64_t>(b.classes[c].payload_bytes) -
              static_cast<int64_t>(a.classes[c].payload_bytes);
          if (pd != 0) by_class.push_back({pd, c});
        }
        std::sort(by_class.begin(), by_class.end(),
                  [](const auto& x, const auto& y) {
                    const int64_t ax = std::llabs(x.first);
                    const int64_t ay = std::llabs(y.first);
                    if (ax != ay) return ax > ay;
                    return x.second < y.second;
                  });
        if (by_class.size() > 3) by_class.resize(3);
        for (size_t i = 0; i < by_class.size(); ++i) {
          f.evidence += i == 0 ? "; payload deltas: " : ", ";
          const int c = by_class[i].second;
          f.evidence += std::string(kProfileClassName[c]) +
                        (by_class[i].first < 0 ? " -" : " +") +
                        fmtBytes(std::llabs(by_class[i].first));
        }
      }
      f.remedy = ud > 0 ? "B pushes more bytes (or the same bytes in more "
                          "serialized turns); the class deltas say which "
                          "message type grew"
                        : "B keeps the wire less busy";
      r.findings.push_back(std::move(f));
    }
  }

  // Protocol-memory delta: diff-store peak growth, capped like the
  // single-run memory pass so a memory observation never outranks a time
  // attribution.
  const ProfileMetricRow* ma = findMetric(a, Metric::kDiffStoreBytes);
  const ProfileMetricRow* mb = findMetric(b, Metric::kDiffStoreBytes);
  if (ma && mb && mb->peak > 2 * ma->peak && mb->peak >= 64 * 1024) {
    const double growth =
        static_cast<double>(mb->peak - ma->peak) /
        static_cast<double>(std::max<int64_t>(mb->peak, 1));
    Finding f;
    f.cat = FindingCat::kMetricDelta;
    f.severity = kMetricSeverityCap * clamp01(growth);
    f.location = "metric: dsm.diff_store_bytes peak";
    f.evidence = "peak retained diff store " + fmtBytes(ma->peak) +
                 " in A vs " + fmtBytes(mb->peak) + " in B";
    f.remedy =
        "B retains a much larger diff log; check home GC effectiveness "
        "and write-notice fan-out";
    r.findings.push_back(std::move(f));
  }

  // Structure mismatch: the runs are not the same program shape, so the
  // alignments above are partial. Low fixed severity — a caveat, not a
  // cause.
  if (a.nprocs != b.nprocs || a.episodes_total != b.episodes_total) {
    Finding f;
    f.cat = FindingCat::kStructureDelta;
    f.severity = kStructureSeverity;
    f.location = "program structure";
    f.evidence = "A has " + std::to_string(a.nprocs) + " nodes / " +
                 std::to_string(a.episodes_total) +
                 " barrier episodes, B has " + std::to_string(b.nprocs) +
                 " nodes / " + std::to_string(b.episodes_total) +
                 "; unmatched episodes are not compared";
    f.remedy =
        "the runs differ structurally; prefer comparing runs of the same "
        "program at the same scale";
    r.findings.push_back(std::move(f));
  }

  rankFindings(r.findings);
  return r;
}

namespace {

std::string fmtSecs6(sim::Time t) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6) << sim::toSeconds(t);
  return os.str();
}

// Signed seconds at six decimals: "+0.001234" / "-0.001234".
std::string fmtSignedSecs6(sim::Time d) {
  return (d < 0 ? "-" : "+") + fmtSecs6(d < 0 ? -d : d);
}

}  // namespace

void printDiffReport(std::ostream& os, const DiffReport& r,
                     const std::string& title) {
  os << "\n" << title << "\n";
  os << "A: " << r.label_a << " — makespan " << fmtSecs6(r.makespan_a)
     << " s over " << r.nprocs_a << " nodes\n";
  os << "B: " << r.label_b << " — makespan " << fmtSecs6(r.makespan_b)
     << " s over " << r.nprocs_b << " nodes\n";
  os << "delta: " << fmtSignedSecs6(r.delta) << " s (B is ";
  if (r.makespan_a > 0) {
    std::ostringstream pct;
    pct << std::fixed << std::setprecision(1)
        << std::abs(static_cast<double>(r.delta)) /
               static_cast<double>(r.makespan_a) * 100.0;
    os << pct.str() << "% " << (r.delta <= 0 ? "faster" : "slower")
       << " than A)\n";
  } else {
    os << "incomparable)\n";
  }

  os << "\ncritical path (seconds)\n";
  os << "  category                 A           B       delta\n";
  for (int c = 0; c < kPathCatCount; ++c) {
    const sim::Time d = r.cat_b[c] - r.cat_a[c];
    os << "  " << std::left << std::setw(16) << kPathCatName[c] << std::right
       << std::setw(12) << fmtSecs6(r.cat_a[c]) << std::setw(12)
       << fmtSecs6(r.cat_b[c]) << std::setw(12) << fmtSignedSecs6(d)
       << "\n";
  }
  os << "  " << std::left << std::setw(16) << "total" << std::right
     << std::setw(12) << fmtSecs6(r.makespan_a) << std::setw(12)
     << fmtSecs6(r.makespan_b) << std::setw(12) << fmtSignedSecs6(r.delta)
     << "\n";

  os << "\n" << r.findings.size()
     << (r.findings.size() == 1 ? " finding" : " findings") << "\n";
  if (r.findings.empty()) {
    os << "no significant delta pattern; the runs look equivalent\n";
    return;
  }
  printFindings(os, r.findings);
}

void writeDiffReportJson(std::ostream& os, const DiffReport& r) {
  support::JsonWriter w(os);
  w.beginObject();
  w.key("report").value("vodsm_diff_report");
  w.key("version").value(1);
  w.key("label_a").value(r.label_a);
  w.key("label_b").value(r.label_b);
  w.key("nprocs_a").value(r.nprocs_a);
  w.key("nprocs_b").value(r.nprocs_b);
  w.key("makespan_a_ns").value(static_cast<long long>(r.makespan_a));
  w.key("makespan_b_ns").value(static_cast<long long>(r.makespan_b));
  w.key("delta_ns").value(static_cast<long long>(r.delta));
  w.key("critpath_delta_ns").beginObject();
  for (int c = 0; c < kPathCatCount; ++c)
    w.key(kPathCatName[c])
        .value(static_cast<long long>(r.cat_b[c] - r.cat_a[c]));
  w.endObject();
  w.key("findings").beginArray();
  int rank = 0;
  for (const Finding& f : r.findings) {
    w.beginObject();
    w.key("rank").value(++rank);
    w.key("category").value(findingCatName(f.cat));
    w.key("severity").value(f.severity, "%.6f");
    w.key("location").value(f.location);
    w.key("node").value(static_cast<long long>(f.node));
    w.key("id").value(static_cast<long long>(f.id));
    w.key("evidence").value(f.evidence);
    w.key("remedy").value(f.remedy);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << "\n";
}

}  // namespace vodsm::obs
