// Communication-pattern detectors: broadcast-like grant storms on one
// lock/view id, and all-to-all diff exchange across the node set.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/passes/common.hpp"

namespace vodsm::obs::passes {

// A grant storm is one id being granted over and over to (nearly) every
// node — broadcast-like sharing that serializes on the id's manager.
// Severity is what the critical path already charges to the id (its
// acquire_wait + grant_transfer slices), i.e. the makespan fraction the
// contention explains — minus any acquire-wait time that overlaps a
// detected partition's recovery interval, so a manager going dark is
// reported as a partition, not as contention on the ids it manages.
void grantStorm(const DiagnosisInput& in, std::vector<Finding>& out) {
  if (in.finish <= 0 || in.nprocs < 2) return;
  const DropWindow w = detectDropWindow(in);
  const sim::Time stall_begin = w.found ? w.t0 : 0;
  const sim::Time stall_end = w.found ? partitionRecoveryEnd(in, w) : 0;

  struct PerId {
    uint64_t grants = 0;
    std::set<uint64_t> requesters;
    std::map<uint32_t, uint64_t> grantors;  // manager node -> count
  };
  std::map<uint64_t, PerId> ids;
  for (const Event& ev : in.trace.events()) {
    if (ev.cat != Cat::kGrant || ev.phase != Phase::kInstant) continue;
    PerId& p = ids[ev.a0];
    p.grants++;
    p.requesters.insert(ev.a1);
    p.grantors[ev.node]++;
  }

  const uint64_t min_requesters =
      std::max<uint64_t>(2, static_cast<uint64_t>(in.nprocs) - 1);
  std::vector<Finding> found;
  for (const auto& [id, p] : ids) {
    if (p.requesters.size() < min_requesters) continue;
    if (p.grants < 2 * static_cast<uint64_t>(in.nprocs)) continue;

    sim::Time charged = 0;
    for (const PathSlice& s : in.critpath.slices)
      if ((s.cat == PathCat::kAcquireWait ||
           s.cat == PathCat::kGrantTransfer) &&
          s.id == id)
        charged += s.nanos;
    if (w.found && charged > 0) {
      // Subtract the id's acquire waits that overlap the partition
      // stall (conservatively, across all nodes — the path's waits are
      // a subset of these).
      sim::Time overlap = 0;
      for (const NodeTimeline& nt : in.graph.nodes)
        for (const Wait& wt : nt.waits) {
          if (wt.cat != Cat::kAcquireWait || wt.id != id) continue;
          const sim::Time b = std::max(wt.begin, stall_begin);
          const sim::Time e = std::min(wt.end, stall_end);
          if (e > b) overlap += e - b;
        }
      charged -= std::min(charged, overlap);
    }
    uint32_t manager = 0;
    uint64_t manager_grants = 0;
    for (const auto& [node, cnt] : p.grantors)
      if (cnt > manager_grants) {
        manager = node;
        manager_grants = cnt;
      }

    Finding f;
    f.cat = FindingCat::kGrantStorm;
    f.severity = clamp01(static_cast<double>(charged) /
                         static_cast<double>(in.finish));
    f.location =
        "id " + std::to_string(id) + " (manager node " +
        std::to_string(manager) + ")";
    f.node = manager;
    f.id = static_cast<int64_t>(id);
    f.evidence = "id " + std::to_string(id) + " granted " +
                 std::to_string(p.grants) + " times to " +
                 std::to_string(p.requesters.size()) +
                 " distinct requesters; its acquire + grant transfer "
                 "explains " +
                 fmtPct(f.severity) + " of the critical path";
    f.remedy = "broadcast-like sharing serializes on the manager; split "
               "the view, privatize read-mostly data, or shard the id's "
               "home";
    found.push_back(std::move(f));
  }

  std::sort(found.begin(), found.end(),
            [](const Finding& x, const Finding& y) {
              if (x.severity != y.severity) return x.severity > y.severity;
              return x.id < y.id;
            });
  if (found.size() > 3) found.resize(3);
  for (Finding& f : found) out.push_back(std::move(f));
}

// All-to-all diff exchange: diff request/reply flows cover (nearly) every
// ordered node pair. Needs the wire-class hook; without it the detector is
// silent (the obs layer cannot name message types by itself).
void allToAllDiff(const DiagnosisInput& in, std::vector<Finding>& out) {
  if (!in.classify) return;
  if (in.nprocs < 4 || in.finish <= 0) return;

  const auto& events = in.trace.events();
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  uint64_t diff_flows = 0;
  for (const Flow& fl : in.flows.flows) {
    if (fl.send < 0 || fl.deliver < 0) continue;
    const Event& s = events[static_cast<size_t>(fl.send)];
    const WireClass cls = in.classify(s.a0);
    if (cls != WireClass::kDiffRequest && cls != WireClass::kDiffReply)
      continue;
    diff_flows++;
    const Event& d = events[static_cast<size_t>(fl.deliver)];
    if (s.node != d.node) pairs.insert({s.node, d.node});
  }

  const uint64_t possible = static_cast<uint64_t>(in.nprocs) *
                            static_cast<uint64_t>(in.nprocs - 1);
  if (possible == 0 || diff_flows < 2 * possible) return;
  const double coverage =
      static_cast<double>(pairs.size()) / static_cast<double>(possible);
  if (coverage < 0.75) return;

  const sim::Time charged =
      in.critpath.by_cat[static_cast<int>(PathCat::kFault)] +
      in.critpath.by_cat[static_cast<int>(PathCat::kDiffCreate)];

  Finding f;
  f.cat = FindingCat::kAllToAllDiff;
  f.severity = clamp01(static_cast<double>(charged) /
                       static_cast<double>(in.finish));
  f.location = std::to_string(pairs.size()) + " of " +
               std::to_string(possible) + " node pairs";
  f.evidence = std::to_string(diff_flows) +
               " diff request/reply flows cover " + fmtPct(coverage) +
               " of the ordered node pairs; fault + diff_create explain " +
               fmtPct(f.severity) + " of the critical path";
  f.remedy = "every node exchanges diffs with every other; pin view homes "
             "to their dominant writers or coarsen views to cut the "
             "exchange degree";
  out.push_back(std::move(f));
}

}  // namespace vodsm::obs::passes
