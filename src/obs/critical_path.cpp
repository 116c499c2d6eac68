#include "obs/critical_path.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "support/table.hpp"

namespace vodsm::obs {

namespace {

// One entry of a node's merged timeline: a local service span or a wait,
// all mutually disjoint on a node, sorted by begin (hence also by end).
struct Ival {
  sim::Time b = 0;
  sim::Time e = 0;
  PathCat cat = PathCat::kCompute;
  uint64_t id = 0;
};

PathCat pathCatOf(Cat c) {
  switch (c) {
    case Cat::kFault: return PathCat::kFault;
    case Cat::kDiffCreate: return PathCat::kDiffCreate;
    case Cat::kAcquireWait: return PathCat::kAcquireWait;
    case Cat::kBarrierWait: return PathCat::kBarrierWait;
    default: return PathCat::kCompute;
  }
}

}  // namespace

CriticalPath computeCriticalPath(const EventGraph& g, sim::Time finish) {
  CriticalPath cp;
  cp.makespan = finish;
  cp.by_node.assign(g.nodes.size(), 0);
  if (g.nodes.empty() || finish <= 0) return cp;

  // Merged per-node interval lists for classifying local time. Waits are
  // included: when the walk lands *inside* another node's wait (the grant
  // it sent was serviced while it was itself blocked), that time is the
  // wait's category, not compute.
  std::vector<std::vector<Ival>> merged(g.nodes.size());
  for (size_t n = 0; n < g.nodes.size(); ++n) {
    const NodeTimeline& tl = g.nodes[n];
    auto& ivs = merged[n];
    ivs.reserve(tl.spans.size() + tl.waits.size());
    for (const LocalSpan& s : tl.spans)
      ivs.push_back({s.begin, s.end, pathCatOf(s.cat), s.id});
    for (const Wait& w : tl.waits)
      ivs.push_back({w.begin, w.end, pathCatOf(w.cat), w.id});
    std::sort(ivs.begin(), ivs.end(), [](const Ival& a, const Ival& b) {
      return a.b != b.b ? a.b < b.b : a.e < b.e;
    });
  }

  std::map<std::tuple<uint32_t, uint8_t, uint64_t>, sim::Time> acc;
  auto credit = [&](uint32_t node, PathCat c, uint64_t id, sim::Time nanos) {
    if (nanos <= 0) return;
    acc[{node, static_cast<uint8_t>(c), id}] += nanos;
    cp.by_cat[static_cast<int>(c)] += nanos;
    cp.by_node[node] += nanos;
  };

  // Attributes the half-open interval (lo, hi] of `node`'s timeline:
  // pieces inside merged intervals get their category, gaps are compute.
  auto local = [&](uint32_t node, sim::Time lo, sim::Time hi) {
    if (lo >= hi) return;
    const auto& ivs = merged[node];
    sim::Time cursor = lo;
    auto it = std::partition_point(ivs.begin(), ivs.end(),
                                   [&](const Ival& v) { return v.e <= lo; });
    for (; it != ivs.end() && it->b < hi; ++it) {
      const sim::Time b = std::max(lo, it->b);
      const sim::Time e = std::min(hi, it->e);
      if (b > cursor) credit(node, PathCat::kCompute, 0, b - cursor);
      if (e > b) credit(node, it->cat, it->id, e - b);
      if (e > cursor) cursor = e;
    }
    if (hi > cursor) credit(node, PathCat::kCompute, 0, hi - cursor);
  };

  // Start on the node whose program end owns the finish time (ties break
  // toward the lowest id; nodes without a program end count as `finish`).
  uint32_t cur = 0;
  sim::Time best_end = -1;
  for (uint32_t n = 0; n < g.nodes.size(); ++n) {
    const sim::Time pe =
        g.nodes[n].program_end >= 0 ? g.nodes[n].program_end : finish;
    if (pe > best_end) {
      best_end = pe;
      cur = n;
    }
  }

  // Backward walk. Every iteration strictly decreases `t` and covers the
  // skipped-over interval exactly once, so the credits telescope to
  // [0, finish].
  sim::Time t = finish;
  while (t > 0) {
    const NodeTimeline& tl = g.nodes[cur];
    // Latest nonzero-length wait ending at or before t.
    auto it = std::partition_point(tl.waits.begin(), tl.waits.end(),
                                   [&](const Wait& w) { return w.end <= t; });
    const Wait* w = nullptr;
    while (it != tl.waits.begin()) {
      const Wait& cand = *std::prev(it);
      if (cand.end > cand.begin) {
        w = &cand;
        break;
      }
      --it;
    }
    if (!w) {
      local(cur, 0, t);
      break;
    }
    local(cur, w->end, t);
    if (w->trigger < 0 || w->trigger_ts >= w->end || w->trigger_ts < 0) {
      // No usable wakeup edge: the wait itself is the critical segment.
      credit(cur, pathCatOf(w->cat), w->id, w->end - w->begin);
      t = w->begin;
      continue;
    }
    // The tail of the wait — from the producer's grant/fold to the wait's
    // end — is the transfer latency the waiter was truly blocked on; before
    // that instant the producer was the bottleneck, so jump there.
    credit(cur,
           w->cat == Cat::kAcquireWait ? PathCat::kGrantTransfer
                                       : PathCat::kBarrierRelease,
           w->id, w->end - w->trigger_ts);
    cp.hops++;
    cur = w->trigger_node;
    t = w->trigger_ts;
  }

  cp.slices.reserve(acc.size());
  for (const auto& [key, nanos] : acc)
    cp.slices.push_back({std::get<0>(key),
                         static_cast<PathCat>(std::get<1>(key)),
                         std::get<2>(key), nanos});
  std::sort(cp.slices.begin(), cp.slices.end(),
            [](const PathSlice& a, const PathSlice& b) {
              if (a.nanos != b.nanos) return a.nanos > b.nanos;
              if (a.node != b.node) return a.node < b.node;
              if (a.cat != b.cat) return a.cat < b.cat;
              return a.id < b.id;
            });
  return cp;
}

CriticalPath computeCriticalPath(const TraceRecorder& trace, int nprocs,
                                 sim::Time finish) {
  return computeCriticalPath(buildEventGraph(trace, nprocs), finish);
}

namespace {

std::string idLabel(PathCat c, uint64_t id) {
  switch (c) {
    case PathCat::kFault: return "page " + std::to_string(id);
    case PathCat::kAcquireWait:
    case PathCat::kGrantTransfer: return "id " + std::to_string(id);
    case PathCat::kBarrierWait:
    case PathCat::kBarrierRelease: return "barrier " + std::to_string(id);
    default: return "-";
  }
}

std::string pct(sim::Time part, sim::Time whole) {
  double p = whole > 0 ? 100.0 * static_cast<double>(part) /
                             static_cast<double>(whole)
                       : 0.0;
  return TextTable::format(p) + "%";
}

}  // namespace

std::string fmtSeconds(sim::Time t) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4) << sim::toSeconds(t);
  return os.str();
}

void printCriticalPath(std::ostream& os, const CriticalPath& cp,
                       const std::string& title, size_t max_slices) {
  os << "\n" << title << "\n";
  os << "makespan " << fmtSeconds(cp.makespan)
     << " s, " << cp.hops << " cross-node hops\n";
  TextTable cats;
  cats.header({"category", "seconds", "share"});
  for (int c = 0; c < kPathCatCount; ++c) {
    if (cp.by_cat[c] == 0) continue;
    cats.row({kPathCatName[c],
              fmtSeconds(cp.by_cat[c]),
              pct(cp.by_cat[c], cp.makespan)});
  }
  cats.print(os);

  TextTable top;
  top.header({"node", "category", "id", "seconds", "share"});
  for (size_t i = 0; i < cp.slices.size() && i < max_slices; ++i) {
    const PathSlice& s = cp.slices[i];
    top.row({std::to_string(s.node), kPathCatName[static_cast<int>(s.cat)],
             idLabel(s.cat, s.id),
             fmtSeconds(s.nanos),
             pct(s.nanos, cp.makespan)});
  }
  os << "top attributions:\n";
  top.print(os);
}

}  // namespace vodsm::obs
