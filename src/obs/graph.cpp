#include "obs/graph.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace vodsm::obs {

namespace {

// (id, node) composite key for grant matching and per-node wait lists.
using IdNode = std::pair<uint64_t, uint32_t>;

}  // namespace

EventGraph buildEventGraph(const TraceRecorder& trace, int nprocs) {
  EventGraph g;
  g.nodes.resize(static_cast<size_t>(nprocs));
  const EventLog& ev = trace.events();

  // Pass 1: per-node timelines (waits + local spans) and the raw
  // producer-side instants (grants, folds) for pass 2's edge matching.
  // std::map keys keep every derived order deterministic.
  std::map<IdNode, std::vector<int64_t>> grants;  // (id, requester) -> events
  std::map<uint64_t, std::vector<int64_t>> folds;  // barrier -> fold events
  std::map<IdNode, sim::Time> open;  // (cat, node) -> open begin ts

  auto openKey = [](Cat c, uint32_t node) {
    return IdNode{static_cast<uint64_t>(c), node};
  };

  for (size_t i = 0; i < ev.size(); ++i) {
    const Event& e = ev[i];
    if (e.node == kEngineNode) continue;
    switch (e.cat) {
      case Cat::kProgram:
        if (e.phase == Phase::kEnd && e.node < g.nodes.size())
          g.nodes[e.node].program_end = e.ts;
        break;
      case Cat::kAcquireWait:
      case Cat::kBarrierWait: {
        if (e.node >= g.nodes.size()) break;
        if (e.phase == Phase::kBegin) {
          open[openKey(e.cat, e.node)] = e.ts;
        } else if (e.phase == Phase::kEnd) {
          auto it = open.find(openKey(e.cat, e.node));
          if (it == open.end()) {
            g.unmatched_spans++;
            break;
          }
          g.nodes[e.node].waits.push_back({it->second, e.ts, e.cat, e.a0, -1});
          open.erase(it);
        }
        break;
      }
      case Cat::kFault:
      case Cat::kDiffCreate: {
        if (e.node >= g.nodes.size()) break;
        if (e.phase == Phase::kBegin) {
          open[openKey(e.cat, e.node)] = e.ts;
        } else if (e.phase == Phase::kEnd) {
          auto it = open.find(openKey(e.cat, e.node));
          if (it == open.end()) {
            g.unmatched_spans++;
            break;
          }
          // kFault carries the page in a0 on both phases; kDiffCreate's end
          // args are (pages, bytes), which are not an identity — use 0.
          const uint64_t id = e.cat == Cat::kFault ? e.a0 : 0;
          g.nodes[e.node].spans.push_back({it->second, e.ts, e.cat, id});
          open.erase(it);
        }
        break;
      }
      case Cat::kGrant:
        // a0 = lock/view id, a1 = requester (recorded on the granting node).
        grants[{e.a0, static_cast<uint32_t>(e.a1)}].push_back(
            static_cast<int64_t>(i));
        break;
      case Cat::kBarrFold:
        folds[e.a0].push_back(static_cast<int64_t>(i));
        break;
      default:
        break;
    }
  }
  g.unmatched_spans += open.size();

  // Sort timelines. Waits are recorded at their end timestamps in engine
  // order, but sort defensively so hand-crafted traces work too.
  for (NodeTimeline& tl : g.nodes) {
    std::stable_sort(tl.waits.begin(), tl.waits.end(),
                     [](const Wait& a, const Wait& b) {
                       return a.end != b.end ? a.end < b.end
                                             : a.begin < b.begin;
                     });
    std::stable_sort(tl.spans.begin(), tl.spans.end(),
                     [](const LocalSpan& a, const LocalSpan& b) {
                       return a.begin != b.begin ? a.begin < b.begin
                                                 : a.end < b.end;
                     });
  }
  // Per-(id, node) wait index lists in sorted (end-time) order, the order
  // edge matching pairs against.
  std::map<IdNode, std::vector<size_t>> acq_waits;
  std::map<IdNode, std::vector<size_t>> barr_waits;
  for (uint32_t n = 0; n < g.nodes.size(); ++n) {
    NodeTimeline& tl = g.nodes[n];
    for (size_t w = 0; w < tl.waits.size(); ++w) {
      auto& list =
          (tl.waits[w].cat == Cat::kAcquireWait ? acq_waits : barr_waits);
      list[{tl.waits[w].id, n}].push_back(w);
    }
  }

  // Pass 2a: grant wakeup edges. Grants for one (id, requester) pair are
  // already in recording order; sort by timestamp for safety and pair the
  // j-th grant with the requester's j-th wait on that id.
  for (auto& [key, list] : grants) {
    std::stable_sort(list.begin(), list.end(), [&](int64_t a, int64_t b) {
      return ev[static_cast<size_t>(a)].ts < ev[static_cast<size_t>(b)].ts;
    });
    auto it = acq_waits.find(key);
    if (it == acq_waits.end()) continue;
    const std::vector<size_t>& waits = it->second;
    for (size_t j = 0; j < waits.size() && j < list.size(); ++j) {
      Wait& w = g.nodes[key.second].waits[waits[j]];
      const Event& trig = ev[static_cast<size_t>(list[j])];
      w.trigger = list[j];
      w.trigger_node = trig.node;
      w.trigger_ts = trig.ts;
    }
  }

  // Pass 2b: barrier wakeup edges. Fold instants for one barrier arrive in
  // episodes of nprocs; the episode's last fold released every waiter of
  // that episode, and a node's j-th wait on the barrier belongs to episode j.
  for (auto& [barrier, list] : folds) {
    std::stable_sort(list.begin(), list.end(), [&](int64_t a, int64_t b) {
      return ev[static_cast<size_t>(a)].ts < ev[static_cast<size_t>(b)].ts;
    });
    for (uint32_t n = 0; n < g.nodes.size(); ++n) {
      auto it = barr_waits.find({barrier, n});
      if (it == barr_waits.end()) continue;
      const std::vector<size_t>& waits = it->second;
      for (size_t j = 0; j < waits.size(); ++j) {
        const size_t release = (j + 1) * static_cast<size_t>(nprocs) - 1;
        if (release >= list.size()) continue;
        Wait& w = g.nodes[n].waits[waits[j]];
        const Event& trig = ev[static_cast<size_t>(list[release])];
        w.trigger = list[release];
        w.trigger_node = trig.node;
        w.trigger_ts = trig.ts;
      }
    }
  }

  for (const NodeTimeline& tl : g.nodes)
    for (const Wait& w : tl.waits)
      if (w.trigger < 0) g.waits_without_trigger++;
  return g;
}

BarrierEpisodes barrierEpisodes(const EventGraph& g) {
  BarrierEpisodes episodes;
  for (uint32_t n = 0; n < g.nodes.size(); ++n) {
    std::map<uint64_t, size_t> seen;
    for (const Wait& w : g.nodes[n].waits) {
      if (w.cat != Cat::kBarrierWait) continue;
      const size_t j = seen[w.id]++;
      auto& eps = episodes[w.id];
      if (eps.size() <= j) eps.resize(j + 1);
      eps[j].push_back({n, w.begin, w.end});
    }
  }
  for (auto& [barrier, eps] : episodes)
    for (std::vector<Arrival>& a : eps)
      std::sort(a.begin(), a.end(), [](const Arrival& x, const Arrival& y) {
        if (x.begin != y.begin) return x.begin < y.begin;
        return x.node < y.node;
      });
  return episodes;
}

}  // namespace vodsm::obs
