// Critical-path extraction over an EventGraph.
//
// Walks the longest dependency chain of a run backwards from the finish
// timestamp (owned by the slowest node's program end) and attributes every
// critical nanosecond to a (node, category, id) triple:
//
//   compute          — local work on the path's current node
//   fault            — page-fault service spans (id = page)
//   diff_create      — release-time diff creation on the path
//   acquire_wait     — wait time not explained by a wakeup edge
//   barrier_wait     — likewise for barriers
//   grant_transfer   — grant posted on the producer -> wait end on the
//                      consumer (id = lock/view); the wire + diff-apply
//                      latency of the grant that the waiter was blocked on
//   barrier_release  — releasing fold on the manager -> wait end
//                      (id = barrier); the release fan-out latency
//
// The walk telescopes: each step covers a half-open interval of the
// timeline exactly once, so the attributions partition [0, finish] and sum
// to the run's makespan to the nanosecond — the invariant the test suite
// asserts. When a wait has no wakeup edge (hand-crafted or truncated
// traces), its span is attributed to the wait category itself and the walk
// continues on the same node, preserving the partition.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/graph.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace vodsm::obs {

enum class PathCat : uint8_t {
  kCompute = 0,
  kFault,
  kDiffCreate,
  kAcquireWait,
  kBarrierWait,
  kGrantTransfer,
  kBarrierRelease,
  kPathCatCount,
};
inline constexpr int kPathCatCount =
    static_cast<int>(PathCat::kPathCatCount);
inline constexpr const char* kPathCatName[kPathCatCount] = {
    "compute",      "fault",          "diff_create",     "acquire_wait",
    "barrier_wait", "grant_transfer", "barrier_release",
};

// One aggregated attribution: `nanos` of critical time on `node` doing
// `cat` for `id` (page for fault, lock/view for acquire/grant, barrier for
// barrier categories, 0 otherwise).
struct PathSlice {
  uint32_t node = 0;
  PathCat cat = PathCat::kCompute;
  uint64_t id = 0;
  sim::Time nanos = 0;
};

struct CriticalPath {
  sim::Time makespan = 0;  // run finish time; equals the attribution sum
  sim::Time by_cat[kPathCatCount] = {};
  std::vector<sim::Time> by_node;   // index = node id
  std::vector<PathSlice> slices;    // sorted by nanos desc, then key
  int hops = 0;                     // cross-node jumps taken by the walk

  sim::Time total() const {
    sim::Time t = 0;
    for (int c = 0; c < kPathCatCount; ++c) t += by_cat[c];
    return t;
  }
  bool enabled() const { return makespan > 0 || !slices.empty(); }
};

// Walks the critical path of a prebuilt graph. `finish` is the run's finish
// time (the slowest node's clock).
CriticalPath computeCriticalPath(const EventGraph& graph, sim::Time finish);

// Convenience: build the graph and walk it.
CriticalPath computeCriticalPath(const TraceRecorder& trace, int nprocs,
                                 sim::Time finish);

// Seconds at four decimals, the precision of the critical-path and
// diagnosis text reports.
std::string fmtSeconds(sim::Time t);

// Renders the per-category totals plus the top-`max_slices` attributions.
void printCriticalPath(std::ostream& os, const CriticalPath& cp,
                       const std::string& title, size_t max_slices = 12);

}  // namespace vodsm::obs
