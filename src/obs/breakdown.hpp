// Time-breakdown accounting over a recorded trace.
//
// Folds the spans an EventGraph paired per node (obs/graph.hpp) into five
// per-node buckets that partition the run's simulated time exactly:
//
//   compute      — local work the program charged (everything not below)
//   barrier_wait — inside barrier_wait spans (arrive sent -> released)
//   acquire_wait — inside acquire_wait spans (request sent -> granted)
//   fault_diff   — page-fault service (incl. remote diff fetch) plus
//                  release-time diff creation
//   idle         — node finished before the slowest node; dead time until
//                  the run's finish timestamp
//
// The span categories above never overlap on one node (faults happen
// outside synchronization waits, diff creation precedes the release/arrive
// message), so the buckets are disjoint and, with compute defined as the
// remainder of the node's active time, they sum to the run's finish time on
// every node — an invariant the test suite asserts.
#pragma once

#include <ostream>
#include <vector>

#include "obs/graph.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace vodsm::obs {

struct BucketSet {
  sim::Time compute = 0;
  sim::Time barrier_wait = 0;
  sim::Time acquire_wait = 0;
  sim::Time fault_diff = 0;
  sim::Time idle = 0;

  sim::Time total() const {
    return compute + barrier_wait + acquire_wait + fault_diff + idle;
  }
  void add(const BucketSet& o) {
    compute += o.compute;
    barrier_wait += o.barrier_wait;
    acquire_wait += o.acquire_wait;
    fault_diff += o.fault_diff;
    idle += o.idle;
  }
};

struct Breakdown {
  sim::Time run_time = 0;          // finish time; per-node bucket sum
  std::vector<BucketSet> nodes;    // index = node id
  BucketSet aggregate;             // sum over nodes

  bool enabled() const { return !nodes.empty(); }
};

// Folds the graph's wait and service spans into per-node buckets: waits by
// category, page faults and diff creation into fault_diff. `finish` is the
// run's finish time (the slowest node's clock); nodes missing a program-end
// span (e.g. the engine drained early) are treated as active until
// `finish`. Throws if the graph holds an unmatched span or a span that ends
// before it begins.
Breakdown foldBreakdown(const EventGraph& graph, sim::Time finish);
// Builds the event graph of `trace`, then folds it.
Breakdown foldBreakdown(const TraceRecorder& trace, int nprocs,
                        sim::Time finish);

// Renders per-node rows plus an aggregate row as a fixed-width table:
// seconds per bucket with percent-of-total.
void printBreakdown(std::ostream& os, const Breakdown& b,
                    const std::string& title);

}  // namespace vodsm::obs
