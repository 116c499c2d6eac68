// Run-DAG reconstruction from a recorded trace.
//
// An EventGraph turns the flat event stream of a TraceRecorder into the
// dependency structure a critical-path walk needs:
//
//  * program-order edges — implicit: per-node timelines of waits and local
//    service spans (page faults, diff creation), each sorted by time;
//  * wakeup edges — the cross-node event that ended each wait: the kGrant
//    instant on the granting node for an acquire_wait, the releasing
//    kBarrFold instant on the barrier manager for a barrier_wait.
//
// Wakeup matching is exact, not heuristic. A node has at most one
// outstanding acquire per lock/view id, so the j-th grant recorded for
// (id, requester) — in timestamp order — is the grant that ended the
// requester's j-th wait on that id. Barrier folds are grouped into episodes
// of nprocs folds per barrier id (every node arrives exactly once per
// episode, and episode k+1 arrivals strictly follow the episode-k release),
// and the last fold of an episode is the one that released all its waiters.
//
// The graph holds no wire traffic: the per-frame fold the diagnoser's
// network passes read is built next to them (obs/diagnose.hpp), and only
// when a run is diagnosed.
//
// Like every obs consumer this is pure post-processing: building a graph
// never touches simulated state.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace vodsm::obs {

// One matched wait span on a node's timeline, with the cross-node trigger
// event (index into the trace's event vector) that ended it, or -1 when no
// trigger was found (self-grant on the same node still counts as a trigger;
// -1 means the trace is genuinely missing the producer side).
struct Wait {
  sim::Time begin = 0;
  sim::Time end = 0;
  Cat cat = Cat::kAcquireWait;  // kAcquireWait or kBarrierWait
  uint64_t id = 0;              // lock/view id or barrier id
  int64_t trigger = -1;         // event index of kGrant / releasing kBarrFold
  uint32_t trigger_node = 0;    // denormalized trigger event fields, valid
  sim::Time trigger_ts = 0;     // when trigger >= 0
};

// A local service span (page fault or diff creation) on a node's timeline.
struct LocalSpan {
  sim::Time begin = 0;
  sim::Time end = 0;
  Cat cat = Cat::kFault;  // kFault or kDiffCreate
  uint64_t id = 0;        // page for kFault, 0 for kDiffCreate
};

struct NodeTimeline {
  // Program end timestamp, or -1 when the node has no program-end event
  // (the engine drained early); consumers substitute the run finish time.
  sim::Time program_end = -1;
  std::vector<Wait> waits;        // sorted by end
  std::vector<LocalSpan> spans;   // sorted by begin; mutually disjoint
};

struct EventGraph {
  std::vector<NodeTimeline> nodes;  // index = node id

  // Diagnostics; all zero on a well-formed trace (asserted in tests).
  uint64_t waits_without_trigger = 0;
  uint64_t unmatched_spans = 0;  // begin/end pairing failures
};

// Builds the graph from a recorded trace. `nprocs` bounds the node ids
// considered (engine pseudo-node events are skipped) and sets the barrier
// episode size.
EventGraph buildEventGraph(const TraceRecorder& trace, int nprocs);

// One node's arrival at a barrier episode: its wait span on the barrier.
struct Arrival {
  uint32_t node = 0;
  sim::Time begin = 0;  // arrive-at-barrier timestamp (wait begin)
  sim::Time end = 0;    // release incorporated (wait end)
};

// Barrier waits grouped into episodes: episodes[b][j] holds every node's
// j-th wait on barrier b, sorted by arrival (begin, then node). The run
// profile and the imbalance passes all read episodes through this one
// grouping.
using BarrierEpisodes =
    std::map<uint64_t, std::vector<std::vector<Arrival>>>;
BarrierEpisodes barrierEpisodes(const EventGraph& g);

}  // namespace vodsm::obs
