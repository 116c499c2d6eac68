// Shared identifiers, cost model and statistics for the DSM runtimes.
#pragma once

#include <cstdint>
#include <string>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace vodsm::dsm {

using net::NodeId;
using ViewId = uint32_t;
using LockId = uint32_t;
using BarrierId = uint32_t;

// The three DSM implementations the paper evaluates.
enum class Protocol {
  kLrcDiff,  // LRC_d : TreadMarks-style diff-based Lazy Release Consistency
  kVcDiff,   // VC_d  : diff-based View-based Consistency (homeless diffs)
  kVcSd,     // VC_sd : VC with integrated single diffs piggybacked on grants
};

inline std::string protocolName(Protocol p) {
  switch (p) {
    case Protocol::kLrcDiff: return "LRC_d";
    case Protocol::kVcDiff: return "VC_d";
    case Protocol::kVcSd: return "VC_sd";
  }
  return "?";
}

// Barrier algorithm (DESIGN.md §3.12). The default reproduces the paper's
// centralized barrier byte-for-byte; the alternatives exist to push the
// cluster past the paper's 32-node ceiling. All three carry identical
// protocol payloads, so app results and barrier counts never depend on it.
enum class BarrierAlg : uint8_t {
  kCentral = 0,    // every node arrives at one manager (the paper's shape)
  kTree = 1,       // radix-4 combining tree rooted at node 0
  kButterfly = 2,  // dissemination barrier, ceil(log2 p) rounds
};

inline const char* barrierAlgName(BarrierAlg a) {
  switch (a) {
    case BarrierAlg::kCentral: return "central";
    case BarrierAlg::kTree: return "tree";
    case BarrierAlg::kButterfly: return "butterfly";
  }
  return "?";
}

inline bool parseBarrierAlg(const std::string& s, BarrierAlg* out) {
  if (s == "central") *out = BarrierAlg::kCentral;
  else if (s == "tree") *out = BarrierAlg::kTree;
  else if (s == "butterfly") *out = BarrierAlg::kButterfly;
  else return false;
  return true;
}

// CPU costs of DSM-internal operations, calibrated for the paper's 350 MHz
// testbed (TreadMarks-era measurements: page fault handling tens of
// microseconds, twin/diff work dominated by 4 KB memory traffic at roughly
// 100 MB/s).
struct DsmCosts {
  // Trap + fault handler entry/exit.
  sim::Time page_fault = sim::usec(20);
  // Snapshot a 4 KB page as a twin.
  sim::Time twin_copy = sim::usec(40);
  // Word-compare a page against its twin, plus encoding, per run output.
  sim::Time diff_create_base = sim::usec(40);
  sim::Time diff_create_per_kb = sim::usec(10);
  // Patch a page with a diff.
  sim::Time diff_apply_base = sim::usec(10);
  sim::Time diff_apply_per_kb = sim::usec(10);
  // Generic protocol handler service time (request parsing, table lookups).
  sim::Time handler_service = sim::usec(10);
  // Barrier manager: cost to fold one arrival into the barrier state.
  sim::Time barrier_fold = sim::usec(8);
  // LRC barrier manager: additional cost per write notice merged/deduped.
  sim::Time barrier_per_notice = sim::usec(5);
  // Cost for a node to record one incoming write notice (invalidate).
  sim::Time apply_notice = sim::usec(10);
  // memcpy cost per KB for shared<->local buffer copies done by VOPP apps.
  sim::Time copy_per_kb = sim::usec(10);

  sim::Time diffCreate(size_t diff_bytes) const {
    return diff_create_base +
           diff_create_per_kb * static_cast<sim::Time>(diff_bytes / 1024 + 1);
  }
  sim::Time diffApply(size_t diff_bytes) const {
    return diff_apply_base +
           diff_apply_per_kb * static_cast<sim::Time>(diff_bytes / 1024 + 1);
  }
};

// Counters matching the rows of the paper's statistics tables, aggregated
// over all nodes of a run.
struct DsmStats {
  uint64_t barriers = 0;       // barrier() calls (all nodes)
  uint64_t acquires = 0;       // lock/view acquire messages
  uint64_t diff_requests = 0;  // diff request messages
  uint64_t page_faults = 0;
  uint64_t diffs_created = 0;
  uint64_t diffs_applied = 0;
  uint64_t notices_recorded = 0;

  sim::Time barrier_wait_total = 0;  // sum over (node, barrier) of wait time
  uint64_t barrier_waits = 0;
  sim::Time acquire_wait_total = 0;
  uint64_t acquire_waits = 0;

  double avgBarrierMicros() const {
    return barrier_waits == 0
               ? 0.0
               : sim::toMicros(barrier_wait_total) /
                     static_cast<double>(barrier_waits);
  }
  double avgAcquireMicros() const {
    return acquire_waits == 0
               ? 0.0
               : sim::toMicros(acquire_wait_total) /
                     static_cast<double>(acquire_waits);
  }

  void add(const DsmStats& o) {
    barriers += o.barriers;
    acquires += o.acquires;
    diff_requests += o.diff_requests;
    page_faults += o.page_faults;
    diffs_created += o.diffs_created;
    diffs_applied += o.diffs_applied;
    notices_recorded += o.notices_recorded;
    barrier_wait_total += o.barrier_wait_total;
    barrier_waits += o.barrier_waits;
    acquire_wait_total += o.acquire_wait_total;
    acquire_waits += o.acquire_waits;
  }
};

}  // namespace vodsm::dsm
