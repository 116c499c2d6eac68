// Per-node DSM runtime: the interface the VOPP layer and applications call,
// plus the protocol-independent skeleton every protocol shares — the page
// fault path, the homeless diff fetch, and the barrier engine. Concrete
// protocols (LrcRuntime for LRC_d, VcRuntime for VC_d and VC_sd) implement
// the synchronization operations and make their consistency decisions
// through five hooks: barrierEnter, absorbInterval, barrierExit, applyRank
// and onMessage.
//
// Barriers. The paper's structural contrast lives in one hook: the payload
// barrierEnter returns. Under LRC_d a barrier is a consistency point — every
// node ships its fresh intervals (write notices), the barrier merges them
// and every node absorbs the global set on release. Under VC a barrier is
// pure synchronization, so the payload is empty. The centralized manager
// (the paper's shape, and its hot spot at scale) can be swapped through
// NodeCtx::barrier for a radix-4 combining tree (arrivals merge level by
// level, the release fans back down) or a dissemination (butterfly)
// barrier (ceil(log2 p) peer-exchange rounds, each carrying everything
// accumulated since barrier entry) — see DESIGN.md §3.12.
//
// Diff fetch. LRC_d and VC_d keep their diffs at the writer. A fault on a
// page with pending write notices sends one request per writer, all in
// flight at once (TreadMarks style), and applies the replies in the order
// applyRank gives. The two protocols use distinct wire types, which the
// constructor takes.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "dsm/msgs.hpp"
#include "dsm/types.hpp"
#include "dsm/view_map.hpp"
#include "mem/page_store.hpp"
#include "mem/write_notice.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/waiter.hpp"

namespace vodsm::dsm {

// Everything one simulated node owns. Built by the cluster, handed to the
// runtime and the application environment.
struct NodeCtx {
  NodeCtx(NodeId id_, int nprocs_, sim::Engine& engine_, net::Network& network,
          const ViewMap& views_, const DsmCosts& costs_,
          obs::TraceRecorder* trace_ = nullptr,
          obs::MetricsRegistry* metrics_ = nullptr,
          BarrierAlg barrier_ = BarrierAlg::kCentral)
      : id(id_),
        nprocs(nprocs_),
        engine(engine_),
        endpoint(engine_, network, id_),
        store(views_.heapBytes()),
        views(views_),
        costs(costs_),
        barrier(barrier_),
        trace(trace_),
        metrics(metrics_) {
    endpoint.setTrace(trace);
  }

  NodeId id;
  int nprocs;
  sim::Engine& engine;
  net::Endpoint endpoint;
  sim::Clock clock;
  mem::PageStore store;
  const ViewMap& views;
  DsmCosts costs;
  BarrierAlg barrier;
  DsmStats stats;
  obs::TraceRecorder* trace;      // null when tracing is off
  obs::MetricsRegistry* metrics;  // null when metrics are off
};

class Runtime {
 public:
  // `diff_req` / `diff_resp` are the protocol's diff-fetch wire types.
  Runtime(NodeCtx& ctx, uint16_t diff_req, uint16_t diff_resp);
  virtual ~Runtime() = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  NodeCtx& ctx() { return ctx_; }

  // --- synchronization API (app side; may block) ---
  virtual sim::Task<void> acquireView(ViewId v, bool readonly) = 0;
  virtual sim::Task<void> releaseView(ViewId v, bool readonly) = 0;
  virtual sim::Task<void> acquireLock(LockId l) = 0;
  virtual sim::Task<void> releaseLock(LockId l) = 0;
  sim::Task<void> barrier(BarrierId b);

  // --- memory access declaration (app side; may block on faults) ---
  // Validate the byte range for reading; triggers simulated read faults.
  sim::Task<void> touchRead(size_t offset, size_t len) {
    checkReadAllowed(offset, len);
    const mem::PageId first = mem::pageOf(offset);
    const mem::PageId last = mem::pageOf(offset + len - 1);
    for (mem::PageId p = first; p <= last; ++p) {
      if (ctx_.store.access(p) == mem::Access::kNone) {
        ctx_.stats.page_faults++;
        if (auto* t = ctx_.trace)
          t->begin(ctx_.id, obs::Cat::kFault, ctx_.clock.now(), p);
        ctx_.clock.charge(ctx_.costs.page_fault);
        co_await readFault(p);
        if (auto* t = ctx_.trace)
          t->end(ctx_.id, obs::Cat::kFault, ctx_.clock.now(), p);
      }
    }
  }

  // Validate the byte range for writing; read-faults stale pages, then
  // creates twins (write faults).
  sim::Task<void> touchWrite(size_t offset, size_t len) {
    checkWriteAllowed(offset, len);
    const mem::PageId first = mem::pageOf(offset);
    const mem::PageId last = mem::pageOf(offset + len - 1);
    for (mem::PageId p = first; p <= last; ++p) {
      if (ctx_.store.access(p) == mem::Access::kWrite) continue;
      ctx_.stats.page_faults++;
      if (auto* t = ctx_.trace)
        t->begin(ctx_.id, obs::Cat::kFault, ctx_.clock.now(), p);
      ctx_.clock.charge(ctx_.costs.page_fault);
      if (ctx_.store.access(p) == mem::Access::kNone) co_await readFault(p);
      if (!ctx_.store.hasTwin(p)) {
        ctx_.store.makeTwin(p);
        ctx_.clock.charge(ctx_.costs.twin_copy);
        if (auto* t = ctx_.trace)
          t->instant(ctx_.id, obs::Cat::kTwin, ctx_.clock.now(), p);
        if (auto* m = ctx_.metrics)
          m->add(ctx_.id, obs::Metric::kTwinBytes,
                 static_cast<int64_t>(mem::kPageSize), ctx_.clock.now());
      }
      ctx_.store.setAccess(p, mem::Access::kWrite);
      dirty_.insert(p);
      if (auto* t = ctx_.trace)
        t->end(ctx_.id, obs::Cat::kFault, ctx_.clock.now(), p);
    }
  }

 protected:
  // --- protocol hooks ---
  // Barrier entry, before the algorithm starts: close local state and
  // return the intervals this node ships (empty for pure synchronization).
  virtual std::vector<mem::Interval> barrierEnter() = 0;
  // Record an interval learned at a barrier; true if it was new here.
  virtual bool absorbInterval(const mem::Interval&) { return false; }
  // Barrier exit, after every received interval has been absorbed.
  virtual void barrierExit() {}
  // Apply-order key of `writer`'s diff `index`: the fault applies fetched
  // diffs in (applyRank, writer, index) order.
  virtual uint64_t applyRank(NodeId writer, uint32_t index) const = 0;
  // Every message that is not a barrier message or a diff request.
  virtual void onMessage(net::Delivery&& d) = 0;

  // --- shared diff path ---
  // Note that `writer`'s diff `index` of page `p` is pending; invalidates p.
  void recordNotice(mem::PageId p, NodeId writer, uint32_t index);
  // Patch page `p` with a fetched or granted diff.
  void applyDiff(mem::PageId p, const mem::Diff& d);
  // Diff every dirty page against its twin, drop the twins, downgrade the
  // pages to read-only and hand each non-empty diff to `keep`, inside the
  // loop at that page's clock time; clears the dirty set.
  void diffDirtyPages(
      const std::function<void(mem::PageId, mem::Diff&&)>& keep);
  // Log an own diff for serving later fetches, keyed by interval index
  // (LRC_d) or view version (VC_d).
  void logDiff(mem::PageId p, uint32_t index, mem::Diff&& d);

  // VOPP-model access checking (VC protocols enforce view coverage; LRC
  // allows everything).
  virtual void checkReadAllowed(size_t, size_t) {}
  virtual void checkWriteAllowed(size_t, size_t) {}

  // Lock managers are distributed round-robin (id mod p).
  NodeId managerOf(LockId l) const {
    return static_cast<NodeId>(l % static_cast<uint32_t>(ctx_.nprocs));
  }

  NodeCtx& ctx_;

 private:
  // Root of the barrier structure: the centralized manager, and the root of
  // the combining tree (the butterfly has no distinguished node).
  NodeId barrierManager() const { return 0; }

  // Combining-tree shape (BarrierAlg::kTree): node i's parent is
  // (i-1)/kTreeRadix, its children kTreeRadix*i+1 .. kTreeRadix*i+kTreeRadix,
  // clamped to p.
  static constexpr int kTreeRadix = 4;
  NodeId treeParent() const {
    return static_cast<NodeId>((static_cast<int>(ctx_.id) - 1) / kTreeRadix);
  }
  int treeChildCount() const {
    const int first = kTreeRadix * static_cast<int>(ctx_.id) + 1;
    if (first >= ctx_.nprocs) return 0;
    return std::min(kTreeRadix, ctx_.nprocs - first);
  }
  NodeId treeChild(int k) const {
    return static_cast<NodeId>(kTreeRadix * static_cast<int>(ctx_.id) + 1 + k);
  }

  struct BarrierMgrState {
    int arrived = 0;
    sim::Time busy_until = 0;
    std::map<std::pair<uint32_t, uint32_t>, mem::Interval> merged;
  };

  void dispatch(net::Delivery&& d, const net::ReplyToken& token);
  sim::Task<void> readFault(mem::PageId p);
  void serveDiffs(const DiffReqMsg& m, const net::ReplyToken& token,
                  sim::Time arrive);
  void onBarrArrive(const BarrArriveMsg& m, sim::Time arrive);
  // Tree mode: forward the merged subtree arrival up (or, at the root,
  // start the release fan-down) once this node and all its children are in.
  void treeBarrierStep(BarrierId b, BarrierMgrState& st);
  // Butterfly mode: the whole barrier is peer-exchange rounds.
  sim::Task<void> barrierButterfly(BarrierId b, std::vector<mem::Interval> acc);
  sim::Task<BarrRoundMsg> awaitRound(BarrierId b, uint32_t round);

  const uint16_t diff_req_;
  const uint16_t diff_resp_;
  std::set<mem::PageId> dirty_;
  // page -> pending write notices (diffs not yet fetched); VC_d stores the
  // view version in interval_index.
  std::unordered_map<mem::PageId, std::vector<mem::WriteNotice>> pending_;
  // own diffs: page -> (interval index or version, diff), ascending
  std::unordered_map<mem::PageId,
                     std::vector<std::pair<uint32_t, mem::Diff>>>
      diff_log_;

  std::unordered_map<BarrierId, std::unique_ptr<sim::Waiter<BarrReleaseMsg>>>
      barrier_waiters_;
  // Butterfly rounds: exactly one peer sends per (barrier, round), but its
  // message can overtake this node's progress — park early arrivals with
  // their arrival time.
  std::map<std::pair<BarrierId, uint32_t>,
           std::unique_ptr<sim::Waiter<BarrRoundMsg>>>
      round_waiters_;
  std::map<std::pair<BarrierId, uint32_t>, std::pair<BarrRoundMsg, sim::Time>>
      round_early_;
  // Rounds are numbered across barrier instances, not from zero in each:
  // a peer that has left this barrier can send its next-instance round
  // while its message for this one is still being retransmitted, and the
  // transport does not preserve order, so per-instance numbers would let
  // the newer message stand in for the lost one.
  uint32_t next_round_ = 0;
  // Manager-side state (meaningful only for barriers this node combines).
  std::unordered_map<BarrierId, BarrierMgrState> barrier_mgr_;
};

}  // namespace vodsm::dsm
