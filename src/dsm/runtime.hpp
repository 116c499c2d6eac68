// Per-node DSM runtime: the interface the VOPP layer and applications call,
// plus the shared page-fault skeleton. Concrete protocols (LRC_d, VC_d,
// VC_sd) subclass this and implement the synchronization operations and the
// fault handlers.
#pragma once

#include <algorithm>
#include <memory>

#include "dsm/msgs.hpp"
#include "dsm/types.hpp"
#include "dsm/view_map.hpp"
#include "mem/page_store.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

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
    endpoint.setClassifier(&classifyMsg);
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
  explicit Runtime(NodeCtx& ctx) : ctx_(ctx) {
    // All nodes start with identical zeroed pages mapped read-only, the
    // canonical initial DSM state.
    for (mem::PageId p = 0; p < ctx_.store.pageCount(); ++p)
      ctx_.store.setAccess(p, mem::Access::kRead);
  }
  virtual ~Runtime() = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  NodeCtx& ctx() { return ctx_; }

  // --- synchronization API (app side; may block) ---
  virtual sim::Task<void> acquireView(ViewId v, bool readonly) = 0;
  virtual sim::Task<void> releaseView(ViewId v, bool readonly) = 0;
  virtual sim::Task<void> acquireLock(LockId l) = 0;
  virtual sim::Task<void> releaseLock(LockId l) = 0;
  virtual sim::Task<void> barrier(BarrierId b) = 0;

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
      onPageDirtied(p);
      if (auto* t = ctx_.trace)
        t->end(ctx_.id, obs::Cat::kFault, ctx_.clock.now(), p);
    }
  }

 protected:
  // Bring one invalid page up to date (protocol-specific).
  virtual sim::Task<void> readFault(mem::PageId p) = 0;
  // Record that `p` is being written under the current synchronization
  // scope (protocol-specific bookkeeping).
  virtual void onPageDirtied(mem::PageId p) = 0;
  // VOPP-model access checking (VC protocols enforce view coverage; LRC
  // allows everything).
  virtual void checkReadAllowed(size_t, size_t) {}
  virtual void checkWriteAllowed(size_t, size_t) {}

  // Lock managers are distributed round-robin (id mod p).
  NodeId managerOf(LockId l) const {
    return static_cast<NodeId>(l % static_cast<uint32_t>(ctx_.nprocs));
  }
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

  NodeCtx& ctx_;
};

}  // namespace vodsm::dsm
