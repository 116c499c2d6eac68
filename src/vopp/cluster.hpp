// Public VOPP API: the paper's View-Oriented Parallel Programming model.
//
// A Cluster holds a simulated machine (harness::Machine: engine, network,
// fault injector) and puts one DSM runtime on every node. It takes the one
// harness::RunConfig every runtime takes and returns one harness::RunResult.
// The user defines views, then runs one program coroutine per node:
//
//   vopp::Cluster cluster({.nprocs = 16, .protocol = dsm::Protocol::kVcSd});
//   auto data = cluster.defineView(bytes);
//   cluster.run([&](vopp::Node& node) -> sim::Task<void> {
//     co_await node.acquireView(data);
//     ... touch + access shared memory ...
//     co_await node.releaseView(data);
//     co_await node.barrier();
//   });
//   harness::RunResult r = cluster.result();
//
// The VOPP primitives map 1:1 to the paper's: acquire_view / release_view
// (exclusive), acquire_Rview / release_Rview (shared, nestable), barriers
// (pure synchronization under VC), and merge_views. Traditional DSM
// programs use acquireLock/releaseLock + barriers (LRC_d only).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dsm/lrc.hpp"
#include "dsm/runtime.hpp"
#include "dsm/vc.hpp"
#include "harness/machine.hpp"
#include "harness/run.hpp"
#include "obs/trace.hpp"
#include "sim/task.hpp"

namespace vodsm::vopp {

class Cluster;

// Per-node program environment: every method charges simulated time and/or
// suspends on simulated communication.
class Node {
 public:
  Node(Cluster& cluster, dsm::NodeCtx& ctx, dsm::Runtime& rt)
      : cluster_(cluster), ctx_(ctx), rt_(rt) {}

  int id() const { return static_cast<int>(ctx_.id); }
  int nprocs() const { return ctx_.nprocs; }
  sim::Time now() const { return ctx_.clock.now(); }

  // Account local CPU work (application compute).
  void charge(sim::Time t) { ctx_.clock.charge(t); }
  void chargeOps(uint64_t ops, sim::Time per_op) {
    ctx_.clock.charge(static_cast<sim::Time>(ops) * per_op);
  }

  // --- VOPP primitives ---
  sim::Task<void> acquireView(dsm::ViewId v) {
    beginSpan(obs::Cat::kAcquireView, v, 0);
    co_await rt_.acquireView(v, /*readonly=*/false);
    metricAdd(obs::Metric::kHeldViews, 1);
    endSpan(obs::Cat::kAcquireView, v, 0);
  }
  sim::Task<void> releaseView(dsm::ViewId v) {
    beginSpan(obs::Cat::kReleaseView, v, 0);
    co_await rt_.releaseView(v, /*readonly=*/false);
    metricAdd(obs::Metric::kHeldViews, -1);
    endSpan(obs::Cat::kReleaseView, v, 0);
  }
  sim::Task<void> acquireRview(dsm::ViewId v) {
    beginSpan(obs::Cat::kAcquireView, v, 1);
    co_await rt_.acquireView(v, /*readonly=*/true);
    metricAdd(obs::Metric::kHeldViews, 1);
    endSpan(obs::Cat::kAcquireView, v, 1);
  }
  sim::Task<void> releaseRview(dsm::ViewId v) {
    beginSpan(obs::Cat::kReleaseView, v, 1);
    co_await rt_.releaseView(v, /*readonly=*/true);
    metricAdd(obs::Metric::kHeldViews, -1);
    endSpan(obs::Cat::kReleaseView, v, 1);
  }
  sim::Task<void> barrier(dsm::BarrierId b = 0) {
    beginSpan(obs::Cat::kBarrier, b);
    metricAdd(obs::Metric::kBlockedAtBarrier, 1);
    co_await rt_.barrier(b);
    metricAdd(obs::Metric::kBlockedAtBarrier, -1);
    endSpan(obs::Cat::kBarrier, b);
  }

  // Bring every view up to date on this node (paper's merge_views:
  // "expensive but convenient").
  sim::Task<void> mergeViews();

  // --- traditional DSM primitives (LRC_d) ---
  sim::Task<void> acquireLock(dsm::LockId l) {
    beginSpan(obs::Cat::kAcquireLock, l);
    co_await rt_.acquireLock(l);
    metricAdd(obs::Metric::kHeldLocks, 1);
    endSpan(obs::Cat::kAcquireLock, l);
  }
  sim::Task<void> releaseLock(dsm::LockId l) {
    co_await rt_.releaseLock(l);
    metricAdd(obs::Metric::kHeldLocks, -1);
  }

  // --- shared memory access ---
  // Declare an access range; takes the simulated page faults (the analogue
  // of the SIGSEGV handler running page by page). Each returns the
  // runtime's task rather than awaiting it in a coroutine frame of its own.
  sim::Task<void> touchRead(size_t offset, size_t len) {
    return rt_.touchRead(offset, len);
  }
  sim::Task<void> touchWrite(size_t offset, size_t len) {
    return rt_.touchWrite(offset, len);
  }

  // Raw access to this node's copy (valid only after the matching touch).
  MutByteSpan mem(size_t offset, size_t len) {
    return ctx_.store.range(offset, len);
  }
  ByteSpan memView(size_t offset, size_t len) const {
    return ctx_.store.rangeView(offset, len);
  }

  // Copy shared -> local with faulting and memcpy cost.
  sim::Task<void> copyOut(size_t offset, MutByteSpan dst) {
    co_await touchRead(offset, dst.size());
    ByteSpan src = memView(offset, dst.size());
    std::copy(src.begin(), src.end(), dst.begin());
    chargeCopy(dst.size());
  }
  // Copy local -> shared with faulting and memcpy cost.
  sim::Task<void> copyIn(size_t offset, ByteSpan src) {
    co_await touchWrite(offset, src.size());
    MutByteSpan dst = mem(offset, src.size());
    std::copy(src.begin(), src.end(), dst.begin());
    chargeCopy(src.size());
  }

  dsm::NodeCtx& ctx() { return ctx_; }
  Cluster& cluster() { return cluster_; }

 private:
  void chargeCopy(size_t bytes) {
    ctx_.clock.charge(ctx_.costs.copy_per_kb *
                      static_cast<sim::Time>(bytes / 1024 + 1));
  }

  void beginSpan(obs::Cat c, uint64_t a0, uint64_t a1 = 0) {
    if (auto* t = ctx_.trace) t->begin(ctx_.id, c, ctx_.clock.now(), a0, a1);
  }
  void endSpan(obs::Cat c, uint64_t a0, uint64_t a1 = 0) {
    if (auto* t = ctx_.trace) t->end(ctx_.id, c, ctx_.clock.now(), a0, a1);
  }
  void metricAdd(obs::Metric m, int64_t delta) {
    if (auto* r = ctx_.metrics) r->add(ctx_.id, m, delta, ctx_.clock.now());
  }

  Cluster& cluster_;
  dsm::NodeCtx& ctx_;
  dsm::Runtime& rt_;
};

// Typed handle to a shared-memory range on one node.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(Node& node, size_t byte_offset, size_t count)
      : node_(&node), offset_(byte_offset), count_(count) {}

  size_t size() const { return count_; }
  size_t byteOffset() const { return offset_; }

  sim::Task<void> touchRead(size_t first, size_t n) {
    VODSM_DCHECK(first + n <= count_);
    return node_->touchRead(offset_ + first * sizeof(T), n * sizeof(T));
  }
  sim::Task<void> touchWrite(size_t first, size_t n) {
    VODSM_DCHECK(first + n <= count_);
    return node_->touchWrite(offset_ + first * sizeof(T), n * sizeof(T));
  }

  // Raw element access into this node's local copy; only valid after the
  // covering touch (debug builds check the page protection).
  T* data() {
    return reinterpret_cast<T*>(
        node_->mem(offset_, count_ * sizeof(T)).data());
  }
  const T* data() const {
    return reinterpret_cast<const T*>(
        node_->memView(offset_, count_ * sizeof(T)).data());
  }
  T& operator[](size_t i) {
    VODSM_DCHECK(i < count_);
    return data()[i];
  }
  const T& operator[](size_t i) const {
    VODSM_DCHECK(i < count_);
    return data()[i];
  }

 private:
  Node* node_ = nullptr;
  size_t offset_ = 0;
  size_t count_ = 0;
};

class Cluster {
 public:
  // Rejects `diagnose` without `trace`: the diagnosis reads the trace.
  explicit Cluster(const harness::RunConfig& cfg);

  // --- layout (before run) ---
  // Define a view. `home` optionally pins the view's manager node: pin it
  // to the view's main consumer so VC_sd's release-time diff pushes land
  // where they will be read (paper Section 3.6 spirit).
  dsm::ViewId defineView(size_t bytes,
                         std::optional<dsm::NodeId> home = std::nullopt) {
    VODSM_CHECK_MSG(!started_, "defineView after run started");
    return views_.defineView(bytes, home);
  }
  size_t allocShared(size_t bytes, size_t align = 8) {
    VODSM_CHECK_MSG(!started_, "allocShared after run started");
    return views_.allocRaw(bytes, align);
  }
  const dsm::ViewMap& views() const { return views_; }
  size_t viewOffset(dsm::ViewId v) const { return views_.view(v).offset; }

  // --- execution ---
  using Program = std::function<sim::Task<void>(Node&)>;
  void run(const Program& program);

  // --- results (after run) ---
  int nprocs() const { return machine_.config().nprocs; }
  dsm::Protocol protocol() const { return machine_.config().protocol; }
  double seconds() const { return sim::toSeconds(finishTime()); }
  sim::Time finishTime() const { return machine_.finishTime(); }
  dsm::DsmStats dsmStats() const;
  const net::NetStats& netStats() const { return machine_.network().stats(); }
  // The run's result: seconds, DSM and transport statistics, and the
  // metrics summary when metered. A traced run also folds its trace once
  // (obs::foldRun) into the breakdown, critical path, page heat and run
  // profile, and diagnoses the same folds when RunConfig::diagnose is set.
  // The analysis is built here, where net::NetStats, the dsm message
  // classifier and the run's NetConfig are in scope — obs itself stays
  // below those layers.
  harness::RunResult result() const;
  // Inspect a node's final memory (for result validation).
  ByteSpan memoryOf(int node, size_t offset, size_t len) const {
    return ctxs_.at(static_cast<size_t>(node))->store.rangeView(offset, len);
  }

 private:
  std::unique_ptr<dsm::Runtime> makeRuntime(dsm::NodeCtx& ctx) const;

  dsm::ViewMap views_;
  bool started_ = false;
  harness::Machine machine_;
  std::vector<std::unique_ptr<dsm::NodeCtx>> ctxs_;
  std::vector<std::unique_ptr<dsm::Runtime>> runtimes_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Last member: node-program frames abandoned by a deadlocked run must be
  // reclaimed before the engine/network/runtimes they reference go away.
  sim::TaskScope scope_;
};

}  // namespace vodsm::vopp
