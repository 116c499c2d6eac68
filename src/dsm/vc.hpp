// VC_d and VC_sd: View-based Consistency runtimes.
//
// Each view has a manager (view id mod nprocs — so a "per-processor" view is
// self-managed and its acquisitions stay off the wire). Acquisitions are
// exclusive for writes and shared for Rviews, granted FIFO.
//
// VC_d (homeless diffs): the grant carries write notices for the view's
// pages modified since the requester's last acquisition; faults fetch the
// diffs from the writers on Runtime's shared path, applied in version order.
//
// VC_sd (integrated single diff, home-based): releases ship the diffs to
// the view's manager, which keeps a per-page version log; grants piggyback
// one *integrated* diff per stale page, applied eagerly — so VC_sd issues
// zero diff requests and takes no remote faults. The manager also garbage-
// collects its log: once every node that ever acquired the view is past a
// version, the per-version diffs up to it are folded into one base diff
// per page (the integration prefix grantNow would compute anyway, memoized)
// and dropped. This bounds home storage by the view's footprint instead of
// its write history — the paper's memory argument for single diffs — and
// is invisible to the simulation: grants are bit-identical and GC charges
// no simulated time.
//
// Barriers are pure synchronization in both: an empty barrier payload, no
// invalidation (see runtime.hpp).
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>

#include "dsm/msgs.hpp"
#include "dsm/runtime.hpp"

namespace vodsm::dsm {

class VcRuntime : public Runtime {
 public:
  // `integrated` selects VC_sd; false selects VC_d.
  VcRuntime(NodeCtx& ctx, bool integrated);

  sim::Task<void> acquireView(ViewId v, bool readonly) override;
  sim::Task<void> releaseView(ViewId v, bool readonly) override;

  // Traditional lock primitives are not part of the VC model.
  sim::Task<void> acquireLock(LockId) override;
  sim::Task<void> releaseLock(LockId) override;

 protected:
  std::vector<mem::Interval> barrierEnter() override;
  uint64_t applyRank(NodeId writer, uint32_t version) const override;
  void onMessage(net::Delivery&& d) override;
  void checkReadAllowed(size_t offset, size_t len) override;
  void checkWriteAllowed(size_t offset, size_t len) override;

 private:
  struct ViewMgrState {
    uint32_t cur_version = 0;
    bool write_held = false;
    int readers = 0;
    std::deque<ViewAcqMsg> queue;
    // history[v-1] = (writer, pages) of version v (VC_d notice source).
    std::vector<std::pair<NodeId, std::vector<mem::PageId>>> history;
    // VC_sd home storage: page -> (version, diff), ascending. Only the tail
    // with version > gc_version lives here; older versions are folded into
    // `base`.
    std::unordered_map<mem::PageId,
                       std::vector<std::pair<uint32_t, mem::Diff>>>
        diff_log;
    // VC_sd GC state: per-page left-fold of all diffs with version in
    // [1, gc_version]. A requester claims last_seen == 0 (first acquisition,
    // needs base + tail exactly) or last_seen >= gc_version (tail suffices);
    // both reproduce the pre-GC integration bit for bit.
    std::unordered_map<mem::PageId, mem::Diff> base;
    uint32_t gc_version = 0;
    // Last version granted to each node that ever acquired this view; the
    // minimum bounds how far gc_version may advance.
    std::unordered_map<NodeId, uint32_t> seen;
  };
  NodeId viewManager(ViewId v) const {
    return ctx_.views.managerOf(v, ctx_.nprocs);
  }

  void onViewAcq(const ViewAcqMsg& m, sim::Time arrive);
  void onViewRelease(const ViewReleaseMsg& m, sim::Time arrive);
  void onViewReadRelease(const ViewReadReleaseMsg& m, sim::Time arrive);
  void grantNow(const ViewAcqMsg& m, ViewMgrState& st, sim::Time when);
  void sdGc(ViewMgrState& st, sim::Time when);
  void pumpQueue(ViewId view, ViewMgrState& st, sim::Time when);

  bool holdsForRead(ViewId v) const {
    auto it = read_depth_.find(v);
    return (it != read_depth_.end() && it->second > 0) || write_held_ == v;
  }

  const bool sd_;

  // Node-side state.
  std::optional<ViewId> write_held_;
  uint32_t write_version_ = 0;
  std::unordered_map<ViewId, int> read_depth_;
  std::vector<uint32_t> last_seen_;  // per view: last incorporated version

  std::unordered_map<ViewId, std::unique_ptr<sim::Waiter<ViewGrantMsg>>>
      grant_waiters_;

  // Manager-side state.
  std::unordered_map<ViewId, ViewMgrState> mgr_;
};

}  // namespace vodsm::dsm
