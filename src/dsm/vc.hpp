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

#include <algorithm>
#include <optional>
#include <vector>

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
  // FIFO of waiting acquisitions. A default-constructed std::deque
  // allocates (libstdc++: a map and a 512-byte node) and most views never
  // queue; an empty vector allocates nothing.
  struct AcqQueue {
    std::vector<ViewAcqMsg> items;
    size_t head = 0;
    bool empty() const { return head == items.size(); }
    const ViewAcqMsg& front() const { return items[head]; }
    void push(const ViewAcqMsg& m) { items.push_back(m); }
    void pop() {
      // Drop the consumed prefix once it is half the buffer.
      if (2 * ++head >= items.size()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<ptrdiff_t>(head));
        head = 0;
      }
    }
  };
  // VC_sd home storage of one page. Only diffs with version > gc_version
  // live in `tail`, ascending; older ones are folded into `base`, which is
  // empty until the first fold (every logged diff is non-empty).
  struct PageLog {
    mem::Diff base;
    std::vector<std::pair<uint32_t, mem::Diff>> tail;
  };
  struct ViewMgrState {
    uint32_t cur_version = 0;
    bool write_held = false;
    int readers = 0;
    AcqQueue queue;
    // history[v-1] = (writer, pages) of version v (VC_d notice source).
    std::vector<std::pair<NodeId, std::vector<mem::PageId>>> history;
    // VC_sd: one PageLog per page of the view, by page-in-view (sized at
    // the first release).
    std::vector<PageLog> pages;
    // VC_sd GC: every page's base is the left fold of versions
    // [1, gc_version]. A requester claims last_seen == 0 (first
    // acquisition, needs base + tail exactly) or last_seen >= gc_version
    // (tail suffices); both reproduce the pre-GC integration bit for bit.
    uint32_t gc_version = 0;
    // Last version granted to each node that ever acquired this view,
    // sorted by node, and the minimum of them with the number of nodes at
    // it; min(cur_version, seen_min) bounds how far gc_version may advance.
    std::vector<std::pair<NodeId, uint32_t>> seen;
    uint32_t seen_min = 0;
    uint32_t at_min = 0;

    // Record `version` as granted to `node` (a node's entry never falls).
    // The minimum is rescanned only when the last node at it moves up.
    void noteGranted(NodeId node, uint32_t version);
  };
  NodeId viewManager(ViewId v) const {
    return ctx_.views.managerOf(v, ctx_.nprocs);
  }
  ViewMgrState& managed(ViewId v) {
    VODSM_CHECK_MSG(viewManager(v) == ctx_.id,
                    "view " << v << " is not managed by node " << ctx_.id);
    return mgr_[ctx_.views.homeSlot(v)];
  }

  void onViewAcq(const ViewAcqMsg& m, sim::Time arrive);
  void onViewRelease(ViewReleaseMsg&& m, sim::Time arrive);
  void onViewReadRelease(const ViewReadReleaseMsg& m, sim::Time arrive);
  void grantNow(const ViewAcqMsg& m, ViewMgrState& st, sim::Time when);
  void sdGc(ViewMgrState& st, sim::Time when);
  void pumpQueue(ViewMgrState& st, sim::Time when);

  std::vector<std::pair<ViewId, int>>::iterator readHold(ViewId v) {
    return std::find_if(read_depth_.begin(), read_depth_.end(),
                        [v](const auto& e) { return e.first == v; });
  }
  bool holdsForRead(ViewId v) {
    return write_held_ == v || readHold(v) != read_depth_.end();
  }
  // The last version of `v` this node incorporated; 0 if it never acquired v.
  uint32_t lastSeen(ViewId v) const;
  void setLastSeen(ViewId v, uint32_t version);

  const bool sd_;

  // Node-side state.
  std::optional<ViewId> write_held_;
  uint32_t write_version_ = 0;
  // Views read-held now, with their nesting depth (> 0).
  std::vector<std::pair<ViewId, int>> read_depth_;
  // (view, last incorporated version) of each view this node has acquired,
  // sorted by view. A node acquires few of the views (an IS node about 3p
  // of p^2+p+1), so this is sparse rather than one word per view.
  std::vector<std::pair<ViewId, uint32_t>> last_seen_;
  // Acquisitions awaiting their grant; each waiter lives in its
  // acquireView frame.
  std::vector<std::pair<ViewId, sim::Waiter<ViewGrantMsg>*>> grant_waiters_;

  // Manager-side state of the views this node manages, by
  // ViewMap::homeSlot.
  std::vector<ViewMgrState> mgr_;
};

}  // namespace vodsm::dsm
