// LRC_d: diff-based Lazy Release Consistency (TreadMarks-style).
//
// - Vector-timestamped intervals close at lock releases and barriers.
// - Lock grants travel manager -> last owner -> requester, piggybacking
//   every interval (write notices) the requester has not covered.
// - A page fault fetches the diffs named by the page's pending write
//   notices (Runtime's shared fetch), applied in vector-clock-sum order.
// - Barriers are consistency points: the barrier payload is every interval
//   learned since the last barrier (see runtime.hpp).
// - Interval compaction. After a barrier every node's clock covers every
//   interval it knows, so no interval is sent again: barrier payloads start
//   from the last barrier, and a lock requester has passed it too. At
//   barrier exit each node drops the intervals' clocks and page lists and
//   keeps only their vc-sums, the diff apply order.
#pragma once

#include <deque>
#include <unordered_map>

#include "dsm/msgs.hpp"
#include "dsm/runtime.hpp"
#include "mem/vclock.hpp"

namespace vodsm::dsm {

class LrcRuntime : public Runtime {
 public:
  explicit LrcRuntime(NodeCtx& ctx);

  sim::Task<void> acquireLock(LockId l) override;
  sim::Task<void> releaseLock(LockId l) override;

  // VOPP programs can run on LRC by mapping views onto locks (used by the
  // correctness test suite; the paper's measurements run traditional
  // programs on LRC_d).
  sim::Task<void> acquireView(ViewId v, bool readonly) override;
  sim::Task<void> releaseView(ViewId v, bool readonly) override;

 protected:
  std::vector<mem::Interval> barrierEnter() override;
  bool absorbInterval(const mem::Interval& iv) override;
  void barrierExit() override;
  uint64_t applyRank(NodeId writer, uint32_t index) const override;
  void onMessage(net::Delivery&& d) override;

 private:
  struct LockState {
    bool held = false;
    bool waiting = false;
  };
  // Manager-side lock record. Grants are *authorized* by the manager and
  // *served* by the last releaser (which carries the LRC knowledge): the
  // manager never authorizes a node that might still be holding, so the
  // protocol has no deferred-forward state at the nodes and cannot deadlock
  // on crossing re-acquisitions.
  struct LockMgrState {
    bool held = false;
    NodeId holder = 0;
    NodeId last_releaser;  // initialized to the manager itself
    std::deque<LockAcqMsg> queue;
    explicit LockMgrState(NodeId mgr) : last_releaser(mgr) {}
  };

  void onLockAcq(const LockAcqMsg& m, sim::Time arrive);
  void onLockAuth(const LockAcqMsg& m, sim::Time arrive);
  void onLockRelease(LockId lock, sim::Time arrive);

  // Close the current write interval: diff dirty pages, log them, record
  // the interval.
  void closeInterval();
  // Build and send a lock grant to `req` no earlier than `when`.
  void sendGrant(const LockAcqMsg& req, sim::Time when);
  // All intervals this node knows that `vc` does not cover. `vc` must
  // cover the last barrier wherever this node knows more than `vc`.
  std::vector<mem::Interval> intervalsNotCoveredBy(const mem::VClock& vc) const;
  // Record a closed or learned interval, the next of its writer.
  void addInterval(mem::Interval&& iv);

  LockId viewLock(ViewId v) const {
    // Views map onto a disjoint lock namespace when VOPP runs on LRC.
    return static_cast<LockId>(v) + 0x40000000u;
  }

  mem::VClock vc_;
  mem::VClock last_barrier_vc_;
  // LRC knowledge is prefix-closed per writer: this node knows intervals
  // 1..vc_[w] of writer w. ranks_[w][i] is the vc-sum of interval i+1;
  // open_[w] holds intervals last_barrier_vc_[w]+1..vc_[w] whole, ascending.
  std::vector<std::vector<uint64_t>> ranks_;
  std::vector<std::vector<mem::Interval>> open_;

  std::unordered_map<LockId, LockState> locks_;
  std::unordered_map<LockId, std::unique_ptr<sim::Waiter<LockGrantMsg>>>
      grant_waiters_;

  // Manager-side state (meaningful only for ids this node manages).
  std::unordered_map<LockId, LockMgrState> lock_mgr_;
};

}  // namespace vodsm::dsm
