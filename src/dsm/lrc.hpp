// LRC_d: diff-based Lazy Release Consistency (TreadMarks-style).
//
// - Vector-timestamped intervals close at lock releases and barriers.
// - Lock grants travel manager -> last owner -> requester, piggybacking
//   every interval (write notices) the requester has not covered.
// - A page fault sends diff requests to each writer named by the page's
//   pending write notices and merges the replies.
// - Barriers are consistency points: every node ships its fresh intervals
//   to the centralized barrier manager, which merges and rebroadcasts the
//   global set. This is the centralized hot spot the paper measures.
//   NodeCtx::barrier can swap the centralized manager for a radix-4
//   combining tree (arrivals merge level by level, the release fans back
//   down) or a dissemination (butterfly) barrier (ceil(log2 p) peer-exchange
//   rounds, each round carrying everything accumulated since barrier entry)
//   — see DESIGN.md §3.12.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "dsm/msgs.hpp"
#include "dsm/runtime.hpp"
#include "mem/vclock.hpp"
#include "mem/write_notice.hpp"
#include "sim/waiter.hpp"

namespace vodsm::dsm {

class LrcRuntime : public Runtime {
 public:
  explicit LrcRuntime(NodeCtx& ctx);

  sim::Task<void> acquireLock(LockId l) override;
  sim::Task<void> releaseLock(LockId l) override;
  sim::Task<void> barrier(BarrierId b) override;

  // VOPP programs can run on LRC by mapping views onto locks (used by the
  // correctness test suite; the paper's measurements run traditional
  // programs on LRC_d).
  sim::Task<void> acquireView(ViewId v, bool readonly) override;
  sim::Task<void> releaseView(ViewId v, bool readonly) override;

 protected:
  sim::Task<void> readFault(mem::PageId p) override;
  void onPageDirtied(mem::PageId p) override { dirty_.insert(p); }

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
  struct BarrierMgrState {
    int arrived = 0;
    sim::Time busy_until = 0;
    std::map<std::pair<uint32_t, uint32_t>, mem::Interval> merged;
  };

  void onMessage(net::Delivery&& d, const net::ReplyToken& token);
  void onLockAcq(const LockAcqMsg& m, sim::Time arrive);
  void onLockAuth(const LockAcqMsg& m, sim::Time arrive);
  void onLockRelease(LockId lock, sim::Time arrive);
  void onDiffReq(const DiffReqMsg& m, const net::ReplyToken& token,
                 sim::Time arrive);
  void onBarrArrive(const BarrArriveMsg& m, sim::Time arrive);
  // Tree mode: forward the merged subtree arrival up (or, at the root,
  // start the release fan-down) once this node and all its children are in.
  void treeBarrierStep(BarrierId b, BarrierMgrState& st);
  // Butterfly mode: the whole barrier is peer-exchange rounds.
  sim::Task<void> barrierButterfly(BarrierId b);
  sim::Task<BarrRoundMsg> awaitRound(BarrierId b, uint32_t round);

  // Close the current write interval: diff dirty pages, log them, record
  // the interval.
  void closeInterval();
  // Record a foreign interval: store it, note-invalidate its pages, bump vc.
  void recordForeignInterval(const mem::Interval& iv);
  // Build and send a lock grant to `req` no earlier than `when`.
  void sendGrant(const LockAcqMsg& req, sim::Time when);
  // All intervals this node knows that `vc` does not cover.
  std::vector<mem::Interval> intervalsNotCoveredBy(const mem::VClock& vc) const;

  LockId viewLock(ViewId v) const {
    // Views map onto a disjoint lock namespace when VOPP runs on LRC.
    return static_cast<LockId>(v) + 0x40000000u;
  }

  mem::VClock vc_;
  mem::VClock last_barrier_vc_;
  std::set<mem::PageId> dirty_;
  // [writer] -> intervals in ascending index order (contiguous from 1:
  // LRC knowledge is prefix-closed per writer).
  std::vector<std::vector<mem::Interval>> intervals_by_writer_;
  // page -> pending write notices (diffs not yet fetched)
  std::unordered_map<mem::PageId, std::vector<mem::WriteNotice>> pending_;
  // own diffs: page -> (interval index, diff), ascending
  std::unordered_map<mem::PageId,
                     std::vector<std::pair<uint32_t, mem::Diff>>>
      diff_log_;

  std::unordered_map<LockId, LockState> locks_;
  std::unordered_map<LockId, std::unique_ptr<sim::Waiter<LockGrantMsg>>>
      grant_waiters_;
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

  // Manager-side state (meaningful only for ids this node manages).
  std::unordered_map<LockId, LockMgrState> lock_mgr_;
  std::unordered_map<BarrierId, BarrierMgrState> barrier_mgr_;
};

}  // namespace vodsm::dsm
