#include "dsm/lrc.hpp"

namespace vodsm::dsm {

LrcRuntime::LrcRuntime(NodeCtx& ctx)
    : Runtime(ctx, kDiffReq, kDiffResp),
      vc_(static_cast<size_t>(ctx.nprocs)),
      last_barrier_vc_(static_cast<size_t>(ctx.nprocs)),
      ranks_(static_cast<size_t>(ctx.nprocs)),
      open_(static_cast<size_t>(ctx.nprocs)) {}

void LrcRuntime::onMessage(net::Delivery&& d) {
  switch (d.type) {
    case kLockAcq:
      onLockAcq(decode<LockAcqMsg>(d.payload.bytes()), d.arrive);
      return;
    case kLockAuth:
      onLockAuth(decode<LockAcqMsg>(d.payload.bytes()), d.arrive);
      return;
    case kLockRelease:
      onLockRelease(decode<LockReleaseMsg>(d.payload.bytes()).lock, d.arrive);
      return;
    case kLockGrant: {
      LockGrantMsg g = decode<LockGrantMsg>(d.payload.bytes());
      auto it = grant_waiters_.find(g.lock);
      VODSM_CHECK_MSG(it != grant_waiters_.end(),
                      "unexpected lock grant for lock " << g.lock);
      ctx_.clock.atLeast(d.arrive);
      it->second->fulfill(std::move(g));
      return;
    }
    default:
      VODSM_CHECK_MSG(false, "LRC: unknown message type " << d.type);
  }
}

// ---------- locks ----------

sim::Task<void> LrcRuntime::acquireLock(LockId l) {
  LockState& st = locks_[l];
  VODSM_CHECK_MSG(!st.held && !st.waiting,
                  "lock " << l << " acquired while already held/waited on");
  ctx_.stats.acquires++;
  const sim::Time t0 = ctx_.clock.now();
  if (auto* t = ctx_.trace) t->begin(ctx_.id, obs::Cat::kAcquireWait, t0, l);
  st.waiting = true;
  auto waiter = std::make_unique<sim::Waiter<LockGrantMsg>>();
  auto* waiter_ptr = waiter.get();
  grant_waiters_[l] = std::move(waiter);
  LockAcqMsg req{l, ctx_.id, vc_};
  ctx_.endpoint.post(managerOf(l), kLockAcq, encode(req), ctx_.clock.now());
  LockGrantMsg g = co_await *waiter_ptr;
  grant_waiters_.erase(l);
  for (const auto& iv : g.intervals) absorbInterval(iv);
  vc_.merge(g.grantor_vc);
  st.waiting = false;
  st.held = true;
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kAcquireWait, ctx_.clock.now(), l);
  ctx_.stats.acquire_wait_total += ctx_.clock.now() - t0;
  ctx_.stats.acquire_waits++;
}

sim::Task<void> LrcRuntime::releaseLock(LockId l) {
  LockState& st = locks_[l];
  VODSM_CHECK_MSG(st.held, "releasing lock " << l << " not held");
  closeInterval();
  st.held = false;
  ctx_.endpoint.post(managerOf(l), kLockRelease, encode(LockReleaseMsg{l}),
                     ctx_.clock.now());
  co_return;
}

void LrcRuntime::onLockAcq(const LockAcqMsg& m, sim::Time arrive) {
  auto it = lock_mgr_.try_emplace(m.lock, ctx_.id).first;
  LockMgrState& st = it->second;
  if (st.held) {
    st.queue.push_back(m);
    return;
  }
  st.held = true;
  st.holder = m.requester;
  const sim::Time when = arrive + ctx_.costs.handler_service;
  if (st.last_releaser == ctx_.id) {
    onLockAuth(m, when);
  } else {
    ctx_.endpoint.post(st.last_releaser, kLockAuth, encode(m), when);
  }
}

void LrcRuntime::onLockAuth(const LockAcqMsg& m, sim::Time arrive) {
  // We are the last releaser of this lock, hence by construction no longer
  // holding it: grant immediately from our accumulated knowledge.
  sendGrant(m, arrive + ctx_.costs.handler_service);
}

void LrcRuntime::onLockRelease(LockId lock, sim::Time arrive) {
  auto it = lock_mgr_.find(lock);
  VODSM_CHECK_MSG(it != lock_mgr_.end() && it->second.held,
                  "release of unheld lock " << lock);
  LockMgrState& st = it->second;
  st.held = false;
  st.last_releaser = st.holder;
  if (st.queue.empty()) return;
  LockAcqMsg next = std::move(st.queue.front());
  st.queue.pop_front();
  st.held = true;
  st.holder = next.requester;
  const sim::Time when = arrive + ctx_.costs.handler_service;
  if (st.last_releaser == ctx_.id) {
    onLockAuth(next, when);
  } else {
    ctx_.endpoint.post(st.last_releaser, kLockAuth, encode(next), when);
  }
}

void LrcRuntime::sendGrant(const LockAcqMsg& req, sim::Time when) {
  LockGrantMsg g;
  g.lock = req.lock;
  g.grantor_vc = vc_;
  g.intervals = intervalsNotCoveredBy(req.vc);
  if (auto* t = ctx_.trace)
    t->instant(ctx_.id, obs::Cat::kGrant, when, req.lock, req.requester);
  ctx_.endpoint.post(req.requester, kLockGrant, encode(g), when);
}

std::vector<mem::Interval> LrcRuntime::intervalsNotCoveredBy(
    const mem::VClock& vc) const {
  std::vector<mem::Interval> out;
  for (size_t w = 0; w < open_.size(); ++w) {
    if (vc[w] >= vc_[w]) continue;
    VODSM_CHECK_MSG(vc[w] >= last_barrier_vc_[w],
                    "interval " << vc[w] + 1 << " of node " << w
                                << " is compacted");
    // open_[w][i] has index last_barrier_vc_[w] + i + 1.
    const auto& ivs = open_[w];
    for (size_t i = vc[w] - last_barrier_vc_[w]; i < ivs.size(); ++i)
      out.push_back(ivs[i]);
  }
  return out;
}

void LrcRuntime::addInterval(mem::Interval&& iv) {
  VODSM_CHECK_MSG(iv.index == ranks_[iv.node].size() + 1,
                  "non-contiguous interval knowledge for node " << iv.node);
  // vc-sum linearizes happens-before: if a hb b, a.vc <= b.vc pointwise and
  // strictly somewhere, so sum(a) < sum(b).
  uint64_t sum = 0;
  for (size_t k = 0; k < iv.vc.size(); ++k) sum += iv.vc[k];
  ranks_[iv.node].push_back(sum);
  vc_[iv.node] = iv.index;
  open_[iv.node].push_back(std::move(iv));
}

bool LrcRuntime::absorbInterval(const mem::Interval& iv) {
  if (vc_[iv.node] >= iv.index) return false;  // already known
  for (mem::PageId p : iv.pages) recordNotice(p, iv.node, iv.index);
  addInterval(mem::Interval(iv));
  return true;
}

void LrcRuntime::closeInterval() {
  std::vector<mem::PageId> pages;
  std::vector<mem::Diff> diffs;
  diffDirtyPages([&](mem::PageId p, mem::Diff&& d) {
    pages.push_back(p);
    diffs.push_back(std::move(d));
  });
  if (pages.empty()) return;
  const uint32_t idx = ++vc_[ctx_.id];
  for (size_t i = 0; i < pages.size(); ++i)
    logDiff(pages[i], idx, std::move(diffs[i]));
  mem::Interval iv;
  iv.node = ctx_.id;
  iv.index = idx;
  iv.vc = vc_;
  iv.pages = std::move(pages);
  addInterval(std::move(iv));
}

uint64_t LrcRuntime::applyRank(NodeId writer, uint32_t index) const {
  // The interval is known locally (its write notice came with it).
  // Concurrent intervals (false sharing) touch disjoint bytes, so their
  // relative order is irrelevant.
  return ranks_[writer][index - 1];
}

void LrcRuntime::barrierExit() {
  // Every interval known here is covered now, and no later grant or
  // barrier payload reaches below this clock: keep only the ranks.
  last_barrier_vc_ = vc_;
  for (auto& ivs : open_) ivs.clear();
}

std::vector<mem::Interval> LrcRuntime::barrierEnter() {
  closeInterval();
  // Everything learned since the last barrier. All nodes share that
  // baseline, so the merged set stays contiguous per writer at every
  // receiver.
  return intervalsNotCoveredBy(last_barrier_vc_);
}

// ---------- VOPP-on-LRC mapping (testing aid) ----------

sim::Task<void> LrcRuntime::acquireView(ViewId v, bool readonly) {
  // Both read and write view acquisitions map to exclusive locks: correct
  // (SC for DRF programs) but without read concurrency.
  (void)readonly;
  co_await acquireLock(viewLock(v));
}

sim::Task<void> LrcRuntime::releaseView(ViewId v, bool readonly) {
  (void)readonly;
  co_await releaseLock(viewLock(v));
}

}  // namespace vodsm::dsm
