#include "dsm/lrc.hpp"

#include <algorithm>

#include "net/parallel.hpp"

namespace vodsm::dsm {

LrcRuntime::LrcRuntime(NodeCtx& ctx)
    : Runtime(ctx),
      vc_(static_cast<size_t>(ctx.nprocs)),
      last_barrier_vc_(static_cast<size_t>(ctx.nprocs)),
      intervals_by_writer_(static_cast<size_t>(ctx.nprocs)) {
  ctx_.endpoint.setHandler(
      [this](net::Delivery&& d, const net::ReplyToken& token) {
        onMessage(std::move(d), token);
      });
}

void LrcRuntime::onMessage(net::Delivery&& d, const net::ReplyToken& token) {
  switch (d.type) {
    case kLockAcq:
      onLockAcq(LockAcqMsg::decode(d.payload), d.arrive);
      return;
    case kLockAuth:
      onLockAuth(LockAcqMsg::decode(d.payload), d.arrive);
      return;
    case kLockRelease: {
      Reader r(d.payload);
      onLockRelease(r.u32(), d.arrive);
      return;
    }
    case kLockGrant: {
      LockGrantMsg g = LockGrantMsg::decode(d.payload);
      auto it = grant_waiters_.find(g.lock);
      VODSM_CHECK_MSG(it != grant_waiters_.end(),
                      "unexpected lock grant for lock " << g.lock);
      ctx_.clock.atLeast(d.arrive);
      it->second->fulfill(std::move(g));
      return;
    }
    case kDiffReq:
      onDiffReq(DiffReqMsg::decode(d.payload), token, d.arrive);
      return;
    case kBarrArrive:
      onBarrArrive(BarrArriveMsg::decode(d.payload), d.arrive);
      return;
    case kBarrRelease: {
      BarrReleaseMsg rel = BarrReleaseMsg::decode(d.payload);
      if (ctx_.barrier == BarrierAlg::kTree) {
        // Fan the release down to our subtree before unblocking ourselves;
        // the payload is the complete global set, forwarded verbatim.
        const sim::Time when = d.arrive + ctx_.costs.handler_service;
        for (int k = 0; k < treeChildCount(); ++k)
          ctx_.endpoint.post(treeChild(k), kBarrRelease, Bytes(d.payload),
                             when);
      }
      auto it = barrier_waiters_.find(rel.barrier);
      VODSM_CHECK_MSG(it != barrier_waiters_.end(),
                      "unexpected barrier release " << rel.barrier);
      ctx_.clock.atLeast(d.arrive);
      it->second->fulfill(std::move(rel));
      return;
    }
    case kBarrRound: {
      BarrRoundMsg rm = BarrRoundMsg::decode(d.payload);
      const auto key = std::make_pair(rm.barrier, rm.round);
      auto it = round_waiters_.find(key);
      if (it != round_waiters_.end()) {
        ctx_.clock.atLeast(d.arrive);
        it->second->fulfill(std::move(rm));
      } else {
        // The peer can be one barrier instance ahead of us (the classic
        // dissemination-barrier overlap); park its message until we enter.
        const bool parked =
            round_early_.emplace(key, std::make_pair(std::move(rm), d.arrive))
                .second;
        VODSM_CHECK_MSG(parked, "duplicate early barrier round message");
      }
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
  ctx_.endpoint.post(managerOf(l), kLockAcq, req.encode(), ctx_.clock.now());
  LockGrantMsg g = co_await *waiter_ptr;
  grant_waiters_.erase(l);
  for (const auto& iv : g.intervals) recordForeignInterval(iv);
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
  Writer w;
  w.u32(l);
  ctx_.endpoint.post(managerOf(l), kLockRelease, w.take(), ctx_.clock.now());
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
    ctx_.endpoint.post(st.last_releaser, kLockAuth, m.encode(), when);
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
    ctx_.endpoint.post(st.last_releaser, kLockAuth, next.encode(), when);
  }
}

void LrcRuntime::sendGrant(const LockAcqMsg& req, sim::Time when) {
  LockGrantMsg g;
  g.lock = req.lock;
  g.grantor_vc = vc_;
  g.intervals = intervalsNotCoveredBy(req.vc);
  if (auto* t = ctx_.trace)
    t->instant(ctx_.id, obs::Cat::kGrant, when, req.lock, req.requester);
  ctx_.endpoint.post(req.requester, kLockGrant, g.encode(), when);
}

std::vector<mem::Interval> LrcRuntime::intervalsNotCoveredBy(
    const mem::VClock& vc) const {
  std::vector<mem::Interval> out;
  for (size_t w = 0; w < intervals_by_writer_.size(); ++w) {
    const auto& ivs = intervals_by_writer_[w];
    // ivs[i] has index i+1; send everything past vc[w].
    for (size_t i = vc[w]; i < ivs.size(); ++i) out.push_back(ivs[i]);
  }
  return out;
}

void LrcRuntime::recordForeignInterval(const mem::Interval& iv) {
  if (vc_[iv.node] >= iv.index) return;  // already known
  auto& ivs = intervals_by_writer_[iv.node];
  VODSM_CHECK_MSG(iv.index == ivs.size() + 1,
                  "non-contiguous interval knowledge for node " << iv.node);
  ivs.push_back(iv);
  for (mem::PageId p : iv.pages) {
    ctx_.stats.notices_recorded++;
    ctx_.clock.charge(ctx_.costs.apply_notice);
    if (auto* t = ctx_.trace)
      t->instant(ctx_.id, obs::Cat::kNotice, ctx_.clock.now(), p, iv.node);
    if (auto* m = ctx_.metrics)
      m->add(ctx_.id, obs::Metric::kPendingNotices, 1, ctx_.clock.now());
    pending_[p].push_back(mem::WriteNotice{iv.node, iv.index});
    // Invalidate; a local twin (concurrent false-sharing writes) survives so
    // the fault can merge foreign diffs under our uncommitted changes.
    ctx_.store.setAccess(p, mem::Access::kNone);
  }
  vc_[iv.node] = iv.index;
}

void LrcRuntime::closeInterval() {
  if (dirty_.empty()) return;
  if (auto* t = ctx_.trace)
    t->begin(ctx_.id, obs::Cat::kDiffCreate, ctx_.clock.now());
  std::vector<mem::PageId> pages;
  std::vector<mem::Diff> diffs;
  uint64_t diff_bytes = 0;
  for (mem::PageId p : dirty_) {
    mem::Diff d = ctx_.store.diffAgainstTwin(p);
    ctx_.clock.charge(ctx_.costs.diffCreate(d.wireSize()));
    diff_bytes += d.wireSize();
    ctx_.store.dropTwin(p);
    if (auto* m = ctx_.metrics) {
      m->add(ctx_.id, obs::Metric::kTwinBytes,
             -static_cast<int64_t>(mem::kPageSize), ctx_.clock.now());
      m->add(ctx_.id, obs::Metric::kTwinReclaimBytes,
             static_cast<int64_t>(mem::kPageSize), ctx_.clock.now());
    }
    if (ctx_.store.access(p) == mem::Access::kWrite)
      ctx_.store.setAccess(p, mem::Access::kRead);
    if (d.empty()) continue;  // touched but unchanged: nothing to propagate
    ctx_.stats.diffs_created++;
    if (auto* m = ctx_.metrics)
      m->add(ctx_.id, obs::Metric::kDiffsCreated, 1, ctx_.clock.now());
    pages.push_back(p);
    diffs.push_back(std::move(d));
  }
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kDiffCreate, ctx_.clock.now(), dirty_.size(),
           diff_bytes);
  dirty_.clear();
  if (pages.empty()) return;
  const uint32_t idx = ++vc_[ctx_.id];
  for (size_t i = 0; i < pages.size(); ++i) {
    if (auto* m = ctx_.metrics) {
      m->add(ctx_.id, obs::Metric::kDiffStoreBytes,
             static_cast<int64_t>(diffs[i].wireSize()), ctx_.clock.now());
      m->add(ctx_.id, obs::Metric::kDiffStoreCount, 1, ctx_.clock.now());
    }
    diff_log_[pages[i]].emplace_back(idx, std::move(diffs[i]));
  }
  mem::Interval iv;
  iv.node = ctx_.id;
  iv.index = idx;
  iv.vc = vc_;
  iv.pages = std::move(pages);
  VODSM_DCHECK(intervals_by_writer_[ctx_.id].size() + 1 == idx);
  intervals_by_writer_[ctx_.id].push_back(std::move(iv));
}

// ---------- page faults / diff serving ----------

sim::Task<void> LrcRuntime::readFault(mem::PageId p) {
  auto it = pending_.find(p);
  if (it == pending_.end() || it->second.empty()) {
    // Cold page: the initial zeroed copy is valid.
    ctx_.store.setAccess(p, ctx_.store.hasTwin(p) ? mem::Access::kWrite
                                                  : mem::Access::kRead);
    co_return;
  }
  std::map<NodeId, std::vector<uint32_t>> by_writer;
  for (const mem::WriteNotice& wn : it->second)
    by_writer[wn.writer].push_back(wn.interval_index);

  struct Fetched {
    uint64_t vc_sum;  // linear extension of happens-before
    NodeId writer;
    uint32_t index;
    mem::Diff diff;
  };
  // One request per writer, all in flight at once (TreadMarks style).
  std::vector<net::RpcCall> calls;
  std::vector<NodeId> writers;
  for (auto& [writer, indices] : by_writer) {
    std::sort(indices.begin(), indices.end());
    ctx_.stats.diff_requests++;
    calls.push_back(
        net::RpcCall{writer, kDiffReq, DiffReqMsg{p, indices}.encode()});
    writers.push_back(writer);
  }
  std::vector<net::RpcResult> responses =
      co_await net::requestAll(ctx_.endpoint, std::move(calls),
                               ctx_.clock.now());
  std::vector<Fetched> collected;
  for (size_t r = 0; r < responses.size(); ++r) {
    const net::RpcResult& resp = responses[r];
    const NodeId writer = writers[r];
    ctx_.clock.atLeast(resp.arrive);
    VODSM_CHECK(resp.type == kDiffResp);
    DiffRespMsg dr = DiffRespMsg::decode(resp.payload);
    for (auto& [index, diff] : dr.diffs) {
      // The interval's vector clock is known locally (its write notice came
      // with the interval). vc-sum linearizes happens-before: if a hb b,
      // a.vc <= b.vc pointwise and strictly somewhere, so sum(a) < sum(b).
      // Concurrent intervals (false sharing) touch disjoint bytes, so their
      // relative order is irrelevant.
      const mem::Interval& iv = intervals_by_writer_[writer][index - 1];
      uint64_t sum = 0;
      for (size_t k = 0; k < iv.vc.size(); ++k) sum += iv.vc[k];
      collected.push_back(Fetched{sum, writer, index, std::move(diff)});
    }
  }
  std::sort(collected.begin(), collected.end(), [](const auto& a,
                                                   const auto& b) {
    return std::tie(a.vc_sum, a.writer, a.index) <
           std::tie(b.vc_sum, b.writer, b.index);
  });
  for (const Fetched& f : collected) {
    f.diff.apply(ctx_.store.page(p));
    ctx_.clock.charge(ctx_.costs.diffApply(f.diff.wireSize()));
    ctx_.stats.diffs_applied++;
    if (auto* t = ctx_.trace)
      t->instant(ctx_.id, obs::Cat::kDiffApply, ctx_.clock.now(), p,
                 f.diff.wireSize());
    if (auto* m = ctx_.metrics)
      m->add(ctx_.id, obs::Metric::kDiffsApplied, 1, ctx_.clock.now());
  }
  if (auto* m = ctx_.metrics)
    m->add(ctx_.id, obs::Metric::kPendingNotices,
           -static_cast<int64_t>(it->second.size()), ctx_.clock.now());
  pending_.erase(p);
  ctx_.store.setAccess(p, ctx_.store.hasTwin(p) ? mem::Access::kWrite
                                                : mem::Access::kRead);
}

void LrcRuntime::onDiffReq(const DiffReqMsg& m, const net::ReplyToken& token,
                           sim::Time arrive) {
  auto it = diff_log_.find(m.page);
  VODSM_CHECK_MSG(it != diff_log_.end(),
                  "diff request for page " << m.page << " with no diffs");
  DiffRespMsg resp;
  for (uint32_t want : m.interval_indices) {
    auto dit = std::lower_bound(
        it->second.begin(), it->second.end(), want,
        [](const auto& e, uint32_t v) { return e.first < v; });
    VODSM_CHECK_MSG(dit != it->second.end() && dit->first == want,
                    "missing diff for page " << m.page << " interval "
                                             << want);
    resp.diffs.emplace_back(want, dit->second);
  }
  ctx_.endpoint.reply(token, kDiffResp, resp.encode(),
                      arrive + ctx_.costs.handler_service);
}

// ---------- barriers ----------

sim::Task<void> LrcRuntime::barrier(BarrierId b) {
  if (ctx_.barrier == BarrierAlg::kButterfly) {
    co_await barrierButterfly(b);
    co_return;
  }
  closeInterval();
  BarrArriveMsg arrive_msg;
  arrive_msg.barrier = b;
  arrive_msg.node = ctx_.id;
  arrive_msg.intervals = intervalsNotCoveredBy(last_barrier_vc_);
  const sim::Time t0 = ctx_.clock.now();
  if (auto* t = ctx_.trace) t->begin(ctx_.id, obs::Cat::kBarrierWait, t0, b);
  auto waiter = std::make_unique<sim::Waiter<BarrReleaseMsg>>();
  auto* waiter_ptr = waiter.get();
  VODSM_CHECK_MSG(!barrier_waiters_.count(b),
                  "barrier " << b << " re-entered concurrently");
  barrier_waiters_[b] = std::move(waiter);
  // Tree mode: arrivals combine bottom-up, so every node (leaves included)
  // first folds its own arrival locally; node 0's target is unchanged.
  const NodeId arrive_at =
      ctx_.barrier == BarrierAlg::kTree ? ctx_.id : barrierManager();
  ctx_.endpoint.post(arrive_at, kBarrArrive, arrive_msg.encode(),
                     ctx_.clock.now());
  BarrReleaseMsg rel = co_await *waiter_ptr;
  barrier_waiters_.erase(b);
  for (const auto& iv : rel.intervals) recordForeignInterval(iv);
  last_barrier_vc_ = vc_;
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kBarrierWait, ctx_.clock.now(), b);
  ctx_.stats.barrier_wait_total += ctx_.clock.now() - t0;
  ctx_.stats.barrier_waits++;
}

void LrcRuntime::onBarrArrive(const BarrArriveMsg& m, sim::Time arrive) {
  BarrierMgrState& st = barrier_mgr_[m.barrier];
  size_t notice_count = 0;
  for (const auto& iv : m.intervals) {
    notice_count += iv.pages.size();
    st.merged.try_emplace({iv.node, iv.index}, iv);
  }
  // The manager folds arrivals serially; consistency-carrying barriers pay
  // per-notice merge cost, which is what makes LRC barriers centralized and
  // slow at scale.
  st.busy_until = std::max(st.busy_until, arrive) + ctx_.costs.barrier_fold +
                  ctx_.costs.barrier_per_notice *
                      static_cast<sim::Time>(notice_count);
  if (auto* t = ctx_.trace)
    t->instant(ctx_.id, obs::Cat::kBarrFold, st.busy_until, m.barrier,
               notice_count);
  st.arrived++;
  if (ctx_.barrier == BarrierAlg::kTree) {
    treeBarrierStep(m.barrier, st);
    return;
  }
  if (st.arrived < ctx_.nprocs) return;

  ctx_.stats.barriers++;
  BarrReleaseMsg rel;
  rel.barrier = m.barrier;
  rel.intervals.reserve(st.merged.size());
  for (auto& [key, iv] : st.merged) rel.intervals.push_back(std::move(iv));
  // Keyed by (node, index): already sorted per writer ascending, which the
  // receivers' contiguity check requires.
  Bytes encoded = rel.encode();
  for (NodeId n = 0; n < static_cast<NodeId>(ctx_.nprocs); ++n)
    ctx_.endpoint.post(n, kBarrRelease, Bytes(encoded), st.busy_until);
  barrier_mgr_.erase(m.barrier);
}

void LrcRuntime::treeBarrierStep(BarrierId b, BarrierMgrState& st) {
  // Wait for this node's own arrival plus one merged arrival per child
  // subtree; then the (node, index)-keyed map holds the subtree's interval
  // set sorted per writer ascending, as the contiguity check downstream
  // requires.
  if (st.arrived < 1 + treeChildCount()) return;
  if (ctx_.id == barrierManager()) {
    ctx_.stats.barriers++;
    BarrReleaseMsg rel;
    rel.barrier = b;
    rel.intervals.reserve(st.merged.size());
    for (auto& [key, iv] : st.merged) rel.intervals.push_back(std::move(iv));
    // Self-post: the release fans down the tree from the root.
    ctx_.endpoint.post(ctx_.id, kBarrRelease, rel.encode(), st.busy_until);
  } else {
    BarrArriveMsg up;
    up.barrier = b;
    up.node = ctx_.id;
    up.intervals.reserve(st.merged.size());
    for (auto& [key, iv] : st.merged) up.intervals.push_back(std::move(iv));
    ctx_.endpoint.post(treeParent(), kBarrArrive, up.encode(), st.busy_until);
  }
  barrier_mgr_.erase(b);
}

sim::Task<void> LrcRuntime::barrierButterfly(BarrierId b) {
  closeInterval();
  const sim::Time t0 = ctx_.clock.now();
  if (auto* t = ctx_.trace) t->begin(ctx_.id, obs::Cat::kBarrierWait, t0, b);
  const auto p = static_cast<uint32_t>(ctx_.nprocs);
  // Everything learned since the last barrier (all nodes share that
  // baseline, so per-writer contiguity from the baseline holds at every
  // receiver). Each round ships the whole accumulated set, doubling the
  // reach of every interval per round.
  std::vector<mem::Interval> acc = intervalsNotCoveredBy(last_barrier_vc_);
  for (uint32_t step = 1; step < p; step <<= 1) {
    const uint32_t round = next_round_++;
    BarrRoundMsg out;
    out.barrier = b;
    out.round = round;
    out.node = ctx_.id;
    out.intervals = acc;
    ctx_.endpoint.post((ctx_.id + step) % p, kBarrRound, out.encode(),
                       ctx_.clock.now());
    BarrRoundMsg in = co_await awaitRound(b, round);
    ctx_.clock.charge(ctx_.costs.barrier_fold);
    for (const auto& iv : in.intervals) {
      if (vc_[iv.node] >= iv.index) continue;
      recordForeignInterval(iv);
      acc.push_back(iv);
    }
  }
  last_barrier_vc_ = vc_;
  // One logical barrier per instance in the aggregate count, as in the
  // managed variants.
  if (ctx_.id == 0) ctx_.stats.barriers++;
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kBarrierWait, ctx_.clock.now(), b);
  ctx_.stats.barrier_wait_total += ctx_.clock.now() - t0;
  ctx_.stats.barrier_waits++;
}

sim::Task<BarrRoundMsg> LrcRuntime::awaitRound(BarrierId b, uint32_t round) {
  const auto key = std::make_pair(b, round);
  auto eit = round_early_.find(key);
  if (eit != round_early_.end()) {
    BarrRoundMsg m = std::move(eit->second.first);
    ctx_.clock.atLeast(eit->second.second);
    round_early_.erase(eit);
    co_return m;
  }
  auto waiter = std::make_unique<sim::Waiter<BarrRoundMsg>>();
  auto* waiter_ptr = waiter.get();
  round_waiters_[key] = std::move(waiter);
  BarrRoundMsg m = co_await *waiter_ptr;
  round_waiters_.erase(key);
  co_return m;
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
