#include "dsm/runtime.hpp"

#include "net/parallel.hpp"

namespace vodsm::dsm {

Runtime::Runtime(NodeCtx& ctx, uint16_t diff_req, uint16_t diff_resp)
    : ctx_(ctx), diff_req_(diff_req), diff_resp_(diff_resp) {
  // All nodes start with identical zeroed pages mapped read-only, the
  // canonical initial DSM state.
  for (mem::PageId p = 0; p < ctx_.store.pageCount(); ++p)
    ctx_.store.setAccess(p, mem::Access::kRead);
  ctx_.endpoint.setHandler(
      [this](net::Delivery&& d, const net::ReplyToken& token) {
        dispatch(std::move(d), token);
      });
}

void Runtime::dispatch(net::Delivery&& d, const net::ReplyToken& token) {
  switch (d.type) {
    case kBarrArrive:
      onBarrArrive(decode<BarrArriveMsg>(d.payload.bytes()), d.arrive);
      return;
    case kBarrRelease: {
      BarrReleaseMsg rel = decode<BarrReleaseMsg>(d.payload.bytes());
      if (ctx_.barrier == BarrierAlg::kTree) {
        // Fan the release down to our subtree before unblocking ourselves;
        // the payload is the complete global set, forwarded as received.
        const sim::Time when = d.arrive + ctx_.costs.handler_service;
        for (int k = 0; k < treeChildCount(); ++k)
          ctx_.endpoint.post(treeChild(k), kBarrRelease, d.payload, when);
      }
      auto it = barrier_waiters_.find(rel.barrier);
      VODSM_CHECK_MSG(it != barrier_waiters_.end(),
                      "unexpected barrier release " << rel.barrier);
      ctx_.clock.atLeast(d.arrive);
      it->second->fulfill(std::move(rel));
      return;
    }
    case kBarrRound: {
      BarrRoundMsg rm = decode<BarrRoundMsg>(d.payload.bytes());
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
      if (d.type == diff_req_)
        serveDiffs(decode<DiffReqMsg>(d.payload.bytes()), token, d.arrive);
      else
        onMessage(std::move(d));
  }
}

// ---------- write notices, diffs ----------

void Runtime::recordNotice(mem::PageId p, NodeId writer, uint32_t index) {
  ctx_.stats.notices_recorded++;
  ctx_.clock.charge(ctx_.costs.apply_notice);
  if (auto* t = ctx_.trace)
    t->instant(ctx_.id, obs::Cat::kNotice, ctx_.clock.now(), p, writer);
  if (auto* m = ctx_.metrics)
    m->add(ctx_.id, obs::Metric::kPendingNotices, 1, ctx_.clock.now());
  pending_[p].push_back(mem::WriteNotice{writer, index});
  // Invalidate; a local twin (concurrent false-sharing writes) survives so
  // the fault can merge foreign diffs under our uncommitted changes.
  ctx_.store.setAccess(p, mem::Access::kNone);
}

void Runtime::applyDiff(mem::PageId p, const mem::Diff& d) {
  d.apply(ctx_.store.page(p));
  ctx_.clock.charge(ctx_.costs.diffApply(d.wireSize()));
  ctx_.stats.diffs_applied++;
  if (auto* t = ctx_.trace)
    t->instant(ctx_.id, obs::Cat::kDiffApply, ctx_.clock.now(), p,
               d.wireSize());
  if (auto* m = ctx_.metrics)
    m->add(ctx_.id, obs::Metric::kDiffsApplied, 1, ctx_.clock.now());
}

void Runtime::diffDirtyPages(
    const std::function<void(mem::PageId, mem::Diff&&)>& keep) {
  if (dirty_.empty()) return;
  if (auto* t = ctx_.trace)
    t->begin(ctx_.id, obs::Cat::kDiffCreate, ctx_.clock.now());
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
    keep(p, std::move(d));
  }
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kDiffCreate, ctx_.clock.now(), dirty_.size(),
           diff_bytes);
  dirty_.clear();
}

void Runtime::logDiff(mem::PageId p, uint32_t index, mem::Diff&& d) {
  if (auto* m = ctx_.metrics) {
    m->add(ctx_.id, obs::Metric::kDiffStoreBytes,
           static_cast<int64_t>(d.wireSize()), ctx_.clock.now());
    m->add(ctx_.id, obs::Metric::kDiffStoreCount, 1, ctx_.clock.now());
  }
  diff_log_[p].emplace_back(index, std::move(d));
}

// ---------- page faults / diff serving ----------

sim::Task<void> Runtime::readFault(mem::PageId p) {
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
    uint64_t rank;
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
        net::RpcCall{writer, diff_req_, encode(DiffReqMsg{p, indices})});
    writers.push_back(writer);
  }
  std::vector<net::Delivery> responses =
      co_await net::requestAll(ctx_.endpoint, std::move(calls),
                               ctx_.clock.now());
  std::vector<Fetched> collected;
  for (size_t r = 0; r < responses.size(); ++r) {
    const net::Delivery& resp = responses[r];
    const NodeId writer = writers[r];
    ctx_.clock.atLeast(resp.arrive);
    VODSM_CHECK(resp.type == diff_resp_);
    DiffRespMsg dr = decode<DiffRespMsg>(resp.payload.bytes());
    for (auto& [index, diff] : dr.diffs)
      collected.push_back(
          Fetched{applyRank(writer, index), writer, index, std::move(diff)});
  }
  std::sort(collected.begin(), collected.end(), [](const auto& a,
                                                   const auto& b) {
    return std::tie(a.rank, a.writer, a.index) <
           std::tie(b.rank, b.writer, b.index);
  });
  for (const Fetched& f : collected) applyDiff(p, f.diff);
  if (auto* m = ctx_.metrics)
    m->add(ctx_.id, obs::Metric::kPendingNotices,
           -static_cast<int64_t>(it->second.size()), ctx_.clock.now());
  pending_.erase(p);
  ctx_.store.setAccess(p, ctx_.store.hasTwin(p) ? mem::Access::kWrite
                                                : mem::Access::kRead);
}

void Runtime::serveDiffs(const DiffReqMsg& m, const net::ReplyToken& token,
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
                    "missing diff for page " << m.page << " index " << want);
    resp.diffs.emplace_back(want, dit->second);
  }
  ctx_.endpoint.reply(token, diff_resp_, encode(resp),
                      arrive + ctx_.costs.handler_service);
}

// ---------- barriers ----------

sim::Task<void> Runtime::barrier(BarrierId b) {
  std::vector<mem::Interval> fresh = barrierEnter();
  const sim::Time t0 = ctx_.clock.now();
  if (auto* t = ctx_.trace) t->begin(ctx_.id, obs::Cat::kBarrierWait, t0, b);
  if (ctx_.barrier == BarrierAlg::kButterfly) {
    co_await barrierButterfly(b, std::move(fresh));
  } else {
    BarrArriveMsg arrive_msg;
    arrive_msg.barrier = b;
    arrive_msg.node = ctx_.id;
    arrive_msg.intervals = std::move(fresh);
    auto waiter = std::make_unique<sim::Waiter<BarrReleaseMsg>>();
    auto* waiter_ptr = waiter.get();
    VODSM_CHECK_MSG(!barrier_waiters_.count(b),
                    "barrier " << b << " re-entered concurrently");
    barrier_waiters_[b] = std::move(waiter);
    // Tree mode: arrivals combine bottom-up, so every node (leaves included)
    // first folds its own arrival locally; node 0's target is unchanged.
    const NodeId arrive_at =
        ctx_.barrier == BarrierAlg::kTree ? ctx_.id : barrierManager();
    ctx_.endpoint.post(arrive_at, kBarrArrive, encode(arrive_msg),
                       ctx_.clock.now());
    BarrReleaseMsg rel = co_await *waiter_ptr;
    barrier_waiters_.erase(b);
    for (const auto& iv : rel.intervals) absorbInterval(iv);
  }
  barrierExit();
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kBarrierWait, ctx_.clock.now(), b);
  ctx_.stats.barrier_wait_total += ctx_.clock.now() - t0;
  ctx_.stats.barrier_waits++;
}

void Runtime::onBarrArrive(const BarrArriveMsg& m, sim::Time arrive) {
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
  const net::Payload encoded = encode(rel);
  for (NodeId n = 0; n < static_cast<NodeId>(ctx_.nprocs); ++n)
    ctx_.endpoint.post(n, kBarrRelease, encoded, st.busy_until);
  barrier_mgr_.erase(m.barrier);
}

void Runtime::treeBarrierStep(BarrierId b, BarrierMgrState& st) {
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
    ctx_.endpoint.post(ctx_.id, kBarrRelease, encode(rel), st.busy_until);
  } else {
    BarrArriveMsg up;
    up.barrier = b;
    up.node = ctx_.id;
    up.intervals.reserve(st.merged.size());
    for (auto& [key, iv] : st.merged) up.intervals.push_back(std::move(iv));
    ctx_.endpoint.post(treeParent(), kBarrArrive, encode(up), st.busy_until);
  }
  barrier_mgr_.erase(b);
}

sim::Task<void> Runtime::barrierButterfly(BarrierId b,
                                          std::vector<mem::Interval> acc) {
  const auto p = static_cast<uint32_t>(ctx_.nprocs);
  // `acc` starts as this node's own payload. Each round ships the whole
  // accumulated set, doubling the reach of every interval per round; all
  // nodes share the baseline of the last barrier, so per-writer contiguity
  // from it holds at every receiver.
  for (uint32_t step = 1; step < p; step <<= 1) {
    const uint32_t round = next_round_++;
    BarrRoundMsg out;
    out.barrier = b;
    out.round = round;
    out.node = ctx_.id;
    out.intervals = acc;
    ctx_.endpoint.post((ctx_.id + step) % p, kBarrRound, encode(out),
                       ctx_.clock.now());
    BarrRoundMsg in = co_await awaitRound(b, round);
    ctx_.clock.charge(ctx_.costs.barrier_fold);
    for (const auto& iv : in.intervals)
      if (absorbInterval(iv)) acc.push_back(iv);
  }
  // One logical barrier per instance in the aggregate count, as in the
  // managed variants.
  if (ctx_.id == 0) ctx_.stats.barriers++;
}

sim::Task<BarrRoundMsg> Runtime::awaitRound(BarrierId b, uint32_t round) {
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

}  // namespace vodsm::dsm
