#include "dsm/vc.hpp"

#include <algorithm>
#include <limits>

namespace vodsm::dsm {

VcRuntime::VcRuntime(NodeCtx& ctx, bool integrated)
    : Runtime(ctx, kVcDiffReq, kVcDiffResp),
      sd_(integrated),
      mgr_(ctx.views.homedViews(ctx.id)) {}

namespace {

// The first entry at or past `key` of a vector of (key, value) pairs
// sorted by key.
template <typename Entries, typename Key>
auto lowerBoundKey(Entries& entries, Key key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& e, Key k) { return e.first < k; });
}

}  // namespace

uint32_t VcRuntime::lastSeen(ViewId v) const {
  auto it = lowerBoundKey(last_seen_, v);
  return it != last_seen_.end() && it->first == v ? it->second : 0;
}

void VcRuntime::setLastSeen(ViewId v, uint32_t version) {
  auto it = lowerBoundKey(last_seen_, v);
  if (it != last_seen_.end() && it->first == v)
    it->second = version;
  else
    last_seen_.emplace(it, v, version);
}

void VcRuntime::onMessage(net::Delivery&& d) {
  switch (d.type) {
    case kViewAcq:
      onViewAcq(decode<ViewAcqMsg>(d.payload.bytes()), d.arrive);
      return;
    case kViewGrant: {
      ViewGrantMsg g = decode<ViewGrantMsg>(d.payload.bytes());
      auto it = std::find_if(
          grant_waiters_.begin(), grant_waiters_.end(),
          [&](const auto& w) { return w.first == g.view; });
      VODSM_CHECK_MSG(it != grant_waiters_.end(),
                      "unexpected view grant for view " << g.view);
      sim::Waiter<ViewGrantMsg>* waiter = it->second;
      grant_waiters_.erase(it);
      ctx_.clock.atLeast(d.arrive);
      waiter->fulfill(std::move(g));
      return;
    }
    case kViewRelease:
      onViewRelease(decode<ViewReleaseMsg>(d.payload.bytes()), d.arrive);
      return;
    case kViewReadRelease:
      onViewReadRelease(decode<ViewReadReleaseMsg>(d.payload.bytes()),
                        d.arrive);
      return;
    default:
      VODSM_CHECK_MSG(false, "VC: unknown message type " << d.type);
  }
}

// ---------- acquire / release ----------

sim::Task<void> VcRuntime::acquireView(ViewId v, bool readonly) {
  VODSM_CHECK_MSG(v < ctx_.views.viewCount(), "unknown view " << v);
  if (!readonly) {
    VODSM_CHECK_MSG(!write_held_.has_value(),
                    "acquire_view(" << v << ") nested inside acquire_view("
                                    << *write_held_ << ")");
    VODSM_CHECK_MSG(!holdsForRead(v),
                    "acquire_view(" << v << ") while holding it read-only");
  } else {
    VODSM_CHECK_MSG(write_held_ != v,
                    "acquire_Rview(" << v << ") while write-holding it");
  }
  ctx_.stats.acquires++;
  const sim::Time t0 = ctx_.clock.now();
  if (auto* t = ctx_.trace) t->begin(ctx_.id, obs::Cat::kAcquireWait, t0, v);
  VODSM_CHECK_MSG(std::none_of(grant_waiters_.begin(), grant_waiters_.end(),
                               [v](const auto& w) { return w.first == v; }),
                  "concurrent acquisitions of view " << v << " on one node");
  sim::Waiter<ViewGrantMsg> waiter;
  grant_waiters_.emplace_back(v, &waiter);
  ViewAcqMsg req{v, ctx_.id, static_cast<uint8_t>(readonly ? 0 : 1),
                 lastSeen(v)};
  ctx_.endpoint.post(viewManager(v), kViewAcq, encode(req), ctx_.clock.now());
  ViewGrantMsg g = co_await waiter;

  if (sd_) {
    // Integrated diffs arrive with the grant: apply them now; the view's
    // pages are fully valid afterwards (no remote faults ever).
    for (const mem::Diff& d : g.diffs) {
      VODSM_DCHECK(!ctx_.store.hasTwin(d.page()));
      applyDiff(d.page(), d);
      ctx_.store.setAccess(d.page(), mem::Access::kRead);
    }
  } else {
    for (const VcNotice& n : g.notices)
      recordNotice(n.page, n.writer, n.version);
  }
  setLastSeen(v, g.cur_version);
  if (readonly) {
    if (auto it = readHold(v); it != read_depth_.end())
      it->second++;
    else
      read_depth_.emplace_back(v, 1);
  } else {
    write_held_ = v;
    write_version_ = g.write_version;
  }
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kAcquireWait, ctx_.clock.now(), v);
  ctx_.stats.acquire_wait_total += ctx_.clock.now() - t0;
  ctx_.stats.acquire_waits++;
}

sim::Task<void> VcRuntime::releaseView(ViewId v, bool readonly) {
  if (readonly) {
    auto it = readHold(v);
    VODSM_CHECK_MSG(it != read_depth_.end(),
                    "release_Rview(" << v << ") not read-held");
    if (--it->second == 0) read_depth_.erase(it);
    ViewReadReleaseMsg rel{v, ctx_.id};
    ctx_.endpoint.post(viewManager(v), kViewReadRelease, encode(rel),
                       ctx_.clock.now());
    co_return;
  }
  VODSM_CHECK_MSG(write_held_ == v, "release_view(" << v << ") not held");
  ViewReleaseMsg rel;
  rel.view = v;
  rel.writer = ctx_.id;
  rel.version = write_version_;
  // A write-held view's dirty pages are all kWrite here, so the shared
  // downgrade leaves every one of them read-only.
  diffDirtyPages([&](mem::PageId p, mem::Diff&& d) {
    rel.pages.push_back(p);
    if (sd_) {
      // The single diff leaves this node with the release message; its home
      // storage is accounted on the manager in onViewRelease.
      rel.diffs.push_back(std::move(d));
    } else {
      logDiff(p, write_version_, std::move(d));
    }
  });
  setLastSeen(v, write_version_);
  write_held_.reset();
  ctx_.endpoint.post(viewManager(v), kViewRelease, encode(rel),
                     ctx_.clock.now());
  co_return;
}

sim::Task<void> VcRuntime::acquireLock(LockId) {
  VODSM_CHECK_MSG(false, "VC runtimes do not provide lock primitives; "
                         "use views (VOPP) instead");
  co_return;  // unreachable
}

sim::Task<void> VcRuntime::releaseLock(LockId) {
  VODSM_CHECK_MSG(false, "VC runtimes do not provide lock primitives");
  co_return;  // unreachable
}

// ---------- manager side ----------

void VcRuntime::onViewAcq(const ViewAcqMsg& m, sim::Time arrive) {
  ViewMgrState& st = managed(m.view);
  const sim::Time when = arrive + ctx_.costs.handler_service;
  const bool want_write = m.write != 0;
  // Strict FIFO: anyone queues behind an incompatible holder or a nonempty
  // queue (prevents writer starvation).
  const bool must_wait =
      !st.queue.empty() || st.write_held || (want_write && st.readers > 0);
  if (must_wait)
    st.queue.push(m);
  else
    grantNow(m, st, when);
}

void VcRuntime::grantNow(const ViewAcqMsg& m, ViewMgrState& st,
                         sim::Time when) {
  ViewGrantMsg g;
  g.view = m.view;
  g.cur_version = st.cur_version;
  if (m.write) {
    st.write_held = true;
    g.write_version = st.cur_version + 1;
  } else {
    st.readers++;
  }
  if (sd_) {
    VODSM_CHECK_MSG(m.last_seen == 0 || m.last_seen >= st.gc_version,
                    "view " << m.view << " GC ran past node " << m.requester
                            << "'s last seen version");
    // One integrated diff per page modified in (last_seen, cur], in
    // ascending page order. GC keeps every version past gc_version in the
    // tails, and a first-time acquirer starts from the page's base: the
    // same left fold over versions [1, gc_version] the log would give, so
    // the shipped diff is bit-identical.
    size_t bytes = 0;
    for (const PageLog& pl : st.pages) {
      auto next = std::partition_point(
          pl.tail.begin(), pl.tail.end(),
          [&](const auto& e) { return e.first <= m.last_seen; });
      const bool from_base = m.last_seen == 0 && !pl.base.empty();
      if (!from_base && next == pl.tail.end()) continue;
      mem::Diff acc = from_base ? pl.base : (next++)->second;
      for (; next != pl.tail.end(); ++next)
        acc = mem::Diff::integrate(acc, next->second);
      bytes += acc.wireSize();
      g.diffs.push_back(std::move(acc));
    }
    // Integration work happens on the manager before the grant leaves.
    when += ctx_.costs.diffApply(bytes);
  } else {
    for (uint32_t ver = m.last_seen + 1; ver <= st.cur_version; ++ver) {
      const auto& [writer, pages] = st.history[ver - 1];
      for (mem::PageId p : pages) g.notices.push_back(VcNotice{p, ver, writer});
    }
  }
  if (auto* t = ctx_.trace)
    t->instant(ctx_.id, obs::Cat::kGrant, when, m.view, m.requester);
  ctx_.endpoint.post(m.requester, kViewGrant, encode(g), when);
  if (sd_) {
    // The grant fixes what the requester will claim as last_seen next time:
    // the granted version for readers, the version it is about to write for
    // writers (releaseView sets last_seen_ = write_version_).
    st.noteGranted(m.requester, m.write ? g.write_version : g.cur_version);
    sdGc(st, when);
  }
}

void VcRuntime::ViewMgrState::noteGranted(NodeId node, uint32_t version) {
  auto it = lowerBoundKey(seen, node);
  if (it == seen.end() || it->first != node) {
    seen.insert(it, {node, version});
    if (seen.size() == 1 || version < seen_min) {
      seen_min = version;
      at_min = 1;
    } else if (version == seen_min) {
      ++at_min;
    }
    return;
  }
  if (version <= it->second) return;
  const bool was_at_min = it->second == seen_min;
  it->second = version;
  if (!was_at_min || --at_min > 0) return;
  seen_min = std::numeric_limits<uint32_t>::max();
  for (const auto& [n, ver] : seen) {
    if (ver < seen_min) {
      seen_min = ver;
      at_min = 0;
    }
    if (ver == seen_min) ++at_min;
  }
}

// Home-side diff GC. Every per-version diff at or below the minimum granted
// version can only ever be consumed as part of the full (0, cur] prefix (a
// node past it never asks again, and a first-time acquirer needs the whole
// prefix), so fold it into the per-page base diff and drop it. The cap at
// cur_version matters while a writer holds the view: its entry is then
// cur_version + 1. Pure bookkeeping: charges no simulated time, sends
// nothing.
void VcRuntime::sdGc(ViewMgrState& st, sim::Time when) {
  const uint32_t floor = std::min(st.cur_version, st.seen_min);
  if (floor <= st.gc_version) return;
  int64_t delta_bytes = 0;
  int64_t delta_count = 0;
  for (PageLog& pl : st.pages) {
    auto folded = pl.tail.begin();
    for (; folded != pl.tail.end() && folded->first <= floor; ++folded) {
      mem::Diff& d = folded->second;
      if (pl.base.empty()) {
        pl.base = std::move(d);
        continue;
      }
      const int64_t before = static_cast<int64_t>(pl.base.wireSize()) +
                             static_cast<int64_t>(d.wireSize());
      pl.base = mem::Diff::integrate(pl.base, d);
      delta_bytes += static_cast<int64_t>(pl.base.wireSize()) - before;
      delta_count -= 1;
    }
    pl.tail.erase(pl.tail.begin(), folded);
  }
  st.gc_version = floor;
  if (auto* mr = ctx_.metrics; mr && (delta_bytes != 0 || delta_count != 0)) {
    mr->add(ctx_.id, obs::Metric::kDiffStoreBytes, delta_bytes, when);
    mr->add(ctx_.id, obs::Metric::kDiffStoreCount, delta_count, when);
    mr->add(ctx_.id, obs::Metric::kDiffReclaimBytes, -delta_bytes, when);
  }
}

void VcRuntime::onViewRelease(ViewReleaseMsg&& m, sim::Time arrive) {
  ViewMgrState& st = managed(m.view);
  VODSM_CHECK_MSG(st.write_held && m.version == st.cur_version + 1,
                  "out-of-order view release");
  st.cur_version = m.version;
  sim::Time when = arrive + ctx_.costs.handler_service;
  if (sd_) {
    const ViewMap::ViewDef& def = ctx_.views.view(m.view);
    if (st.pages.empty()) st.pages.resize(def.page_count);
    size_t bytes = 0;
    for (mem::Diff& d : m.diffs) {
      VODSM_CHECK_MSG(!d.empty() && d.page() >= def.first_page &&
                          d.page() - def.first_page < def.page_count,
                      "view " << m.view << " release carries a diff of page "
                              << d.page());
      bytes += d.wireSize();
      if (auto* mr = ctx_.metrics) {
        mr->add(ctx_.id, obs::Metric::kDiffStoreBytes,
                static_cast<int64_t>(d.wireSize()), arrive);
        mr->add(ctx_.id, obs::Metric::kDiffStoreCount, 1, arrive);
      }
      st.pages[d.page() - def.first_page].tail.emplace_back(m.version,
                                                           std::move(d));
    }
    when += ctx_.costs.diffApply(bytes);  // home-side bookkeeping
  } else {
    st.history.emplace_back(m.writer, std::move(m.pages));
  }
  st.write_held = false;
  pumpQueue(st, when);
}

void VcRuntime::onViewReadRelease(const ViewReadReleaseMsg& m,
                                  sim::Time arrive) {
  ViewMgrState& st = managed(m.view);
  VODSM_CHECK_MSG(st.readers > 0, "read release without readers");
  st.readers--;
  pumpQueue(st, arrive + ctx_.costs.handler_service);
}

void VcRuntime::pumpQueue(ViewMgrState& st, sim::Time when) {
  while (!st.queue.empty()) {
    const ViewAcqMsg m = st.queue.front();
    if (m.write) {
      if (st.write_held || st.readers > 0) break;
      st.queue.pop();
      grantNow(m, st, when);
      break;
    }
    if (st.write_held) break;
    st.queue.pop();
    grantNow(m, st, when);
  }
}

// ---------- faults, VOPP access checks, barriers ----------

uint64_t VcRuntime::applyRank(NodeId, uint32_t version) const {
  VODSM_CHECK_MSG(!sd_, "VC_sd pages are updated at acquire; no remote fault");
  return version;  // view versions are totally ordered
}

void VcRuntime::checkReadAllowed(size_t offset, size_t len) {
  auto v = ctx_.views.viewOfPage(mem::pageOf(offset));
  VODSM_CHECK_MSG(v.has_value(),
                  "VOPP read at offset " << offset
                                         << " is outside every view");
  VODSM_CHECK_MSG(ctx_.views.viewContainsRange(*v, offset, len),
                  "VOPP read [" << offset << ", " << offset + len
                                << ") crosses view " << *v << " boundary");
  VODSM_CHECK_MSG(holdsForRead(*v),
                  "VOPP read of view " << *v << " without acquiring it");
}

void VcRuntime::checkWriteAllowed(size_t offset, size_t len) {
  auto v = ctx_.views.viewOfPage(mem::pageOf(offset));
  VODSM_CHECK_MSG(v.has_value(),
                  "VOPP write at offset " << offset
                                          << " is outside every view");
  VODSM_CHECK_MSG(ctx_.views.viewContainsRange(*v, offset, len),
                  "VOPP write [" << offset << ", " << offset + len
                                 << ") crosses view " << *v << " boundary");
  VODSM_CHECK_MSG(write_held_ == *v, "VOPP write to view "
                                         << *v
                                         << " without write-acquiring it");
}

std::vector<mem::Interval> VcRuntime::barrierEnter() {
  VODSM_CHECK_MSG(!write_held_.has_value(),
                  "barrier while holding view " << *write_held_);
  return {};  // pure synchronization
}

}  // namespace vodsm::dsm
