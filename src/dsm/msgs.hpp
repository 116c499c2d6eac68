// Wire formats for the DSM protocols.
//
// Every payload serializes through support/bytes.hpp, so message sizes in
// the statistics tables are the real encoded sizes.
#pragma once

#include <vector>

#include "dsm/types.hpp"
#include "mem/diff.hpp"
#include "mem/write_notice.hpp"
#include "net/stats.hpp"
#include "support/bytes.hpp"

namespace vodsm::dsm {

enum MsgType : uint16_t {
  // LRC lock protocol.
  kLockAcq = 1,      // requester -> manager {lock, requester, vclock}
  kLockAuth = 2,     // manager -> last releaser {lock, requester, vclock}
  kLockGrant = 3,    // last releaser -> requester {lock, vclock, intervals}
  kLockRelease = 14, // holder -> manager {lock}
  // LRC diff fetch.
  kDiffReq = 4,   // faulting node -> writer {page, interval indices}
  kDiffResp = 5,  // writer -> faulting node {diffs}
  // Barriers (shared types; payloads differ between LRC and VC).
  kBarrArrive = 6,
  kBarrRelease = 7,
  // VC view protocol.
  kViewAcq = 8,          // requester -> manager {view, write?, last_seen}
  kViewGrant = 9,        // manager -> requester
  kViewRelease = 10,     // writer -> manager {view, version, pages, [diffs]}
  kViewReadRelease = 11, // reader -> manager {view}
  // VC_d diff fetch.
  kVcDiffReq = 12,   // faulting node -> writer {page, versions}
  kVcDiffResp = 13,  // writer -> faulting node {diffs}
  // Butterfly (dissemination) barrier round: peer -> peer
  // {barrier, round, node, intervals}.
  kBarrRound = 15,
  // MPI-like point-to-point payloads (msg library).
  kMsgData = 64,
};

// Maps DSM message types onto the transport's traffic classes; installed on
// each endpoint so NetStats can attribute messages and retransmissions per
// kind.
inline net::MsgClass classifyMsg(uint16_t type) {
  switch (type) {
    case kLockAcq:
    case kLockAuth:
    case kViewAcq: return net::MsgClass::kAcquire;
    case kLockGrant:
    case kViewGrant: return net::MsgClass::kGrant;
    case kLockRelease:
    case kViewRelease:
    case kViewReadRelease: return net::MsgClass::kRelease;
    case kDiffReq:
    case kVcDiffReq: return net::MsgClass::kDiffRequest;
    case kDiffResp:
    case kVcDiffResp: return net::MsgClass::kDiffReply;
    case kBarrArrive:
    case kBarrRelease:
    case kBarrRound: return net::MsgClass::kBarrier;
    case kMsgData: return net::MsgClass::kData;
    default: return net::MsgClass::kOther;
  }
}

// ---- LRC payloads ----

struct LockAcqMsg {
  LockId lock = 0;
  NodeId requester = 0;
  mem::VClock vc;

  Bytes encode() const {
    Writer w;
    w.u32(lock);
    w.u32(requester);
    vc.serialize(w);
    return w.take();
  }
  static LockAcqMsg decode(ByteSpan b) {
    Reader r(b);
    LockAcqMsg m;
    m.lock = r.u32();
    m.requester = r.u32();
    m.vc = mem::VClock::deserialize(r);
    return m;
  }
};

struct LockGrantMsg {
  LockId lock = 0;
  mem::VClock grantor_vc;
  std::vector<mem::Interval> intervals;

  Bytes encode() const {
    Writer w;
    w.u32(lock);
    grantor_vc.serialize(w);
    w.u32(static_cast<uint32_t>(intervals.size()));
    for (const auto& iv : intervals) iv.serialize(w);
    return w.take();
  }
  static LockGrantMsg decode(ByteSpan b) {
    Reader r(b);
    LockGrantMsg m;
    m.lock = r.u32();
    m.grantor_vc = mem::VClock::deserialize(r);
    const uint32_t n = r.u32();
    m.intervals.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
      m.intervals.push_back(mem::Interval::deserialize(r));
    return m;
  }
};

struct DiffReqMsg {
  mem::PageId page = 0;
  std::vector<uint32_t> interval_indices;  // which intervals of the writer

  Bytes encode() const {
    Writer w;
    w.u32(page);
    w.u32(static_cast<uint32_t>(interval_indices.size()));
    for (uint32_t i : interval_indices) w.u32(i);
    return w.take();
  }
  static DiffReqMsg decode(ByteSpan b) {
    Reader r(b);
    DiffReqMsg m;
    m.page = r.u32();
    const uint32_t n = r.u32();
    m.interval_indices.reserve(n);
    for (uint32_t i = 0; i < n; ++i) m.interval_indices.push_back(r.u32());
    return m;
  }
};

struct DiffRespMsg {
  // (ordering key, diff) pairs; the key is the writer interval index (LRC)
  // or the view version (VC_d).
  std::vector<std::pair<uint32_t, mem::Diff>> diffs;

  Bytes encode() const {
    size_t total = 4;
    for (const auto& [key, d] : diffs) total += 4 + d.wireSize();
    Writer w(total);
    w.u32(static_cast<uint32_t>(diffs.size()));
    for (const auto& [key, d] : diffs) {
      w.u32(key);
      d.serialize(w);
    }
    return w.take();
  }
  static DiffRespMsg decode(ByteSpan b) {
    Reader r(b);
    DiffRespMsg m;
    const uint32_t n = r.u32();
    m.diffs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t key = r.u32();
      m.diffs.emplace_back(key, mem::Diff::deserialize(r));
    }
    return m;
  }
};

// Barrier arrival. VC protocols leave `intervals` empty (pure sync).
struct BarrArriveMsg {
  BarrierId barrier = 0;
  NodeId node = 0;
  std::vector<mem::Interval> intervals;

  Bytes encode() const {
    Writer w;
    w.u32(barrier);
    w.u32(node);
    w.u32(static_cast<uint32_t>(intervals.size()));
    for (const auto& iv : intervals) iv.serialize(w);
    return w.take();
  }
  static BarrArriveMsg decode(ByteSpan b) {
    Reader r(b);
    BarrArriveMsg m;
    m.barrier = r.u32();
    m.node = r.u32();
    const uint32_t n = r.u32();
    m.intervals.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
      m.intervals.push_back(mem::Interval::deserialize(r));
    return m;
  }
};

// One dissemination-barrier round. VC protocols leave `intervals` empty;
// LRC carries everything the sender has accumulated since entering the
// barrier (its own fresh intervals plus those learned in earlier rounds),
// which is exactly the dissemination invariant receivers need.
struct BarrRoundMsg {
  BarrierId barrier = 0;
  uint32_t round = 0;
  NodeId node = 0;
  std::vector<mem::Interval> intervals;

  Bytes encode() const {
    Writer w;
    w.u32(barrier);
    w.u32(round);
    w.u32(node);
    w.u32(static_cast<uint32_t>(intervals.size()));
    for (const auto& iv : intervals) iv.serialize(w);
    return w.take();
  }
  static BarrRoundMsg decode(ByteSpan b) {
    Reader r(b);
    BarrRoundMsg m;
    m.barrier = r.u32();
    m.round = r.u32();
    m.node = r.u32();
    const uint32_t n = r.u32();
    m.intervals.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
      m.intervals.push_back(mem::Interval::deserialize(r));
    return m;
  }
};

struct BarrReleaseMsg {
  BarrierId barrier = 0;
  std::vector<mem::Interval> intervals;  // LRC: global merged set

  Bytes encode() const {
    Writer w;
    w.u32(barrier);
    w.u32(static_cast<uint32_t>(intervals.size()));
    for (const auto& iv : intervals) iv.serialize(w);
    return w.take();
  }
  static BarrReleaseMsg decode(ByteSpan b) {
    Reader r(b);
    BarrReleaseMsg m;
    m.barrier = r.u32();
    const uint32_t n = r.u32();
    m.intervals.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
      m.intervals.push_back(mem::Interval::deserialize(r));
    return m;
  }
};

// ---- VC payloads ----

struct ViewAcqMsg {
  ViewId view = 0;
  NodeId requester = 0;
  uint8_t write = 1;
  uint32_t last_seen = 0;  // last view version this node has incorporated

  Bytes encode() const {
    Writer w;
    w.u32(view);
    w.u32(requester);
    w.u8(write);
    w.u32(last_seen);
    return w.take();
  }
  static ViewAcqMsg decode(ByteSpan b) {
    Reader r(b);
    ViewAcqMsg m;
    m.view = r.u32();
    m.requester = r.u32();
    m.write = r.u8();
    m.last_seen = r.u32();
    return m;
  }
};

// One stale page in a view grant (VC_d): fetch version `version` from
// `writer`.
struct VcNotice {
  mem::PageId page = 0;
  uint32_t version = 0;
  NodeId writer = 0;
};

struct ViewGrantMsg {
  ViewId view = 0;
  uint32_t cur_version = 0;    // committed version at grant time
  uint32_t write_version = 0;  // version assigned to the writer (0 for reads)
  std::vector<VcNotice> notices;  // VC_d: stale pages to invalidate
  std::vector<mem::Diff> diffs;   // VC_sd: integrated diffs, applied eagerly

  Bytes encode() const {
    size_t total = 20 + notices.size() * 12;
    for (const auto& d : diffs) total += d.wireSize();
    Writer w(total);
    w.u32(view);
    w.u32(cur_version);
    w.u32(write_version);
    w.u32(static_cast<uint32_t>(notices.size()));
    for (const auto& n : notices) {
      w.u32(n.page);
      w.u32(n.version);
      w.u32(n.writer);
    }
    w.u32(static_cast<uint32_t>(diffs.size()));
    for (const auto& d : diffs) d.serialize(w);
    return w.take();
  }
  static ViewGrantMsg decode(ByteSpan b) {
    Reader r(b);
    ViewGrantMsg m;
    m.view = r.u32();
    m.cur_version = r.u32();
    m.write_version = r.u32();
    const uint32_t nn = r.u32();
    m.notices.reserve(nn);
    for (uint32_t i = 0; i < nn; ++i) {
      VcNotice n;
      n.page = r.u32();
      n.version = r.u32();
      n.writer = r.u32();
      m.notices.push_back(n);
    }
    const uint32_t nd = r.u32();
    m.diffs.reserve(nd);
    for (uint32_t i = 0; i < nd; ++i)
      m.diffs.push_back(mem::Diff::deserialize(r));
    return m;
  }
};

struct ViewReleaseMsg {
  ViewId view = 0;
  NodeId writer = 0;
  uint32_t version = 0;
  std::vector<mem::PageId> pages;  // pages dirtied in this version
  std::vector<mem::Diff> diffs;    // VC_sd: their diffs (home update)

  Bytes encode() const {
    size_t total = 20 + pages.size() * 4;
    for (const auto& d : diffs) total += d.wireSize();
    Writer w(total);
    w.u32(view);
    w.u32(writer);
    w.u32(version);
    w.u32(static_cast<uint32_t>(pages.size()));
    for (mem::PageId p : pages) w.u32(p);
    w.u32(static_cast<uint32_t>(diffs.size()));
    for (const auto& d : diffs) d.serialize(w);
    return w.take();
  }
  static ViewReleaseMsg decode(ByteSpan b) {
    Reader r(b);
    ViewReleaseMsg m;
    m.view = r.u32();
    m.writer = r.u32();
    m.version = r.u32();
    const uint32_t np = r.u32();
    m.pages.reserve(np);
    for (uint32_t i = 0; i < np; ++i) m.pages.push_back(r.u32());
    const uint32_t nd = r.u32();
    m.diffs.reserve(nd);
    for (uint32_t i = 0; i < nd; ++i)
      m.diffs.push_back(mem::Diff::deserialize(r));
    return m;
  }
};

struct ViewReadReleaseMsg {
  ViewId view = 0;
  NodeId reader = 0;

  Bytes encode() const {
    Writer w;
    w.u32(view);
    w.u32(reader);
    return w.take();
  }
  static ViewReadReleaseMsg decode(ByteSpan b) {
    Reader r(b);
    ViewReadReleaseMsg m;
    m.view = r.u32();
    m.reader = r.u32();
    return m;
  }
};

}  // namespace vodsm::dsm
