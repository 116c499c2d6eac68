// Wire formats for the DSM protocols.
//
// Every payload serializes through support/bytes.hpp, so message sizes in
// the statistics tables are the real encoded sizes. Each message lists its
// fields once, in wire order (`fields`); encode() and decode() at the end of
// this file walk that list.
#pragma once

#include <tuple>
#include <utility>
#include <vector>

#include "dsm/types.hpp"
#include "mem/diff.hpp"
#include "mem/write_notice.hpp"
#include "net/stats.hpp"
#include "net/types.hpp"
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
// the simulated network so NetStats can attribute messages, retransmissions
// and drops per kind.
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
  static auto fields(auto& m) { return std::tie(m.lock, m.requester, m.vc); }
};

struct LockReleaseMsg {
  LockId lock = 0;
  static auto fields(auto& m) { return std::tie(m.lock); }
};

struct LockGrantMsg {
  LockId lock = 0;
  mem::VClock grantor_vc;
  std::vector<mem::Interval> intervals;
  static auto fields(auto& m) {
    return std::tie(m.lock, m.grantor_vc, m.intervals);
  }
};

struct DiffReqMsg {
  mem::PageId page = 0;
  std::vector<uint32_t> interval_indices;  // which intervals of the writer
  static auto fields(auto& m) { return std::tie(m.page, m.interval_indices); }
};

struct DiffRespMsg {
  // (ordering key, diff) pairs; the key is the writer interval index (LRC)
  // or the view version (VC_d).
  std::vector<std::pair<uint32_t, mem::Diff>> diffs;
  static auto fields(auto& m) { return std::tie(m.diffs); }
};

// Barrier arrival. VC protocols leave `intervals` empty (pure sync).
struct BarrArriveMsg {
  BarrierId barrier = 0;
  NodeId node = 0;
  std::vector<mem::Interval> intervals;
  static auto fields(auto& m) {
    return std::tie(m.barrier, m.node, m.intervals);
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
  static auto fields(auto& m) {
    return std::tie(m.barrier, m.round, m.node, m.intervals);
  }
};

struct BarrReleaseMsg {
  BarrierId barrier = 0;
  std::vector<mem::Interval> intervals;  // LRC: global merged set
  static auto fields(auto& m) { return std::tie(m.barrier, m.intervals); }
};

// ---- VC payloads ----

struct ViewAcqMsg {
  ViewId view = 0;
  NodeId requester = 0;
  uint8_t write = 1;
  uint32_t last_seen = 0;  // last view version this node has incorporated
  static auto fields(auto& m) {
    return std::tie(m.view, m.requester, m.write, m.last_seen);
  }
};

// One stale page in a view grant (VC_d): fetch version `version` from
// `writer`.
struct VcNotice {
  mem::PageId page = 0;
  uint32_t version = 0;
  NodeId writer = 0;
  static auto fields(auto& m) { return std::tie(m.page, m.version, m.writer); }
};

struct ViewGrantMsg {
  ViewId view = 0;
  uint32_t cur_version = 0;    // committed version at grant time
  uint32_t write_version = 0;  // version assigned to the writer (0 for reads)
  std::vector<VcNotice> notices;  // VC_d: stale pages to invalidate
  std::vector<mem::Diff> diffs;   // VC_sd: integrated diffs, applied eagerly
  static auto fields(auto& m) {
    return std::tie(m.view, m.cur_version, m.write_version, m.notices, m.diffs);
  }
};

struct ViewReleaseMsg {
  ViewId view = 0;
  NodeId writer = 0;
  uint32_t version = 0;
  std::vector<mem::PageId> pages;  // pages dirtied in this version
  std::vector<mem::Diff> diffs;    // VC_sd: their diffs (home update)
  static auto fields(auto& m) {
    return std::tie(m.view, m.writer, m.version, m.pages, m.diffs);
  }
};

struct ViewReadReleaseMsg {
  ViewId view = 0;
  NodeId reader = 0;
  static auto fields(auto& m) { return std::tie(m.view, m.reader); }
};

// ---- Codec ----
//
// Integers are little-endian u8/u32; a vector is a u32 count followed by its
// elements; VClock, Interval and Diff bring their own serializers. Each
// operation (size, put, get) is one overload set: the leaves, then pairs,
// field lists and vectors, which recurse into it.
namespace wire {

inline size_t size(uint8_t) { return 1; }
inline size_t size(uint32_t) { return 4; }
inline size_t size(const mem::VClock& vc) { return 4 + 4 * vc.size(); }
inline size_t size(const mem::Interval& iv) {
  return 12 + size(iv.vc) + 4 * iv.pages.size();
}
inline size_t size(const mem::Diff& d) { return d.wireSize(); }

inline void put(Writer& w, uint8_t v) { w.u8(v); }
inline void put(Writer& w, uint32_t v) { w.u32(v); }
inline void put(Writer& w, const mem::VClock& v) { v.serialize(w); }
inline void put(Writer& w, const mem::Interval& v) { v.serialize(w); }
inline void put(Writer& w, const mem::Diff& v) { v.serialize(w); }

inline void get(Reader& r, uint8_t& v) { v = r.u8(); }
inline void get(Reader& r, uint32_t& v) { v = r.u32(); }
inline void get(Reader& r, mem::VClock& v) { v = mem::VClock::deserialize(r); }
inline void get(Reader& r, mem::Interval& v) {
  v = mem::Interval::deserialize(r);
}
inline void get(Reader& r, mem::Diff& v) { v = mem::Diff::deserialize(r); }

template <typename A, typename B>
size_t size(const std::pair<A, B>& p) {
  return size(p.first) + size(p.second);
}
template <typename A, typename B>
void put(Writer& w, const std::pair<A, B>& p) {
  put(w, p.first);
  put(w, p.second);
}
template <typename A, typename B>
void get(Reader& r, std::pair<A, B>& p) {
  get(r, p.first);
  get(r, p.second);
}

// Vectors and field lists nest in each other (ViewGrantMsg::notices).
template <typename T>
size_t size(const std::vector<T>& v);
template <typename T>
void put(Writer& w, const std::vector<T>& v);
template <typename T>
void get(Reader& r, std::vector<T>& v);

template <typename M>
concept HasFields = requires(const M& m) { M::fields(m); };

template <HasFields M>
size_t size(const M& m) {
  return std::apply([](const auto&... f) { return (size(f) + ...); },
                    M::fields(m));
}
template <HasFields M>
void put(Writer& w, const M& m) {
  std::apply([&w](const auto&... f) { (put(w, f), ...); }, M::fields(m));
}
template <HasFields M>
void get(Reader& r, M& m) {
  std::apply([&r](auto&... f) { (get(r, f), ...); }, M::fields(m));
}

template <typename T>
size_t size(const std::vector<T>& v) {
  size_t n = 4;
  for (const T& x : v) n += size(x);
  return n;
}
template <typename T>
void put(Writer& w, const std::vector<T>& v) {
  w.u32(static_cast<uint32_t>(v.size()));
  for (const T& x : v) put(w, x);
}
template <typename T>
void get(Reader& r, std::vector<T>& v) {
  v.resize(r.u32());
  for (T& x : v) get(r, x);
}

}  // namespace wire

// Encodes a message into one payload block of exactly its wire size,
// shared by every frame that carries it. The writer's cursor fills the
// block in place.
template <typename M>
net::Payload encode(const M& m) {
  return net::Payload::make(wire::size(m), [&m](MutByteSpan out) {
    Writer w(out);
    wire::put(w, m);
    VODSM_DCHECK(w.size() == out.size());
  });
}

template <typename M>
M decode(ByteSpan b) {
  Reader r(b);
  M m;
  wire::get(r, m);
  return m;
}

}  // namespace vodsm::dsm
