// Traffic counters for the network and transport layers.
//
// The DSM statistics tables report "Data" and "Num. Msg" as the paper does:
// protocol messages (acks excluded, retransmissions included) and their
// payload bytes. The raw frame counters are kept as well for the network
// micro-benchmarks.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vodsm::net {

// Coarse protocol-level classification of transport messages, used for the
// per-kind traffic breakdown. The transport itself only sees opaque u16
// message types; the simulated machine installs one classifier on the
// network mapping them onto these classes (unclassified traffic lands in
// kOther).
enum class MsgClass : uint8_t {
  kAcquire = 0,   // lock/view acquire requests and manager forwards
  kGrant,         // lock/view grants (VC_sd: carries integrated diffs)
  kRelease,       // lock/view releases
  kDiffRequest,
  kDiffReply,
  kBarrier,       // barrier arrive + release
  kData,          // message-passing payload (MPI-style apps)
  kOther,
};
inline constexpr int kMsgClassCount = 8;
inline constexpr const char* kMsgClassName[kMsgClassCount] = {
    "acquire", "grant", "release", "diff req", "diff reply",
    "barrier", "data",  "other",
};

// Maps the opaque u16 message type onto a MsgClass. Installed on the
// network, which attributes drops and, for its endpoints, sends and
// retransmissions; without one all traffic counts as kOther.
using Classifier = MsgClass (*)(uint16_t type);

// Per-class slice of the transport counters below.
struct KindStats {
  uint64_t messages = 0;
  uint64_t payload_bytes = 0;
  uint64_t retransmissions = 0;
  uint64_t drops = 0;  // frames of this class lost in flight (loss/overflow)
};

struct NetStats {
  // Frame-level (what actually crossed the wire). frames_sent counts sender
  // transmissions, so with fault-injected duplication the conservation
  // invariant is: frames_delivered + all drop counters ==
  // frames_sent + frames_duplicated (once the run drains). wire_bytes
  // counts uplink crossings only.
  uint64_t frames_sent = 0;
  uint64_t frames_delivered = 0;
  uint64_t frames_dropped_overflow = 0;
  uint64_t frames_dropped_random = 0;
  uint64_t wire_bytes = 0;

  // Fault injection (net::FaultPlan); all zero on fault-free runs.
  uint64_t frames_dropped_fault = 0;  // loss/burst/partition rules
  uint64_t frames_duplicated = 0;     // extra switch-made copies
  uint64_t frames_reordered = 0;      // frames held back by a reorder rule
  uint64_t frames_degraded = 0;       // frames through a degrade window

  // Transport-level (protocol view).
  uint64_t messages = 0;       // non-ack sends, including retransmissions
  uint64_t acks = 0;           // pure ack frames
  uint64_t ack_drops = 0;      // pure ack frames lost in flight
  uint64_t payload_bytes = 0;  // payload of non-ack sends
  uint64_t retransmissions = 0;

  // Transport counters above, split by message class. Sums over the array
  // equal messages/payload_bytes/retransmissions exactly: every send and
  // every retransmission is attributed to one class. Drops are attributed
  // by the class of the dropped frame; per-class drops plus ack_drops equal
  // frames_dropped_overflow + frames_dropped_random +
  // frames_dropped_fault exactly.
  KindStats kind[kMsgClassCount];

  KindStats& of(MsgClass c) { return kind[static_cast<size_t>(c)]; }
  const KindStats& of(MsgClass c) const {
    return kind[static_cast<size_t>(c)];
  }
};

}  // namespace vodsm::net
