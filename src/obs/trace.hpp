// Per-node event tracing on the simulated clock.
//
// A TraceRecorder collects timestamped spans (begin/end pairs) and instant
// events from every layer of a run: node programs (app track), the DSM
// protocol engines (proto track), and the transport/network (net track).
// Design constraints, in order:
//
//  * Observation must not perturb the experiment. Events carry only
//    simulated timestamps that the run already computed (node clocks,
//    message arrival times); recording never charges simulated time, so a
//    traced run is bit-identical to an untraced one.
//  * Near-zero overhead when disabled. Every instrumentation site guards on
//    a runtime-checked recorder pointer (`if (auto* t = ctx.trace) ...`);
//    when the pointer is null the cost is one predictable branch.
//  * No formatting on the hot path. An Event is a 40-byte POD — category
//    and phase enums, two opaque argument words, and a wire correlation id;
//    names and argument labels are resolved from static tables only at
//    export time.
//  * Store only what a report reads. A recorder folds page heat as events
//    are recorded (obs/page_heat.hpp), so the kNotice instants, which no
//    other fold reads, are stored only by a recorder built for export
//    (TraceMode::kExport); every other event is stored in both modes. The
//    event log grows in chunks that never move (EventLog).
//
// Consumers: obs/perfetto.hpp renders an export recorder's event list as
// Chrome trace-event JSON (one process per node, one thread per track);
// obs/graph.hpp reconstructs the run DAG (per-node spans, grant/fold wakeup
// edges), from which obs/breakdown.hpp folds per-node time buckets and
// obs/critical_path.hpp walks the critical path; obs::foldFlows
// (obs/diagnose.hpp) gathers each frame's send, retransmissions, drops and
// delivery by correlation id; obs::foldPageHeat returns the page heat the
// recorder folded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "obs/page_heat.hpp"
#include "sim/time.hpp"
#include "support/check.hpp"

namespace vodsm::obs {

// One trace "thread" per node. App is what the program called, proto is
// what the DSM runtime did about it, net is what crossed the wire.
enum class Track : uint8_t { kApp = 0, kProto = 1, kNet = 2 };
inline constexpr int kTrackCount = 3;

// Event categories. Span categories come first; everything from kTwin on
// is only ever recorded as an instant.
enum class Cat : uint8_t {
  // app track (spans)
  kProgram = 0,    // whole node program, spawn -> finish
  kAcquireView,    // a0 = view, a1 = readonly
  kReleaseView,    // a0 = view, a1 = readonly
  kAcquireLock,    // a0 = lock
  kBarrier,        // a0 = barrier
  // proto track (spans)
  kAcquireWait,    // a0 = lock/view id — request sent -> grant incorporated
  kBarrierWait,    // a0 = barrier — arrive sent -> release incorporated
  kFault,          // a0 = page — fault service incl. diff fetch + twin
  kDiffCreate,     // a0 = page count, a1 = diff bytes — release/interval close
  // proto track (instants)
  kTwin,           // a0 = page
  kDiffApply,      // a0 = page, a1 = diff bytes
  kNotice,         // a0 = page, a1 = writer — write notice recorded
  kGrant,          // a0 = lock/view id, a1 = requester (manager side)
  kBarrFold,       // a0 = barrier, a1 = notices merged (manager side)
  // net track (instants)
  kSend,           // a0 = message type, a1 = payload bytes (corr set)
  kDeliver,        // a0 = frame kind, a1 = frame bytes (corr set)
  kRetransmit,     // a0 = message type, a1 = payload bytes (corr set)
  kDrop,           // a0 = sender, a1 = frame bytes (corr carries frame kind)
  kFaultInject,    // a0 = net::FaultKind, a1 = frame bytes (corr set)
  // engine pseudo-node (span)
  kEngineRun,      // a0 = events processed (on end)
  kCatCount,
};

enum class Phase : uint8_t { kBegin = 0, kEnd = 1, kInstant = 2 };

// Pseudo-node id for events that belong to the simulation itself rather
// than to one simulated node (engine lifecycle).
inline constexpr uint32_t kEngineNode = UINT32_MAX;

// Wire correlation id: a nonzero token shared by every net-track event that
// concerns the same transport frame (send, its retransmissions, its drops,
// its delivery), so obs::foldFlows can gather each frame's flow. The id is
// *derived*, never carried on the wire: both sides compute it from the
// frame's fields (net::Frame) — the frame kind, the node that owns the
// sequence number (the original requester for replies and acks, the sender
// otherwise), the peer at the other end of that connection, and the
// connection's sequence number. This keeps frame sizes, and therefore every
// simulated transmission time, identical to untraced runs.
inline constexpr uint64_t kNoCorr = 0;
inline constexpr int kCorrNodeBits = 12;  // node ids below 4096
inline constexpr int kCorrSeqBits = 56 - 2 * kCorrNodeBits;
inline uint64_t corrId(uint8_t frame_kind, uint32_t owner, uint32_t peer,
                       uint64_t seq) {
  VODSM_CHECK(owner >> kCorrNodeBits == 0 && peer >> kCorrNodeBits == 0);
  VODSM_CHECK(seq >> kCorrSeqBits == 0);
  // kind+1 in the top byte keeps the id nonzero; 32 bits of sequence is
  // ~4 * 10^9 frames per connection, far beyond any run.
  return (static_cast<uint64_t>(frame_kind + 1) << 56) |
         (static_cast<uint64_t>(owner) << (56 - kCorrNodeBits)) |
         (static_cast<uint64_t>(peer) << kCorrSeqBits) | seq;
}
inline constexpr uint8_t corrKind(uint64_t corr) {
  return static_cast<uint8_t>((corr >> 56) - 1);
}

struct Event {
  sim::Time ts = 0;   // simulated nanoseconds
  uint64_t a0 = 0;
  uint64_t a1 = 0;
  uint64_t corr = kNoCorr;  // wire correlation id; 0 = not a wire event
  uint32_t node = 0;
  Cat cat = Cat::kProgram;
  Phase phase = Phase::kInstant;
  Track track = Track::kApp;
  // Explicit tail byte instead of padding, so whole-record memcmp (the
  // determinism tests compare event streams bytewise) sees defined memory.
  uint8_t reserved = 0;
};
static_assert(sizeof(Event) == 40, "Event is sized for bulk recording");

// Export-time metadata for one category; resolved from kCatInfo, never on
// the recording path.
struct CatInfo {
  const char* name;
  Track track;
  const char* arg0;
  const char* arg1;
};

inline constexpr CatInfo kCatInfo[static_cast<size_t>(Cat::kCatCount)] = {
    {"program", Track::kApp, "node", nullptr},
    {"acquire_view", Track::kApp, "view", "readonly"},
    {"release_view", Track::kApp, "view", "readonly"},
    {"acquire_lock", Track::kApp, "lock", nullptr},
    {"barrier", Track::kApp, "barrier", nullptr},
    {"acquire_wait", Track::kProto, "id", nullptr},
    {"barrier_wait", Track::kProto, "barrier", nullptr},
    {"page_fault", Track::kProto, "page", nullptr},
    {"diff_create", Track::kProto, "pages", "bytes"},
    {"twin", Track::kProto, "page", nullptr},
    {"diff_apply", Track::kProto, "page", "bytes"},
    {"write_notice", Track::kProto, "page", "writer"},
    {"grant", Track::kProto, "id", "requester"},
    {"barrier_fold", Track::kProto, "barrier", "notices"},
    {"send", Track::kNet, "type", "bytes"},
    {"deliver", Track::kNet, "kind", "bytes"},
    {"retransmit", Track::kNet, "type", "bytes"},
    {"drop", Track::kNet, "sender", "bytes"},
    {"fault_inject", Track::kNet, "fault", "bytes"},
    {"engine_run", Track::kApp, "events", nullptr},
};

inline const CatInfo& catInfo(Cat c) {
  return kCatInfo[static_cast<size_t>(c)];
}

// The recorded events, in recording order. The log grows in chunks of
// kChunkEvents that are never moved or initialised ahead of use: an event
// keeps its address while the log grows, and no growth step copies the
// log or holds two copies of it. A chunk (40 MiB) is larger than glibc's
// 32 MiB mmap ceiling, so each is a mapping of its own: only the pages
// events were written to are resident, and a freed log goes back to the
// OS.
class EventLog {
 public:
  static constexpr int kChunkShift = 20;
  static constexpr size_t kChunkEvents = size_t{1} << kChunkShift;

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using pointer = const Event*;
    using reference = const Event&;

    Iterator() = default;
    Iterator(const EventLog* log, size_t i) : log_(log), i_(i) {}
    reference operator*() const { return (*log_)[i_]; }
    pointer operator->() const { return &(*log_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }

   private:
    const EventLog* log_ = nullptr;
    size_t i_ = 0;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Event& operator[](size_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkEvents - 1)];
  }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size_}; }

  void push(const Event& e) {
    if (chunks_.empty() || chunks_.back().size() == kChunkEvents)
      chunks_.emplace_back().reserve(kChunkEvents);
    chunks_.back().push_back(e);
    ++size_;
  }

 private:
  // Each chunk is reserved once at full size, so its buffer never moves,
  // also when the outer vector grows.
  std::vector<std::vector<Event>> chunks_;
  size_t size_ = 0;
};

// What a recorder stores besides the page heat it folds.
enum class TraceMode : uint8_t {
  kFold,    // every event but the kNotice instants
  kExport,  // every event: the recorder writeChromeTrace takes
};

class TraceRecorder {
 public:
  explicit TraceRecorder(TraceMode mode = TraceMode::kFold) : mode_(mode) {}

  void begin(uint32_t node, Cat c, sim::Time ts, uint64_t a0 = 0,
             uint64_t a1 = 0) {
    if (c == Cat::kFault && node != kEngineNode)
      heat_.faultBegin(node, a0, ts);
    log_.push({ts, a0, a1, kNoCorr, node, c, Phase::kBegin, catInfo(c).track});
  }
  void end(uint32_t node, Cat c, sim::Time ts, uint64_t a0 = 0,
           uint64_t a1 = 0) {
    if (c == Cat::kFault && node != kEngineNode) heat_.faultEnd(node, a0, ts);
    log_.push({ts, a0, a1, kNoCorr, node, c, Phase::kEnd, catInfo(c).track});
  }
  void instant(uint32_t node, Cat c, sim::Time ts, uint64_t a0 = 0,
               uint64_t a1 = 0, uint64_t corr = kNoCorr) {
    if (node != kEngineNode) foldInstant(node, c, a0, a1);
    if (c == Cat::kNotice && mode_ != TraceMode::kExport) return;
    log_.push({ts, a0, a1, corr, node, c, Phase::kInstant, catInfo(c).track});
  }

  TraceMode mode() const { return mode_; }
  const EventLog& events() const { return log_; }
  size_t size() const { return log_.size(); }
  const PageHeatFold& pageHeat() const { return heat_; }

 private:
  void foldInstant(uint32_t node, Cat c, uint64_t a0, uint64_t a1) {
    switch (c) {
      case Cat::kTwin:
        heat_.twin(node, a0);
        break;
      case Cat::kDiffApply:
        heat_.diffApply(node, a0, a1);
        break;
      case Cat::kNotice:
        heat_.notice(node, a0, static_cast<uint32_t>(a1));
        break;
      default:
        break;
    }
  }

  TraceMode mode_;
  EventLog log_;
  PageHeatFold heat_;
};

}  // namespace vodsm::obs
