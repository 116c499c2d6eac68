// Discrete-event engine: one serial schedule over per-node lanes.
//
// Events are keyed by (time, stamp, origin-lane) and processed in strictly
// increasing key order, so a run is deterministic. Stamps are per-lane
// Lamport counters: the lane that schedules an event draws the stamp from
// its own counter, and executing an event with stamp c advances the
// executing lane's counter to at least c+1, so causally-later events always
// carry strictly larger keys. With a single lane (the default) stamps
// degenerate to the classic global insertion sequence and the engine
// behaves exactly like a plain (time, seq) engine.
//
// Lanes. `configureLanes(n)` gives each simulated node its own lane, i.e.
// its own stamp counter. `at`/`after` schedule into the lane that is
// executing (or the LaneGuard-pinned lane during setup); `atLane` posts
// into another lane and models a cross-node network frame. Lanes never
// change which events run, only how equal-time events tie-break. That tie
// order, and through it every random draw, is what BENCH_tables.json,
// BENCH_scaling.json, bench/profiles* and the chaos suite encode, so the
// layout is fixed: a different key would drift every committed result.
//
// Aux events. Samplers and other pure observers schedule via `auxAt`:
// aux events draw stamps from a separate per-lane counter (never consuming
// real stamps, so metered and unmetered runs stay bit-identical) and do not
// keep the engine alive — run() stops once all real events drained,
// discarding any trailing aux events.
//
// Storage: callbacks live in a free-list pool of event nodes (reused across
// the run, so steady-state scheduling allocates nothing), and the priority
// queue orders plain POD records — heap sifts move small PODs instead of
// whole closures, and popping the top needs no const_cast. The pool grows
// by fixed-size chunks that never move, so growing it neither copies the
// nodes nor holds two arrays at once.
//
// Delay lines. Events one lane schedules with `after(dt)` for one `dt` are
// keyed in the order they are scheduled: now() never decreases and the
// lane's stamps strictly increase. Each such (lane, dt) series is a FIFO
// whose head alone sits in the heap; popping the head pushes its successor.
// The heap's top is still the global minimum key, so every event runs, in
// the same order, as if the whole series were in the heap. The transport's
// retransmission timers (one RTO, armed per frame, almost all dead when they
// fire) are what this keeps out of the heap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "support/check.hpp"

namespace vodsm::sim {

class Engine {
 public:
  using Callback = sim::Callback;

  // Pins the scheduling lane for events scheduled outside event context
  // (program spawns during setup). No-op effect with a single lane.
  class LaneGuard {
   public:
    LaneGuard(Engine& e, uint32_t lane) : e_(e), prev_(e.cur_lane_) {
      e_.cur_lane_ = lane < e.nlanes_ ? lane : 0;
    }
    ~LaneGuard() { e_.cur_lane_ = prev_; }
    LaneGuard(const LaneGuard&) = delete;
    LaneGuard& operator=(const LaneGuard&) = delete;

   private:
    Engine& e_;
    uint32_t prev_;
  };

  // Partition events into `nlanes` lanes (one per simulated node). Must be
  // called before any event is scheduled.
  void configureLanes(int nlanes) {
    VODSM_CHECK_MSG(heap_.empty(), "configureLanes must precede scheduling");
    nlanes_ = nlanes > 1 ? static_cast<uint32_t>(nlanes) : 1;
    seqs_.assign(nlanes_, LaneSeq{});
    lines_.clear();
    lane_lines_.assign(nlanes_, {});
    if (cur_lane_ >= nlanes_) cur_lane_ = 0;
  }

  // Schedule `cb` at absolute time `t` (must be >= now()) in the lane that
  // is currently executing (or the LaneGuard-pinned lane during setup).
  void at(Time t, Callback cb) {
    schedule(t, cur_lane_, std::move(cb), false, kNone);
  }

  // Schedule `cb` `dt` after the engine's current time, in the executing
  // lane. Same key, and so the same order, as `at(now() + dt, cb)`; the
  // event waits in the (lane, dt) delay line until it is that line's head.
  void after(Time dt, Callback cb) {
    VODSM_DCHECK(dt >= 0);
    const uint32_t line = lineFor(cur_lane_, dt);
    Line& l = lines_[line];
    if (!l.armed) {
      l.armed = true;
      schedule(now_ + dt, cur_lane_, std::move(cb), false, line);
      return;
    }
    l.fifo.push_back(Entry{now_ + dt, nextStamp(cur_lane_), cur_lane_,
                           cur_lane_, alloc(std::move(cb)), line});
    ++real_pending_;
  }

  // Schedule into another lane: the cross-node frame hop. The stamp comes
  // from the posting lane's counter.
  void atLane(uint32_t lane, Time t, Callback cb) {
    // Unconfigured engines (nlanes_ == 1) fold every lane into lane 0.
    schedule(t, lane < nlanes_ ? lane : 0, std::move(cb), false, kNone);
  }

  // Schedule an auxiliary (observer-only) event: it draws from a separate
  // stamp space, never delays engine termination, and trailing aux events
  // past the last real event are discarded. Aux callbacks must not mutate
  // simulated state or schedule real events.
  void auxAt(Time t, Callback cb) {
    schedule(t, cur_lane_, std::move(cb), true, kNone);
  }
  void auxAfter(Time dt, Callback cb) { auxAt(now() + dt, std::move(cb)); }

  Time now() const { return now_; }

  // Run one real event (processing any earlier aux events transparently).
  // Returns false if no real event remains or stop() was called.
  bool step() {
    while (true) {
      const int r = stepImpl();
      if (r == 0) return false;
      if (r == 1) return true;
    }
  }

  // Run until every real event drained or stop() is called. Returns the
  // number of real events processed.
  uint64_t run() {
    uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  // Run at most `limit` further real events; returns true iff the run is
  // fully drained (no real events left and not stopped). A stopped run
  // always reports drained=false: stopping abandons the queue.
  bool runBounded(uint64_t limit) {
    for (uint64_t n = 0; n < limit; ++n)
      if (!step()) break;
    return pending() == 0 && !stopped();
  }

  // Stop processing before the next event.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // Real events still pending (aux events are not counted: they never keep
  // the engine alive).
  size_t pending() const { return real_pending_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  // Marks stamps drawn from the aux counter; aux events sort after every
  // real event at the same time (their stamps are astronomically larger).
  static constexpr uint64_t kAuxBit = uint64_t{1} << 63;

  struct Node {
    Callback cb;
    uint32_t next_free = kNone;
  };
  // Pool slot s lives at chunks_[s / kChunkNodes][s % kChunkNodes].
  static constexpr uint32_t kChunkBits = 12;
  static constexpr uint32_t kChunkNodes = uint32_t{1} << kChunkBits;
  struct Entry {
    Time t;
    uint64_t stamp;
    uint32_t origin;  // lane whose counter issued the stamp
    uint32_t lane;    // lane the event executes in
    uint32_t slot;
    uint32_t line;    // delay line the entry heads, or kNone
  };
  static_assert(sizeof(Entry) == 32, "the line index fits the padding");
  // Orders by time, then stamp, then origin lane; keys of distinct events
  // are distinct (a lane never draws a stamp twice).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.stamp != b.stamp) return a.stamp > b.stamp;
      return a.origin > b.origin;
    }
  };
  struct LaneSeq {
    uint64_t real = 0;
    uint64_t aux = 0;
  };
  // One (lane, dt) series of `after` events, in key order. Its head is in
  // the heap while `armed`; `fifo[next..]` waits behind it.
  struct Line {
    std::vector<Entry> fifo;
    size_t next = 0;
    bool armed = false;
  };
  struct LineRef {
    Time dt;
    uint32_t line;
  };

  uint64_t nextStamp(uint32_t lane) { return seqs_[lane].real++; }
  uint64_t nextAuxStamp(uint32_t lane) {
    return seqs_[lane].aux++ | kAuxBit;
  }

  Node& node(uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkNodes - 1)];
  }

  uint32_t alloc(Callback cb) {
    uint32_t slot;
    if (free_head_ != kNone) {
      slot = free_head_;
      free_head_ = node(slot).next_free;
    } else {
      slot = pool_size_++;
      if ((slot & (kChunkNodes - 1)) == 0)
        chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    }
    node(slot).cb = std::move(cb);
    return slot;
  }

  void push(Entry e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  // A lane uses one or two delays, so a linear scan finds its line.
  uint32_t lineFor(uint32_t lane, Time dt) {
    for (const LineRef& r : lane_lines_[lane])
      if (r.dt == dt) return r.line;
    const auto line = static_cast<uint32_t>(lines_.size());
    lines_.emplace_back();
    lane_lines_[lane].push_back(LineRef{dt, line});
    return line;
  }

  // The line's head left the heap: its successor, if any, takes its place.
  // The consumed prefix is dropped once it is half the buffer, so a line
  // costs amortized O(1) per event, holds at most about twice its backlog,
  // and is empty whenever nothing waits behind the head.
  void advance(Line& l) {
    if (l.next == l.fifo.size()) {
      l.armed = false;
      return;
    }
    push(l.fifo[l.next++]);
    if (2 * l.next >= l.fifo.size()) {
      l.fifo.erase(l.fifo.begin(),
                   l.fifo.begin() + static_cast<std::ptrdiff_t>(l.next));
      l.next = 0;
    }
  }

  void schedule(Time t, uint32_t lane, Callback cb, bool aux, uint32_t line) {
    VODSM_DCHECK(t >= now_);
    push(Entry{t, aux ? nextAuxStamp(cur_lane_) : nextStamp(cur_lane_),
               cur_lane_, lane, alloc(std::move(cb)), line});
    if (!aux) ++real_pending_;
  }

  // 0 = nothing to do (drained of real events or stopped), 1 = executed a
  // real event, 2 = executed an aux event.
  int stepImpl() {
    if (heap_.empty() || stopped_ || real_pending_ == 0) return 0;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry ev = heap_.back();
    heap_.pop_back();
    if (ev.line != kNone) advance(lines_[ev.line]);
    VODSM_DCHECK(ev.t >= now_);
    now_ = ev.t;
    cur_lane_ = ev.lane;
    const bool aux = (ev.stamp & kAuxBit) != 0;
    LaneSeq& s = seqs_[ev.lane];
    if (aux) {
      s.aux = std::max(s.aux, (ev.stamp & ~kAuxBit) + 1);
    } else {
      s.real = std::max(s.real, ev.stamp + 1);
      --real_pending_;
    }
    // Move the callback out before running it: the callback may schedule
    // new events, which may reuse this node's slot.
    Node& n = node(ev.slot);
    Callback cb = std::move(n.cb);
    n.cb.reset();
    n.next_free = free_head_;
    free_head_ = ev.slot;
    cb();
    return aux ? 2 : 1;
  }

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  uint32_t pool_size_ = 0;  // slots handed out so far
  uint32_t free_head_ = kNone;
  Time now_ = 0;
  uint64_t real_pending_ = 0;
  bool stopped_ = false;
  uint32_t cur_lane_ = 0;  // scheduling lane: the executing or pinned lane

  // Lane configuration (configureLanes) and per-lane stamp counters. With
  // the default single lane, seqs_[0].real is the classic global sequence.
  uint32_t nlanes_ = 1;
  std::vector<LaneSeq> seqs_ = std::vector<LaneSeq>(1);

  // Delay lines (see the header comment), created on first use of a
  // (lane, dt) pair; lane_lines_[lane] maps each dt to its line.
  std::vector<Line> lines_;
  std::vector<std::vector<LineRef>> lane_lines_ =
      std::vector<std::vector<LineRef>>(1);
};

}  // namespace vodsm::sim
