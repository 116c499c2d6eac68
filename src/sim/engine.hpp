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
// its own stamp counter. `at` and `arm` schedule into the lane that is
// executing (or the LaneGuard-pinned lane during setup); `atLane` posts
// into another lane and models a cross-node network frame. Lanes never
// change which events run, only how equal-time events tie-break. That tie
// order, and through it every random draw, is what BENCH_tables.json,
// BENCH_scaling.json, bench/profiles* and the chaos suite encode, so the
// layout is fixed: a different key would drift every committed result.
//
// Storage: callbacks live in a free-list pool of event nodes (reused across
// the run, so steady-state scheduling allocates nothing), and the priority
// queue orders plain POD records — heap sifts move small PODs instead of
// whole closures, and popping the top needs no const_cast. `at` and
// `atLane` construct each callback in its node, and the event runs it
// there; the node returns to the free list only after the callback
// returns. The pool grows by fixed-size chunks that never move, so growing
// it neither copies the nodes nor holds two arrays at once.
//
// Timer lines. A timer is armed with `arm(dt, owner, arg)` and runs
// `owner.onTimer(arg)` as an ordinary event, keyed exactly as
// `at(now() + dt)` would key it: its stamp is drawn when it is armed. The
// timers one lane arms for one (dt, owner) are keyed in the order they are
// armed: now() never decreases and the lane's stamps strictly increase. So
// each such series is a FIFO line of 24-byte {time, stamp, arg} entries
// whose head alone sits in the heap; popping the head pushes its
// successor. The heap's top is still the global minimum key, so every
// timer runs, in the same order, as if the whole series were in the heap,
// and a timer holds no pool node. The transport's retransmission timers
// (one RTO, armed per frame, almost all dead when they fire) are what this
// keeps out of the heap and the pool.
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

// Receives the events of the timer lines it arms (see the header comment).
class TimerOwner {
 public:
  virtual void onTimer(uint64_t arg) = 0;

 protected:
  ~TimerOwner() = default;
};

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
    seqs_.assign(nlanes_, 0);
    lines_.clear();
    lane_lines_.assign(nlanes_, {});
    if (cur_lane_ >= nlanes_) cur_lane_ = 0;
  }

  // Schedule `f` at absolute time `t` (must be >= now()) in the lane that
  // is currently executing (or the LaneGuard-pinned lane during setup).
  template <typename F>
  void at(Time t, F&& f) {
    schedule(t, cur_lane_, std::forward<F>(f));
  }

  // Schedule into another lane: the cross-node frame hop. The stamp comes
  // from the posting lane's counter.
  template <typename F>
  void atLane(uint32_t lane, Time t, F&& f) {
    // Unconfigured engines (nlanes_ == 1) fold every lane into lane 0.
    schedule(t, lane < nlanes_ ? lane : 0, std::forward<F>(f));
  }

  // Arm a timer: `owner.onTimer(arg)` runs `dt` after the engine's current
  // time, in the executing lane. Same key, and so the same order, as
  // `at(now() + dt, ...)`; the timer waits in its (lane, dt, owner) line
  // until it is that line's head. The owner must outlive its pending
  // timers.
  void arm(Time dt, TimerOwner& owner, uint64_t arg) {
    VODSM_DCHECK(dt >= 0);
    const uint32_t id = lineFor(cur_lane_, dt, owner);
    Line& l = lines_[id];
    const Timer timer{now_ + dt, nextStamp(cur_lane_), arg};
    l.fifo.push_back(timer);
    ++pending_;
    if (!l.armed) {
      l.armed = true;
      push(Entry{timer.t, timer.stamp, cur_lane_, cur_lane_, kNone, id});
    }
  }

  Time now() const { return now_; }

  // Run the next event. Returns false if none remains.
  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry ev = heap_.back();
    heap_.pop_back();
    VODSM_DCHECK(ev.t >= now_);
    now_ = ev.t;
    cur_lane_ = ev.lane;
    seqs_[ev.lane] = std::max(seqs_[ev.lane], ev.stamp + 1);
    --pending_;
    if (ev.line != kNone) {
      // The owner may arm timers on new lines, which moves lines_.
      TimerOwner* owner = lines_[ev.line].owner;
      owner->onTimer(popLine(ev.line));
      return true;
    }
    // The node stays taken while its callback runs (chunks never move), so
    // the events it schedules cannot reuse it.
    Node& n = node(ev.slot);
    n.cb();
    n.cb.reset();
    n.next_free = free_head_;
    free_head_ = ev.slot;
    return true;
  }

  // Run until every event drained. Returns the number of events processed.
  uint64_t run() {
    uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  // Events and timers still pending.
  size_t pending() const { return pending_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Node {
    Callback cb;
    uint32_t next_free = kNone;
  };
  // Pool slot s lives at chunks_[s / kChunkNodes][s % kChunkNodes].
  static constexpr uint32_t kChunkBits = 12;
  static constexpr uint32_t kChunkNodes = uint32_t{1} << kChunkBits;
  // A heap record: a pool node's callback (`slot`), or the head of timer
  // line `line`.
  struct Entry {
    Time t;
    uint64_t stamp;
    uint32_t origin;  // lane whose counter issued the stamp
    uint32_t lane;    // lane the event executes in
    uint32_t slot;    // kNone for a timer line's head
    uint32_t line;    // kNone for a callback
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
  // One armed timer. Its lane is its line's.
  struct Timer {
    Time t;
    uint64_t stamp;
    uint64_t arg;
  };
  static_assert(sizeof(Timer) == 24, "a pending timer is three words");
  // One (lane, dt, owner) series of timers, in key order. `fifo[next]` is
  // in the heap while `armed`; `fifo[next + 1..]` waits behind it.
  struct Line {
    std::vector<Timer> fifo;
    size_t next = 0;
    TimerOwner* owner;
    uint32_t lane;
    bool armed = false;
  };
  struct LineRef {
    Time dt;
    TimerOwner* owner;
    uint32_t line;
  };

  uint64_t nextStamp(uint32_t lane) { return seqs_[lane]++; }

  Node& node(uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkNodes - 1)];
  }

  uint32_t alloc() {
    if (free_head_ != kNone) {
      const uint32_t slot = free_head_;
      free_head_ = node(slot).next_free;
      return slot;
    }
    const uint32_t slot = pool_size_++;
    if ((slot & (kChunkNodes - 1)) == 0)
      chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    return slot;
  }

  void push(Entry e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  // A lane arms timers for one or two (dt, owner) pairs, so a linear scan
  // finds its line.
  uint32_t lineFor(uint32_t lane, Time dt, TimerOwner& owner) {
    for (const LineRef& r : lane_lines_[lane])
      if (r.dt == dt && r.owner == &owner) return r.line;
    const auto id = static_cast<uint32_t>(lines_.size());
    lines_.push_back(Line{{}, 0, &owner, lane, false});
    lane_lines_[lane].push_back(LineRef{dt, &owner, id});
    return id;
  }

  // The line's head left the heap: returns its argument, and its successor,
  // if any, takes its place. The consumed prefix is dropped once it is half
  // the buffer, so a line costs amortized O(1) per timer, holds at most
  // about twice its backlog, and is empty whenever nothing is pending.
  uint64_t popLine(uint32_t id) {
    Line& l = lines_[id];
    const uint64_t arg = l.fifo[l.next++].arg;
    if (l.next == l.fifo.size()) {
      l.fifo.clear();
      l.next = 0;
      l.armed = false;
      return arg;
    }
    const Timer& head = l.fifo[l.next];
    push(Entry{head.t, head.stamp, l.lane, l.lane, kNone, id});
    if (2 * l.next >= l.fifo.size()) {
      l.fifo.erase(l.fifo.begin(),
                   l.fifo.begin() + static_cast<std::ptrdiff_t>(l.next));
      l.next = 0;
    }
    return arg;
  }

  template <typename F>
  void schedule(Time t, uint32_t lane, F&& f) {
    VODSM_DCHECK(t >= now_);
    const uint32_t slot = alloc();
    node(slot).cb.emplace(std::forward<F>(f));
    push(Entry{t, nextStamp(cur_lane_), cur_lane_, lane, slot, kNone});
    ++pending_;
  }

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  uint32_t pool_size_ = 0;  // slots handed out so far
  uint32_t free_head_ = kNone;
  Time now_ = 0;
  uint64_t pending_ = 0;
  uint32_t cur_lane_ = 0;  // scheduling lane: the executing or pinned lane

  // Lane configuration (configureLanes) and per-lane stamp counters. With
  // the default single lane, seqs_[0] is the classic global sequence.
  uint32_t nlanes_ = 1;
  std::vector<uint64_t> seqs_ = std::vector<uint64_t>(1);

  // Timer lines (see the header comment), created on first use of a
  // (lane, dt, owner); lane_lines_[lane] maps each (dt, owner) to its line.
  std::vector<Line> lines_;
  std::vector<std::vector<LineRef>> lane_lines_ =
      std::vector<std::vector<LineRef>>(1);
};

}  // namespace vodsm::sim
