// Switched-Ethernet model of the paper's testbed: one switch, one
// full-duplex link per node. A frame's journey: sender software overhead ->
// uplink serialization (FIFO per sender) -> switch latency -> downlink
// serialization (FIFO per receiver) -> NIC receive queue (tail drop when
// full) -> receive software overhead -> delivery callback. Random loss is
// applied at the switch.
//
// A frame is a net::Frame value: its header fields and a shared reference
// to the payload its sender encoded. The hops, the switch's duplicate and
// the delivery pass it by value, so no hop copies or parses bytes. Links,
// queues and software overheads are charged Frame::size(), the size the
// encoded datagram would have.
//
// All bookkeeping happens inside engine events so concurrent senders are
// ordered by global simulated time.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "net/faults.hpp"
#include "net/stats.hpp"
#include "net/types.hpp"
#include "support/check.hpp"

namespace vodsm::net {

// The wire correlation id of `frame` sent from src to dst. Its sequence
// number belongs to one connection: replies and acks quote the original
// requester's connection to the responder, every other frame its sender's
// connection to the target.
inline uint64_t frameCorr(const Frame& frame, NodeId src, NodeId dst) {
  const bool quoted =
      frame.kind == FrameKind::kReply || frame.kind == FrameKind::kAck;
  return obs::corrId(static_cast<uint8_t>(frame.kind), quoted ? dst : src,
                     quoted ? src : dst, frame.seq);
}

class Network {
 public:
  // Called when a frame clears the receiver's software stack.
  // `arrive` is the time the payload is available to the node.
  using DeliverFn =
      std::function<void(NodeId src, Frame frame, sim::Time arrive)>;

  Network(sim::Engine& engine, int n_nodes, NetConfig config, uint64_t seed)
      : engine_(engine), config_(config), ports_(static_cast<size_t>(n_nodes)) {
    VODSM_CHECK(n_nodes > 0);
    // Per-receiver loss streams: each destination forks its own stream off
    // the run seed. The committed lossy cells encode these streams, so
    // sharing one Rng would drift their results.
    sim::Rng root(seed);
    rngs_.reserve(static_cast<size_t>(n_nodes));
    for (int i = 0; i < n_nodes; ++i) rngs_.push_back(root.fork());
  }

  int nodeCount() const { return static_cast<int>(ports_.size()); }
  const NetConfig& config() const { return config_; }

  // The run's counters: frame and wire counts kept here, transport counts
  // kept by the endpoints.
  NetStats& stats() { return stats_; }
  const NetStats& stats() const { return stats_; }

  void setDeliver(NodeId node, DeliverFn fn) {
    port(node).deliver = std::move(fn);
  }

  // Called on a responder when no copy of a request it answered can reach
  // it again, so it may free the reply it keeps for resends. Every endpoint
  // lives in this process: the notice is a function call, not a frame, and
  // costs no simulated time.
  using ReleaseFn = std::function<void(NodeId requester, uint64_t seq)>;
  void setRelease(NodeId node, ReleaseFn fn) {
    port(node).release = std::move(fn);
  }
  // `requester` has the reply to its request `seq` to `responder`.
  void releaseReply(NodeId requester, NodeId responder, uint64_t seq) {
    if (const ReleaseFn& f = port(responder).release) f(requester, seq);
  }

  // Optional event recorder for frame drops (random loss, NIC overflow).
  // Drops are charged to the would-be receiver's net track.
  void setTrace(obs::TraceRecorder* t) { trace_ = t; }

  // Optional counter/gauge registry. Link metrics use engine time and only
  // read values this layer already computed, so metered runs stay
  // bit-identical to unmetered ones. Uplink busy time and in-flight bytes
  // are charged to the sender's link, queue occupancy, downlink busy time
  // and drops to the receiver's.
  void setMetrics(obs::MetricsRegistry* m) { metrics_ = m; }

  // Maps u16 message types onto MsgClass for the per-class counters: the
  // endpoints' sends and retransmissions and the drops here (pure-ack drops
  // are counted separately). Without one, everything lands in kOther.
  void setClassifier(Classifier c) { classify_ = c; }
  MsgClass classify(uint16_t type) const {
    return classify_ ? classify_(type) : MsgClass::kOther;
  }

  // Optional fault injector, queried once per frame at the switch (the same
  // point where random cable loss applies). Null means no injection: the
  // fault-free path draws no extra randomness and computes identical times,
  // so runs without a plan stay byte-identical. Caller keeps ownership.
  void setFaults(FaultInjector* f) {
    faults_ = f;
    may_duplicate_ = false;
    if (f)
      for (const FaultRule& r : f->plan().rules)
        may_duplicate_ |= r.kind == FaultKind::kDup;
  }
  // True when a fault rule can deliver a frame twice. Nothing else does:
  // loss drops frames and reordering only delays them.
  bool mayDuplicate() const { return may_duplicate_; }

  // Inject a frame from src to dst no earlier than `earliest` (typically the
  // sender's local clock). The caller has already decided the frame is worth
  // counting; this layer only counts frame/wire statistics.
  void send(NodeId src, NodeId dst, Frame frame, sim::Time earliest) {
    VODSM_CHECK(src < ports_.size() && dst < ports_.size());
    VODSM_CHECK_MSG(src != dst, "loopback frames never reach the wire");
    sim::Time start = std::max(earliest, engine_.now());
    engine_.at(start, [this, src, dst, f = std::move(frame)]() mutable {
      startUplink(src, dst, std::move(f));
    });
  }

 private:
  struct Port {
    sim::Time uplink_busy_until = 0;
    sim::Time downlink_busy_until = 0;
    sim::Time rx_busy_until = 0;
    int rx_queue_depth = 0;
    DeliverFn deliver;
    ReleaseFn release;
  };

  Port& port(NodeId id) { return ports_[id]; }

  void startUplink(NodeId src, NodeId dst, Frame frame) {
    const sim::Time now = engine_.now();
    Port& p = port(src);
    const sim::Time tx = config_.txTime(frame.size());
    const sim::Time depart = std::max(now + config_.sendOverhead(frame.size()),
                                      p.uplink_busy_until);
    p.uplink_busy_until = depart + tx;
    stats_.frames_sent++;
    stats_.wire_bytes += config_.wireBytes(frame.size());
    if (auto* m = metrics_) {
      m->add(src, obs::Metric::kInflightBytes,
             static_cast<int64_t>(frame.size()), now);
      m->add(src, obs::Metric::kUplinkBusyNs, tx, now);
    }
    // Cross-lane hop: everything from the switch on happens in the
    // receiver's lane.
    engine_.atLane(dst, depart + tx + config_.wire_latency,
                   [this, src, dst, f = std::move(frame)]() mutable {
                     arriveSwitch(src, dst, std::move(f));
                   });
  }

  // Shared bookkeeping for both drop sites: per-class counters plus the
  // kDrop trace instant, charged to the would-be receiver. The correlation
  // id carries the frame kind, so consumers can attribute the drop to the
  // same flow as the original send.
  void recordDrop(NodeId src, NodeId dst, const Frame& frame) {
    if (frame.kind == FrameKind::kAck)
      stats_.ack_drops++;
    else
      stats_.of(classify(frame.type)).drops++;
    if (trace_)
      trace_->instant(static_cast<uint32_t>(dst), obs::Cat::kDrop,
                      engine_.now(), src, frame.size(),
                      frameCorr(frame, src, dst));
    if (auto* m = metrics_) {
      m->add(src, obs::Metric::kInflightBytes,
             -static_cast<int64_t>(frame.size()), engine_.now());
      m->add(dst, obs::Metric::kFrameDrops, 1, engine_.now());
    }
  }

  // Fault instants share the frame's correlation id, so injected drops,
  // duplicates, and delays join the same flow as the frame in Perfetto and
  // in the run graph.
  void traceFault(FaultKind k, NodeId src, NodeId dst, const Frame& frame) {
    if (trace_)
      trace_->instant(static_cast<uint32_t>(dst), obs::Cat::kFaultInject,
                      engine_.now(), static_cast<uint64_t>(k), frame.size(),
                      frameCorr(frame, src, dst));
  }

  void arriveSwitch(NodeId src, NodeId dst, Frame frame) {
    FaultAction fault;
    if (faults_) {
      fault = faults_->onFrame(src, dst, engine_.now());
      if (fault.drop) {
        stats_.frames_dropped_fault++;
        traceFault(fault.cause, src, dst, frame);
        recordDrop(src, dst, frame);
        return;
      }
    }
    if (config_.random_loss > 0 && rngs_[dst].chance(config_.random_loss)) {
      stats_.frames_dropped_random++;
      recordDrop(src, dst, frame);
      return;
    }
    Port& p = port(dst);
    sim::Time tx = config_.txTime(frame.size());
    if (fault.degraded) {
      stats_.frames_degraded++;
      tx = static_cast<sim::Time>(
          std::llround(static_cast<double>(tx) * fault.tx_factor));
      traceFault(FaultKind::kDegrade, src, dst, frame);
    }
    if (fault.reordered) {
      stats_.frames_reordered++;
      traceFault(FaultKind::kReorder, src, dst, frame);
    }
    // A held-back frame starts its downlink no earlier than now + delay;
    // frames arriving in the meantime claim the link first and overtake it.
    const sim::Time start =
        std::max(engine_.now() + fault.extra_delay, p.downlink_busy_until);
    p.downlink_busy_until = start + tx;
    if (auto* m = metrics_)
      m->add(dst, obs::Metric::kDownlinkBusyNs, tx, engine_.now());
    if (fault.duplicate) {
      // The switch emits a second copy that serializes right behind the
      // original and balances the books like a fresh transmission:
      // +in-flight here, -in-flight at its delivery or drop.
      stats_.frames_duplicated++;
      traceFault(FaultKind::kDup, src, dst, frame);
      Frame copy = frame;
      const sim::Time start2 = p.downlink_busy_until;
      p.downlink_busy_until = start2 + tx;
      if (auto* m = metrics_) {
        m->add(src, obs::Metric::kInflightBytes,
               static_cast<int64_t>(copy.size()), engine_.now());
        m->add(dst, obs::Metric::kDownlinkBusyNs, tx, engine_.now());
      }
      engine_.at(start2 + tx,
                 [this, src, dst, f = std::move(copy)]() mutable {
                   arriveNic(src, dst, std::move(f));
                 });
    }
    engine_.at(start + tx, [this, src, dst, f = std::move(frame)]() mutable {
      arriveNic(src, dst, std::move(f));
    });
  }

  void arriveNic(NodeId src, NodeId dst, Frame frame) {
    Port& p = port(dst);
    if (p.rx_queue_depth >= config_.rx_queue_frames) {
      stats_.frames_dropped_overflow++;
      recordDrop(src, dst, frame);
      return;
    }
    p.rx_queue_depth++;
    if (auto* m = metrics_) {
      m->add(dst, obs::Metric::kRxQueueFrames, 1, engine_.now());
      m->add(dst, obs::Metric::kRxQueueBytes,
             static_cast<int64_t>(frame.size()), engine_.now());
    }
    const sim::Time start = std::max(engine_.now(), p.rx_busy_until);
    const sim::Time done = start + config_.recvOverhead(frame.size());
    p.rx_busy_until = done;
    engine_.at(done, [this, src, dst, f = std::move(frame)]() mutable {
      Port& q = port(dst);
      q.rx_queue_depth--;
      stats_.frames_delivered++;
      if (auto* m = metrics_) {
        m->add(dst, obs::Metric::kRxQueueFrames, -1, engine_.now());
        m->add(dst, obs::Metric::kRxQueueBytes,
               -static_cast<int64_t>(f.size()), engine_.now());
        m->add(src, obs::Metric::kInflightBytes,
               -static_cast<int64_t>(f.size()), engine_.now());
      }
      if (q.deliver) q.deliver(src, std::move(f), engine_.now());
    });
  }

  sim::Engine& engine_;
  NetConfig config_;
  std::vector<sim::Rng> rngs_;  // per-destination loss streams
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  Classifier classify_ = nullptr;
  FaultInjector* faults_ = nullptr;
  bool may_duplicate_ = false;
  std::vector<Port> ports_;
  NetStats stats_;
};

}  // namespace vodsm::net
