// Reliable datagram transport over the lossy network model.
//
// Two primitives, mirroring how TreadMarks-era DSMs used UDP:
//
//  * post()    — one-way reliable message. The receiver acknowledges with a
//                small Ack frame; the sender retransmits on timeout until
//                acked. Used for grants, releases, barrier traffic: anything
//                whose logical response may be arbitrarily delayed.
//  * request() — RPC with bounded service time (diff fetches, notice
//                fetches). The reply acts as the acknowledgement: the sender
//                retransmits the request on timeout, and the responder
//                caches its reply so a duplicate request is answered by a
//                resend instead of re-execution (at-most-once processing).
//
// Duplicate suppression uses per-sender sequence numbers with a watermark +
// sparse-set tracker. Self-addressed messages bypass the wire (and the
// statistics) entirely, modeling intra-node manager access.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "net/network.hpp"
#include "obs/trace.hpp"
#include "sim/task.hpp"
#include "sim/waiter.hpp"

namespace vodsm::net {

struct Delivery {
  NodeId src = 0;
  uint16_t type = 0;
  Bytes payload;
  sim::Time arrive = 0;
};

// Identifies a request so a handler can answer it (possibly later).
struct ReplyToken {
  NodeId requester = 0;
  uint64_t seq = 0;
};

struct RpcResult {
  uint16_t type = 0;
  Bytes payload;
  sim::Time arrive = 0;
};

// Tracks which sequence numbers from one peer have been processed.
class SeqTracker {
 public:
  // Returns true when `seq` is new (and marks it).
  bool markSeen(uint64_t seq) {
    if (seq < watermark_) return false;
    if (!sparse_.insert(seq).second) return false;
    // Advance the contiguous watermark.
    while (sparse_.count(watermark_)) {
      sparse_.erase(watermark_);
      ++watermark_;
    }
    return true;
  }

 private:
  uint64_t watermark_ = 0;
  std::unordered_set<uint64_t> sparse_;
};

class Endpoint {
 public:
  using Handler = std::function<void(Delivery&&, const ReplyToken&)>;

  Endpoint(sim::Engine& engine, Network& network, NodeId self,
           sim::Time local_delivery = sim::usec(2))
      : engine_(engine),
        network_(network),
        self_(self),
        local_delivery_(local_delivery) {
    network_.setDeliver(self_, [this](NodeId src, Bytes frame,
                                      sim::Time arrive) {
      onFrame(src, std::move(frame), arrive, /*via_wire=*/true);
    });
  }

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  NodeId self() const { return self_; }
  void setHandler(Handler h) { handler_ = std::move(h); }

  // Optional event recorder for send/deliver/retransmit instants. Null (the
  // default) disables recording; observation never charges simulated time.
  void setTrace(obs::TraceRecorder* t) { trace_ = t; }

  // Reliable one-way message, leaving the node no earlier than `earliest`.
  void post(NodeId dst, uint16_t type, Bytes payload, sim::Time earliest) {
    const uint64_t seq = next_seq_++;
    Bytes frame = encode(FrameKind::kData, seq, type, payload);
    if (dst == self_) {
      sendLocal(std::move(frame), earliest);
      return;
    }
    countSend(type, payload.size());
    traceSend(type, payload.size(), earliest,
              obs::corrId(static_cast<uint8_t>(FrameKind::kData), self_, seq));
    auto [it, inserted] = pending_posts_.emplace(seq, Pending{dst, frame});
    VODSM_CHECK(inserted);
    network_.send(self_, dst, std::move(frame), earliest);
    armPostTimer(seq, it->second.epoch);
  }

  // RPC. The handler on `dst` must reply (promptly, well under one RTO).
  sim::Task<RpcResult> request(NodeId dst, uint16_t type, Bytes payload,
                               sim::Time earliest) {
    const uint64_t seq = next_seq_++;
    Bytes frame = encode(FrameKind::kRequest, seq, type, payload);
    auto pending = std::make_unique<PendingRpc>();
    PendingRpc* p = pending.get();
    pending_rpcs_.emplace(seq, std::move(pending));
    if (dst == self_) {
      // Self-addressed requests are never retransmitted, so the frame can be
      // moved straight into local delivery instead of copied.
      sendLocal(std::move(frame), earliest);
    } else {
      countSend(type, payload.size());
      traceSend(
          type, payload.size(), earliest,
          obs::corrId(static_cast<uint8_t>(FrameKind::kRequest), self_, seq));
      p->dst = dst;
      p->frame = frame;
      network_.send(self_, dst, std::move(frame), earliest);
      armRpcTimer(seq, p->epoch);
    }
    RpcResult result = co_await p->waiter;
    pending_rpcs_.erase(seq);
    co_return result;
  }

  // Answer a request identified by `token`. May be called from the handler
  // or later (the requester keeps retransmitting until it sees the reply, so
  // replies should not be deferred past ~RTO).
  void reply(const ReplyToken& token, uint16_t type, Bytes payload,
             sim::Time earliest) {
    Bytes frame = encode(FrameKind::kReply, token.seq, type, payload);
    if (token.requester == self_) {
      sendLocal(std::move(frame), earliest);
      return;
    }
    cacheReply(token.requester, token.seq, frame);
    countSend(type, payload.size());
    traceSend(type, payload.size(), earliest,
              obs::corrId(static_cast<uint8_t>(FrameKind::kReply),
                          token.requester, token.seq));
    network_.send(self_, token.requester, std::move(frame), earliest);
  }

  // Transport counters land in this node's shard of the network's per-node
  // statistics.
  NetStats& stats() { return network_.statsFor(self_); }

 private:
  struct Pending {
    NodeId dst = 0;
    Bytes frame;
    uint64_t epoch = 0;  // bumped on completion to invalidate timers
    bool done = false;
  };
  struct PendingRpc {
    NodeId dst = 0;
    Bytes frame;
    uint64_t epoch = 0;
    sim::Waiter<RpcResult> waiter;
  };

  static Bytes encode(FrameKind kind, uint64_t seq, uint16_t type,
                      ByteSpan payload) {
    Writer w(payload.size() + 16);
    w.u8(static_cast<uint8_t>(kind));
    w.u64(seq);
    w.u16(type);
    w.blob(payload);
    return w.take();
  }

  void countSend(uint16_t type, size_t payload_bytes) {
    NetStats& s = stats();
    s.messages++;
    s.payload_bytes += payload_bytes;
    KindStats& k = s.of(network_.classify(type));
    k.messages++;
    k.payload_bytes += payload_bytes;
  }

  void traceSend(uint16_t type, size_t payload_bytes, sim::Time ts,
                 uint64_t corr) {
    if (trace_)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kSend, ts, type,
                      payload_bytes, corr);
  }

  // A retransmission counts as another message of the frame's class (the
  // paper's message counts include retransmissions) and is attributed to
  // that class separately so hot spots under loss are visible. `dst` is the
  // frame's target, needed to recover the sequence-number owner for the
  // correlation id (replies quote the requester's sequence space).
  void countRetransmit(const Bytes& frame, NodeId dst) {
    const uint16_t type = frameMsgType(frame);
    stats().retransmissions++;
    stats().of(network_.classify(type)).retransmissions++;
    countSend(type, payloadSize(frame));
    // Deliberately not also a kSend instant: one event per wire action. The
    // correlation id ties the retransmission to the original send's flow.
    if (trace_)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kRetransmit,
                      engine_.now(), type, payloadSize(frame),
                      obs::corrId(frameKind(frame),
                                  frameSeqOwner(frame, self_, dst),
                                  frameSeq(frame)));
  }

  void sendLocal(Bytes frame, sim::Time earliest) {
    sim::Time at = std::max(earliest + local_delivery_, engine_.now());
    engine_.at(at, [this, f = std::move(frame)]() mutable {
      onFrame(self_, std::move(f), engine_.now(), /*via_wire=*/false);
    });
  }

  void armPostTimer(uint64_t seq, uint64_t epoch) {
    engine_.after(network_.config().rto, [this, seq, epoch] {
      auto it = pending_posts_.find(seq);
      if (it == pending_posts_.end() || it->second.epoch != epoch) return;
      countRetransmit(it->second.frame, it->second.dst);
      network_.send(self_, it->second.dst, Bytes(it->second.frame),
                    engine_.now());
      armPostTimer(seq, epoch);
    });
  }

  void armRpcTimer(uint64_t seq, uint64_t epoch) {
    engine_.after(network_.config().rto, [this, seq, epoch] {
      auto it = pending_rpcs_.find(seq);
      if (it == pending_rpcs_.end() || it->second->epoch != epoch) return;
      countRetransmit(it->second->frame, it->second->dst);
      network_.send(self_, it->second->dst, Bytes(it->second->frame),
                    engine_.now());
      armRpcTimer(seq, epoch);
    });
  }

  static size_t payloadSize(const Bytes& frame) {
    // Header is kind(1) + seq(8) + type(2) + blob length(4).
    return frame.size() - 15;
  }

  void onFrame(NodeId src, Bytes frame, sim::Time arrive, bool via_wire) {
    Reader r(frame);
    const auto kind = static_cast<FrameKind>(r.u8());
    const uint64_t seq = r.u64();
    if (trace_ && via_wire)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kDeliver, arrive,
                      static_cast<uint64_t>(kind), frame.size(),
                      obs::corrId(static_cast<uint8_t>(kind),
                                  frameSeqOwner(frame, src, self_), seq));
    switch (kind) {
      case FrameKind::kAck: {
        auto it = pending_posts_.find(seq);
        if (it != pending_posts_.end()) {
          it->second.epoch++;
          pending_posts_.erase(it);
        }
        return;
      }
      case FrameKind::kReply: {
        auto it = pending_rpcs_.find(seq);
        if (it == pending_rpcs_.end()) return;  // duplicate reply
        PendingRpc& p = *it->second;
        p.epoch++;
        const uint16_t type = r.u16();
        ByteSpan payload = r.blob();
        p.waiter.fulfill(
            RpcResult{type, Bytes(payload.begin(), payload.end()), arrive});
        return;
      }
      case FrameKind::kData: {
        if (via_wire) sendAck(src, seq);
        if (!seen_[src].markSeen(seq)) return;  // duplicate
        const uint16_t type = r.u16();
        ByteSpan payload = r.blob();
        dispatch(src, type, payload, arrive, ReplyToken{});
        return;
      }
      case FrameKind::kRequest: {
        if (!seen_[src].markSeen(seq)) {
          // Duplicate request: resend the cached reply if we already
          // answered; otherwise the original is still being processed and
          // the requester's next timeout will retry.
          auto cit = reply_cache_.find(src);
          if (cit != reply_cache_.end()) {
            auto rit = cit->second.find(seq);
            if (rit != cit->second.end() && via_wire) {
              countRetransmit(rit->second, src);
              network_.send(self_, src, Bytes(rit->second), engine_.now());
            }
          }
          return;
        }
        const uint16_t type = r.u16();
        ByteSpan payload = r.blob();
        dispatch(src, type, payload, arrive, ReplyToken{src, seq});
        return;
      }
    }
  }

  void dispatch(NodeId src, uint16_t type, ByteSpan payload, sim::Time arrive,
                const ReplyToken& token) {
    VODSM_CHECK_MSG(handler_, "no handler installed on endpoint");
    handler_(Delivery{src, type, Bytes(payload.begin(), payload.end()), arrive},
             token);
  }

  // Keep only the most recent replies per requester: a requester
  // retransmits within ~RTO of the original, so old entries are dead.
  void cacheReply(NodeId requester, uint64_t seq, Bytes frame) {
    static constexpr size_t kMaxCached = 64;
    auto& cache = reply_cache_[requester];
    auto& order = reply_order_[requester];
    cache[seq] = std::move(frame);
    order.push_back(seq);
    while (order.size() > kMaxCached) {
      cache.erase(order.front());
      order.pop_front();
    }
  }

  void sendAck(NodeId src, uint64_t seq) {
    Writer w(16);
    w.u8(static_cast<uint8_t>(FrameKind::kAck));
    w.u64(seq);
    stats().acks++;
    // Acks are counted outside the message statistics, but they are traced:
    // graph analysis wants every deliver to have a matching send. Type 0 is
    // reserved (protocol message types start at 1).
    if (trace_)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kSend,
                      engine_.now(), 0, 0,
                      obs::corrId(static_cast<uint8_t>(FrameKind::kAck), src,
                                  seq));
    network_.send(self_, src, w.take(), engine_.now());
  }

  sim::Engine& engine_;
  Network& network_;
  NodeId self_;
  sim::Time local_delivery_;
  Handler handler_;
  obs::TraceRecorder* trace_ = nullptr;
  uint64_t next_seq_ = 0;
  std::unordered_map<uint64_t, Pending> pending_posts_;
  std::unordered_map<uint64_t, std::unique_ptr<PendingRpc>> pending_rpcs_;
  std::unordered_map<NodeId, SeqTracker> seen_;
  std::unordered_map<NodeId, std::unordered_map<uint64_t, Bytes>> reply_cache_;
  std::unordered_map<NodeId, std::deque<uint64_t>> reply_order_;
};

}  // namespace vodsm::net
