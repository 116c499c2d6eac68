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
// One buffer per message. A sender encodes a message's payload once into a
// net::Payload; the frame, the copy kept for retransmission, the reply
// cache, every resend and the Delivery its handler gets all refer to that
// buffer, and a handler may forward it (the tree barrier's release) without
// copying.
//
// Reply lifetime. The responder keeps each requester's last 64 replies in a
// ring. A cached reply is read again only if a copy of its request arrives
// again. When the requester gets a reply to a request it sent once, and no
// fault rule can duplicate frames, no such copy exists: the requester tells
// the responder through Network::releaseReply (in-process, no simulated
// time), and the responder drops its reference to the reply's payload. The
// ring keeps the slot, its sequence number and its place, so which replies
// are evicted, and so every later resend, stays the same.
//
// Every connection (sender, receiver) has its own sequence space: a sender
// numbers its frames per destination, so the frames a receiver gets from
// one peer carry consecutive numbers, and duplicate suppression is a
// per-peer watermark that frames arriving in order just advance.
// Self-addressed messages bypass the wire (and the statistics) entirely,
// modeling intra-node manager access; they use the node's connection to
// itself.
//
// Outstanding frames live in their connection. Each connection keeps the
// frames this node still owes the peer in a ring indexed by sequence
// number: posts that await an ack and requests that await a reply. A slot
// holds the payload (for resends), the type and, for a request, the
// requester's waiter, which lives in the frame of the coroutine that made
// the request. An ack or a reply empties its slot, so posts and requests
// settled out of order leave holes until the oldest owed frame settles.
// Each frame on the wire arms one retransmission timer, an engine timer
// line entry whose argument is (peer, sequence number): it resends the
// frame if the slot is still owed and is dead otherwise.
#pragma once

#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"
#include "sim/task.hpp"
#include "sim/waiter.hpp"

namespace vodsm::net {

// A message as its handler receives it, and a reply as its requester does.
struct Delivery {
  NodeId src = 0;
  uint16_t type = 0;
  Payload payload;  // the buffer the sender encoded, shared
  sim::Time arrive = 0;
};

// Identifies a request so a handler can answer it (possibly later).
struct ReplyToken {
  NodeId requester = 0;
  uint64_t seq = 0;
};

// Tracks which sequence numbers from one peer have been processed. In
// order, the state is one word: the watermark, the next sequence number
// expected. Numbers that arrive ahead of it (loss, reordering,
// retransmission) are held in a set that is allocated by the first such
// frame and freed once the watermark catches up.
class SeqTracker {
 public:
  SeqTracker() = default;
  SeqTracker(const SeqTracker&) = delete;
  SeqTracker& operator=(const SeqTracker&) = delete;
  ~SeqTracker() { delete ahead(); }

  // Returns true when `seq` is new (and marks it).
  bool markSeen(uint64_t seq) {
    if (word_ == inlineWord(seq)) {  // the next in order, nothing held
      word_ += 2;
      return true;
    }
    return markAhead(seq);
  }

  // Sequence numbers held above the watermark.
  size_t outOfOrder() const {
    const Ahead* a = ahead();
    return a ? a->seqs.size() : 0;
  }

 private:
  struct Ahead {
    uint64_t watermark;
    std::unordered_set<uint64_t> seqs;
  };

  // word_ is either the watermark shifted left with the low bit set, or a
  // pointer to Ahead (whose low bit is clear: allocations are aligned).
  static constexpr uint64_t inlineWord(uint64_t watermark) {
    return watermark << 1 | 1;
  }
  Ahead* ahead() const {
    return word_ & 1 ? nullptr
                     : reinterpret_cast<Ahead*>(static_cast<uintptr_t>(word_));
  }

  bool markAhead(uint64_t seq) {
    Ahead* a = ahead();
    if (seq < (a ? a->watermark : word_ >> 1)) return false;
    if (!a) {
      a = new Ahead{word_ >> 1, {}};
      word_ = reinterpret_cast<uintptr_t>(a);
    }
    if (!a->seqs.insert(seq).second) return false;
    while (a->seqs.erase(a->watermark)) ++a->watermark;
    if (a->seqs.empty()) {
      word_ = inlineWord(a->watermark);
      delete a;
    }
    return true;
  }

  uint64_t word_ = inlineWord(0);
};
static_assert(sizeof(SeqTracker) == 8, "in-order dedup state is one word");

// The frames one connection still owes its peer, by sequence number. The
// ring spans the oldest owed frame to the newest; a slot settles when its
// ack or reply arrives. It doubles when a frame would not fit (a lost frame
// holds the oldest slot for one RTO while newer ones are sent), and it
// never shrinks.
class OwedFrames {
 public:
  struct Slot {
    Payload payload;  // null when nothing is owed at this number
    sim::Waiter<Delivery>* reply = nullptr;  // a request's waiter
    uint16_t type = 0;
    bool resent = false;  // a request that went on the wire more than once
  };

  // Owes `slot` at `seq`, which is above every number held so far.
  void hold(uint64_t seq, Slot slot) {
    if (count_ == 0) head_ = seq;
    VODSM_DCHECK(seq >= head_);
    if (seq - head_ >= slots_.size()) grow(seq - head_ + 1);
    ++count_;
    slots_[seq & (slots_.size() - 1)] = std::move(slot);
  }

  // The slot still owed at `seq`, or null.
  Slot* find(uint64_t seq) {
    if (count_ == 0 || seq < head_ || seq - head_ >= slots_.size())
      return nullptr;
    Slot& s = slots_[seq & (slots_.size() - 1)];
    return s.payload ? &s : nullptr;
  }

  // Empties the owed slot at `seq`.
  void settle(uint64_t seq) {
    const size_t mask = slots_.size() - 1;
    slots_[seq & mask] = Slot{};
    if (--count_ > 0 && seq == head_)
      while (!slots_[head_ & mask].payload) ++head_;
  }

  size_t size() const { return count_; }

 private:
  static constexpr size_t kFirstCapacity = 8;

  // Room for `span` numbers from head_. Every owed number lies within the
  // old capacity of head_.
  void grow(uint64_t span) {
    size_t cap = slots_.empty() ? kFirstCapacity : 2 * slots_.size();
    while (cap < span) cap *= 2;
    std::vector<Slot> next(cap);
    if (count_ > 0)
      for (uint64_t s = head_; s < head_ + slots_.size(); ++s)
        next[s & (cap - 1)] = std::move(slots_[s & (slots_.size() - 1)]);
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;  // a power of two, or empty
  uint64_t head_ = 0;        // the oldest owed number, while count_ > 0
  size_t count_ = 0;         // slots owed
};

class Endpoint final : private sim::TimerOwner {
 public:
  using Handler = std::function<void(Delivery&&, const ReplyToken&)>;

  // A self-addressed message reaches its handler this long after it is sent.
  static constexpr sim::Time kLocalDelivery = sim::usec(2);

  Endpoint(sim::Engine& engine, Network& network, NodeId self)
      : engine_(engine),
        network_(network),
        self_(self),
        conns_(static_cast<size_t>(network.nodeCount())) {
    network_.setDeliver(self_, [this](NodeId src, Frame frame,
                                      sim::Time arrive) {
      onFrame(src, std::move(frame), arrive, /*via_wire=*/true);
    });
    network_.setRelease(self_, [this](NodeId requester, uint64_t seq) {
      if (Frame* cached = findReply(requester, seq)) cached->payload.reset();
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
  void post(NodeId dst, uint16_t type, Payload payload, sim::Time earliest) {
    Conn& c = conn(dst);
    Frame frame{FrameKind::kData, type, c.next_seq++, std::move(payload)};
    if (dst == self_) {
      sendLocal(std::move(frame), earliest);
      return;
    }
    countSend(frame);
    traceSend(frame, dst, earliest);
    c.owed.hold(frame.seq, {frame.payload, nullptr, type});
    sendOwed(dst, std::move(frame), earliest);
  }

  // RPC. The handler on `dst` must reply (promptly, well under one RTO).
  sim::Task<Delivery> request(NodeId dst, uint16_t type, Payload payload,
                              sim::Time earliest) {
    Conn& c = conn(dst);
    Frame frame{FrameKind::kRequest, type, c.next_seq++, std::move(payload)};
    sim::Waiter<Delivery> reply;
    c.owed.hold(frame.seq, {frame.payload, &reply, type});
    if (dst == self_) {
      sendLocal(std::move(frame), earliest);
    } else {
      countSend(frame);
      traceSend(frame, dst, earliest);
      sendOwed(dst, std::move(frame), earliest);
    }
    co_return co_await reply;
  }

  // Answer a request identified by `token`. May be called from the handler
  // or later (the requester keeps retransmitting until it sees the reply, so
  // replies should not be deferred past ~RTO).
  void reply(const ReplyToken& token, uint16_t type, Payload payload,
             sim::Time earliest) {
    Frame frame{FrameKind::kReply, type, token.seq, std::move(payload)};
    if (token.requester == self_) {
      sendLocal(std::move(frame), earliest);
      return;
    }
    cacheReply(token.requester, frame);
    countSend(frame);
    traceSend(frame, token.requester, earliest);
    network_.send(self_, token.requester, std::move(frame), earliest);
  }

  // Which of `peer`'s sequence numbers this node has processed.
  const SeqTracker& seenFrom(NodeId peer) const { return conns_[peer].seen; }

  // Frames this node still owes `peer`: posts not yet acked, requests not
  // yet answered.
  size_t owedTo(NodeId peer) const { return conns_[peer].owed.size(); }

  // Bytes of the reply frames this node still holds for resends.
  size_t cachedReplyBytes() const {
    size_t bytes = 0;
    for (const Conn& c : conns_)
      if (c.replies)
        for (const Frame& f : c.replies->frames)
          if (f.payload) bytes += f.size();
    return bytes;
  }

 private:
  // A requester's most recent replies, oldest overwritten first: it
  // retransmits within ~RTO of the original, so older entries are dead. A
  // released reply keeps its slot without its payload (see the header).
  struct ReplyCache {
    static constexpr size_t kMax = 64;
    std::vector<Frame> frames;
    size_t oldest = 0;  // the slot the next reply overwrites once full
  };
  // Per-peer state of the connection to and from that peer.
  struct Conn {
    uint64_t next_seq = 0;  // this node's next sequence number to the peer
    SeqTracker seen;        // the peer's sequence numbers processed here
    std::unique_ptr<ReplyCache> replies;  // replies to the peer's requests
    OwedFrames owed;        // frames this node still owes the peer
  };

  Conn& conn(NodeId peer) {
    VODSM_CHECK(peer < conns_.size());
    return conns_[peer];
  }

  // A retransmission timer's argument: the connection and the sequence
  // number of the frame it guards.
  static constexpr int kSeqBits = 40;
  static uint64_t timerArg(NodeId peer, uint64_t seq) {
    VODSM_DCHECK(seq >> kSeqBits == 0);
    return uint64_t{peer} << kSeqBits | seq;
  }

  // Puts an owed frame on the wire and arms its retransmission timer.
  void sendOwed(NodeId dst, Frame frame, sim::Time earliest) {
    const uint64_t seq = frame.seq;
    network_.send(self_, dst, std::move(frame), earliest);
    engine_.arm(network_.config().rto, *this, timerArg(dst, seq));
  }

  // A retransmission timer fired: resend its frame if it is still owed.
  void onTimer(uint64_t arg) override {
    const auto peer = static_cast<NodeId>(arg >> kSeqBits);
    const uint64_t seq = arg & ((uint64_t{1} << kSeqBits) - 1);
    OwedFrames::Slot* slot = conns_[peer].owed.find(seq);
    if (!slot) return;  // acked or answered
    if (slot->reply) slot->resent = true;
    const Frame frame{slot->reply ? FrameKind::kRequest : FrameKind::kData,
                      slot->type, seq, slot->payload};
    countRetransmit(frame, peer);
    sendOwed(peer, frame, engine_.now());
  }

  void countSend(const Frame& frame) {
    NetStats& s = network_.stats();
    const size_t payload_bytes = frame.payload.size();
    s.messages++;
    s.payload_bytes += payload_bytes;
    KindStats& k = s.of(network_.classify(frame.type));
    k.messages++;
    k.payload_bytes += payload_bytes;
  }

  void traceSend(const Frame& frame, NodeId dst, sim::Time ts) {
    if (trace_)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kSend, ts,
                      frame.type, frame.payload.size(),
                      frameCorr(frame, self_, dst));
  }

  // A retransmission counts as another message of the frame's class (the
  // paper's message counts include retransmissions) and is attributed to
  // that class separately so hot spots under loss are visible.
  void countRetransmit(const Frame& frame, NodeId dst) {
    NetStats& s = network_.stats();
    s.retransmissions++;
    s.of(network_.classify(frame.type)).retransmissions++;
    countSend(frame);
    // Deliberately not also a kSend instant: one event per wire action. The
    // correlation id ties the retransmission to the original send's flow.
    if (trace_)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kRetransmit,
                      engine_.now(), frame.type, frame.payload.size(),
                      frameCorr(frame, self_, dst));
  }

  void sendLocal(Frame frame, sim::Time earliest) {
    sim::Time at = std::max(earliest + kLocalDelivery, engine_.now());
    engine_.at(at, [this, f = std::move(frame)]() mutable {
      onFrame(self_, std::move(f), engine_.now(), /*via_wire=*/false);
    });
  }

  void onFrame(NodeId src, Frame frame, sim::Time arrive, bool via_wire) {
    if (trace_ && via_wire)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kDeliver, arrive,
                      static_cast<uint64_t>(frame.kind), frame.size(),
                      frameCorr(frame, src, self_));
    switch (frame.kind) {
      case FrameKind::kAck: {
        OwedFrames& owed = conns_[src].owed;
        if (owed.find(frame.seq)) owed.settle(frame.seq);
        return;
      }
      case FrameKind::kReply: {
        OwedFrames& owed = conns_[src].owed;
        OwedFrames::Slot* slot = owed.find(frame.seq);
        if (!slot) return;  // duplicate reply
        sim::Waiter<Delivery>* reply = slot->reply;
        const bool resent = slot->resent;
        owed.settle(frame.seq);
        if (via_wire && !resent && !network_.mayDuplicate())
          network_.releaseReply(self_, src, frame.seq);
        reply->fulfill(
            Delivery{src, frame.type, std::move(frame.payload), arrive});
        return;
      }
      case FrameKind::kData: {
        if (via_wire) sendAck(src, frame.seq);
        if (!conns_[src].seen.markSeen(frame.seq)) return;  // duplicate
        dispatch(src, std::move(frame), arrive, ReplyToken{});
        return;
      }
      case FrameKind::kRequest: {
        if (!conns_[src].seen.markSeen(frame.seq)) {
          // Duplicate request: resend the cached reply if we already
          // answered; otherwise the original is still being processed and
          // the requester's next timeout will retry.
          const Frame* cached = findReply(src, frame.seq);
          if (cached && via_wire) {
            VODSM_CHECK_MSG(cached->payload,
                            "request " << frame.seq << " from node " << src
                                       << " arrived again after its reply "
                                          "was released");
            countRetransmit(*cached, src);
            network_.send(self_, src, *cached, engine_.now());
          }
          return;
        }
        const ReplyToken token{src, frame.seq};
        dispatch(src, std::move(frame), arrive, token);
        return;
      }
    }
  }

  void dispatch(NodeId src, Frame&& frame, sim::Time arrive,
                const ReplyToken& token) {
    VODSM_CHECK_MSG(handler_, "no handler installed on endpoint");
    handler_(Delivery{src, frame.type, std::move(frame.payload), arrive},
             token);
  }

  void cacheReply(NodeId requester, Frame frame) {
    std::unique_ptr<ReplyCache>& cache = conns_[requester].replies;
    if (!cache) cache = std::make_unique<ReplyCache>();
    if (cache->frames.size() < ReplyCache::kMax) {
      cache->frames.push_back(std::move(frame));
      return;
    }
    cache->frames[cache->oldest] = std::move(frame);
    cache->oldest = (cache->oldest + 1) % ReplyCache::kMax;
  }

  Frame* findReply(NodeId requester, uint64_t seq) {
    ReplyCache* cache = conns_[requester].replies.get();
    if (!cache) return nullptr;
    for (Frame& f : cache->frames)
      if (f.seq == seq) return &f;
    return nullptr;
  }

  void sendAck(NodeId src, uint64_t seq) {
    network_.stats().acks++;
    // Acks are counted outside the message statistics, but they are traced:
    // graph analysis wants every deliver to have a matching send. Type 0 is
    // reserved (protocol message types start at 1).
    const Frame ack{FrameKind::kAck, 0, seq, nullptr};
    if (trace_)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kSend,
                      engine_.now(), 0, 0, frameCorr(ack, self_, src));
    network_.send(self_, src, ack, engine_.now());
  }

  sim::Engine& engine_;
  Network& network_;
  NodeId self_;
  Handler handler_;
  obs::TraceRecorder* trace_ = nullptr;
  std::vector<Conn> conns_;  // indexed by peer NodeId, self included
};

}  // namespace vodsm::net
