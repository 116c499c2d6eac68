// Unit tests for the network model and the reliable transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/faults.hpp"
#include "net/network.hpp"
#include "net/parallel.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "sim/task.hpp"

// Global operator new, replaced to count calls while `g_count_news` is set
// (Transport.LosslessPostMakesOneAllocation). The replacements stay out of
// line: inlined into a caller, GCC pairs the builtin `new` with the `free`
// below and warns about a mismatch.
namespace {
bool g_count_news = false;
size_t g_news = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_news) ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vodsm::net {
namespace {

// A data frame carrying `payload_bytes`; the network reads only its size.
Frame dataFrame(size_t payload_bytes) {
  return Frame{FrameKind::kData, 9, 0, share(Bytes(payload_bytes))};
}

TEST(NetConfig, WireMath) {
  NetConfig c;
  EXPECT_EQ(c.wireBytes(0), c.header_bytes);
  EXPECT_EQ(c.wireBytes(100), 100 + c.header_bytes);
  // Two fragments once past the MTU payload.
  EXPECT_EQ(c.wireBytes(c.mtu_payload + 1),
            c.mtu_payload + 1 + 2 * c.header_bytes);
  // 100 Mbps: 1250 bytes take 100 microseconds.
  NetConfig fast = c;
  fast.header_bytes = 0;
  EXPECT_NEAR(static_cast<double>(fast.txTime(1250)),
              static_cast<double>(sim::usec(100)), 1000.0);
}

TEST(Network, DeliversWithLatencyAndBandwidth) {
  sim::Engine e;
  NetConfig cfg;
  Network net(e, 2, cfg, 1);
  const Frame sent = dataFrame(1000);
  const size_t bytes = sent.size();
  sim::Time delivered_at = -1;
  net.setDeliver(1, [&](NodeId src, Frame frame, sim::Time t) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(frame.size(), bytes);
    delivered_at = t;
  });
  net.send(0, 1, sent, 0);
  e.run();
  // send overhead + uplink tx + latency + downlink tx + recv service.
  sim::Time expect = cfg.sendOverhead(bytes) + 2 * cfg.txTime(bytes) +
                     cfg.wire_latency + cfg.recvOverhead(bytes);
  EXPECT_EQ(delivered_at, expect);
  EXPECT_EQ(net.stats().frames_delivered, 1u);
}

TEST(Network, UplinkSerializesBackToBackSends) {
  sim::Engine e;
  NetConfig cfg;
  Network net(e, 3, cfg, 1);
  std::vector<sim::Time> arrivals;
  net.setDeliver(1, [&](NodeId, Frame, sim::Time t) { arrivals.push_back(t); });
  net.setDeliver(2, [&](NodeId, Frame, sim::Time t) { arrivals.push_back(t); });
  net.send(0, 1, dataFrame(10000), 0);
  net.send(0, 2, dataFrame(10000), 0);
  e.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // The second frame waits for the first to clear the shared uplink.
  EXPECT_GE(arrivals[1] - arrivals[0], cfg.txTime(10000));
}

TEST(Network, RxQueueOverflowDrops) {
  sim::Engine e;
  NetConfig cfg;
  cfg.rx_queue_frames = 2;
  cfg.recv_base = sim::msec(10);  // absurdly slow receiver
  Network net(e, 5, cfg, 1);
  int delivered = 0;
  net.setDeliver(0, [&](NodeId, Frame, sim::Time) { delivered++; });
  for (NodeId src = 1; src < 5; ++src) net.send(src, 0, dataFrame(10), 0);
  e.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().frames_dropped_overflow, 2u);
}

TEST(Network, RandomLossDropsProportionally) {
  sim::Engine e;
  NetConfig cfg;
  cfg.random_loss = 0.5;
  Network net(e, 2, cfg, 99);
  int delivered = 0;
  net.setDeliver(1, [&](NodeId, Frame, sim::Time) { delivered++; });
  for (int i = 0; i < 200; ++i)
    net.send(0, 1, dataFrame(10), sim::msec(i));
  e.run();
  EXPECT_GT(delivered, 50);
  EXPECT_LT(delivered, 150);
  EXPECT_EQ(net.stats().frames_dropped_random + net.stats().frames_delivered,
            200u);
}

TEST(SeqTracker, DetectsDuplicatesAcrossGaps) {
  SeqTracker t;
  EXPECT_TRUE(t.markSeen(0));
  EXPECT_TRUE(t.markSeen(2));
  EXPECT_FALSE(t.markSeen(0));
  EXPECT_FALSE(t.markSeen(2));
  EXPECT_TRUE(t.markSeen(1));
  EXPECT_FALSE(t.markSeen(1));
  EXPECT_TRUE(t.markSeen(3));
}

// In-order numbers only advance the watermark; numbers ahead of it are held
// until the gap below them fills, and then released.
TEST(SeqTracker, HoldsOnlyNumbersAheadOfTheWatermark) {
  SeqTracker t;
  for (uint64_t s = 0; s < 1000; ++s) ASSERT_TRUE(t.markSeen(s));
  EXPECT_EQ(t.outOfOrder(), 0u);
  EXPECT_FALSE(t.markSeen(999));
  EXPECT_TRUE(t.markSeen(1002));
  EXPECT_TRUE(t.markSeen(1001));
  EXPECT_EQ(t.outOfOrder(), 2u);
  EXPECT_FALSE(t.markSeen(1002));
  EXPECT_TRUE(t.markSeen(1000));
  EXPECT_EQ(t.outOfOrder(), 0u);
  EXPECT_FALSE(t.markSeen(1001));
  EXPECT_TRUE(t.markSeen(1003));
  EXPECT_TRUE(t.markSeen(1005));
  EXPECT_EQ(t.outOfOrder(), 1u);  // still held when the tracker dies
}

struct Pair {
  sim::Engine engine;
  NetConfig cfg;
  Network net;
  Endpoint a, b;
  obs::TraceRecorder trace;
  explicit Pair(NetConfig c = NetConfig{}, uint64_t seed = 1)
      : cfg(c), net(engine, 2, cfg, seed), a(engine, net, 0),
        b(engine, net, 1) {
    a.setTrace(&trace);
    b.setTrace(&trace);
  }

  // The trace instants of category `c` recorded on `node`.
  std::vector<obs::Event> events(obs::Cat c, NodeId node) const {
    std::vector<obs::Event> out;
    for (const obs::Event& e : trace.events())
      if (e.cat == c && e.node == node) out.push_back(e);
    return out;
  }
};

TEST(Transport, PostDeliversExactlyOnce) {
  Pair p;
  int count = 0;
  p.b.setHandler([&](Delivery&& d, const ReplyToken&) {
    EXPECT_EQ(d.type, 9);
    count++;
  });
  p.a.post(1, 9, share(Bytes(100)), 0);
  p.engine.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(p.net.stats().acks, 1u);
}

TEST(Transport, PostSurvivesHeavyLoss) {
  NetConfig cfg;
  cfg.random_loss = 0.4;
  cfg.rto = sim::msec(50);
  Pair p(cfg, 7);
  int count = 0;
  p.b.setHandler([&](Delivery&&, const ReplyToken&) { count++; });
  for (int i = 0; i < 50; ++i) p.a.post(1, 9, share(Bytes(20)), 0);
  p.engine.run();
  EXPECT_EQ(count, 50);  // exactly once despite losses and retransmissions
  EXPECT_GT(p.net.stats().retransmissions, 0u);
}

TEST(Transport, RequestReplySurvivesLoss) {
  NetConfig cfg;
  cfg.random_loss = 0.3;
  cfg.rto = sim::msec(50);
  Pair p(cfg, 11);
  int served = 0;
  p.b.setHandler([&](Delivery&& d, const ReplyToken& tok) {
    served++;
    p.b.reply(tok, static_cast<uint16_t>(d.type + 1), d.payload, d.arrive);
  });
  int completed = 0;
  for (int i = 0; i < 30; ++i) {
    sim::spawn([](Endpoint& ep, int& done) -> sim::Task<void> {
      auto r = co_await ep.request(1, 5, share(Bytes(64)), 0);
      EXPECT_EQ(r.type, 6);
      EXPECT_EQ(r.payload.size(), 64u);
      done++;
    }(p.a, completed));
  }
  p.engine.run();
  EXPECT_EQ(completed, 30);
  EXPECT_EQ(served, 30);  // reply cache answers duplicate requests
}

// Node 1 answers every request with a 64-byte reply.
void serveEcho(Endpoint& server, int& served) {
  server.setHandler([&server, &served](Delivery&& d, const ReplyToken& tok) {
    served++;
    server.reply(tok, static_cast<uint16_t>(d.type + 1), share(Bytes(64)),
                 d.arrive);
  });
}

// Issues `n` requests from `client` to node 1, one after another.
void requestInSequence(Endpoint& client, int n, int& completed) {
  sim::spawn([](Endpoint& ep, int count, int& done) -> sim::Task<void> {
    for (int i = 0; i < count; ++i) {
      auto r = co_await ep.request(1, 5, share(Bytes(16)), 0);
      EXPECT_EQ(r.type, 6);
      EXPECT_EQ(r.payload.size(), 64u);
      done++;
    }
  }(client, n, completed));
}

// A request sent once, with no fault rule that duplicates frames, cannot
// reach the server again, so its reply's bytes are released on arrival.
TEST(Transport, LosslessRepliesAreReleased) {
  Pair p;
  int served = 0, completed = 0;
  serveEcho(p.b, served);
  requestInSequence(p.a, 20, completed);
  p.engine.run();
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(served, 20);
  EXPECT_EQ(p.b.cachedReplyBytes(), 0u);
  EXPECT_EQ(p.net.stats().retransmissions, 0u);
}

// The first reply is dropped: the client retransmits its request and the
// server resends the cached reply without serving the request again. That
// reply keeps its bytes (its request went out twice); the next is released.
TEST(Transport, DroppedReplyIsResentFromTheCache) {
  Pair p;
  FaultInjector faults(parseFaultPlan("burst:from=1,to=0,count=1"), 1, 2);
  p.net.setFaults(&faults);
  int served = 0, completed = 0;
  serveEcho(p.b, served);
  requestInSequence(p.a, 2, completed);
  p.engine.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(served, 2);
  EXPECT_EQ(faults.droppedBy(0), 1u);
  EXPECT_EQ(p.events(obs::Cat::kRetransmit, 0).size(), 1u);  // the request
  EXPECT_EQ(p.events(obs::Cat::kRetransmit, 1).size(), 1u);  // cached reply
  EXPECT_EQ(p.net.stats().retransmissions, 2u);
  EXPECT_EQ(p.b.cachedReplyBytes(), 64u + 15u);  // one frame, header included
}

// Under a dup rule a request can arrive twice however often it was sent:
// the copy is answered from the cache, and no reply is released.
TEST(Transport, DuplicatedRequestIsAnsweredFromTheCache) {
  Pair p;
  FaultInjector faults(parseFaultPlan("dup:from=0,to=1"), 1, 2);
  p.net.setFaults(&faults);
  ASSERT_TRUE(p.net.mayDuplicate());
  int served = 0, completed = 0;
  serveEcho(p.b, served);
  requestInSequence(p.a, 3, completed);
  p.engine.run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(served, 3);
  EXPECT_EQ(p.net.stats().frames_duplicated, 3u);
  EXPECT_EQ(p.events(obs::Cat::kRetransmit, 0).size(), 0u);
  EXPECT_EQ(p.events(obs::Cat::kRetransmit, 1).size(), 3u);
  EXPECT_EQ(p.b.cachedReplyBytes(), 3 * (64u + 15u));
}

// A copy of a request whose reply was released breaks the rule above; the
// server refuses it rather than answer with an empty frame.
TEST(Transport, RequestAfterItsReplyWasReleasedFailsACheck) {
  Pair p;
  int served = 0, completed = 0;
  serveEcho(p.b, served);
  requestInSequence(p.a, 1, completed);
  p.engine.run();
  ASSERT_EQ(completed, 1);
  ASSERT_EQ(p.b.cachedReplyBytes(), 0u);
  // The request frame again: node 0's first sequence number to node 1.
  p.net.send(0, 1, Frame{FrameKind::kRequest, 5, 0, share(Bytes(16))},
             p.engine.now());
  EXPECT_THROW(p.engine.run(), Error);
  EXPECT_EQ(served, 1);
}

// One buffer per message: a handler gets the buffer its sender encoded,
// not a copy, on the first delivery and after a resend alike.
TEST(Transport, PostDeliversTheSendersBuffer) {
  for (bool drop_first : {false, true}) {
    Pair p;
    FaultInjector faults(parseFaultPlan("burst:from=0,to=1,count=1"), 1, 2);
    if (drop_first) p.net.setFaults(&faults);
    const Payload sent = share(Bytes(100));
    const std::byte* got = nullptr;
    p.b.setHandler(
        [&](Delivery&& d, const ReplyToken&) { got = d.payload.data(); });
    p.a.post(1, 9, sent, 0);
    p.engine.run();
    EXPECT_EQ(p.events(obs::Cat::kRetransmit, 0).size(), drop_first ? 1u : 0u);
    EXPECT_EQ(got, sent.data()) << "drop_first=" << drop_first;
  }
}

// A reply lost on its way is resent from the responder's cache, and the
// requester still gets the buffer the responder encoded.
TEST(Transport, ReplyResentFromTheCacheIsTheRespondersBuffer) {
  Pair p;
  FaultInjector faults(parseFaultPlan("burst:from=1,to=0,count=1"), 1, 2);
  p.net.setFaults(&faults);
  const Payload answer = share(Bytes(64));
  p.b.setHandler([&](Delivery&& d, const ReplyToken& tok) {
    p.b.reply(tok, 6, answer, d.arrive);
  });
  const std::byte* got = nullptr;
  sim::spawn([](Endpoint& ep, const std::byte*& out) -> sim::Task<void> {
    Delivery r = co_await ep.request(1, 5, share(Bytes(16)), 0);
    out = r.payload.data();
  }(p.a, got));
  p.engine.run();
  EXPECT_EQ(p.events(obs::Cat::kRetransmit, 1).size(), 1u);
  EXPECT_EQ(got, answer.data());
}

// Every frame is charged the datagram it stands for: a 15-byte header (kind,
// sequence number, type, payload length) plus the payload, or 9 bytes (kind
// and sequence number) for an ack. Both the wire and the kDeliver instant
// see that size.
TEST(Transport, FramesAreChargedTheirEncodedSize) {
  Pair p;
  p.b.setHandler([&](Delivery&& d, const ReplyToken& tok) {
    if (d.type == 5) p.b.reply(tok, 6, share(Bytes(64)), d.arrive);
  });
  p.a.post(1, 9, share(Bytes(100)), 0);
  p.engine.run();
  const uint64_t posted = p.net.stats().wire_bytes;
  EXPECT_EQ(posted, p.cfg.wireBytes(15 + 100) + p.cfg.wireBytes(9));
  sim::spawn([](Endpoint& ep) -> sim::Task<void> {
    (void)co_await ep.request(1, 5, share(Bytes(16)), 0);
  }(p.a));
  p.engine.run();
  EXPECT_EQ(p.net.stats().wire_bytes - posted,
            p.cfg.wireBytes(15 + 16) + p.cfg.wireBytes(15 + 64));
  using KindBytes = std::vector<std::pair<FrameKind, uint64_t>>;
  auto delivered = [&p](NodeId node) {
    KindBytes out;
    for (const obs::Event& e : p.events(obs::Cat::kDeliver, node))
      out.emplace_back(static_cast<FrameKind>(e.a0), e.a1);
    return out;
  };
  EXPECT_EQ(delivered(1),
            (KindBytes{{FrameKind::kData, 115}, {FrameKind::kRequest, 31}}));
  EXPECT_EQ(delivered(0),
            (KindBytes{{FrameKind::kAck, 9}, {FrameKind::kReply, 79}}));
}

TEST(Transport, SelfSendStaysLocal) {
  Pair p;
  int count = 0;
  p.a.setHandler([&](Delivery&& d, const ReplyToken&) {
    EXPECT_EQ(d.src, 0u);
    count++;
  });
  p.a.post(0, 3, share(Bytes(10)), 0);
  p.engine.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(p.net.stats().messages, 0u);  // never hit the wire
  EXPECT_EQ(p.net.stats().frames_sent, 0u);
}

TEST(Transport, PostToUnknownNodeIsRejected) {
  Pair p;
  EXPECT_THROW(p.a.post(2, 9, share(Bytes(10)), 0), Error);
  EXPECT_EQ(p.net.stats().messages, 0u);
}

TEST(Transport, RequestAllOverlapsRoundTrips) {
  sim::Engine e;
  NetConfig cfg;
  Network net(e, 4, cfg, 1);
  Endpoint a(e, net, 0), b(e, net, 1), c(e, net, 2), d(e, net, 3);
  auto serve = [](Endpoint& ep) {
    ep.setHandler([&ep](Delivery&& del, const ReplyToken& tok) {
      ep.reply(tok, 1, share(Bytes(2000)), del.arrive + sim::usec(10));
    });
  };
  serve(b);
  serve(c);
  serve(d);
  sim::Time finished = 0;
  sim::spawn([](Endpoint& ep, sim::Engine& eng,
                sim::Time& done) -> sim::Task<void> {
    std::vector<RpcCall> calls;
    for (NodeId n = 1; n <= 3; ++n)
      calls.push_back(RpcCall{n, 0, share(Bytes(50))});
    auto results = co_await requestAll(ep, std::move(calls), 0);
    EXPECT_EQ(results.size(), 3u);
    for (auto& r : results) EXPECT_EQ(r.payload.size(), 2000u);
    done = eng.now();
  }(a, e, finished));
  e.run();
  // Three overlapped ~600us round trips must finish well under 3x serial.
  sim::Time one_rtt = cfg.sendOverhead(50) + 2 * cfg.txTime(50) +
                      cfg.wire_latency + cfg.recvOverhead(50) + sim::usec(10) +
                      cfg.sendOverhead(2000) + 2 * cfg.txTime(2000) +
                      cfg.wire_latency + cfg.recvOverhead(2000);
  EXPECT_LT(finished, 2 * one_rtt);
}

// Node 0 alternates posts between nodes 1 and 2. Each connection numbers
// its own frames, so each receiver sees consecutive numbers and holds no
// dedup state; one sequence space per sender would leave every other
// number missing at each receiver, and each would hold ~500 entries.
TEST(Transport, InterleavedPostsKeepNoDedupState) {
  sim::Engine e;
  Network net(e, 3, NetConfig{}, 1);
  Endpoint n0(e, net, 0), n1(e, net, 1), n2(e, net, 2);
  constexpr uint32_t kPosts = 1000;
  std::vector<int> got(kPosts, 0);
  auto receive = [&got](NodeId self) {
    return [&got, self](Delivery&& d, const ReplyToken&) {
      const uint32_t i = Reader(d.payload.bytes()).u32();
      EXPECT_EQ(1 + i % 2, self);
      got[i]++;
    };
  };
  n1.setHandler(receive(1));
  n2.setHandler(receive(2));
  for (uint32_t i = 0; i < kPosts; ++i) {
    Writer w;
    w.u32(i);
    n0.post(1 + i % 2, 9, share(w.take()), sim::usec(50) * i);
  }
  e.run();
  for (uint32_t i = 0; i < kPosts; ++i) EXPECT_EQ(got[i], 1) << "post " << i;
  EXPECT_EQ(n1.seenFrom(0).outOfOrder(), 0u);
  EXPECT_EQ(n2.seenFrom(0).outOfOrder(), 0u);
  EXPECT_EQ(net.stats().retransmissions, 0u);
}

// Acks that arrive out of order settle their own frames: the ring keeps
// the frames still owed, holes and all. Node 1's acks are dropped, and
// resent by hand in a scrambled order well inside one RTO.
TEST(Transport, AcksSettleOutOfOrder) {
  Pair p;
  FaultInjector faults(parseFaultPlan("burst:from=1,to=0,count=5"), 1, 2);
  p.net.setFaults(&faults);
  int got = 0;
  p.b.setHandler([&](Delivery&&, const ReplyToken&) { got++; });
  for (int i = 0; i < 5; ++i) p.a.post(1, 9, share(Bytes(10)), 0);
  std::vector<size_t> owed;
  const uint64_t order[] = {3, 1, 4, 0, 2};
  for (int k = 0; k < 5; ++k) {
    const sim::Time t = sim::msec(10 * (k + 1));
    p.engine.at(t, [&p, seq = order[k]] {
      p.net.send(1, 0, Frame{FrameKind::kAck, 0, seq, nullptr},
                 p.engine.now());
    });
    p.engine.at(t + sim::msec(5), [&] { owed.push_back(p.a.owedTo(1)); });
  }
  p.engine.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(faults.droppedBy(0), 5u);
  EXPECT_EQ(owed, (std::vector<size_t>{4, 3, 2, 1, 0}));
  EXPECT_EQ(p.net.stats().retransmissions, 0u);
}

// A lost ack: the sender resends after one RTO, the receiver drops the
// duplicate but acks it, and that ack settles the frame.
TEST(Transport, LostAckIsSettledByTheDuplicatesAck) {
  Pair p;
  FaultInjector faults(parseFaultPlan("burst:from=1,to=0,count=1"), 1, 2);
  p.net.setFaults(&faults);
  int got = 0;
  p.b.setHandler([&](Delivery&&, const ReplyToken&) { got++; });
  p.a.post(1, 9, share(Bytes(10)), 0);
  p.engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(p.net.stats().retransmissions, 1u);
  EXPECT_EQ(p.net.stats().acks, 2u);
  EXPECT_EQ(p.events(obs::Cat::kRetransmit, 0).size(), 1u);
  EXPECT_EQ(p.a.owedTo(1), 0u);
  // The resend's timer still ran, dead, one RTO after the resend.
  EXPECT_EQ(p.engine.now(), 2 * p.cfg.rto);
}

// Posts and requests share one connection's sequence numbers. Node 1 acks
// posts at once and answers requests 5 ms later, so the posts settle
// between requests that are still owed.
TEST(Transport, PostsAndRequestsInterleaveOnOneConnection) {
  Pair p;
  int posts = 0;
  p.b.setHandler([&](Delivery&& d, const ReplyToken& tok) {
    if (d.type == 5)
      p.b.reply(tok, 6, share(Bytes(8)), d.arrive + sim::msec(5));
    else
      posts++;
  });
  int replies = 0;
  for (int i = 0; i < 6; ++i) {
    p.a.post(1, 9, share(Bytes(10)), 0);
    sim::spawn([](Endpoint& ep, int& done) -> sim::Task<void> {
      Delivery r = co_await ep.request(1, 5, share(Bytes(10)), 0);
      EXPECT_EQ(r.type, 6);
      done++;
    }(p.a, replies));
  }
  EXPECT_EQ(p.a.owedTo(1), 12u);
  size_t owed_mid = 0;
  p.engine.at(sim::msec(3), [&] { owed_mid = p.a.owedTo(1); });
  p.engine.run();
  EXPECT_EQ(owed_mid, 6u);  // every other number: the requests
  EXPECT_EQ(posts, 6);
  EXPECT_EQ(replies, 6);
  EXPECT_EQ(p.a.owedTo(1), 0u);
  EXPECT_EQ(p.net.stats().retransmissions, 0u);
}

// A partition holds every frame sent across it owed for one RTO, far more
// than the ring's first capacity; it grows, and every frame is resent and
// delivered once after the partition heals.
TEST(Transport, PartitionGrowsTheRing) {
  Pair p;
  FaultInjector faults(parseFaultPlan("partition:nodes=1,t0=0,t1=0.5"), 1, 2);
  p.net.setFaults(&faults);
  std::vector<int> got(100, 0);
  p.b.setHandler([&](Delivery&& d, const ReplyToken&) {
    got[Reader(d.payload.bytes()).u32()]++;
  });
  for (uint32_t i = 0; i < 100; ++i) {
    Writer w;
    w.u32(i);
    p.a.post(1, 9, share(w.take()), sim::usec(100) * i);
  }
  size_t owed_mid = 0;
  p.engine.at(sim::msec(500), [&] { owed_mid = p.a.owedTo(1); });
  p.engine.run();
  EXPECT_EQ(owed_mid, 100u);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(got[i], 1) << "post " << i;
  EXPECT_EQ(p.net.stats().retransmissions, 100u);
  EXPECT_EQ(p.a.owedTo(1), 0u);
}

// A request's timer outlives its reply and fires dead: nothing is resent,
// but the timer is still an event, and the run ends at it.
TEST(Transport, RpcTimerAfterItsReplyIsDead) {
  Pair p;
  int served = 0, completed = 0;
  serveEcho(p.b, served);
  requestInSequence(p.a, 1, completed);
  p.engine.run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(p.net.stats().retransmissions, 0u);
  EXPECT_EQ(p.a.owedTo(1), 0u);
  EXPECT_EQ(p.engine.now(), p.cfg.rto);
}

// A payload of `n` bytes, built in its block: one allocation.
Payload filled(size_t n) {
  return Payload::make(n, [](MutByteSpan out) {
    std::fill(out.begin(), out.end(), std::byte{7});
  });
}

// Once the engine's pool and heap, the timer line and the ring have grown
// to the load, a lossless post makes exactly one heap allocation: its
// payload block. The frame, its hops, the kept copy for a resend, the
// timer, the ack and the delivery allocate nothing.
TEST(Transport, LosslessPostMakesOneAllocation) {
  Pair p;
  p.a.setTrace(nullptr);
  p.b.setTrace(nullptr);
  int got = 0;
  p.b.setHandler([&got](Delivery&&, const ReplyToken&) { got++; });
  constexpr int kMessages = 200;
  auto postAll = [&p] {
    for (int i = 0; i < kMessages; ++i)
      p.a.post(1, 9, filled(32), p.engine.now());
    p.engine.run();
  };
  postAll();  // warm up
  g_news = 0;
  g_count_news = true;
  postAll();
  g_count_news = false;
  EXPECT_EQ(got, 2 * kMessages);
  EXPECT_EQ(g_news, static_cast<size_t>(kMessages));
  EXPECT_EQ(p.net.stats().retransmissions, 0u);
}

TEST(Transport, StatsCountPayloadBytes) {
  Pair p;
  p.b.setHandler([](Delivery&&, const ReplyToken&) {});
  p.a.post(1, 9, share(Bytes(500)), 0);
  p.engine.run();
  EXPECT_EQ(p.net.stats().messages, 1u);
  EXPECT_EQ(p.net.stats().payload_bytes, 500u);
}

}  // namespace
}  // namespace vodsm::net
