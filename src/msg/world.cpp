#include "msg/world.hpp"

#include "dsm/msgs.hpp"  // for the kMsgData wire type id

namespace vodsm::msg {

namespace {

// Software cost to pack or unpack one KB of message payload.
constexpr sim::Time kPackPerKb = sim::usec(8);

sim::Time packCost(size_t bytes) {
  return kPackPerKb * static_cast<sim::Time>(bytes / 1024 + 1);
}

harness::RunConfig unobserved(harness::RunConfig cfg) {
  cfg.trace = nullptr;
  cfg.metrics = nullptr;
  cfg.diagnose = false;
  return cfg;
}

}  // namespace

Rank::Rank(World& world, int id) : world_(world), id_(id) {
  endpoint_ = std::make_unique<net::Endpoint>(
      world_.engine(), world_.network(), static_cast<net::NodeId>(id));
  endpoint_->setHandler([this](net::Delivery&& d, const net::ReplyToken&) {
    onDelivery(std::move(d));
  });
}

int Rank::size() const { return world_.nprocs(); }

void Rank::send(int dst, uint32_t tag, ByteSpan payload) {
  clock_.charge(packCost(payload.size()));
  // The tag and the body go straight into the one payload block.
  net::Payload message =
      net::Payload::make(payload.size() + 8, [&](MutByteSpan out) {
        Writer w(out);
        w.u32(tag);
        w.blob(payload);
      });
  endpoint_->post(static_cast<net::NodeId>(dst), dsm::kMsgData,
                  std::move(message), clock_.now());
}

void Rank::onDelivery(net::Delivery&& d) {
  VODSM_CHECK(d.type == dsm::kMsgData);
  Reader r(d.payload.bytes());
  const uint32_t tag = r.u32();
  const size_t body = d.payload.size() - r.blob().size();
  Mailbox& box = mail_[{static_cast<int>(d.src), tag}];
  Parcel parcel{std::move(d.payload), body};
  if (box.waiter) {
    auto waiter = std::move(box.waiter);
    clock_.atLeast(d.arrive);
    waiter->fulfill(std::move(parcel));
  } else {
    box.messages.push_back(std::move(parcel));
  }
}

sim::Task<Bytes> Rank::recv(int src, uint32_t tag) {
  Mailbox& box = mail_[{src, tag}];
  Parcel parcel;
  if (!box.messages.empty()) {
    parcel = std::move(box.messages.front());
    box.messages.pop_front();
  } else {
    VODSM_CHECK_MSG(!box.waiter, "two concurrent recv() on one (src, tag)");
    box.waiter = std::make_unique<sim::Waiter<Parcel>>();
    parcel = co_await *box.waiter;
    box.waiter.reset();
  }
  const ByteSpan body = parcel.payload.bytes().subspan(parcel.body);
  clock_.charge(packCost(body.size()));
  co_return Bytes(body.begin(), body.end());
}

namespace {
constexpr uint32_t kBarrierTag = 0xffff0001;
constexpr uint32_t kBcastTag = 0xffff0002;
constexpr uint32_t kReduceTag = 0xffff0003;

Bytes packInt64(const std::vector<int64_t>& v) {
  Writer w(v.size() * 8);
  for (int64_t x : v) w.i64(x);
  return w.take();
}
void unpackInt64(ByteSpan b, std::vector<int64_t>& out) {
  Reader r(b);
  for (auto& x : out) x = r.i64();
}
}  // namespace

sim::Task<void> Rank::barrier() {
  if (id_ == 0) {
    for (int i = 1; i < size(); ++i) (void)co_await recv(i, kBarrierTag);
    for (int i = 1; i < size(); ++i) send(i, kBarrierTag, Bytes{});
  } else {
    send(0, kBarrierTag, Bytes{});
    (void)co_await recv(0, kBarrierTag);
  }
}

sim::Task<void> Rank::bcast(int root, Bytes& buf) {
  if (id_ == root) {
    for (int i = 0; i < size(); ++i)
      if (i != root) send(i, kBcastTag, buf);
  } else {
    buf = co_await recv(root, kBcastTag);
  }
}

sim::Task<void> Rank::reduce(int root, std::vector<int64_t>& inout) {
  if (id_ == root) {
    std::vector<int64_t> incoming(inout.size());
    for (int i = 0; i < size(); ++i) {
      if (i == root) continue;
      Bytes b = co_await recv(i, kReduceTag);
      unpackInt64(b, incoming);
      for (size_t k = 0; k < inout.size(); ++k) inout[k] += incoming[k];
      chargeOps(inout.size(), 5);
    }
  } else {
    send(root, kReduceTag, packInt64(inout));
  }
}

sim::Task<void> Rank::allreduce(std::vector<int64_t>& inout) {
  co_await reduce(0, inout);
  Bytes buf = id_ == 0 ? packInt64(inout) : Bytes{};
  co_await bcast(0, buf);
  if (id_ != 0) unpackInt64(buf, inout);
}

World::World(harness::RunConfig cfg) : machine_(unobserved(std::move(cfg))) {}

void World::run(const Program& program) {
  VODSM_CHECK_MSG(ranks_.empty(), "World::run called twice");
  ranks_.reserve(static_cast<size_t>(nprocs()));
  for (int i = 0; i < nprocs(); ++i)
    ranks_.push_back(std::make_unique<Rank>(*this, i));
  machine_.run(scope_, [&](size_t i) { return program(*ranks_[i]); },
               [&](size_t i) -> sim::Clock& { return ranks_[i]->clock_; });
}

}  // namespace vodsm::msg
