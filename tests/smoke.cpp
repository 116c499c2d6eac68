// Early smoke test: exercises the sim engine, coroutine tasks, transport,
// and diff machinery together.
#include <gtest/gtest.h>

#include "mem/diff.hpp"
#include "mem/page_store.hpp"
#include "net/transport.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace vodsm {
namespace {

TEST(Smoke, EngineOrdersEvents) {
  sim::Engine e;
  std::vector<int> order;
  e.at(20, [&] { order.push_back(2); });
  e.at(10, [&] { order.push_back(1); });
  e.at(20, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 20);
}

TEST(Smoke, DiffRoundTrip) {
  Bytes twin(mem::kPageSize, std::byte{0});
  Bytes cur = twin;
  cur[100] = std::byte{7};
  cur[101] = std::byte{8};
  cur[4000] = std::byte{9};
  mem::Diff d = mem::Diff::create(3, cur, twin);
  EXPECT_FALSE(d.empty());
  Bytes out = twin;
  d.apply(out);
  EXPECT_EQ(out, cur);
}

TEST(Smoke, TransportRequestReply) {
  sim::Engine e;
  net::Network net(e, 2, net::NetConfig{}, /*seed=*/1);
  net::Endpoint a(e, net, 0);
  net::Endpoint b(e, net, 1);
  b.setHandler([&](net::Delivery&& d, const net::ReplyToken& tok) {
    EXPECT_EQ(d.type, 42);
    Writer w;
    w.u32(7);
    b.reply(tok, 43, net::share(w.take()), d.arrive + sim::usec(5));
  });
  bool done = false;
  sim::spawn(
      [](net::Endpoint& ep, bool& done_flag) -> sim::Task<void> {
        auto r = co_await ep.request(1, 42, net::share(Bytes{}), 0);
        EXPECT_EQ(r.type, 43);
        Reader rd(r.payload.bytes());
        EXPECT_EQ(rd.u32(), 7u);
        done_flag = true;
      }(a, done));
  e.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace vodsm
