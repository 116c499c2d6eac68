// Microbenchmark: the simulated network's behaviour — one-way message
// latency and RPC round-trip time versus payload size, and throughput under
// fan-in. The *simulated* times are the interesting output (reported as
// counters); host time measures simulator overhead per message.
#include <benchmark/benchmark.h>

#include "net/network.hpp"
#include "net/transport.hpp"
#include "sim/task.hpp"

namespace {

using namespace vodsm;

void BM_OneWayLatency(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  sim::Time last_latency = 0;
  for (auto _ : state) {
    sim::Engine e;
    net::NetConfig cfg;
    net::Network net(e, 2, cfg, 1);
    net::Endpoint a(e, net, 0), b(e, net, 1);
    sim::Time delivered = 0;
    b.setHandler([&](net::Delivery&& d, const net::ReplyToken&) {
      delivered = d.arrive;
    });
    a.post(1, 1, net::share(Bytes(size)), 0);
    e.run();
    last_latency = delivered;
    benchmark::DoNotOptimize(delivered);
  }
  state.counters["simulated_us"] = sim::toMicros(last_latency);
}
BENCHMARK(BM_OneWayLatency)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_RpcRoundTrip(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  sim::Time rtt = 0;
  for (auto _ : state) {
    sim::Engine e;
    net::NetConfig cfg;
    net::Network net(e, 2, cfg, 1);
    net::Endpoint a(e, net, 0), b(e, net, 1);
    b.setHandler([&](net::Delivery&& d, const net::ReplyToken& tok) {
      b.reply(tok, 2, net::share(Bytes(size)), d.arrive);
    });
    sim::spawn([](net::Endpoint& ep, sim::Time& out) -> sim::Task<void> {
      auto r = co_await ep.request(1, 1, net::share(Bytes(64)), 0);
      out = r.arrive;
    }(a, rtt));
    e.run();
    benchmark::DoNotOptimize(rtt);
  }
  state.counters["simulated_rtt_us"] = sim::toMicros(rtt);
}
BENCHMARK(BM_RpcRoundTrip)->Arg(64)->Arg(4096)->Arg(65536);

// N senders blast one receiver: measures fan-in serialization and (with
// small queues) drop behaviour.
void BM_FanIn(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  uint64_t rexmit = 0;
  sim::Time finish = 0;
  for (auto _ : state) {
    sim::Engine e;
    net::NetConfig cfg;
    cfg.rx_queue_frames = 32;
    net::Network net(e, static_cast<int>(senders) + 1, cfg, 1);
    std::vector<std::unique_ptr<net::Endpoint>> eps;
    for (int i = 0; i <= senders; ++i)
      eps.push_back(std::make_unique<net::Endpoint>(
          e, net, static_cast<net::NodeId>(i)));
    int received = 0;
    eps[0]->setHandler([&](net::Delivery&& d, const net::ReplyToken&) {
      received++;
      finish = d.arrive;
    });
    for (int i = 1; i <= senders; ++i)
      for (int m = 0; m < 4; ++m)
        eps[static_cast<size_t>(i)]->post(0, 1, net::share(Bytes(1024)), 0);
    e.run();
    rexmit = net.stats().retransmissions;
    benchmark::DoNotOptimize(received);
  }
  state.counters["simulated_us"] = sim::toMicros(finish);
  state.counters["rexmit"] = static_cast<double>(rexmit);
}
BENCHMARK(BM_FanIn)->Arg(4)->Arg(16)->Arg(31);

}  // namespace

BENCHMARK_MAIN();
