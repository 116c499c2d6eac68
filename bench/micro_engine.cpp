// Microbenchmark: event throughput of the discrete-event engine's hot path
// (heap push/pop, delay lines and callback-pool recycling).
//
// Each chain case runs twice: scheduling with `after(dt)`, which goes
// through the engine's (lane, dt) delay lines, and with `at(now() + dt)`,
// which keys the same events but keeps every one of them on the heap.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "support/check.hpp"

namespace {

using namespace vodsm;

enum class Sched { kAfter, kAt };

void schedule(sim::Engine& e, Sched how, sim::Time dt, sim::Callback cb) {
  if (how == Sched::kAfter)
    e.after(dt, std::move(cb));
  else
    e.at(e.now() + dt, std::move(cb));
}

// One event chain: the heap (or the chain's delay line) holds a single
// pending event.
void BM_EngineSerialChain(benchmark::State& state, Sched how) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    uint64_t left = n;
    std::function<void()> step = [&] {
      if (--left > 0) schedule(e, how, sim::usec(1), [&step] { step(); });
    };
    e.at(sim::usec(1), [&step] { step(); });
    const uint64_t ran = e.run();
    VODSM_CHECK(ran == n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EngineSerialChain, after, Sched::kAfter)
    ->Arg(1000)
    ->Arg(100000);
BENCHMARK_CAPTURE(BM_EngineSerialChain, at, Sched::kAt)
    ->Arg(1000)
    ->Arg(100000);

// Wide schedule: k independent chains interleaved in one serial engine, so
// k events are pending at all times. With `at` the heap holds all of them
// (sift depth ~log k); with `after` they share one delay line.
void BM_EngineSerialWide(benchmark::State& state, Sched how) {
  const int k = static_cast<int>(state.range(0));
  constexpr uint64_t kPerChain = 1000;
  for (auto _ : state) {
    sim::Engine e;
    std::vector<uint64_t> left(static_cast<size_t>(k), kPerChain);
    std::function<void(int)> step = [&](int c) {
      if (--left[static_cast<size_t>(c)] > 0)
        schedule(e, how, sim::usec(1), [&step, c] { step(c); });
    };
    for (int c = 0; c < k; ++c)
      e.at(sim::usec(1 + c), [&step, c] { step(c); });
    benchmark::DoNotOptimize(e.run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(k) *
                          static_cast<int64_t>(kPerChain) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EngineSerialWide, after, Sched::kAfter)
    ->Arg(16)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_EngineSerialWide, at, Sched::kAt)->Arg(16)->Arg(256);

// The transport's pattern: k nodes, each on its own lane, run a chain of
// frame events (`at`, 50 us apart), and every step also arms a 1 s
// retransmission timer with `after` that is dead by the time it fires.
// All k * 1000 timers are pending once the chains end, so on the heap they
// would dwarf the k live events.
void BM_EngineRetransmitTimers(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  constexpr uint64_t kPerChain = 1000;
  uint64_t fired = 0;
  for (auto _ : state) {
    sim::Engine e;
    e.configureLanes(k);
    std::vector<uint64_t> left(static_cast<size_t>(k), kPerChain);
    std::function<void(int)> step = [&](int c) {
      e.after(sim::sec(1), [&fired] { ++fired; });
      if (--left[static_cast<size_t>(c)] > 0)
        e.at(e.now() + sim::usec(50), [&step, c] { step(c); });
    };
    for (int c = 0; c < k; ++c) {
      sim::Engine::LaneGuard lane(e, static_cast<uint32_t>(c));
      e.at(sim::usec(1 + c), [&step, c] { step(c); });
    }
    benchmark::DoNotOptimize(e.run());
  }
  VODSM_CHECK(fired == static_cast<uint64_t>(k) * kPerChain *
                           static_cast<uint64_t>(state.iterations()));
  // Every step runs two events: the frame and, later, its dead timer.
  state.SetItemsProcessed(2 * static_cast<int64_t>(k) *
                          static_cast<int64_t>(kPerChain) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineRetransmitTimers)->Arg(16)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
