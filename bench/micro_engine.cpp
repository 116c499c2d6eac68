// Microbenchmark: event throughput of the discrete-event engine's hot path
// (heap push/pop, timer lines and callback-pool recycling).
//
// Each chain case runs twice: scheduling each step as a timer with
// `arm(dt, owner, arg)`, which goes through the engine's (lane, dt, owner)
// timer lines, and as a callback with `at(now() + dt)`, which keys the same
// events but keeps every one of them on the heap and in the pool.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "support/check.hpp"

namespace {

using namespace vodsm;

enum class Sched { kTimer, kAt };

// Runs step(arg) for every timer it arms, and for every `at` event.
struct Chains : sim::TimerOwner {
  Chains(sim::Engine& e, Sched how) : e(e), how(how) {}

  void schedule(sim::Time dt, uint64_t arg) {
    if (how == Sched::kTimer)
      e.arm(dt, *this, arg);
    else
      e.at(e.now() + dt, [this, arg] { step(arg); });
  }
  void onTimer(uint64_t arg) override { step(arg); }

  sim::Engine& e;
  Sched how;
  std::function<void(uint64_t)> step;
};

// One event chain: the heap (or the chain's timer line) holds a single
// pending event.
void BM_EngineSerialChain(benchmark::State& state, Sched how) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    Chains chains(e, how);
    uint64_t left = n;
    chains.step = [&](uint64_t) {
      if (--left > 0) chains.schedule(sim::usec(1), 0);
    };
    e.at(sim::usec(1), [&chains] { chains.step(0); });
    const uint64_t ran = e.run();
    VODSM_CHECK(ran == n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EngineSerialChain, timer, Sched::kTimer)
    ->Arg(1000)
    ->Arg(100000);
BENCHMARK_CAPTURE(BM_EngineSerialChain, at, Sched::kAt)
    ->Arg(1000)
    ->Arg(100000);

// Wide schedule: k independent chains interleaved in one serial engine, so
// k events are pending at all times. With `at` the heap holds all of them
// (sift depth ~log k); as timers they share one timer line.
void BM_EngineSerialWide(benchmark::State& state, Sched how) {
  const int k = static_cast<int>(state.range(0));
  constexpr uint64_t kPerChain = 1000;
  for (auto _ : state) {
    sim::Engine e;
    Chains chains(e, how);
    std::vector<uint64_t> left(static_cast<size_t>(k), kPerChain);
    chains.step = [&](uint64_t c) {
      if (--left[c] > 0) chains.schedule(sim::usec(1), c);
    };
    for (int c = 0; c < k; ++c)
      e.at(sim::usec(1 + c), [&chains, c] { chains.step(c); });
    benchmark::DoNotOptimize(e.run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(k) *
                          static_cast<int64_t>(kPerChain) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EngineSerialWide, timer, Sched::kTimer)
    ->Arg(16)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_EngineSerialWide, at, Sched::kAt)->Arg(16)->Arg(256);

// Counts the retransmission timers that fire.
struct DeadTimers : sim::TimerOwner {
  void onTimer(uint64_t) override { ++fired; }
  uint64_t fired = 0;
};

// The transport's pattern: k nodes, each on its own lane, run a chain of
// frame events (`at`, 50 us apart), and every step also arms a 1 s
// retransmission timer that is dead by the time it fires. All k * 1000
// timers are pending once the chains end, so on the heap they would dwarf
// the k live events.
void BM_EngineRetransmitTimers(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  constexpr uint64_t kPerChain = 1000;
  DeadTimers timers;
  for (auto _ : state) {
    sim::Engine e;
    e.configureLanes(k);
    std::vector<uint64_t> left(static_cast<size_t>(k), kPerChain);
    std::function<void(int)> step = [&](int c) {
      e.arm(sim::sec(1), timers, static_cast<uint64_t>(c));
      if (--left[static_cast<size_t>(c)] > 0)
        e.at(e.now() + sim::usec(50), [&step, c] { step(c); });
    };
    for (int c = 0; c < k; ++c) {
      sim::Engine::LaneGuard lane(e, static_cast<uint32_t>(c));
      e.at(sim::usec(1 + c), [&step, c] { step(c); });
    }
    benchmark::DoNotOptimize(e.run());
  }
  VODSM_CHECK(timers.fired == static_cast<uint64_t>(k) * kPerChain *
                                  static_cast<uint64_t>(state.iterations()));
  // Every step runs two events: the frame and, later, its dead timer.
  state.SetItemsProcessed(2 * static_cast<int64_t>(k) *
                          static_cast<int64_t>(kPerChain) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineRetransmitTimers)->Arg(16)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
