// Microbenchmark / ablation: barrier cost versus processor count for
// consistency-carrying barriers (LRC_d, with per-node dirty pages to merge
// and rebroadcast) versus pure-synchronization barriers (VC). This isolates
// the paper's central structural claim: "barriers in VOPP simply
// synchronize the processors without any consistency maintenance".
//
// BM_BarrierAlg then sweeps the barrier algorithm itself — centralized
// manager vs radix-4 combining tree vs butterfly (dissemination) — at
// p up to 256, reporting the simulated barrier time and the frame count on
// the manager's downlink (node 0), the centralized algorithm's incast
// bottleneck that the scalable algorithms exist to remove.
#include <benchmark/benchmark.h>

#include "obs/trace.hpp"
#include "vopp/cluster.hpp"

namespace {

using namespace vodsm;

struct BarrierRun {
  double barrier_micros = 0;
  // Frames delivered to node 0, the centralized manager's home: every
  // arrival and every ack funnels through here under kCentral, only the
  // node's own tree/butterfly neighbors otherwise.
  uint64_t manager_frames = 0;
};

BarrierRun barrierRun(dsm::Protocol proto, dsm::BarrierAlg alg, int procs,
                      bool dirty_pages, int rounds = 20) {
  obs::TraceRecorder trace;  // its kDeliver instants count node 0's frames
  vopp::Cluster cluster(
      {.nprocs = procs, .protocol = proto, .barrier = alg, .trace = &trace});
  // One view/region per node so every node dirties private pages between
  // barriers (the consistency payload for LRC).
  std::vector<dsm::ViewId> views;
  for (int i = 0; i < procs; ++i) views.push_back(cluster.defineView(4 * 4096));
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int round = 0; round < rounds; ++round) {
      if (dirty_pages) {
        dsm::ViewId v = views[static_cast<size_t>(node.id())];
        size_t off = node.cluster().viewOffset(v);
        co_await node.acquireView(v);
        co_await node.touchWrite(off, 4 * 4096);
        auto span = node.mem(off, 4 * 4096);
        std::fill(span.begin(), span.end(), static_cast<std::byte>(round));
        co_await node.releaseView(v);
      }
      co_await node.barrier();
    }
  });
  BarrierRun r{cluster.dsmStats().avgBarrierMicros()};
  for (const obs::Event& e : trace.events())
    if (e.cat == obs::Cat::kDeliver && e.node == 0) r.manager_frames++;
  return r;
}

void BM_Barrier(benchmark::State& state) {
  const auto proto = static_cast<dsm::Protocol>(state.range(0));
  const int procs = static_cast<int>(state.range(1));
  double micros = 0;
  for (auto _ : state) {
    micros = barrierRun(proto, dsm::BarrierAlg::kCentral, procs,
                        /*dirty_pages=*/true)
                 .barrier_micros;
    benchmark::DoNotOptimize(micros);
  }
  state.counters["simulated_barrier_us"] = micros;
}

void registerArgs(benchmark::internal::Benchmark* b) {
  for (int proto : {0, 1, 2})  // LRC_d, VC_d, VC_sd
    for (int procs : {2, 8, 16, 32}) b->Args({proto, procs});
}
BENCHMARK(BM_Barrier)->Apply(registerArgs)->Unit(benchmark::kMillisecond);

void BM_BarrierAlg(benchmark::State& state) {
  const auto alg = static_cast<dsm::BarrierAlg>(state.range(0));
  const int procs = static_cast<int>(state.range(1));
  BarrierRun r;
  for (auto _ : state) {
    // VC_sd: the barrier carries no consistency payload, so the sweep
    // isolates pure synchronization cost.
    r = barrierRun(dsm::Protocol::kVcSd, alg, procs, /*dirty_pages=*/false);
    benchmark::DoNotOptimize(r.barrier_micros);
  }
  state.counters["simulated_barrier_ns"] = r.barrier_micros * 1e3;
  state.counters["manager_downlink_frames"] =
      static_cast<double>(r.manager_frames);
}

void registerAlgArgs(benchmark::internal::Benchmark* b) {
  for (int alg : {0, 1, 2})  // central, tree, butterfly
    for (int procs : {32, 64, 128, 256}) b->Args({alg, procs});
}
BENCHMARK(BM_BarrierAlg)->Apply(registerAlgArgs)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
