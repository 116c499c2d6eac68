#include "harness/machine.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "dsm/msgs.hpp"

namespace vodsm::harness {

namespace {

const RunConfig& checked(const RunConfig& cfg) {
  VODSM_CHECK(cfg.nprocs > 0);
  return cfg;
}

}  // namespace

Machine::Machine(const RunConfig& cfg)
    : cfg_(checked(cfg)), network_(engine_, cfg.nprocs, cfg.net, cfg.seed) {
  // One engine lane (stamp counter) per node. The lanes fix the tie order
  // of equal-time events, which the committed results depend on (see
  // sim::Engine).
  engine_.configureLanes(cfg_.nprocs);
  network_.setTrace(cfg_.trace);
  network_.setMetrics(cfg_.metrics);
  network_.setClassifier(&dsm::classifyMsg);
  if (cfg_.faults && !cfg_.faults->empty()) {
    faults_ = std::make_unique<net::FaultInjector>(*cfg_.faults, cfg_.seed,
                                                   cfg_.nprocs);
    network_.setFaults(faults_.get());
  }
}

void Machine::run(sim::TaskScope& scope,
                  const std::function<sim::Task<void>(size_t)>& program,
                  const std::function<sim::Clock&(size_t)>& clock) {
  const auto n = static_cast<size_t>(cfg_.nprocs);
  std::vector<sim::Clock*> clocks(n);
  for (size_t i = 0; i < n; ++i) {
    clocks[i] = &clock(i);
    if (faults_)
      clocks[i]->setScaler(
          faults_->chargeScalerFor(static_cast<net::NodeId>(i)));
  }

  // Per-node completion slots, written by each node's finish callback and
  // folded after the engine drains.
  std::vector<unsigned char> finished(n, 0);
  std::vector<std::exception_ptr> errors(n);
  std::vector<sim::Time> done_times(n, 0);
  obs::TraceRecorder* const trace = cfg_.trace;
  for (size_t i = 0; i < n; ++i) {
    const auto node = static_cast<uint32_t>(i);
    if (trace) trace->begin(node, obs::Cat::kProgram, 0, i);
    // Events scheduled while the program runs to its first suspension (and
    // by the finish callback) belong to node i's lane.
    sim::Engine::LaneGuard lane(engine_, node);
    sim::spawn(scope, program(i),
               [&, i, node](std::exception_ptr e) {
                 finished[i] = 1;
                 if (e) errors[i] = e;
                 const sim::Time done = clocks[i]->now();
                 if (trace) trace->end(node, obs::Cat::kProgram, done, i);
                 done_times[i] = done;
               });
  }
  if (trace)
    trace->begin(obs::kEngineNode, obs::Cat::kEngineRun, engine_.now());
  if (auto* m = cfg_.metrics) m->startSampling(engine_);
  const uint64_t engine_events = engine_.run();
  for (sim::Time t : done_times) finish_time_ = std::max(finish_time_, t);
  if (trace)
    trace->end(obs::kEngineNode, obs::Cat::kEngineRun, engine_.now(),
               engine_events);
  if (auto* m = cfg_.metrics) m->closeRun(cfg_.nprocs, finish_time_);

  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  for (size_t i = 0; i < n; ++i)
    VODSM_CHECK_MSG(finished[i],
                    "deadlock: node " << i
                                      << " never finished (engine drained)");
}

RunResult Machine::result() const {
  RunResult r;
  r.seconds = sim::toSeconds(finish_time_);
  r.net = network_.stats();
  if (cfg_.metrics) r.metrics = cfg_.metrics->summary();
  return r;
}

}  // namespace vodsm::harness
