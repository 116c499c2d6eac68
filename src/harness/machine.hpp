// One simulated machine: the engine, the switched network and the fault
// injector of one run, built from its RunConfig. Both runtimes hold one —
// vopp::Cluster puts a DSM runtime on every node, msg::World an MPI rank —
// so they share the wire model, the message classifier, fault injection,
// the observers and the node-run loop.
#pragma once

#include <functional>
#include <memory>

#include "harness/run.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace vodsm::harness {

class Machine {
 public:
  explicit Machine(const RunConfig& cfg);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const RunConfig& config() const { return cfg_; }
  sim::Engine& engine() { return engine_; }
  net::Network& network() { return network_; }
  const net::Network& network() const { return network_; }

  // Runs program(i) on every node i under `scope` until the engine drains
  // (once per machine). clock(i) is node i's clock: it gets the node's
  // straggler scaler before the first spawn and dates the node's finish.
  // Traced runs record each node's program span and the engine run; metered
  // runs sample on the engine's clock until it drains. Rethrows the first
  // node's error, and throws on deadlock (a node still suspended when the
  // engine drains).
  void run(sim::TaskScope& scope,
           const std::function<sim::Task<void>(size_t)>& program,
           const std::function<sim::Clock&(size_t)>& clock);

  // Latest node finish time (after run).
  sim::Time finishTime() const { return finish_time_; }
  // Seconds, traffic, and the metrics summary when metered.
  RunResult result() const;

 private:
  RunConfig cfg_;
  sim::Engine engine_;
  net::Network network_;
  std::unique_ptr<net::FaultInjector> faults_;
  sim::Time finish_time_ = 0;
};

}  // namespace vodsm::harness
