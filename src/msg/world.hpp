// MPI-like message-passing library on the simulated cluster network.
//
// This is the baseline substrate for the paper's NN-MPI comparison
// (Table 9): the same simulated machine as the DSM runtimes
// (harness::Machine), but programs move data explicitly. Point-to-point
// send/recv matches on (source, tag); the collectives (barrier, bcast,
// reduce, allreduce) are linear rooted at rank 0, which is faithful to
// early-2000s MPICH over TCP/UDP on small clusters.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "harness/machine.hpp"
#include "harness/run.hpp"
#include "net/transport.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/waiter.hpp"

namespace vodsm::msg {

class World;

// Per-rank environment handed to the program coroutine.
class Rank {
 public:
  Rank(World& world, int id);

  int id() const { return id_; }
  int size() const;
  sim::Time now() const { return clock_.now(); }
  void charge(sim::Time t) { clock_.charge(t); }
  void chargeOps(uint64_t ops, sim::Time per_op) {
    clock_.charge(static_cast<sim::Time>(ops) * per_op);
  }

  // Buffered, reliable, non-blocking send.
  void send(int dst, uint32_t tag, ByteSpan payload);
  // Blocking receive matching (src, tag).
  sim::Task<Bytes> recv(int src, uint32_t tag);

  // --- collectives (must be called by every rank) ---
  sim::Task<void> barrier();
  sim::Task<void> bcast(int root, Bytes& buf);
  // Element-wise int64 sum reduction to root (in place on root).
  sim::Task<void> reduce(int root, std::vector<int64_t>& inout);
  sim::Task<void> allreduce(std::vector<int64_t>& inout);

 private:
  friend class World;
  void onDelivery(net::Delivery&& d);

  // A delivered message: the payload its sender encoded (tag, length,
  // body) and where the body starts. recv copies the body out once.
  struct Parcel {
    net::Payload payload;
    size_t body = 0;
  };
  struct Mailbox {
    std::deque<Parcel> messages;
    std::unique_ptr<sim::Waiter<Parcel>> waiter;
  };

  World& world_;
  int id_;
  sim::Clock clock_;
  std::unique_ptr<net::Endpoint> endpoint_;
  std::map<std::pair<int, uint32_t>, Mailbox> mail_;
};

class World {
 public:
  // Runs unobserved: the world drops the config's trace, metrics and
  // diagnose (protocol, costs and barrier do not apply to it either).
  explicit World(harness::RunConfig cfg);

  using Program = std::function<sim::Task<void>(Rank&)>;
  void run(const Program& program);

  int nprocs() const { return machine_.config().nprocs; }
  sim::Engine& engine() { return machine_.engine(); }
  net::Network& network() { return machine_.network(); }
  // Seconds and traffic (after run).
  harness::RunResult result() const { return machine_.result(); }

 private:
  harness::Machine machine_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  // Last member: rank frames abandoned by a deadlocked run must be reclaimed
  // before the engine/network/ranks they reference go away.
  sim::TaskScope scope_;
};

}  // namespace vodsm::msg
