// Fan-out RPC helper: issue several requests at once and await all replies.
//
// TreadMarks-style DSMs send the diff requests for a page to every writer
// concurrently and wait for all responses; serializing them would add one
// round trip per writer. The requests still serialize on the sender's
// uplink (that is physical), but the round trips overlap.
#pragma once

#include <memory>
#include <vector>

#include "net/transport.hpp"
#include "sim/waiter.hpp"

namespace vodsm::net {

struct RpcCall {
  NodeId dst = 0;
  uint16_t type = 0;
  Payload payload;
};

inline sim::Task<std::vector<Delivery>> requestAll(Endpoint& endpoint,
                                                   std::vector<RpcCall> calls,
                                                   sim::Time earliest) {
  auto results = std::make_shared<std::vector<Delivery>>(calls.size());
  sim::Countdown done(static_cast<int>(calls.size()));
  // Declared after `done`: if this frame is destroyed while suspended (an
  // abandoned run), the scope reclaims the in-flight RPC frames first,
  // while `done` and `results` are still alive.
  sim::TaskScope scope;
  for (size_t i = 0; i < calls.size(); ++i) {
    // arrive() lives in the done callback, not the task body: the driver has
    // deregistered from `scope` by then, so when the final arrival resumes
    // (and ultimately destroys) this frame, the scope teardown cannot touch
    // a frame that is still on the call stack.
    sim::spawn(
        scope,
        [](Endpoint& ep, RpcCall call, sim::Time when,
           std::shared_ptr<std::vector<Delivery>> out,
           size_t slot) -> sim::Task<void> {
          (*out)[slot] = co_await ep.request(call.dst, call.type,
                                             std::move(call.payload), when);
        }(endpoint, std::move(calls[i]), earliest, results, i),
        [&done](std::exception_ptr e) {
          if (e) std::rethrow_exception(e);
          done.arrive();
        });
  }
  co_await done;
  co_return *results;
}

}  // namespace vodsm::net
