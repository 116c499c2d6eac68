// Unit tests for the sim substrate: engine, rng, tasks, waiters, clock.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/waiter.hpp"

namespace vodsm::sim {
namespace {

TEST(Engine, ProcessesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.at(30, [&] { order.push_back(3); });
  e.at(10, [&] { order.push_back(1); });
  e.at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TieBrokenByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) e.at(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, CallbacksCanScheduleMore) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) e.at(e.now() + 10, chain);
  };
  e.at(0, chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 40);
}

// The (time, stamp, origin-lane) keys fix the tie order, and through it
// every random draw, of the committed baselines. Each event below logs its
// key as "origin:stamp"; within a case all logged events share one time.
TEST(Engine, LaneKeysFixTieOrder) {
  std::vector<std::string> order;
  auto log = [&order](const char* tag) {
    return [&order, tag] { order.emplace_back(tag); };
  };

  // Equal-time events run in (stamp, origin) order, not insertion order.
  {
    Engine e;
    e.configureLanes(3);
    {
      Engine::LaneGuard g(e, 2);
      e.at(10, log("2:0"));
      e.at(10, log("2:1"));
    }
    {
      Engine::LaneGuard g(e, 0);
      e.at(10, log("0:0"));
    }
    {
      Engine::LaneGuard g(e, 1);
      e.at(10, log("1:0"));
    }
    e.run();
    EXPECT_EQ(order, (std::vector<std::string>{"0:0", "1:0", "2:0", "2:1"}));
  }

  // An atLane post draws its stamp from the posting lane. Lane 0 has drawn
  // stamps 0-2, so its post into lane 1 carries stamp 3 and runs after lane
  // 1's own stamp 0. Drawn from lane 1's counter, it would run first.
  order.clear();
  {
    Engine e;
    e.configureLanes(3);
    {
      Engine::LaneGuard g(e, 0);
      for (int i = 0; i < 3; ++i) e.at(100, [] {});
      e.atLane(1, 10, log("0:3"));
    }
    {
      Engine::LaneGuard g(e, 1);
      e.at(10, log("1:0"));
    }
    e.run();
    EXPECT_EQ(order, (std::vector<std::string>{"1:0", "0:3"}));
  }

  // Executing stamp c lifts the executing lane's counter to at least c+1.
  // Lane 0's stamp-5 post runs in lane 2, so the event it schedules carries
  // stamp 6 and runs after lane 1's stamps 0 and 1. Unlifted, it would carry
  // stamp 0 and run between them.
  order.clear();
  {
    Engine e;
    e.configureLanes(3);
    {
      Engine::LaneGuard g(e, 0);
      for (int i = 0; i < 5; ++i) e.at(100, [] {});
      e.atLane(2, 5, [&e, &log] { e.at(20, log("2:6")); });
    }
    {
      Engine::LaneGuard g(e, 1);
      e.at(20, log("1:0"));
      e.at(20, log("1:1"));
    }
    e.run();
    EXPECT_EQ(order, (std::vector<std::string>{"1:0", "1:1", "2:6"}));
  }
}

// Timers armed on two owners' lines in one lane, and timers and events of
// two lanes at one time, run in (stamp, origin) order like any event.
TEST(Engine, TimerLinesTieBreakLikeEvents) {
  struct Owner : TimerOwner {
    Owner(std::vector<std::string>& log, const char* name)
        : log(log), name(name) {}
    void onTimer(uint64_t arg) override {
      log.push_back(name + std::string(":") + std::to_string(arg));
    }
    std::vector<std::string>& log;
    const char* name;
  };
  std::vector<std::string> order;
  Owner a(order, "a"), b(order, "b");
  Engine e;
  e.configureLanes(2);
  {
    Engine::LaneGuard g(e, 1);
    e.arm(10, a, 0);  // lane 1, stamp 0
    e.arm(10, b, 1);  // lane 1, stamp 1
    e.at(10, [&order] { order.emplace_back("event"); });  // stamp 2
    e.arm(10, a, 2);  // lane 1, stamp 3: behind stamp 0 on a's line
  }
  {
    Engine::LaneGuard g(e, 0);
    e.arm(10, b, 3);  // lane 0, stamp 0
    e.arm(10, a, 4);  // lane 0, stamp 1
  }
  EXPECT_EQ(e.pending(), 6u);
  EXPECT_EQ(e.run(), 6u);
  EXPECT_EQ(order, (std::vector<std::string>{"b:3", "a:0", "a:4", "b:1",
                                             "event", "a:2"}));
  EXPECT_EQ(e.now(), 10);
}

// A seeded random program on 4 lanes. Its events schedule more events with
// two timer delays, `at` and `atLane`; the timers are armed on timer lines
// (two owners per lane, so four lines) or scheduled with `at(now() + dt)`
// on the heap. Every event logs (id, now(), lane), where ids count
// scheduling calls and lane is the lane the event was scheduled to run in.
struct RandomProgram {
  explicit RandomProgram(bool timer_lines) : timer_lines(timer_lines) {
    e.configureLanes(4);
    for (uint32_t lane = 0; lane < 4; ++lane) {
      Engine::LaneGuard g(e, lane);
      e.at(lane, event(lane));
      timer(lane % 2 ? kShort : kLong, lane);
    }
  }

  static constexpr Time kShort = 7;
  static constexpr Time kLong = 300;

  // A timer's argument is (id, lane).
  struct Owner : TimerOwner {
    explicit Owner(RandomProgram& p) : p(p) {}
    void onTimer(uint64_t arg) override {
      p.run(static_cast<int>(arg >> 32), static_cast<uint32_t>(arg));
    }
    RandomProgram& p;
  };

  Callback event(uint32_t lane) {
    const int id = next_id++;
    return [this, id, lane] { run(id, lane); };
  }

  void run(int id, uint32_t lane) {
    log.emplace_back(id, e.now(), lane);
    for (uint64_t n = 1 + rng.below(2); n > 0 && budget > 0; --n, --budget) {
      switch (rng.below(4)) {
        case 0:
          timer(kShort, lane);
          break;
        case 1:
          timer(kLong, lane);
          break;
        case 2:  // small offsets make equal-time ties common
          e.at(e.now() + static_cast<Time>(rng.below(4)), event(lane));
          break;
        default: {
          const auto dst = static_cast<uint32_t>(rng.below(4));
          e.atLane(dst, e.now() + static_cast<Time>(rng.below(10)),
                   event(dst));
        }
      }
    }
  }

  void timer(Time dt, uint32_t lane) {
    if (!timer_lines) {
      e.at(e.now() + dt, event(lane));
      return;
    }
    const int id = next_id++;
    e.arm(dt, owners[static_cast<size_t>(id) % 2],
          uint64_t{static_cast<uint32_t>(id)} << 32 | lane);
  }

  Engine e;
  bool timer_lines;
  Owner owners[2] = {Owner(*this), Owner(*this)};
  Rng rng{2005};
  int next_id = 0;
  int budget = 4000;  // further events the callbacks may schedule
  std::vector<std::tuple<int, Time, uint32_t>> log;
};

// Timer lines change where timers wait, never their keys: the same program
// runs the same events at the same times in the same order, and the engine
// reports the same pending counts along the way.
TEST(Engine, TimerLinesMatchAt) {
  RandomProgram lines(/*timer_lines=*/true);
  RandomProgram heap(/*timer_lines=*/false);
  for (int i = 0; i < 20; ++i) {
    for (int n = 0; n < 97; ++n) {
      ASSERT_TRUE(lines.e.step());
      ASSERT_TRUE(heap.e.step());
    }
    EXPECT_EQ(lines.e.pending(), heap.e.pending()) << "after step " << i;
  }
  const uint64_t rest = lines.e.run();
  EXPECT_EQ(rest, heap.e.run());
  EXPECT_GT(rest, 0u);
  EXPECT_EQ(lines.log.size(), static_cast<size_t>(lines.next_id));
  EXPECT_EQ(lines.log, heap.log);
  EXPECT_EQ(lines.e.now(), heap.e.now());
}

// A callback runs in its pool node, and the node is freed only after the
// callback returns: an event it schedules gets another node, so the
// running capture is intact when the callback reads it afterwards.
TEST(Engine, CallbackRunsInItsNode) {
  Engine e;
  std::vector<std::string> seen;
  e.at(1, [&e, &seen, tag = std::string("first event's capture")] {
    e.at(1, [&seen] { seen.emplace_back("second"); });
    e.at(2, [&seen] { seen.emplace_back("third"); });
    seen.push_back(tag);
  });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(seen, (std::vector<std::string>{"first event's capture", "second",
                                            "third"}));
}

// The callback pool grows in fixed-size chunks. Thousands of events in
// flight at once span several chunks; running part of them in between
// frees slots that later events reuse. Events still run in (time,
// insertion) order, and each runs its own callback with its own capture.
TEST(Engine, PoolGrowsAcrossChunksInOrder) {
  Engine e;
  std::vector<std::pair<Time, int>> ran;
  int next = 0;
  auto schedule = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const int id = next++;
      const Time t = e.now() + 1 + (id * 7919) % 1000;
      auto payload = std::make_unique<int>(id);  // a capture that must move
      e.at(t, [&ran, &e, id, p = std::move(payload)] {
        EXPECT_EQ(*p, id);
        ran.emplace_back(e.now(), id);
      });
    }
  };
  auto steps = [&e](int count) {
    for (int i = 0; i < count; ++i) ASSERT_TRUE(e.step());
  };
  schedule(10000);
  steps(3000);
  schedule(6000);
  steps(9000);
  schedule(5000);
  e.run();
  ASSERT_EQ(ran.size(), 21000u);
  // Equal times run in scheduling order (ids rise with scheduling order).
  for (size_t i = 1; i < ran.size(); ++i)
    ASSERT_LT(ran[i - 1], ran[i]) << "event " << i;
}

TEST(Engine, SchedulingInPastIsRejectedInDebug) {
#ifndef NDEBUG
  Engine e;
  e.at(10, [] {});
  e.run();
  EXPECT_THROW(e.at(5, [] {}), Error);
#else
  GTEST_SKIP() << "debug-only check";
#endif
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(7), c2(8);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(42);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.below(17);
    ASSERT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit over 1000 draws
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(1);
  Rng b = a.fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.next() != b.next();
  EXPECT_TRUE(any_diff);
}

Task<int> answer() { co_return 42; }
Task<int> addOne(Task<int> inner) { co_return co_await std::move(inner) + 1; }

TEST(Task, ChainsThroughCoAwait) {
  int result = 0;
  spawn([](int& out) -> Task<void> {
    out = co_await addOne(answer());
  }(result));
  EXPECT_EQ(result, 43);
}

TEST(Task, ExceptionPropagatesToSpawnCallback) {
  std::string message;
  spawn(
      []() -> Task<void> {
        throw Error("boom");
        co_return;
      }(),
      [&](std::exception_ptr e) {
        try {
          if (e) std::rethrow_exception(e);
        } catch (const Error& err) {
          message = err.what();
        }
      });
  EXPECT_EQ(message, "boom");
}

TEST(TaskScope, CompletedTasksDeregister) {
  TaskScope scope;
  int result = 0;
  spawn(scope, [](int& out) -> Task<void> {
    out = co_await addOne(answer());
  }(result));
  EXPECT_EQ(result, 43);
  EXPECT_EQ(scope.liveCount(), 0u);
}

// A frame suspended forever (the deadlock shape: engine drained, task still
// waiting) must be reclaimed by its scope, including awaited child frames —
// this is what keeps abandoned runs leak-free under LeakSanitizer.
TEST(TaskScope, ReclaimsSuspendedFramesWithChildren) {
  Waiter<void> never;
  bool finished = false;
  {
    TaskScope scope;
    spawn(
        scope,
        [](Waiter<void>& w) -> Task<void> {
          co_await [](Waiter<void>& inner) -> Task<void> {
            co_await inner;  // never fulfilled
          }(w);
        }(never),
        [&](std::exception_ptr) { finished = true; });
    EXPECT_EQ(scope.liveCount(), 1u);
  }  // scope destroys the suspended driver + task + child frames
  EXPECT_FALSE(finished);  // destroyed, not resumed: done never fires
  EXPECT_FALSE(never.ready());
}

TEST(TaskScope, CancelAllIsIdempotent) {
  Waiter<void> never;
  TaskScope scope;
  spawn(scope, [](Waiter<void>& w) -> Task<void> { co_await w; }(never));
  scope.cancelAll();
  EXPECT_EQ(scope.liveCount(), 0u);
  scope.cancelAll();
  spawn(scope, []() -> Task<void> { co_return; }());
  EXPECT_EQ(scope.liveCount(), 0u);
}

TEST(Waiter, FulfillBeforeAwaitDoesNotSuspend) {
  Waiter<int> w;
  w.fulfill(9);
  int got = 0;
  spawn([](Waiter<int>& wt, int& out) -> Task<void> {
    out = co_await wt;
  }(w, got));
  EXPECT_EQ(got, 9);
}

TEST(Waiter, AwaitThenFulfillResumes) {
  Waiter<int> w;
  int got = 0;
  spawn([](Waiter<int>& wt, int& out) -> Task<void> {
    out = co_await wt;
  }(w, got));
  EXPECT_EQ(got, 0);
  w.fulfill(5);
  EXPECT_EQ(got, 5);
}

TEST(Waiter, DoubleFulfillThrows) {
  Waiter<void> w;
  w.fulfill();
  EXPECT_THROW(w.fulfill(), Error);
}

TEST(Countdown, ResumesAtZero) {
  Countdown c(3);
  bool done = false;
  spawn([](Countdown& cd, bool& flag) -> Task<void> {
    co_await cd;
    flag = true;
  }(c, done));
  c.arrive();
  c.arrive();
  EXPECT_FALSE(done);
  c.arrive();
  EXPECT_TRUE(done);
}

TEST(Countdown, OverArrivalThrows) {
  Countdown c(1);
  c.arrive();
  EXPECT_THROW(c.arrive(), Error);
}

TEST(Clock, ChargeAndClamp) {
  Clock c;
  c.charge(100);
  EXPECT_EQ(c.now(), 100);
  c.atLeast(50);  // no going backwards
  EXPECT_EQ(c.now(), 100);
  c.atLeast(200);
  EXPECT_EQ(c.now(), 200);
}

TEST(Clock, SleepForAdvancesWithEngine) {
  Engine e;
  Clock c;
  c.charge(usec(5));
  bool done = false;
  spawn([](Engine& eng, Clock& clk, bool& flag) -> Task<void> {
    co_await sleepFor(eng, clk, usec(10));
    flag = true;
  }(e, c, done));
  EXPECT_FALSE(done);
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.now(), usec(15));
  EXPECT_EQ(e.now(), usec(15));
}

}  // namespace
}  // namespace vodsm::sim
