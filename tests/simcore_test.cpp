// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simcore/random.hpp"
#include "simcore/rate_limiter.hpp"
#include "simcore/resource.hpp"
#include "simcore/simulation.hpp"
#include "simcore/stats.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace {

using sim::Duration;
using sim::Simulation;
using sim::Task;
using sim::TimePoint;

// ---------------------------------------------------------------- clock ----

TEST(SimulationTest, ClockStartsAtZero) {
  Simulation s;
  EXPECT_EQ(s.now(), 0);
}

TEST(SimulationTest, DelayAdvancesVirtualClock) {
  Simulation s;
  TimePoint observed = -1;
  s.spawn([](Simulation& sim, TimePoint& out) -> Task<> {
    co_await sim.delay(sim::millis(5));
    out = sim.now();
  }(s, observed));
  s.run();
  EXPECT_EQ(observed, sim::millis(5));
}

TEST(SimulationTest, NestedDelaysAccumulate) {
  Simulation s;
  TimePoint observed = -1;
  s.spawn([](Simulation& sim, TimePoint& out) -> Task<> {
    co_await sim.delay(sim::seconds(1));
    co_await sim.delay(sim::millis(500));
    co_await sim.delay(sim::micros(250));
    out = sim.now();
  }(s, observed));
  s.run();
  EXPECT_EQ(observed, sim::seconds(1) + sim::millis(500) + sim::micros(250));
}

TEST(SimulationTest, ZeroDelayYieldsThroughQueue) {
  Simulation s;
  std::vector<int> order;
  s.spawn([](Simulation& sim, std::vector<int>& o) -> Task<> {
    o.push_back(1);
    co_await sim.delay(0);
    o.push_back(3);
  }(s, order));
  s.spawn([](std::vector<int>& o) -> Task<> {
    o.push_back(2);
    co_return;
  }(order));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, SameTimeEventsRunInScheduleOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(sim::millis(1), [&order, i] { order.push_back(i); });
  }
  s.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulationTest, EventsRunInTimeOrderRegardlessOfScheduleOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(sim::millis(30), [&] { order.push_back(3); });
  s.schedule_at(sim::millis(10), [&] { order.push_back(1); });
  s.schedule_at(sim::millis(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation s;
  int fired = 0;
  s.schedule_at(sim::seconds(1), [&] { ++fired; });
  s.schedule_at(sim::seconds(3), [&] { ++fired; });
  const bool more = s.run_until(sim::seconds(2));
  EXPECT_TRUE(more);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), sim::seconds(2));
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, StepExecutesOneEvent) {
  Simulation s;
  int fired = 0;
  s.schedule_at(1, [&] { ++fired; });
  s.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step());
}

TEST(SimulationTest, EventsExecutedCounts) {
  Simulation s;
  for (int i = 0; i < 5; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

// -------------------------------------------------------- event payloads ----

struct ProbeCounters {
  int ctor = 0;
  int dtor = 0;
  int calls = 0;
};

/// Counts constructions, destructions, and invocations of a scheduled
/// callable so tests can assert the kernel destroys each payload exactly once.
struct Probe {
  ProbeCounters* c;
  explicit Probe(ProbeCounters* counters) : c(counters) { ++c->ctor; }
  Probe(const Probe& o) : c(o.c) { ++c->ctor; }
  Probe(Probe&& o) noexcept : c(o.c) { ++c->ctor; }
  ~Probe() { ++c->dtor; }
  void operator()() const { ++c->calls; }
};

/// Oversized variant that cannot fit the event's inline buffer, exercising
/// the heap-fallback storage path.
struct BigProbe : Probe {
  char pad[128] = {};
  using Probe::Probe;
};

TEST(EventPayloadTest, InlinePayloadDestroyedExactlyOncePerEvent) {
  ProbeCounters pc;
  {
    Simulation s;
    for (int i = 0; i < 100; ++i) s.schedule_at(i, Probe(&pc));
    for (int i = 0; i < 50; ++i) EXPECT_TRUE(s.step());
    EXPECT_EQ(pc.calls, 50);
    // 50 events still pending when the simulation is torn down.
  }
  EXPECT_EQ(pc.ctor, pc.dtor);
  EXPECT_EQ(pc.calls, 50);
}

TEST(EventPayloadTest, HeapFallbackPayloadDestroyedExactlyOnce) {
  static_assert(sizeof(BigProbe) > 48, "must exceed the inline buffer");
  ProbeCounters pc;
  {
    Simulation s;
    for (int i = 0; i < 20; ++i) s.schedule_at(i, BigProbe(&pc));
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.step());
    EXPECT_EQ(pc.calls, 10);
  }
  EXPECT_EQ(pc.ctor, pc.dtor);
  EXPECT_EQ(pc.calls, 10);
}

TEST(EventPayloadTest, ThrowingCallableIsStillDestroyedExactlyOnce) {
  ProbeCounters pc;
  {
    Simulation s;
    s.schedule_at(0, [p = Probe(&pc)] { throw std::runtime_error("cb"); });
    EXPECT_THROW(s.run(), std::runtime_error);
    EXPECT_EQ(s.events_executed(), 1u);
  }
  EXPECT_EQ(pc.ctor, pc.dtor);
  EXPECT_EQ(pc.calls, 0);
}

TEST(EventPayloadTest, SlotRecyclingKeepsPayloadsIndependent) {
  // Interleave scheduling and execution so slab slots are recycled, and
  // verify every payload still runs exactly once with its own state.
  Simulation s;
  std::vector<int> seen;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) {
      const int id = round * 100 + i;
      s.schedule_at(s.now() + 1, [&seen, id] { seen.push_back(id); });
    }
    s.run();
  }
  ASSERT_EQ(seen.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

// ------------------------------------------------------- scheduler heap ----

TEST(SchedulerHeapTest, RandomTimestampsExecuteInNondecreasingOrder) {
  Simulation s;
  sim::Random rng(123);
  constexpr int kEvents = 5000;
  s.reserve(kEvents);
  std::vector<std::pair<TimePoint, int>> seen;
  seen.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    // A small timestamp range forces heavy same-time ties.
    const auto at = static_cast<TimePoint>(rng.uniform(0, 200));
    s.schedule_at(at, [&seen, &s, i] { seen.emplace_back(s.now(), i); });
  }
  s.run();
  ASSERT_EQ(seen.size(), kEvents);
  EXPECT_EQ(s.events_executed(), kEvents);
  for (int i = 1; i < kEvents; ++i) {
    const auto& [t_prev, id_prev] = seen[static_cast<size_t>(i - 1)];
    const auto& [t_cur, id_cur] = seen[static_cast<size_t>(i)];
    EXPECT_LE(t_prev, t_cur);
    // Same-timestamp events must pop in scheduling (FIFO) order.
    if (t_prev == t_cur) {
      EXPECT_LT(id_prev, id_cur);
    }
  }
}

TEST(SchedulerHeapTest, ReserveDoesNotDisturbExecution) {
  Simulation s;
  s.reserve(4096);
  int fired = 0;
  for (int i = 0; i < 2000; ++i) s.schedule_at(i % 17, [&fired] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2000);
  EXPECT_EQ(s.events_executed(), 2000u);
}

// ----------------------------------------------------------- frame pool ----

using sim::detail::FramePool;

TEST(FramePoolTest, FreedBlockIsReusedByTheNextAllocationOfItsClass) {
  // 100 and 120 bytes share the 65..128-byte class; 130 bytes does not.
  void* p = FramePool::allocate(100);
  const std::size_t before = FramePool::cached(100);
  FramePool::deallocate(p, 100);
  EXPECT_EQ(FramePool::cached(120), before + 1);
  void* other = FramePool::allocate(130);
  EXPECT_NE(other, p);
  void* q = FramePool::allocate(120);
  EXPECT_EQ(q, p);
  EXPECT_EQ(FramePool::cached(100), before);
  FramePool::deallocate(q, 120);
  FramePool::deallocate(other, 130);
}

TEST(FramePoolTest, BucketStopsCachingAtTheCap) {
  constexpr std::size_t kBytes = 1000;
  std::vector<void*> blocks(FramePool::kMaxBlocksPerBucket + 8);
  for (void*& b : blocks) b = FramePool::allocate(kBytes);
  EXPECT_EQ(FramePool::cached(kBytes), 0u);
  for (void* b : blocks) FramePool::deallocate(b, kBytes);
  EXPECT_EQ(FramePool::cached(kBytes), FramePool::kMaxBlocksPerBucket);
}

TEST(FramePoolTest, AllocationsOver2KiBBypassThePool) {
  constexpr std::size_t kLargest = FramePool::kBuckets
                                   << FramePool::kGranularityShift;
  static_assert(kLargest == 2048);
  const auto snapshot = [] {
    std::vector<std::size_t> counts;
    for (std::size_t n = 64; n <= kLargest; n += 64) {
      counts.push_back(FramePool::cached(n));
    }
    return counts;
  };
  // The largest pooled class still caches...
  const std::vector<std::size_t> before = snapshot();
  FramePool::deallocate(FramePool::allocate(kLargest), kLargest);
  EXPECT_EQ(FramePool::cached(kLargest), before.back() + 1);
  // ...one byte more goes straight back to the allocator.
  const std::vector<std::size_t> pooled = snapshot();
  FramePool::deallocate(FramePool::allocate(kLargest + 1), kLargest + 1);
  FramePool::deallocate(FramePool::allocate(64 * 1024), 64 * 1024);
  EXPECT_EQ(snapshot(), pooled);
  EXPECT_EQ(FramePool::cached(kLargest + 1), 0u);
}

// ------------------------------------------------------------ processes ----

TEST(ProcessTest, SpawnRunsProcessToCompletion) {
  Simulation s;
  bool done = false;
  auto h = s.spawn([](bool& d) -> Task<> {
    d = true;
    co_return;
  }(done));
  EXPECT_FALSE(done);  // lazy until run
  s.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(h.done());
  EXPECT_EQ(s.live_processes(), 0);
}

TEST(ProcessTest, JoinWaitsForCompletion) {
  Simulation s;
  TimePoint joined_at = -1;
  auto worker = s.spawn([](Simulation& sim) -> Task<> {
    co_await sim.delay(sim::seconds(2));
  }(s));
  s.spawn([](Simulation& sim, sim::ProcessHandle w,
             TimePoint& out) -> Task<> {
    co_await w.join();
    out = sim.now();
  }(s, worker, joined_at));
  s.run();
  EXPECT_EQ(joined_at, sim::seconds(2));
}

TEST(ProcessTest, JoinAlreadyFinishedProcessResumesImmediately) {
  Simulation s;
  auto worker = s.spawn([]() -> Task<> { co_return; }());
  bool joined = false;
  s.spawn([](Simulation& sim, sim::ProcessHandle w, bool& j) -> Task<> {
    co_await sim.delay(sim::seconds(5));
    co_await w.join();
    j = true;
  }(s, worker, joined));
  s.run();
  EXPECT_TRUE(joined);
}

TEST(ProcessTest, AwaitedSubtaskReturnsValue) {
  Simulation s;
  int result = 0;
  auto subtask = [](Simulation& sim) -> Task<int> {
    co_await sim.delay(sim::millis(1));
    co_return 42;
  };
  s.spawn([](Simulation& sim, auto sub, int& out) -> Task<> {
    out = co_await sub(sim);
  }(s, subtask, result));
  s.run();
  EXPECT_EQ(result, 42);
}

TEST(ProcessTest, ExceptionPropagatesThroughAwait) {
  Simulation s;
  std::string caught;
  auto thrower = []() -> Task<int> {
    throw std::runtime_error("boom");
    co_return 0;
  };
  s.spawn([](auto t, std::string& out) -> Task<> {
    try {
      (void)co_await t();
    } catch (const std::runtime_error& e) {
      out = e.what();
    }
  }(thrower, caught));
  s.run();
  EXPECT_EQ(caught, "boom");
}

TEST(ProcessTest, UncaughtProcessExceptionSurfacesFromRun) {
  Simulation s;
  s.spawn([]() -> Task<> {
    throw std::logic_error("fatal");
    co_return;
  }());
  EXPECT_THROW(s.run(), std::logic_error);
}

TEST(ProcessTest, ManyProcessesInterleaveDeterministically) {
  auto run_once = [] {
    Simulation s;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      s.spawn([](Simulation& sim, std::vector<int>& o, int id) -> Task<> {
        co_await sim.delay(sim::millis(id % 7));
        o.push_back(id);
      }(s, order, i));
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------------------------- resource ----

TEST(ResourceTest, CapacityLimitsConcurrency) {
  Simulation s;
  sim::Resource res(s, 2);
  int concurrent = 0, peak = 0;
  for (int i = 0; i < 8; ++i) {
    s.spawn([](Simulation& sim, sim::Resource& r, int& c, int& p) -> Task<> {
      auto lease = co_await r.acquire();
      ++c;
      p = std::max(p, c);
      co_await sim.delay(sim::millis(10));
      --c;
    }(s, res, concurrent, peak));
  }
  s.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(res.high_watermark(), 2);
  EXPECT_EQ(res.in_use(), 0);
}

TEST(ResourceTest, WaitersServedFifo) {
  Simulation s;
  sim::Resource res(s, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.spawn([](Simulation& sim, sim::Resource& r, std::vector<int>& o,
               int id) -> Task<> {
      co_await sim.delay(id);  // arrive in id order
      auto lease = co_await r.acquire();
      o.push_back(id);
      co_await sim.delay(sim::millis(1));
    }(s, res, order, i));
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ResourceTest, LateArrivalCannotJumpQueueDuringHandover) {
  Simulation s;
  sim::Resource res(s, 1);
  std::vector<std::string> order;

  // A holds the resource; B waits; C arrives exactly when A releases.
  s.spawn([](Simulation& sim, sim::Resource& r,
             std::vector<std::string>& o) -> Task<> {
    auto lease = co_await r.acquire();
    o.push_back("A");
    co_await sim.delay(sim::millis(10));
  }(s, res, order));
  s.spawn([](Simulation& sim, sim::Resource& r,
             std::vector<std::string>& o) -> Task<> {
    co_await sim.delay(sim::millis(1));
    auto lease = co_await r.acquire();
    o.push_back("B");
    co_await sim.delay(sim::millis(1));
  }(s, res, order));
  s.spawn([](Simulation& sim, sim::Resource& r,
             std::vector<std::string>& o) -> Task<> {
    co_await sim.delay(sim::millis(10));  // same instant as A's release
    auto lease = co_await r.acquire();
    o.push_back("C");
  }(s, res, order));
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"A", "B", "C"}));
}

TEST(ResourceTest, MovedLeaseReleasesOnce) {
  Simulation s;
  sim::Resource res(s, 1);
  s.spawn([](Simulation& sim, sim::Resource& r) -> Task<> {
    auto lease = co_await r.acquire();
    sim::ResourceLease moved = std::move(lease);
    EXPECT_FALSE(lease.held());
    EXPECT_TRUE(moved.held());
    moved.release();
    EXPECT_EQ(r.in_use(), 0);
    co_await sim.delay(0);
  }(s, res));
  s.run();
  EXPECT_EQ(res.in_use(), 0);
}

// ----------------------------------------------------------------- sync ----

TEST(GateTest, WaitersResumeOnSet) {
  Simulation s;
  sim::Gate gate(s);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    s.spawn([](sim::Gate& g, int& r) -> Task<> {
      co_await g.wait();
      ++r;
    }(gate, released));
  }
  s.spawn([](Simulation& sim, sim::Gate& g) -> Task<> {
    co_await sim.delay(sim::seconds(1));
    g.set();
  }(s, gate));
  s.run();
  EXPECT_EQ(released, 3);
}

TEST(GateTest, WaitAfterSetIsImmediate) {
  Simulation s;
  sim::Gate gate(s);
  gate.set();
  TimePoint at = -1;
  s.spawn([](Simulation& sim, sim::Gate& g, TimePoint& t) -> Task<> {
    co_await g.wait();
    t = sim.now();
  }(s, gate, at));
  s.run();
  EXPECT_EQ(at, 0);
}

TEST(GateTest, ResetAfterSetReArmsForANewRound) {
  Simulation s;
  sim::Gate g(s);
  std::vector<TimePoint> released;
  auto waiter = [](Simulation& sim, sim::Gate& gate,
                   std::vector<TimePoint>& out) -> Task<> {
    co_await gate.wait();
    out.push_back(sim.now());
  };
  s.spawn(waiter(s, g, released));
  s.spawn([](Simulation& sim, sim::Gate& gate, std::vector<TimePoint>& out,
             decltype(waiter) make_waiter) -> Task<> {
    co_await sim.delay(sim::seconds(1));
    gate.set();  // releases the first waiter at t=1s
    co_await sim.delay(sim::seconds(1));
    EXPECT_TRUE(gate.is_set());
    gate.reset();  // re-arm while no one waits
    EXPECT_FALSE(gate.is_set());
    sim.spawn(make_waiter(sim, gate, out));  // must block on the re-armed gate
    co_await sim.delay(sim::seconds(1));
    gate.set();  // releases the second waiter at t=3s
  }(s, g, released, waiter));
  s.run();
  EXPECT_EQ(released, (std::vector<TimePoint>{sim::seconds(1),
                                              sim::seconds(3)}));
}

TEST(GateTest, WaitImmediatelyAfterResetBlocksUntilNextSet) {
  Simulation s;
  sim::Gate g(s);
  g.set();
  g.reset();
  bool resumed = false;
  s.spawn([](sim::Gate& gate, bool& r) -> Task<> {
    co_await gate.wait();
    r = true;
  }(g, resumed));
  s.schedule_at(sim::millis(5), [&g] { g.set(); });
  s.run();
  EXPECT_TRUE(resumed);
}

TEST(WaitGroupTest, ReusableAcrossRounds) {
  Simulation s;
  sim::WaitGroup wg(s);
  std::vector<TimePoint> round_done;
  s.spawn([](Simulation& sim, sim::WaitGroup& w,
             std::vector<TimePoint>& out) -> Task<> {
    for (int round = 1; round <= 3; ++round) {
      w.add(2);
      for (int k = 0; k < 2; ++k) {
        sim.spawn([](Simulation& sm, sim::WaitGroup& wg2) -> Task<> {
          co_await sm.delay(sim::seconds(1));
          wg2.done();
        }(sim, w));
      }
      co_await w.wait();
      out.push_back(sim.now());
    }
  }(s, wg, round_done));
  s.run();
  EXPECT_EQ(round_done,
            (std::vector<TimePoint>{sim::seconds(1), sim::seconds(2),
                                    sim::seconds(3)}));
}

TEST(WaitGroupTest, WaitsForAllCompletions) {
  Simulation s;
  sim::WaitGroup wg(s);
  TimePoint done_at = -1;
  for (int i = 1; i <= 4; ++i) {
    wg.add();
    s.spawn([](Simulation& sim, sim::WaitGroup& w, int secs) -> Task<> {
      co_await sim.delay(sim::seconds(secs));
      w.done();
    }(s, wg, i));
  }
  s.spawn([](Simulation& sim, sim::WaitGroup& w, TimePoint& t) -> Task<> {
    co_await w.wait();
    t = sim.now();
  }(s, wg, done_at));
  s.run();
  EXPECT_EQ(done_at, sim::seconds(4));
}

TEST(WaitGroupTest, WaitWithZeroPendingReturnsImmediately) {
  Simulation s;
  sim::WaitGroup wg(s);
  bool resumed = false;
  s.spawn([](sim::WaitGroup& w, bool& r) -> Task<> {
    co_await w.wait();
    r = true;
  }(wg, resumed));
  s.run();
  EXPECT_TRUE(resumed);
}

// --------------------------------------------------------- flow limiter ----

TEST(FlowLimiterTest, SingleAcquireTakesServiceTime) {
  Simulation s;
  sim::FlowLimiter pipe(s, /*rate=*/100.0);  // 100 units/s
  TimePoint done = -1;
  s.spawn([](Simulation& sim, sim::FlowLimiter& p, TimePoint& t) -> Task<> {
    co_await p.acquire(50.0);  // 0.5 s
    t = sim.now();
  }(s, pipe, done));
  s.run();
  EXPECT_EQ(done, sim::millis(500));
}

TEST(FlowLimiterTest, ConcurrentAcquiresSerialize) {
  Simulation s;
  sim::FlowLimiter pipe(s, 100.0);
  std::vector<TimePoint> done;
  for (int i = 0; i < 3; ++i) {
    s.spawn([](Simulation& sim, sim::FlowLimiter& p,
               std::vector<TimePoint>& d) -> Task<> {
      co_await p.acquire(100.0);  // 1 s each
      d.push_back(sim.now());
    }(s, pipe, done));
  }
  s.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], sim::seconds(1));
  EXPECT_EQ(done[1], sim::seconds(2));
  EXPECT_EQ(done[2], sim::seconds(3));
}

TEST(FlowLimiterTest, IdlePipeDoesNotAccumulateUnboundedCredit) {
  Simulation s;
  sim::FlowLimiter pipe(s, 100.0, /*burst=*/0.0);
  TimePoint done = -1;
  s.spawn([](Simulation& sim, sim::FlowLimiter& p, TimePoint& t) -> Task<> {
    co_await sim.delay(sim::seconds(100));  // long idle
    co_await p.acquire(100.0);              // still takes 1 s
    t = sim.now();
  }(s, pipe, done));
  s.run();
  EXPECT_EQ(done, sim::seconds(101));
}

TEST(FlowLimiterTest, BurstCreditPassesShortBurstsImmediately) {
  Simulation s;
  sim::FlowLimiter pipe(s, 100.0, /*burst=*/100.0);  // 1 s of credit
  std::vector<TimePoint> done;
  s.spawn([](Simulation& sim, sim::FlowLimiter& p,
             std::vector<TimePoint>& d) -> Task<> {
    co_await sim.delay(sim::seconds(10));  // accumulate full credit
    co_await p.acquire(50.0);              // within credit: immediate
    d.push_back(sim.now());
    co_await p.acquire(50.0);  // exhausts credit: immediate
    d.push_back(sim.now());
    co_await p.acquire(50.0);  // now pays 0.5 s
    d.push_back(sim.now());
  }(s, pipe, done));
  s.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], sim::seconds(10));
  EXPECT_EQ(done[1], sim::seconds(10));
  EXPECT_EQ(done[2], sim::seconds(10) + sim::millis(500));
}

TEST(FlowLimiterTest, PartialIdleAccumulatesPartialCredit) {
  Simulation s;
  sim::FlowLimiter pipe(s, 100.0, /*burst=*/100.0);  // 1 s of burst window
  std::vector<TimePoint> done;
  s.spawn([](Simulation& sim, sim::FlowLimiter& p,
             std::vector<TimePoint>& d) -> Task<> {
    co_await sim.delay(sim::millis(500));  // half the burst window idle
    co_await p.acquire(50.0);              // covered by accumulated credit
    d.push_back(sim.now());
    co_await p.acquire(50.0);  // credit exhausted: pays full 0.5 s
    d.push_back(sim.now());
  }(s, pipe, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], sim::millis(500));
  EXPECT_EQ(done[1], sim::seconds(1));
}

TEST(FlowLimiterTest, CreditIsCappedAtTheBurstWindow) {
  Simulation s;
  sim::FlowLimiter pipe(s, 100.0, /*burst=*/100.0);
  TimePoint done = -1;
  s.spawn([](Simulation& sim, sim::FlowLimiter& p, TimePoint& t) -> Task<> {
    co_await sim.delay(sim::seconds(10));  // idle far beyond the window
    co_await p.acquire(200.0);  // 2 s of service, at most 1 s of credit
    t = sim.now();
  }(s, pipe, done));
  s.run();
  EXPECT_EQ(done, sim::seconds(11));
}

TEST(FlowLimiterTest, BurstThenQueueingStaysFifo) {
  Simulation s;
  sim::FlowLimiter pipe(s, 100.0, /*burst=*/50.0);  // 0.5 s of burst window
  std::vector<std::pair<int, TimePoint>> done;
  for (int i = 0; i < 3; ++i) {
    s.spawn([](Simulation& sim, sim::FlowLimiter& p,
               std::vector<std::pair<int, TimePoint>>& d, int id) -> Task<> {
      co_await sim.delay(sim::seconds(5));  // all arrive at the same instant
      co_await p.acquire(50.0);
      d.emplace_back(id, sim.now());
    }(s, pipe, done, i));
  }
  s.run();
  ASSERT_EQ(done.size(), 3u);
  // First rides the burst credit; the rest queue behind it in FIFO order.
  EXPECT_EQ(done[0], (std::pair<int, TimePoint>{0, sim::seconds(5)}));
  EXPECT_EQ(done[1],
            (std::pair<int, TimePoint>{1, sim::seconds(5) + sim::millis(500)}));
  EXPECT_EQ(done[2], (std::pair<int, TimePoint>{2, sim::seconds(6)}));
}

TEST(FlowLimiterTest, ZeroAmountAcquireIsImmediateAndConsumesNothing) {
  Simulation s;
  sim::FlowLimiter pipe(s, 100.0);
  std::vector<TimePoint> done;
  s.spawn([](Simulation& sim, sim::FlowLimiter& p,
             std::vector<TimePoint>& d) -> Task<> {
    co_await p.acquire(0.0);
    d.push_back(sim.now());
    co_await p.acquire(100.0);
    d.push_back(sim.now());
  }(s, pipe, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 0);
  EXPECT_EQ(done[1], sim::seconds(1));
}

TEST(FlowLimiterTest, AggregateThroughputMatchesRate) {
  Simulation s;
  sim::FlowLimiter pipe(s, 1000.0);  // 1000 units/s
  // 10 workers each pushing 500 units => 5000 units => 5 s total.
  sim::WaitGroup wg(s);
  for (int i = 0; i < 10; ++i) {
    wg.add();
    s.spawn([](sim::FlowLimiter& p, sim::WaitGroup& w) -> Task<> {
      for (int k = 0; k < 5; ++k) co_await p.acquire(100.0);
      w.done();
    }(pipe, wg));
  }
  TimePoint finished = -1;
  s.spawn([](Simulation& sim, sim::WaitGroup& w, TimePoint& t) -> Task<> {
    co_await w.wait();
    t = sim.now();
  }(s, wg, finished));
  s.run();
  EXPECT_EQ(finished, sim::seconds(5));
}

// -------------------------------------------------------- window counter ----

TEST(WindowCounterTest, AdmitsUpToBudgetPerWindow) {
  Simulation s;
  sim::WindowCounter wc(s, 3);
  EXPECT_TRUE(wc.try_consume());
  EXPECT_TRUE(wc.try_consume());
  EXPECT_TRUE(wc.try_consume());
  EXPECT_FALSE(wc.try_consume());
  EXPECT_EQ(wc.rejected(), 1);
}

TEST(WindowCounterTest, BudgetResetsNextWindow) {
  Simulation s;
  sim::WindowCounter wc(s, 2);
  s.spawn([](Simulation& sim, sim::WindowCounter& w) -> Task<> {
    EXPECT_TRUE(w.try_consume());
    EXPECT_TRUE(w.try_consume());
    EXPECT_FALSE(w.try_consume());
    co_await sim.delay(sim::kSecond);
    EXPECT_TRUE(w.try_consume());
    co_return;
  }(s, wc));
  s.run();
}

TEST(WindowCounterTest, WindowBoundaryAlignment) {
  Simulation s;
  sim::WindowCounter wc(s, 1);
  s.spawn([](Simulation& sim, sim::WindowCounter& w) -> Task<> {
    co_await sim.delay(sim::millis(2500));  // inside 3rd window [2s,3s)
    EXPECT_TRUE(w.try_consume());
    EXPECT_FALSE(w.try_consume());
    co_await sim.delay(sim::millis(499));  // still same window (2.999 s)
    EXPECT_FALSE(w.try_consume());
    co_await sim.delay(sim::millis(1));  // crosses into [3s,4s)
    EXPECT_TRUE(w.try_consume());
    co_return;
  }(s, wc));
  s.run();
}

// --------------------------------------------------------------- random ----

TEST(RandomTest, DeterministicForSameSeed) {
  sim::Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  sim::Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformStaysInRange) {
  sim::Random r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
  }
}

TEST(RandomTest, UniformCoversRange) {
  sim::Random r(7);
  std::vector<int> hits(11, 0);
  for (int i = 0; i < 11000; ++i) {
    ++hits[static_cast<size_t>(r.uniform(0, 10))];
  }
  for (int h : hits) EXPECT_GT(h, 500);  // roughly uniform
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  sim::Random r(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomTest, ExponentialMeanApproximatelyCorrect) {
  sim::Random r(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RandomTest, ForkProducesIndependentStream) {
  sim::Random a(42);
  sim::Random b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ---------------------------------------------------------------- stats ----

TEST(StatsTest, OnlineStatsBasics) {
  sim::OnlineStats st;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(v);
  EXPECT_EQ(st.count(), 8);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_NEAR(st.stddev(), 2.138089935, 1e-6);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(StatsTest, MergeMatchesCombinedStream) {
  sim::OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 120; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, SamplesPercentiles) {
  sim::Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(StatsTest, EmptySamplesAreSafe) {
  sim::Samples s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.percentile(50), 0.0);
}

// ----------------------------------------------------------- formatting ----

TEST(TimeFormatTest, RendersAllScales) {
  EXPECT_EQ(sim::format_duration(500), "500ns");
  EXPECT_EQ(sim::format_duration(sim::micros(2)), "2.000us");
  EXPECT_EQ(sim::format_duration(sim::millis(3)), "3.000ms");
  EXPECT_EQ(sim::format_duration(sim::seconds(1.5)), "1.500s");
}

}  // namespace
