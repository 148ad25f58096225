// Google-benchmark microbenchmarks of the DES kernel itself: host-side cost
// of event dispatch, coroutine processes, resources, and flow limiters.
// These bound how fast the figure benches can simulate the cloud.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "simcore/rate_limiter.hpp"
#include "simcore/resource.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"

namespace {

void BM_EventDispatch(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < events; ++i) {
      s.schedule_at(i, [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventDispatch)->Arg(1'000)->Arg(100'000);

// Raw coroutine-resume path: schedule_resume stores the handle directly in
// the heap node, so this measures pure push/pop/resume with no callable
// wrapper and no slab traffic.
void BM_ScheduleResume(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    s.reserve(static_cast<std::size_t>(events));
    const auto h = std::noop_coroutine();
    for (int i = 0; i < events; ++i) s.schedule_resume(i, h);
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_ScheduleResume)->Arg(1'000)->Arg(100'000);

// Heap stress: a large pending set with random timestamps keeps the 4-ary
// heap at full depth, so sift costs (not dispatch) dominate.
void BM_HeapStress(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::vector<sim::TimePoint> stamps(static_cast<std::size_t>(events));
  std::mt19937_64 rng(0xA2B3C4D5u);  // fixed seed: identical heap shapes
  for (auto& t : stamps) t = static_cast<sim::TimePoint>(rng() >> 24);
  for (auto _ : state) {
    sim::Simulation s;
    s.reserve(stamps.size());
    for (const auto t : stamps) s.schedule_at(t, [] {});
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_HeapStress)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

sim::Task<void> delay_loop(sim::Simulation& s, int n) {
  for (int i = 0; i < n; ++i) co_await s.delay(sim::millis(1));
}

void BM_CoroutineDelays(benchmark::State& state) {
  const int delays = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    s.spawn(delay_loop(s, delays));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * delays);
}
BENCHMARK(BM_CoroutineDelays)->Arg(10'000);

sim::Task<void> contend(sim::Simulation& s, sim::Resource& r, int n) {
  for (int i = 0; i < n; ++i) {
    auto lease = co_await r.acquire();
    co_await s.delay(sim::micros(10));
  }
}

void BM_ResourceContention(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kOpsPerWorker = 100;
  for (auto _ : state) {
    sim::Simulation s;
    sim::Resource r(s, 4);
    for (int w = 0; w < workers; ++w) s.spawn(contend(s, r, kOpsPerWorker));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * workers * kOpsPerWorker);
}
BENCHMARK(BM_ResourceContention)->Arg(8)->Arg(96);

sim::Task<void> flow(sim::FlowLimiter& l, int n) {
  for (int i = 0; i < n; ++i) co_await l.acquire(1024.0);
}

void BM_FlowLimiter(benchmark::State& state) {
  constexpr int kOps = 10'000;
  for (auto _ : state) {
    sim::Simulation s;
    sim::FlowLimiter limiter(s, 1e6);
    s.spawn(flow(limiter, kOps));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}
BENCHMARK(BM_FlowLimiter);

sim::Task<void> wait_gate(sim::Gate& g) { co_await g.wait(); }

void BM_GateBroadcast(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    sim::Gate gate(s);
    for (int i = 0; i < waiters; ++i) s.spawn(wait_gate(gate));
    s.schedule_at(1, [&gate] { gate.set(); });
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * waiters);
}
BENCHMARK(BM_GateBroadcast)->Arg(1'000);

}  // namespace

BENCHMARK_MAIN();
