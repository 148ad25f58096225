// Google-benchmark microbenchmarks of the simulated storage services:
// host-side cost per simulated operation, plus the operation's virtual-time
// latency as a reported counter.
#include <benchmark/benchmark.h>

#include <optional>

#include "azure/cloud_storage_account.hpp"
#include "azure/environment.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"

namespace {

struct World {
  sim::Simulation sim;
  azure::CloudEnvironment env{sim};
  netsim::Nic nic{sim,
                  netsim::NicConfig{100e6, 100e6, sim::micros(50), 65536.0}};
  azure::CloudStorageAccount account{env, nic};
};

constexpr int kOpsPerRun = 200;

sim::Task<void> queue_ops(World& w) {
  auto q = w.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  for (int i = 0; i < kOpsPerRun; ++i) {
    co_await q.add_message(azure::Payload::synthetic(4096));
    auto msg = co_await q.get_message();
    if (msg) co_await q.delete_message(*msg);
    // Stay under the 500 msg/s target (3 transactions per loop).
    co_await w.sim.delay(sim::millis(10));
  }
}

void BM_QueuePutGetDelete(benchmark::State& state) {
  double virtual_seconds = 0;
  for (auto _ : state) {
    World w;
    w.sim.spawn(queue_ops(w));
    w.sim.run();
    virtual_seconds += sim::to_seconds(w.sim.now());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerRun * 3);
  state.counters["virt_ms_per_op"] = benchmark::Counter(
      virtual_seconds * 1000.0 /
      static_cast<double>(state.iterations() * kOpsPerRun * 3));
}
BENCHMARK(BM_QueuePutGetDelete);

sim::Task<void> blob_ops(World& w) {
  auto c = w.account.create_cloud_blob_client().get_container_reference("c");
  co_await c.create();
  auto blob = c.get_page_blob_reference("p");
  co_await blob.create(static_cast<std::int64_t>(kOpsPerRun) << 20);
  for (int i = 0; i < kOpsPerRun; ++i) {
    co_await blob.put_page(static_cast<std::int64_t>(i) << 20,
                           azure::Payload::synthetic(1 << 20));
  }
  for (int i = 0; i < kOpsPerRun; ++i) {
    co_await blob.get_page(static_cast<std::int64_t>(i) << 20, 1 << 20);
  }
}

void BM_BlobPagePutGet(benchmark::State& state) {
  double virtual_seconds = 0;
  for (auto _ : state) {
    World w;
    w.sim.spawn(blob_ops(w));
    w.sim.run();
    virtual_seconds += sim::to_seconds(w.sim.now());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerRun * 2);
  state.counters["virt_ms_per_op"] = benchmark::Counter(
      virtual_seconds * 1000.0 /
      static_cast<double>(state.iterations() * kOpsPerRun * 2));
}
BENCHMARK(BM_BlobPagePutGet);

sim::Task<void> table_ops(World& w) {
  auto t = w.account.create_cloud_table_client().get_table_reference("t");
  co_await t.create();
  for (int i = 0; i < kOpsPerRun; ++i) {
    azure::TableEntity e;
    e.partition_key = "p";
    e.row_key = "r" + std::to_string(i);
    e.properties["data"] = azure::Payload::synthetic(4096);
    co_await t.insert(e);
    (void)co_await t.query("p", e.row_key);
    // Two transactions per loop; stay under the 500 entities/s target.
    co_await w.sim.delay(sim::millis(6));
  }
}

void BM_TableInsertQuery(benchmark::State& state) {
  double virtual_seconds = 0;
  for (auto _ : state) {
    World w;
    w.sim.spawn(table_ops(w));
    w.sim.run();
    virtual_seconds += sim::to_seconds(w.sim.now());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerRun * 2);
  state.counters["virt_ms_per_op"] = benchmark::Counter(
      virtual_seconds * 1000.0 /
      static_cast<double>(state.iterations() * kOpsPerRun * 2));
}
BENCHMARK(BM_TableInsertQuery);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // Initialize consumes the --benchmark_* flags; anything left is a usage
  // error, exit 2 like every other bench binary (BENCHMARK_MAIN exits 1).
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
