// Ablation benches for the design choices DESIGN.md calls out: each run
// toggles one modeling decision and reports how the headline numbers move.
//
//   1. replica-served reads        -> blob download saturation (Fig. 4)
//   2. 16 KB Get anomaly           -> queue Get cost at 16 KB (Fig. 6)
//   3. reject- vs queue-throttling -> table phase time under overload
//   4. queue sharding              -> shared vs per-worker queues (Fig. 6/7)
//
// Flags: --csv.
#include <cstdio>

#include "bench_util.hpp"
#include "core/blob_benchmark.hpp"
#include "core/queue_benchmark.hpp"
#include "core/table_benchmark.hpp"

namespace {

azurebench::BlobBenchConfig blob_cfg(bool replica_reads) {
  azurebench::BlobBenchConfig cfg;
  cfg.workers = 48;
  cfg.repeats = 3;
  cfg.cloud.blob.replica_reads = replica_reads;
  return cfg;
}

azurebench::QueueSeparateConfig queue_cfg(bool anomaly) {
  azurebench::QueueSeparateConfig cfg;
  cfg.workers = 16;
  cfg.total_messages = 4'000;
  cfg.message_sizes = {8 << 10, 16 << 10, 32 << 10};
  cfg.cloud.queue.model_16k_get_anomaly = anomaly;
  return cfg;
}

azurebench::TableBenchConfig table_cfg(cluster::ThrottleMode mode) {
  azurebench::TableBenchConfig cfg;
  cfg.workers = 96;
  cfg.entities = 150;
  cfg.entity_sizes = {4 << 10};
  // Push past the account target so the throttle policy matters.
  cfg.cloud.table.query_cpu = sim::millis(2);
  cfg.cloud.table.insert_cpu = sim::millis(3);
  cfg.cloud.table.update_cpu = sim::millis(4);
  cfg.cloud.table.delete_cpu = sim::millis(3);
  cfg.cloud.cluster.throttle_mode = mode;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--csv"});
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  benchutil::Table table({"ablation", "variant", "metric", "value"});

  // 1. Replica-served reads.
  for (const bool replicas : {true, false}) {
    const auto r = azurebench::run_blob_benchmark(blob_cfg(replicas));
    table.add_row({"replica-reads", replicas ? "on (default)" : "off",
                   "block full download MiB/s @48 workers",
                   benchutil::fmt(r.block_full_read.mib_per_sec())});
  }

  // 2. The 16 KB Get anomaly.
  for (const bool anomaly : {true, false}) {
    const auto r = azurebench::run_queue_separate_benchmark(queue_cfg(anomaly));
    table.add_row({"16KB-get-anomaly", anomaly ? "on (default)" : "off",
                   "Get ms/op at 8/16/32 KB",
                   benchutil::fmt(r.points[0].get.ms_per_op() * 16) + " / " +
                       benchutil::fmt(r.points[1].get.ms_per_op() * 16) +
                       " / " +
                       benchutil::fmt(r.points[2].get.ms_per_op() * 16)});
  }

  // 3. Rejection- vs queueing-throttle under deliberate overload.
  for (const auto mode :
       {cluster::ThrottleMode::kReject, cluster::ThrottleMode::kQueue}) {
    const auto r = azurebench::run_table_benchmark(table_cfg(mode));
    table.add_row(
        {"throttle-mode",
         mode == cluster::ThrottleMode::kReject ? "reject (default)" : "queue",
         "4KB insert phase s @96 workers (retries)",
         benchutil::fmt(r.points[0].insert.seconds) + " (" +
             std::to_string(r.server_busy_retries) + ")"});
  }

  // 4. Queue sharding: per-worker queues vs one shared queue.
  {
    azurebench::QueueSeparateConfig sep;
    sep.workers = 32;
    sep.total_messages = 4'000;
    sep.message_sizes = {32 << 10};
    const auto s = azurebench::run_queue_separate_benchmark(sep);
    table.add_row({"queue-sharding", "separate (Fig. 6)",
                   "Get ms/op @32 workers",
                   benchutil::fmt(s.points[0].get.ms_per_op() * 32)});

    azurebench::QueueSharedConfig sh;
    sh.workers = 32;
    sh.total_messages = 4'000;
    sh.think_seconds = {1};
    const auto r = azurebench::run_queue_shared_benchmark(sh);
    table.add_row({"queue-sharding", "shared (Fig. 7, think=1s)",
                   "Get ms/op @32 workers",
                   benchutil::fmt(r.points[0].get.ms_per_op())});
  }

  std::printf("AzureBench ablations — model design choices\n\n");
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  return 0;
}
