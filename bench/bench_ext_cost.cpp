// Operating-cost assessment — the study the paper defers to future work:
// what would each benchmark experiment have cost on the 2012 pay-as-you-go
// price sheet? Usage (transactions, instance-hours, stored bytes) comes
// from the simulation's own accounting.
//
// Flags: --csv.
#include <cstdio>

#include "bench_util.hpp"
#include "core/blob_benchmark.hpp"
#include "core/cost_model.hpp"
#include "core/queue_benchmark.hpp"
#include "core/table_benchmark.hpp"

namespace {

std::string money(double usd) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "$%.4f", usd);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--csv"});
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  benchutil::Table table({"experiment", "workers", "virtual_time_s",
                          "transactions", "compute", "transactions_cost",
                          "storage", "total"});

  for (const int workers : {8, 96}) {
    // Fig. 4/5 workload (blob).
    {
      azurebench::BlobBenchConfig cfg;
      cfg.workers = workers;
      cfg.repeats = 10;
      const auto r = azurebench::run_blob_benchmark(cfg);
      azurebench::UsageSample usage;
      usage.transactions = r.storage_transactions;
      usage.instances = workers;
      usage.duration = sim::seconds(r.virtual_seconds);
      usage.peak_stored_bytes = 200ll << 20;  // two 100 MB blobs
      const auto cost = azurebench::estimate_cost(usage);
      table.add_row({"blob (Fig. 4/5)", std::to_string(workers),
                     benchutil::fmt(r.virtual_seconds, 0),
                     std::to_string(r.storage_transactions),
                     money(cost.compute_usd), money(cost.transactions_usd),
                     money(cost.storage_usd), money(cost.total())});
    }
    // Fig. 6 workload (queue, separate).
    {
      azurebench::QueueSeparateConfig cfg;
      cfg.workers = workers;
      const auto r = azurebench::run_queue_separate_benchmark(cfg);
      azurebench::UsageSample usage;
      usage.transactions = r.storage_transactions;
      usage.instances = workers;
      usage.duration = sim::seconds(r.virtual_seconds);
      usage.peak_stored_bytes = 49'152ll * 20'000;
      const auto cost = azurebench::estimate_cost(usage);
      table.add_row({"queue (Fig. 6)", std::to_string(workers),
                     benchutil::fmt(r.virtual_seconds, 0),
                     std::to_string(r.storage_transactions),
                     money(cost.compute_usd), money(cost.transactions_usd),
                     money(cost.storage_usd), money(cost.total())});
    }
    // Fig. 8 workload (table).
    {
      azurebench::TableBenchConfig cfg;
      cfg.workers = workers;
      const auto r = azurebench::run_table_benchmark(cfg);
      azurebench::UsageSample usage;
      usage.transactions = r.storage_transactions;
      usage.instances = workers;
      usage.duration = sim::seconds(r.virtual_seconds);
      usage.peak_stored_bytes =
          static_cast<std::int64_t>(workers) * 500 * (64 << 10);
      const auto cost = azurebench::estimate_cost(usage);
      table.add_row({"table (Fig. 8)", std::to_string(workers),
                     benchutil::fmt(r.virtual_seconds, 0),
                     std::to_string(r.storage_transactions),
                     money(cost.compute_usd), money(cost.transactions_usd),
                     money(cost.storage_usd), money(cost.total())});
    }
  }

  std::printf(
      "AzureBench operating costs — the paper's deferred cost assessment\n"
      "(2012 pay-as-you-go prices: $0.12/Small-hour, $0.01/10k "
      "transactions,\n$0.125/GB-month, Small VMs; costs per full "
      "experiment)\n\n");
  if (csv) {
    table.print_csv();
  } else {
    table.print();
    std::printf(
        "\nObservation the paper anticipated: at this scale the compute "
        "hours dominate;\nthe storage transactions the benchmarks hammer "
        "cost cents. Fewer, larger\nrequests save money as well as time.\n");
  }
  return 0;
}
