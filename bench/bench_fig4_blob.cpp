// Reproduces Fig. 4 of the paper: Blob storage upload and (full) download
// time and aggregate throughput vs. number of worker role instances, for
// block and page blobs.
//
// Workload (Algorithm 1): per repeat, the fleet collectively uploads one
// 100 MB page blob and one 100 MB block blob in 1 MB chunks, then every
// worker downloads both blobs in full. 10 repeats; synchronization via the
// queue barrier is excluded from the timings.
//
// The table itself is built by benchfig::fig4_table (fig_workloads.hpp),
// shared with the declarative scenario driver (bench_scenario.cpp).
//
// Flags: --workers=N (single point), --repeats=N, --quick,
//        --no-replica-reads (ablation), --csv, --obs, --obs-json=FILE.
#include <cstdio>

#include "bench_util.hpp"
#include "fig_workloads.hpp"
#include "obs/observer.hpp"

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--workers=", "--repeats=",
                                 "--quick", "--no-replica-reads", "--csv",
                                 "--obs", "--obs-json=", "--trace"});
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  const benchutil::ObsFlags obs_flags = benchutil::obs_flags(argc, argv);
  obs::Observer observer;

  benchfig::Fig4Options opt;
  opt.workers = benchutil::worker_sweep(argc, argv);
  opt.repeats = static_cast<int>(benchutil::flag_int(
      argc, argv, "--repeats",
      benchutil::flag_set(argc, argv, "--quick") ? 3 : 10, 1, 1'000));
  opt.no_replica_reads = benchutil::flag_set(argc, argv, "--no-replica-reads");
  if (obs_flags.enabled) opt.observer = &observer;

  std::printf(
      "AzureBench Fig. 4 — Blob storage upload/download vs. workers\n"
      "100 MB blobs, 1 MB chunks, %d repeats%s\n\n",
      opt.repeats,
      opt.no_replica_reads ? " [ablation: replica reads OFF]" : "");

  const benchutil::Table table = benchfig::fig4_table(opt);
  if (csv) {
    table.print_csv();
  } else {
    table.print();
    std::printf(
        "\nPaper reference points (Azure, 2012): page upload saturates at "
        "~60 MB/s,\nblock upload at ~21 MB/s, block download reaches "
        "~165 MB/s at 96 workers.\n");
  }
  benchutil::finish_obs(obs_flags, observer);
  return 0;
}
