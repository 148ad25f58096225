// Reproduces Fig. 5 of the paper: chunk-wise blob download — each worker
// reads one 1 MB page/block at a time — time and aggregate throughput vs.
// workers. Pages are read at random offsets (paying the page-index lookup);
// blocks are read sequentially.
//
// The table itself is built by benchfig::fig5_table (fig_workloads.hpp),
// shared with the declarative scenario driver (bench_scenario.cpp).
//
// Flags: --workers=N, --repeats=N, --quick, --csv, --obs, --obs-json=FILE.
#include <cstdio>

#include "bench_util.hpp"
#include "fig_workloads.hpp"
#include "obs/observer.hpp"

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--workers=", "--repeats=",
                                 "--quick", "--csv", "--obs", "--obs-json=",
                                 "--trace"});
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  const benchutil::ObsFlags obs_flags = benchutil::obs_flags(argc, argv);
  obs::Observer observer;

  benchfig::Fig5Options opt;
  opt.workers = benchutil::worker_sweep(argc, argv);
  opt.repeats = static_cast<int>(benchutil::flag_int(
      argc, argv, "--repeats",
      benchutil::flag_set(argc, argv, "--quick") ? 3 : 10, 1, 1'000));
  if (obs_flags.enabled) opt.observer = &observer;

  std::printf(
      "AzureBench Fig. 5 — chunk-wise blob download vs. workers\n"
      "100 chunks of 1 MB per worker per repeat, %d repeats\n\n",
      opt.repeats);

  const benchutil::Table table = benchfig::fig5_table(opt);
  if (csv) {
    table.print_csv();
  } else {
    table.print();
    std::printf(
        "\nPaper reference points: random page-wise download reaches "
        "~71 MB/s and\nsequential block-wise download ~104 MB/s at 96 "
        "workers.\n");
  }
  benchutil::finish_obs(obs_flags, observer);
  return 0;
}
