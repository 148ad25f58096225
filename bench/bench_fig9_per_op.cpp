// Reproduces Fig. 9 of the paper: per-operation time for Table storage
// (insert, query, update, delete) and Queue storage (put, peek, get) vs.
// workers. Following the paper, the per-operation time is the total time
// taken by all workers to finish the operation divided by the number of
// workers (and here additionally by the per-worker op count to express it
// in ms/op). Queue numbers use 32 KB messages; table numbers use 32 KB
// entities — the midpoint sizes of Figs. 6 and 8.
//
// The table itself is built by benchfig::fig9_table (fig_workloads.hpp),
// shared with the declarative scenario driver (bench_scenario.cpp).
//
// Flags: --workers=N, --quick, --csv, --obs, --obs-json=FILE.
#include <cstdio>

#include "bench_util.hpp"
#include "fig_workloads.hpp"
#include "obs/observer.hpp"

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--workers=", "--quick", "--csv",
                                 "--obs", "--obs-json=", "--trace"});
  const bool quick = benchutil::flag_set(argc, argv, "--quick");
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  const benchutil::ObsFlags obs_flags = benchutil::obs_flags(argc, argv);
  obs::Observer observer;

  benchfig::Fig9Options opt;
  opt.workers = benchutil::worker_sweep(argc, argv);
  opt.entities = quick ? 100 : 500;
  opt.messages = quick ? 2'000 : 20'000;
  if (obs_flags.enabled) opt.observer = &observer;

  std::printf(
      "AzureBench Fig. 9 — per-operation time (ms) for Table and Queue "
      "storage\n32 KB payloads\n\n");

  const benchutil::Table table = benchfig::fig9_table(opt);
  if (csv) {
    table.print_csv();
  } else {
    table.print();
    std::printf(
        "\nPaper shape: Queue storage scales better than Table storage as "
        "workers\nincrease — table per-op times inflate while queue per-op "
        "times stay flat.\n");
  }
  benchutil::finish_obs(obs_flags, observer);
  return 0;
}
