// Reproduces Fig. 8 of the paper: Table storage Insert / Query / Update /
// Delete time vs. workers, one series per entity size (4..64 KB). Each
// worker works on 500 entities in its own partition; updates are
// unconditional (ETag "*"); ServerBusy is retried after a 1 s sleep.
//
// The table itself is built by benchfig::fig8_table (fig_workloads.hpp),
// shared with the declarative scenario driver (bench_scenario.cpp).
//
// Flags: --workers=N, --entities=N, --quick, --csv, --obs, --obs-json=FILE.
#include <cstdio>

#include "bench_util.hpp"
#include "fig_workloads.hpp"
#include "obs/observer.hpp"

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--workers=", "--entities=",
                                 "--quick", "--csv", "--obs", "--obs-json=",
                                 "--trace"});
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  const benchutil::ObsFlags obs_flags = benchutil::obs_flags(argc, argv);
  obs::Observer observer;

  benchfig::Fig8Options opt;
  opt.workers = benchutil::worker_sweep(argc, argv);
  opt.entities = static_cast<int>(benchutil::flag_int(
      argc, argv, "--entities",
      benchutil::flag_set(argc, argv, "--quick") ? 100 : 500, 1));
  if (obs_flags.enabled) opt.observer = &observer;

  std::printf(
      "AzureBench Fig. 8 — Table storage operations vs. workers\n"
      "%d entities per worker per phase; per-phase times in seconds\n\n",
      opt.entities);

  const benchutil::Table table = benchfig::fig8_table(opt);
  if (csv) {
    table.print_csv();
  } else {
    table.print();
    std::printf(
        "\nPaper shapes: times near-constant through ~4 workers; for 32/64 "
        "KB entities\nthe times rise drastically with workers; Update is the "
        "most expensive\noperation and Query the cheapest.\n");
  }
  benchutil::finish_obs(obs_flags, observer);
  return 0;
}
