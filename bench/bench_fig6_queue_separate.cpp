// Reproduces Fig. 6 of the paper: Queue storage with a separate queue per
// worker — Put / Peek / Get(+Delete) time vs. workers, one series per
// message size (4, 8, 16, 32, 64 KB; the 64 KB point carries the 48 KB
// usable payload).
//
// 20,000 messages in total regardless of worker count. The consistently
// slow 16 KB Get the paper reports is reproduced; pass --no-anomaly to
// disable that quirk.
//
// The table itself is built by benchfig::fig6_table (fig_workloads.hpp),
// shared with the declarative scenario driver (bench_scenario.cpp).
//
// Flags: --workers=N, --messages=N, --quick, --no-anomaly, --csv,
//        --obs, --obs-json=FILE, --trace (print one GetMessage span tree).
#include <cstdio>

#include "bench_util.hpp"
#include "fig_workloads.hpp"
#include "obs/observer.hpp"

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--workers=", "--messages=",
                                 "--quick", "--no-anomaly", "--csv", "--obs",
                                 "--obs-json=", "--trace"});
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  const benchutil::ObsFlags obs_flags = benchutil::obs_flags(argc, argv);
  obs::Observer observer;

  benchfig::Fig6Options opt;
  opt.workers = benchutil::worker_sweep(argc, argv);
  opt.messages = benchutil::flag_int(
      argc, argv, "--messages",
      benchutil::flag_set(argc, argv, "--quick") ? 2'000 : 20'000, 1);
  opt.no_anomaly = benchutil::flag_set(argc, argv, "--no-anomaly");
  if (obs_flags.enabled) opt.observer = &observer;

  std::printf(
      "AzureBench Fig. 6 — Queue storage, separate queue per worker\n"
      "%lld messages total; phase times in seconds%s\n\n",
      static_cast<long long>(opt.messages),
      opt.no_anomaly ? " [ablation: 16 KB Get anomaly OFF]" : "");

  const benchutil::Table table = benchfig::fig6_table(opt);
  if (csv) {
    table.print_csv();
  } else {
    table.print();
    std::printf(
        "\nPaper shapes: near-flat scaling across workers and sizes; "
        "Peek < Put < Get;\nthe 16 KB Get point is consistently slower than "
        "both smaller and larger sizes.\n");
  }
  benchutil::finish_obs(obs_flags, observer);
  if (obs_flags.trace) benchutil::print_obs_trace(observer, "queue.get");
  return 0;
}
