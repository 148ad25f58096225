// Reproduces Fig. 7 of the paper: Queue storage with a single queue shared
// by all workers — Put / Peek / Get(+Delete) communication time vs.
// workers, one series per think time (1..5 s). 32 KB messages; 20,000
// messages total split into <=500-message rounds; think time between
// accesses is excluded from the reported times.
//
// The table itself is built by benchfig::fig7_table (fig_workloads.hpp),
// shared with the declarative scenario driver (bench_scenario.cpp).
//
// Flags: --workers=N, --messages=N, --quick, --csv, --obs, --obs-json=FILE.
#include <cstdio>

#include "bench_util.hpp"
#include "fig_workloads.hpp"
#include "obs/observer.hpp"

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--workers=", "--messages=",
                                 "--quick", "--csv", "--obs", "--obs-json=",
                                 "--trace"});
  auto sweep = benchutil::worker_sweep(argc, argv);
  // A single worker cycling 20,000 messages with 1-5 s think times spans
  // >10 virtual days — past the 7-day message TTL that Algorithm 2's
  // barrier (and any long-lived queue state) depends on. The sweep
  // therefore starts at 2 workers unless --workers forces a point.
  if (sweep.size() > 1) {
    std::erase_if(sweep, [](int w) { return w < 2; });
  }
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  const benchutil::ObsFlags obs_flags = benchutil::obs_flags(argc, argv);
  obs::Observer observer;

  benchfig::Fig7Options opt;
  opt.workers = sweep;
  opt.messages = benchutil::flag_int(
      argc, argv, "--messages",
      benchutil::flag_set(argc, argv, "--quick") ? 2'000 : 20'000, 1);
  if (obs_flags.enabled) opt.observer = &observer;

  std::printf(
      "AzureBench Fig. 7 — Queue storage, single shared queue\n"
      "%lld messages total, 32 KB each; per-worker communication time "
      "(think time excluded)\n\n",
      static_cast<long long>(opt.messages));

  const benchutil::Table table = benchfig::fig7_table(opt);
  if (csv) {
    table.print_csv();
  } else {
    table.print();
    std::printf(
        "\nPaper shapes: shared-queue ops cost more than with per-worker "
        "queues; the\ntime per operation falls as think time grows (by up to "
        "~2x) and total\ncommunication time falls as workers grow (fixed "
        "total transactions).\n");
  }
  benchutil::finish_obs(obs_flags, observer);
  return 0;
}
