// Scenario driver: interprets a declarative spec file
// (framework/scenario.hpp) instead of hard-coding one workload per binary.
// It is the one front end for the paper figures and for every other
// workload in scenarios/.
//
//   bench_scenario --spec=scenarios/ycsb_a.json
//   bench_scenario --spec=scenarios/fig4.json --csv
//   bench_scenario --smoke --selfcheck
//
// Figure-mode specs replay a paper figure through the benchfig::figN_table
// builders (fig_workloads.hpp); `ctest -L parity` checks their tables
// against the committed CSVs in tests/golden/. Generic-mode specs run an
// open-loop LoadEngine workload (scenario_runner.hpp).
//
// Flags:
//   --spec=FILE    the scenario spec (required unless --smoke)
//   --smoke        built-in tiny four-service spec for CI
//   --backend=B    override the spec's backend (azure | s3 | tiered);
//                  generic mode only, and the mix must fit the target
//                  backend's capabilities
//   --csv          machine-diffable output: the table(s) only, as CSV
//   --selfcheck    run twice, fail (exit 1) unless byte-identical —
//                  including the obs JSON export when --obs is on
//   --obs, --obs-json=FILE, --trace   observability export of the first
//                  run (bench_util.hpp); --trace prints one sample span
//                  tree, a queue get's where the run has one
//
// Exit codes: 0 ok, 1 selfcheck divergence, 2 usage/spec error.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "fig_workloads.hpp"
#include "framework/scenario.hpp"
#include "obs/observer.hpp"
#include "scenario_runner.hpp"

namespace {

// A little of everything, sized to finish in well under a second of wall
// time: all four services, a zipf hot spot, faults off.
constexpr const char* kSmokeSpec = R"({
  "name": "smoke",
  "description": "CI smoke: every service, tiny scale",
  "seed": 7,
  "operations": 400,
  "read_ratio": 0.6,
  "populate": 64,
  "arrivals": {"kind": "poisson", "rate_per_sec": 200.0},
  "keys": {"kind": "zipf", "space": 64, "zipf_s": 0.99},
  "values": {"bytes": 2048},
  "mix": [
    {"service": "blob", "op": "mixed", "weight": 1.0},
    {"service": "queue", "op": "mixed", "weight": 1.0},
    {"service": "table", "op": "mixed", "weight": 1.0},
    {"service": "sql", "op": "mixed", "weight": 1.0}
  ]
})";

benchutil::Table figure_table(const framework::Scenario& sc,
                              obs::Observer* observer) {
  const framework::ScenarioFigure& f = *sc.figure;
  switch (f.id) {
    case 4: {
      benchfig::Fig4Options o;
      if (!f.workers.empty()) o.workers = f.workers;
      o.repeats = f.repeats;
      o.no_replica_reads = f.no_replica_reads;
      o.observer = observer;
      return benchfig::fig4_table(o);
    }
    case 5: {
      benchfig::Fig5Options o;
      if (!f.workers.empty()) o.workers = f.workers;
      o.repeats = f.repeats;
      o.observer = observer;
      return benchfig::fig5_table(o);
    }
    case 6: {
      benchfig::Fig6Options o;
      if (!f.workers.empty()) o.workers = f.workers;
      o.messages = f.messages;
      o.no_anomaly = f.no_anomaly;
      o.observer = observer;
      return benchfig::fig6_table(o);
    }
    case 7: {
      benchfig::Fig7Options o;
      if (!f.workers.empty()) o.workers = f.workers;
      o.messages = f.messages;
      o.observer = observer;
      return benchfig::fig7_table(o);
    }
    case 8: {
      benchfig::Fig8Options o;
      if (!f.workers.empty()) o.workers = f.workers;
      o.entities = f.entities;
      o.observer = observer;
      return benchfig::fig8_table(o);
    }
    default: {
      benchfig::Fig9Options o;
      if (!f.workers.empty()) o.workers = f.workers;
      o.entities = f.entities;
      o.messages = f.messages;
      o.observer = observer;
      return benchfig::fig9_table(o);
    }
  }
}

/// One full run: the canonical report string (the selfcheck contract
/// compares it, plus the observer's JSON) and the tables to print.
struct RunOutput {
  std::string canonical;
  benchutil::Table table;          // figure table or mix table
  benchutil::Table extra{{}};      // generic mode: the load table
  bool has_extra = false;
};

RunOutput run_once(const framework::Scenario& sc, obs::Observer* observer) {
  if (sc.figure_mode()) {
    RunOutput out{.canonical = "", .table = figure_table(sc, observer)};
    out.canonical = "scenario," + sc.name + "\n" + out.table.csv_string();
    return out;
  }
  const benchscn::ScenarioRunResult r =
      benchscn::run_generic_scenario(sc, observer);
  RunOutput out{.canonical = benchscn::canonical_report(sc, r),
                .table = benchscn::mix_table(sc, r)};
  out.extra = benchscn::load_table(r);
  out.has_extra = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::require_known_flags(
      argc, argv,
      {"--spec=", "--smoke", "--backend=", "--csv", "--selfcheck", "--obs",
       "--obs-json=", "--trace"},
      {"--spec"});
  const bool smoke = benchutil::flag_set(argc, argv, "--smoke");
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  const bool selfcheck = benchutil::flag_set(argc, argv, "--selfcheck");
  const benchutil::ObsFlags obs_flags = benchutil::obs_flags(argc, argv);
  // Both `--spec=FILE` and `--spec FILE` are accepted.
  std::string spec_path = benchutil::flag_value(argc, argv, "--spec");
  if (spec_path.empty()) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--spec") == 0) {
        spec_path = argv[i + 1];
        break;
      }
    }
  }

  framework::Scenario sc;
  try {
    if (smoke) {
      sc = framework::parse_scenario(kSmokeSpec);
    } else if (!spec_path.empty()) {
      sc = framework::load_scenario_file(spec_path);
    } else {
      std::fprintf(stderr,
                   "usage error: give --spec=FILE (or --smoke); see "
                   "scenarios/ for the pack\n");
      return 2;
    }
  } catch (const framework::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }

  // --backend=B re-targets a generic spec at another backend without
  // editing the file (the cross-backend cost sweeps run one spec N times).
  const std::string backend_flag =
      benchutil::flag_value(argc, argv, "--backend");
  if (!backend_flag.empty()) {
    if (sc.figure_mode()) {
      std::fprintf(stderr,
                   "usage error: --backend does not apply to figure-replay "
                   "specs (figures are defined by the Azure contract)\n");
      return 2;
    }
    if (backend_flag == "azure") {
      sc.backend = framework::BackendKind::kAzure;
    } else if (backend_flag == "s3") {
      sc.backend = framework::BackendKind::kS3;
    } else if (backend_flag == "tiered") {
      sc.backend = framework::BackendKind::kTiered;
    } else {
      std::fprintf(stderr,
                   "usage error: unknown backend '%s' (azure | s3 | tiered)\n",
                   backend_flag.c_str());
      return 2;
    }
    // The parser validated the mix against the spec's own backend; the
    // override must re-check against the new one.
    for (const framework::ScenarioMixEntry& e : sc.mix) {
      if (!framework::backend_supports(sc.backend, e.service)) {
        std::fprintf(stderr,
                     "usage error: backend '%s' has no %s service — the mix "
                     "in this spec does not fit it\n",
                     framework::backend_name(sc.backend),
                     framework::service_name(e.service));
        return 2;
      }
    }
  }

  obs::Observer observer;
  const RunOutput out =
      run_once(sc, obs_flags.enabled ? &observer : nullptr);
  if (selfcheck) {
    obs::Observer replay_observer;
    const RunOutput replay =
        run_once(sc, obs_flags.enabled ? &replay_observer : nullptr);
    if (replay.canonical != out.canonical ||
        replay_observer.to_json() != observer.to_json()) {
      std::fprintf(stderr,
                   "selfcheck FAILED: replay of scenario '%s' diverged\n",
                   sc.name.c_str());
      return 1;
    }
  }

  if (csv) {
    out.table.print_csv();
    if (out.has_extra) {
      std::printf("\n");
      out.extra.print_csv();
    }
  } else {
    std::printf("AzureBench scenario '%s'%s%s\n", sc.name.c_str(),
                sc.description.empty() ? "" : " — ",
                sc.description.c_str());
    if (sc.figure_mode()) {
      std::printf("figure-replay mode: fig%d\n\n", sc.figure->id);
    } else {
      std::printf(
          "generic mode: backend %s, %lld ops, seed %llu, populate %lld per "
          "service\n\n",
          framework::backend_name(sc.backend),
          static_cast<long long>(sc.operations),
          static_cast<unsigned long long>(sc.seed),
          static_cast<long long>(sc.populate_count()));
    }
    out.table.print();
    if (out.has_extra) {
      std::printf("\n");
      out.extra.print();
    }
    if (selfcheck) std::printf("\nselfcheck: PASS (byte-identical replay)\n");
  }

  if (!benchutil::finish_obs(obs_flags, observer)) return 2;
  if (obs_flags.trace) benchutil::print_obs_trace(observer, "queue.get");
  return 0;
}
