// Host-cost benchmark for the simulator: the four workloads, the output gate
// and the per-layer readout of a traced replay. main.cpp runs the
// measurement loop; perfbench_test.cpp exercises these functions directly.
//
// "Performance" here is host cost. Simulated latencies are outputs: a
// replay's canonical output (the figure CSV, or benchscn::canonical_report
// for the open-loop mix) must stay byte-identical, so it is checked against
// a recorded digest instead of being measured.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "framework/scenario.hpp"
#include "obs/observer.hpp"

namespace perfbench {

/// The seed the reference digests were recorded at. Figure replays have
/// fixed paper configurations and ignore the seed; mixed_open_loop derives
/// its arrivals, keys, faults and sessions from it.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  std::string_view name;       ///< its spec is specs/<name>.json
  std::string_view reference;  ///< digest() of the output at kDefaultSeed
};

/// The workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(std::string_view name);

/// Re-derives every seeded stream of a generic spec from `seed`, exactly as
/// the parser derives them from a spec's "seed" key. Figure specs are left
/// alone.
void reseed(framework::Scenario& sc, std::uint64_t seed);

/// Strict-parses `spec_dir/<w.name>.json` and applies `seed`.
framework::Scenario load_workload(const std::string& spec_dir,
                                  const Workload& w, std::uint64_t seed);

/// Host seconds to build what a replay builds before its first simulated
/// event, measured up to the end of construction (not the teardown): the
/// storage driver for a generic spec, or the cloud environment and worker
/// deployment of the first figure point.
double world_build_seconds(const framework::Scenario& sc);

/// One replay's canonical output and operation accounting.
struct Replay {
  std::string output;
  /// Simulated operations the workload issued: arrivals for the open loop;
  /// for a figure, the operations it measures (a get and its delete count
  /// as one, as in the paper; barrier and queue-creation traffic is not
  /// counted).
  std::int64_t attempted = 0;
  /// Operations that errored, were shed, were dead-lettered or failed on
  /// throttling. Misses (absent key, empty queue) are not failures.
  std::int64_t failed = 0;
};

/// The untraced replay, through the shared front ends
/// (benchfig::fig*_table, benchscn::run_generic_scenario).
Replay run_untraced(const framework::Scenario& sc);

/// The traced replay with `observer` attached: the same output, plus the
/// host seconds of each figure point (one fig*_table call per worker count)
/// and, for a generic spec, the kernel's event count and per-service
/// outcome counts.
struct Traced {
  Replay replay;
  std::vector<std::pair<std::string, double>> point_s;  ///< "w16" -> s
  std::uint64_t events = 0;
  struct ServiceCounts {
    std::string service;
    std::int64_t ops = 0, err = 0, miss = 0;
  };
  std::vector<ServiceCounts> services;
};
Traced run_traced(const framework::Scenario& sc, obs::Observer& observer);

/// FNV-1a 64 of `text`, as 16 lower-case hex digits.
std::string digest(std::string_view text);

/// The output gate for one replay: at the reference seed (any seed, for a
/// figure replay) the output's digest must equal the recorded one.
/// Elsewhere there is no reference and only replay agreement is checked.
bool has_reference(const framework::Scenario& sc, std::uint64_t seed);
bool matches_reference(const Workload& w, std::string_view output);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Host-side inputs to the per-layer readout, each a median over a run.
struct HostTimes {
  double parse_s = 0;           ///< framework::load_scenario_file
  double world_s = 0;           ///< world_build_seconds()
  double wall_s = 0;            ///< untraced replay
  double traced_wall_s = 0;     ///< traced replay
  double export_s = 0;          ///< Observer::to_json
  std::vector<std::pair<std::string, double>> point_s;
};

/// Every per-layer metric, in BENCHMARK.json order. A metric a workload
/// does not exercise reads 0 (for instance `load.*` on a figure replay).
std::vector<Metric> layer_metrics(const framework::Scenario& sc,
                                  const obs::Observer& observer,
                                  const Traced& traced,
                                  const HostTimes& host);

}  // namespace perfbench
