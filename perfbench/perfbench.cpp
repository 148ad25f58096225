#include "perfbench.hpp"

#include <chrono>
#include <stdexcept>

#include "azure/environment.hpp"
#include "core/queue_benchmark.hpp"
#include "fabric/deployment.hpp"
#include "fig_workloads.hpp"
#include "scenario_runner.hpp"
#include "storage/driver.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- figures ----

/// The Fig. 6 CSV through the shared table builder.
std::string figure_csv(const framework::ScenarioFigure& f,
                       const std::vector<int>& workers,
                       obs::Observer* observer) {
  benchfig::Fig6Options o;
  o.workers = workers;
  o.messages = f.messages;
  o.no_anomaly = f.no_anomaly;
  o.observer = observer;
  return benchfig::fig6_table(o).csv_string();
}

/// The operations Fig. 6 measures at one worker count, from the loop
/// bounds of the core benchmark (Algorithm 3 of the paper): put, peek and
/// get(+delete) per message, per size.
std::int64_t figure_ops(const framework::ScenarioFigure& f, int workers) {
  const std::int64_t w = workers;
  const azurebench::QueueSeparateConfig cfg;
  return 3 * (f.messages / w) * w *
         static_cast<std::int64_t>(cfg.message_sizes.size());
}

std::int64_t figure_ops(const framework::ScenarioFigure& f) {
  std::int64_t ops = 0;
  for (const int w : f.workers) ops += figure_ops(f, w);
  return ops;
}

// ------------------------------------------------------------- generic ----

Replay generic_replay(const framework::Scenario& sc,
                      const benchscn::ScenarioRunResult& r) {
  Replay out;
  out.output = benchscn::canonical_report(sc, r);
  out.attempted = r.stats.offered;
  // A throttle failure is booked twice: as its mix entry's err and as the
  // engine's dead letter.
  out.failed = r.stats.shed + r.stats.dead_lettered - r.stats.throttle_failures;
  for (const benchscn::MixStat& ms : r.per_entry) out.failed += ms.err;
  return out;
}

/// benchscn::run_generic_scenario, step for step, keeping the simulation
/// in reach so its event count can be read. The output gate compares this
/// replay with the untraced one byte for byte, so the two cannot drift
/// apart unnoticed.
benchscn::ScenarioRunResult run_generic_counting(const framework::Scenario& sc,
                                                 obs::Observer& observer,
                                                 std::uint64_t& events) {
  benchscn::detail::Driver d(sc);
  d.s.set_observer(&observer);

  framework::LoadEngineConfig ecfg;
  ecfg.arrivals = sc.arrivals;
  ecfg.max_sessions = sc.operations;
  ecfg.max_in_flight = sc.max_in_flight;
  ecfg.max_pending = sc.max_pending;
  ecfg.session_seed = framework::scenario_derive_seed(sc.seed, 0x5E55);
  framework::LoadEngine engine(
      d.s, ecfg,
      [&d](framework::LoadEngine::Session& sess) { return d.session(sess); });

  d.s.spawn(d.setup(engine), "scenario-setup");
  d.s.run();
  events = d.s.events_executed();

  benchscn::ScenarioRunResult r;
  r.stats = engine.stats();
  r.per_entry = std::move(d.stat);
  r.duration_s = sim::to_seconds(r.stats.last_completion);
  r.ops_per_sec = r.duration_s > 0
                      ? static_cast<double>(r.stats.completed) / r.duration_s
                      : 0;
  return r;
}

// ------------------------------------------------------------- readout ----

std::int64_t counter(const obs::Observer& o, std::string_view name) {
  std::int64_t v = 0;
  o.metrics().for_each_counter(
      [&](const std::string& n, const obs::Counter& c) {
        if (n == name) v = c.value();
      });
  return v;
}

double histogram_ms(const obs::Observer& o, std::string_view name, double q) {
  double v = 0;
  o.metrics().for_each_histogram(
      [&](const std::string& n, const obs::LatencyHistogram& h) {
        if (n == name) v = sim::to_millis(h.quantile(q));
      });
  return v;
}

double layer_ms(const obs::Observer& o, obs::SpanKind kind, double q) {
  return sim::to_millis(o.layer(kind).quantile(q));
}

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 1.0;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // References: digests of `bench_scenario --spec=<spec> --csv` output for
  // the specs in specs/ (for the open loop, prefixed with the two
  // header lines of benchscn::canonical_report). Only a change that means
  // to move simulated results may re-record them.
  static const std::vector<Workload> kWorkloads = {
      {"queue_deep", "2e03f11f1d25a954"},
      {"mixed_open_loop", "b62443d2f3be2e7d"},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void reseed(framework::Scenario& sc, std::uint64_t seed) {
  if (sc.figure_mode()) return;
  // The salts are the parser's (framework/scenario.cpp); the tests pin this
  // against a spec that carries the seed itself.
  sc.seed = seed;
  sc.arrivals.seed = framework::scenario_derive_seed(seed, 0x10AD);
  sc.keys.seed = framework::scenario_derive_seed(seed, 0x4E59);
  sc.faults.seed = framework::scenario_derive_seed(seed, 0xFA);
}

framework::Scenario load_workload(const std::string& spec_dir,
                                  const Workload& w, std::uint64_t seed) {
  const std::string path = spec_dir + "/" + std::string(w.name) + ".json";
  framework::Scenario sc = framework::load_scenario_file(path);
  if (sc.figure_mode() &&
      (sc.figure->workers.empty() || sc.figure->id != 6)) {
    throw std::invalid_argument(path +
                                ": a figure workload is fig6 with an "
                                "explicit worker list");
  }
  reseed(sc, seed);
  return sc;
}

double world_build_seconds(const framework::Scenario& sc) {
  const Clock::time_point t0 = Clock::now();
  sim::Simulation s;
  if (!sc.figure_mode()) {
    const std::unique_ptr<storage::Driver> driver = storage::make_driver(s, sc);
    return seconds_since(t0);
  }
  azure::CloudEnvironment env(s);
  fabric::Deployment deployment(env);
  deployment.add_worker_roles(sc.figure->workers.front());
  return seconds_since(t0);
}

Replay run_untraced(const framework::Scenario& sc) {
  if (!sc.figure_mode()) {
    return generic_replay(sc, benchscn::run_generic_scenario(sc, nullptr));
  }
  const framework::ScenarioFigure& f = *sc.figure;
  return Replay{figure_csv(f, f.workers, nullptr), figure_ops(f), 0};
}

Traced run_traced(const framework::Scenario& sc, obs::Observer& observer) {
  Traced t;
  if (!sc.figure_mode()) {
    const benchscn::ScenarioRunResult r =
        run_generic_counting(sc, observer, t.events);
    t.replay = generic_replay(sc, r);
    for (std::size_t i = 0; i < sc.mix.size(); ++i) {
      const benchscn::MixStat& ms = r.per_entry[i];
      t.services.push_back({framework::service_name(sc.mix[i].service),
                            ms.count, ms.err, ms.miss});
    }
    return t;
  }
  // One table call per worker count: each point is its own simulation
  // inside fig6_table, so the rows concatenate to the full figure's CSV.
  const framework::ScenarioFigure& f = *sc.figure;
  for (const int w : f.workers) {
    const Clock::time_point t0 = Clock::now();
    const std::string csv = figure_csv(f, {w}, &observer);
    t.point_s.emplace_back("w" + std::to_string(w), seconds_since(t0));
    const std::size_t body = csv.find('\n') + 1;
    t.replay.output += t.replay.output.empty() ? csv : csv.substr(body);
  }
  t.replay.attempted = figure_ops(f);
  return t;
}

std::string digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xF];
  }
  return out;
}

bool has_reference(const framework::Scenario& sc, std::uint64_t seed) {
  return sc.figure_mode() || seed == kDefaultSeed;
}

bool matches_reference(const Workload& w, std::string_view output) {
  return digest(output) == w.reference;
}

std::vector<Metric> layer_metrics(const framework::Scenario& sc,
                                  const obs::Observer& o, const Traced& t,
                                  const HostTimes& host) {
  using obs::SpanKind;
  std::vector<Metric> m;
  const auto add = [&m](std::string name, std::string unit, double v) {
    m.push_back({std::move(name), std::move(unit), v});
  };
  const auto count = [&](std::string name, std::int64_t v) {
    add(std::move(name), "count", static_cast<double>(v));
  };

  // core: host seconds of the one figure point the benchmark replays
  // (queue_deep's); the open loop reads 0.
  double w1 = 0;
  for (const auto& [p, s] : host.point_s) {
    if (p == "w1") w1 = s;
  }
  add("core.point_s.w1", "s", w1);

  // simcore
  count("simcore.events", static_cast<std::int64_t>(t.events));
  add("simcore.host_ns_per_event", "ns",
      t.events > 0 ? host.wall_s * 1e9 / static_cast<double>(t.events) : 0);

  // cluster
  const std::int64_t requests = counter(o, "cluster.requests");
  const std::int64_t rejects = counter(o, "cluster.throttle_rejects");
  count("cluster.requests", requests);
  count("cluster.replica_commits", counter(o, "cluster.replica_commits"));
  count("cluster.throttle_rejects", rejects);
  add("cluster.admit_ratio", "ratio", ratio(requests, requests + rejects));
  count("cluster.partition_moves", counter(o, "cluster.partition_moves"));
  add("cluster.server_ms.p50", "sim_ms",
      layer_ms(o, SpanKind::kServerProcess, 0.5));
  add("cluster.server_ms.p99", "sim_ms",
      layer_ms(o, SpanKind::kServerProcess, 0.99));
  add("cluster.executor_wait_ms.p99", "sim_ms",
      layer_ms(o, SpanKind::kExecutorQueue, 0.99));
  add("cluster.throttle_wait_ms.p99", "sim_ms",
      layer_ms(o, SpanKind::kThrottleWait, 0.99));
  add("cluster.replication_ms.p99", "sim_ms",
      layer_ms(o, SpanKind::kReplication, 0.99));

  // azure services and the client retry layer
  const std::int64_t attempts = counter(o, "retry.attempts");
  count("azure.service_ops", o.layer(SpanKind::kServiceOp).count());
  add("azure.service_op_ms.p50", "sim_ms",
      layer_ms(o, SpanKind::kServiceOp, 0.5));
  add("azure.service_op_ms.p99", "sim_ms",
      layer_ms(o, SpanKind::kServiceOp, 0.99));
  add("azure.log_commit_ms.p99", "sim_ms",
      layer_ms(o, SpanKind::kLogCommit, 0.99));
  count("queue.redeliveries", counter(o, "queue.redeliveries"));
  count("retry.attempts", attempts);
  count("retry.backoffs", counter(o, "retry.backoffs"));
  add("retry.first_try_ratio", "ratio",
      ratio(o.layer(SpanKind::kClientRequest).count(), attempts));

  // netsim
  count("net.transfers", counter(o, "net.transfers"));
  count("net.bytes", counter(o, "net.bytes"));
  count("net.dropped", counter(o, "net.dropped"));
  add("netsim.transfer_ms.p99", "sim_ms",
      layer_ms(o, SpanKind::kNetTransfer, 0.99));

  // framework
  add("framework.parse_s", "s", host.parse_s);
  count("load.offered", counter(o, "load.offered"));
  count("load.completed", counter(o, "load.completed"));
  count("load.shed", counter(o, "load.shed"));
  count("load.throttle_failures", counter(o, "load.throttle_failures"));
  add("load.queue_wait_ms.p99", "sim_ms",
      histogram_ms(o, "load.queue_wait", 0.99));

  // storage drivers (generic specs) and the figure world (fabric)
  add("storage.make_driver_s", "s", sc.figure_mode() ? 0 : host.world_s);
  add("fabric.deploy_s", "s", sc.figure_mode() ? host.world_s : 0);
  for (const char* service : {"blob", "table", "queue", "sql"}) {
    Traced::ServiceCounts sum;
    for (const Traced::ServiceCounts& c : t.services) {
      if (c.service != service) continue;
      sum.ops += c.ops;
      sum.err += c.err;
      sum.miss += c.miss;
    }
    const std::string prefix = std::string("storage.") + service;
    count(prefix + ".ops", sum.ops);
    count(prefix + ".err", sum.err);
    count(prefix + ".miss", sum.miss);
  }

  // obs
  add("obs.overhead_ratio", "ratio",
      host.wall_s > 0 ? host.traced_wall_s / host.wall_s - 1 : 0);
  add("obs.export_s", "s", host.export_s);
  return m;
}

}  // namespace perfbench
