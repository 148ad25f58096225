// perfbench: runs one workload for a fixed host-time budget and prints its
// host-cost metrics as the last line of stdout, as one JSON object:
//
//   perfbench --workload queue_deep --seed 1 --seconds 55 --trace 0
//             --spec-dir perfbench/specs [--commit SHA]
//
// --trace 0 prints the end-to-end metrics of untraced replays; --trace 1
// alternates untraced and traced replays and prints the per-layer metrics.
// perfbench/run.py builds this binary and passes the flags through.
//
// Exit codes: 0 ok, 1 output gate failed (the JSON is still printed, with
// every operation counted as failed), 2 usage or spec error, 3 refused
// build (unoptimized or sanitized).
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "strict_parse.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The CPUs this process may run on. On a shared VM, what else runs on the
/// physical cores behind the vCPUs slows a replay by up to half, for seconds
/// to minutes at a time, and by different amounts on different vCPUs at the
/// same moment. A run therefore moves from CPU to CPU between replays, so
/// that its median is taken over every CPU rather than over whichever one
/// the scheduler kept it on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Moves this (single-threaded) process onto `cpu`. Best effort: when the
/// call fails the replay runs wherever the scheduler puts it.
void run_on(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// Set-up takes microseconds, and the host's speed drifts over seconds, so
// a run repeats it in batches spread over the whole run (one batch before
// the first replay and one after each) and reports the median.
constexpr int kSetupBatch = 101;
// Two replays at least, so every run checks that replays agree.
constexpr std::size_t kMinReplays = 2;

struct Flags {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 55;
  bool trace = false;
  std::string spec_dir = "perfbench/specs";
  std::string commit = "unknown";
};

std::int64_t int_flag(const std::string& name, std::string_view value,
                      std::int64_t lo, std::int64_t hi) {
  const std::int64_t v = benchutil::require_int(name.c_str(), value);
  if (v < lo || v > hi) {
    throw benchutil::UsageError(
        name, std::string(value),
        "value out of range [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "]");
  }
  return v;
}

Flags parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; i += 2) {
    const std::string name = argv[i];
    if (i + 1 >= argc) throw benchutil::UsageError(name, "", "missing value");
    const std::string_view value = argv[i + 1];
    if (name == "--workload") {
      f.workload = value;
    } else if (name == "--seed") {
      f.seed = benchutil::require_uint64(name.c_str(), value);
    } else if (name == "--seconds") {
      f.seconds = static_cast<double>(int_flag(name, value, 1, 600));
    } else if (name == "--trace") {
      f.trace = int_flag(name, value, 0, 1) == 1;
    } else if (name == "--spec-dir") {
      f.spec_dir = value;
    } else if (name == "--commit") {
      f.commit = value;
    } else {
      throw benchutil::UsageError(name, std::string(value), "unknown flag");
    }
  }
  if (perfbench::find_workload(f.workload) == nullptr) {
    throw benchutil::UsageError("--workload", f.workload, "unknown workload");
  }
  return f;
}

/// Why this build must not produce numbers, or nullptr.
const char* refused_build() {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return "an unoptimized or assert-enabled (Debug) build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#else
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "a sanitizer build";
  }
  return nullptr;
#endif
}

std::string number(double v) {
  char buf[64];
  const bool integral = v == std::floor(v) && std::fabs(v) < 1e15;
  const auto r = integral
                     ? std::to_chars(buf, buf + sizeof buf, v,
                                     std::chars_format::fixed, 0)
                     : std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<perfbench::Metric>& metrics) {
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-32s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Peak resident memory of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the parent's pages, duplicated by fork
/// before the exec.)
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

int run(const Flags& flags) {
  const perfbench::Workload& w = *perfbench::find_workload(flags.workload);

  // Set-up: spec load and validation, then world construction.
  std::vector<double> parse_s, world_s, setup_s;
  framework::Scenario sc;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupBatch; ++i) {
      const Clock::time_point t0 = Clock::now();
      sc = perfbench::load_workload(flags.spec_dir, w, flags.seed);
      parse_s.push_back(seconds_since(t0));
      world_s.push_back(perfbench::world_build_seconds(sc));
      setup_s.push_back(parse_s.back() + world_s.back());
    }
  };
  set_up();

  // Replays until the budget is spent. An untraced replay is timed from
  // the call into the front end to its rendered output.
  std::vector<double> wall_s, traced_s, export_s;
  std::vector<std::vector<std::pair<std::string, double>>> point_runs;
  std::string first_obs_json;
  std::unique_ptr<obs::Observer> first_observer;
  perfbench::Traced first_traced;
  perfbench::Replay first;
  double first_rss_mib = 0;
  bool replays_agree = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const std::vector<int> cpus = allowed_cpus();
  const Clock::time_point start = Clock::now();
  for (;;) {
    if (!cpus.empty()) run_on(cpus[wall_s.size() % cpus.size()]);
    Clock::time_point t0 = Clock::now();
    perfbench::Replay r = perfbench::run_untraced(sc);
    wall_s.push_back(seconds_since(t0));
    attempted += r.attempted;
    failed += r.failed;
    if (wall_s.size() == 1) {
      // What one run of the workload holds at its peak, read before later
      // replays can nudge it: the figure must not depend on how many
      // replays fit in the budget.
      first_rss_mib = peak_rss_mib();
      first = r;
    } else {
      replays_agree = replays_agree && r.output == first.output;
    }
    double per_round = median(wall_s);

    if (flags.trace) {
      auto observer = std::make_unique<obs::Observer>();
      t0 = Clock::now();
      perfbench::Traced t = perfbench::run_traced(sc, *observer);
      traced_s.push_back(seconds_since(t0));
      t0 = Clock::now();
      std::string obs_json = observer->to_json();
      export_s.push_back(seconds_since(t0));
      attempted += t.replay.attempted;
      failed += t.replay.failed;
      // Traced output must equal the untraced output; simulated counts
      // (the whole deterministic export) must repeat exactly.
      replays_agree = replays_agree && t.replay.output == first.output;
      point_runs.push_back(t.point_s);
      if (first_observer == nullptr) {
        first_observer = std::move(observer);
        first_obs_json = std::move(obs_json);
        first_traced = std::move(t);
      } else {
        replays_agree = replays_agree && obs_json == first_obs_json &&
                        t.events == first_traced.events;
      }
      per_round += median(traced_s);
    }

    set_up();
    const std::size_t rounds = wall_s.size();
    const std::size_t min_rounds = flags.trace ? 1 : kMinReplays;
    if (rounds >= min_rounds &&
        seconds_since(start) + per_round > flags.seconds) {
      break;
    }
  }

  bool correct = replays_agree;
  if (perfbench::has_reference(sc, flags.seed) &&
      !perfbench::matches_reference(w, first.output)) {
    std::fprintf(stderr,
                 "perfbench: %s output digest %s, reference %.*s\n",
                 flags.workload.c_str(),
                 perfbench::digest(first.output).c_str(),
                 static_cast<int>(w.reference.size()), w.reference.data());
    correct = false;
  }
  if (!replays_agree) {
    std::fprintf(stderr, "perfbench: %s replays disagree\n",
                 flags.workload.c_str());
  }
  if (!correct) failed = attempted;

  std::vector<perfbench::Metric> metrics;
  if (!flags.trace) {
    const double wall = median(wall_s);
    metrics = {
        {"wall_s", "s", wall},
        {"sim_ops_per_s", "1/s",
         static_cast<double>(first.attempted - first.failed) / wall},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mib", "MiB", first_rss_mib},
    };
  } else {
    perfbench::HostTimes host;
    host.parse_s = median(parse_s);
    host.world_s = median(world_s);
    host.wall_s = median(wall_s);
    host.traced_wall_s = median(traced_s);
    host.export_s = median(export_s);
    for (std::size_t p = 0; p < first_traced.point_s.size(); ++p) {
      std::vector<double> samples;
      for (const auto& run : point_runs) samples.push_back(run[p].second);
      host.point_s.emplace_back(first_traced.point_s[p].first,
                                median(samples));
    }
    metrics = perfbench::layer_metrics(sc, *first_observer, first_traced, host);
  }
  std::printf(
      "perfbench %s: seed %llu, %zu replay round(s), trace %d; untraced "
      "replay host s: fastest %.4f, median %.4f, slowest %.4f\n",
      flags.workload.c_str(), static_cast<unsigned long long>(flags.seed),
      wall_s.size(), flags.trace ? 1 : 0,
      *std::min_element(wall_s.begin(), wall_s.end()), median(wall_s),
      *std::max_element(wall_s.begin(), wall_s.end()));
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* why = refused_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure %s; configure with "
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo and no sanitizer\n",
                 why);
    return 3;
  }
  Flags flags;
  try {
    flags = parse_flags(argc, argv);
  } catch (const benchutil::UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  }
  // Host stamp: results from different hosts or builds are not comparable.
  std::printf(
      "perfbench host: nproc=%ld compiler=%s build_type=%s commit=%s\n",
      sysconf(_SC_NPROCESSORS_ONLN),
#if defined(__clang__)
      "clang-" __clang_version__,
#else
      "gcc-" __VERSION__,
#endif
      PERFBENCH_BUILD_TYPE, flags.commit.c_str());
  try {
    return run(flags);
  } catch (const framework::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "spec error: %s\n", e.what());
    return 2;
  }
}
