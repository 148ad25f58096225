// The benchmark's own checks: metric names, spec strictness, the output
// gate, and seeding of the open-loop workload.
//
//   cmake --build .bench_build --target perfbench_test
//   ctest --test-dir .bench_build --output-on-failure
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "perfbench.hpp"

namespace {

const std::string kSpecDir = PERFBENCH_DIR "/specs";

const perfbench::Workload& workload(std::string_view name) {
  const perfbench::Workload* w = perfbench::find_workload(name);
  EXPECT_NE(w, nullptr) << name;
  return *w;
}

/// The metric names BENCHMARK.json declares under `section`.
std::vector<std::string> declared(const std::string& section) {
  std::ifstream in(PERFBENCH_DIR "/../BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::size_t begin = json.find("\"" + section + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const std::size_t end = json.find(']', begin);
  const std::string body = json.substr(begin, end - begin);
  const std::regex name_re("\"name\": \"([^\"]+)\"");
  std::vector<std::string> names;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

TEST(PerfbenchMetrics, NamesAreValidAndMatchBenchmarkJson) {
  const std::regex valid("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");

  // Per-layer metrics of a figure replay and of the open loop: the same
  // names, in BENCHMARK.json's order.
  const std::vector<std::string> per_layer = declared("per_layer");
  ASSERT_FALSE(per_layer.empty());
  for (const char* name : {"queue_deep", "mixed_open_loop"}) {
    const framework::Scenario sc = perfbench::load_workload(
        kSpecDir, workload(name), perfbench::kDefaultSeed);
    const obs::Observer observer;
    const std::vector<perfbench::Metric> metrics =
        perfbench::layer_metrics(sc, observer, {}, {});
    std::vector<std::string> names;
    for (const perfbench::Metric& m : metrics) {
      EXPECT_TRUE(std::regex_match(m.name, valid)) << m.name;
      names.push_back(m.name);
    }
    EXPECT_EQ(names, per_layer) << name;
  }
  const std::vector<std::string> end_to_end = declared("end_to_end");
  EXPECT_EQ(end_to_end, (std::vector<std::string>{
                            "wall_s", "sim_ops_per_s", "setup_s",
                            "peak_rss_mib"}));
  const std::vector<std::string> names = declared("workloads");
  ASSERT_EQ(names.size(), perfbench::workloads().size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], perfbench::workloads()[i].name);
  }
}

TEST(PerfbenchSpecs, EveryWorkloadSpecStrictParses) {
  for (const perfbench::Workload& w : perfbench::workloads()) {
    EXPECT_NO_THROW(
        perfbench::load_workload(kSpecDir, w, perfbench::kDefaultSeed))
        << w.name;
  }
  // The parser is strict: a misspelt key is an error, not a default.
  EXPECT_THROW(framework::parse_scenario(
                   R"({"name": "x", "figure": {"id": "fig6", "worker": [1]}})"),
               framework::ScenarioError);
}

TEST(PerfbenchSeed, ReseedMatchesTheParsersDerivation) {
  const std::string body =
      R"("name": "s", "operations": 10,
         "arrivals": {"kind": "poisson", "rate_per_sec": 10.0},
         "keys": {"kind": "zipf", "space": 64, "zipf_s": 1.2},
         "faults": {"latency_spike_probability": 0.01},
         "mix": [{"service": "blob", "op": "mixed", "weight": 1.0}])";
  const framework::Scenario seeded =
      framework::parse_scenario("{\"seed\": 7, " + body + "}");
  framework::Scenario reseeded = framework::parse_scenario("{" + body + "}");
  perfbench::reseed(reseeded, 7);
  EXPECT_EQ(reseeded.seed, seeded.seed);
  EXPECT_EQ(reseeded.arrivals.seed, seeded.arrivals.seed);
  EXPECT_EQ(reseeded.keys.seed, seeded.keys.seed);
  EXPECT_EQ(reseeded.faults.seed, seeded.faults.seed);
}

TEST(PerfbenchGate, DigestGateTripsOnPerturbedOutput) {
  const perfbench::Workload& w = workload("mixed_open_loop");
  const framework::Scenario sc =
      perfbench::load_workload(kSpecDir, w, perfbench::kDefaultSeed);
  ASSERT_TRUE(perfbench::has_reference(sc, perfbench::kDefaultSeed));
  const perfbench::Replay r = perfbench::run_untraced(sc);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.attempted, sc.operations);
  EXPECT_TRUE(perfbench::matches_reference(w, r.output));

  std::string perturbed = r.output;
  perturbed[perturbed.size() / 2] ^= 1;
  EXPECT_FALSE(perfbench::matches_reference(w, perturbed));
  EXPECT_FALSE(perfbench::matches_reference(w, r.output + "\n"));

  // The traced replay renders the same bytes.
  obs::Observer observer;
  const perfbench::Traced t = perfbench::run_traced(sc, observer);
  EXPECT_EQ(t.replay.output, r.output);
  EXPECT_GT(t.events, 0U);
}

TEST(PerfbenchSeed, NonDefaultSeedChangesInputsAndReplaysIdentically) {
  const perfbench::Workload& w = workload("mixed_open_loop");
  const framework::Scenario base =
      perfbench::load_workload(kSpecDir, w, perfbench::kDefaultSeed);
  const framework::Scenario other =
      perfbench::load_workload(kSpecDir, w, perfbench::kDefaultSeed + 41);
  EXPECT_NE(other.arrivals.seed, base.arrivals.seed);
  EXPECT_NE(other.keys.seed, base.keys.seed);
  EXPECT_NE(other.faults.seed, base.faults.seed);
  EXPECT_FALSE(perfbench::has_reference(other, perfbench::kDefaultSeed + 41));

  const perfbench::Replay a = perfbench::run_untraced(other);
  const perfbench::Replay b = perfbench::run_untraced(other);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.failed, 0);
  EXPECT_FALSE(perfbench::matches_reference(w, a.output));
}

}  // namespace
