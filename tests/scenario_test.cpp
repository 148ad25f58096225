// Scenario DSL suite (`ctest -L scenario`):
//   1. parser/binder error paths — every diagnostic is typed
//      (ScenarioError) and carries the JSON path plus line/column;
//   2. generator toolkit (framework/keygen.hpp) — known-answer sequences,
//      distribution moments inside analytic bounds, permutation/coverage
//      properties, and the zipf s=0 degenerate-to-uniform boundary fix;
//   3. bench_util flag parsing — the regression tests for this PR's bugfix
//      sweep (each documents the silent pre-fix behaviour it kills);
//   4. driver replay — the generic runner is a pure function of the spec:
//      two runs produce byte-identical reports and obs JSON exports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "framework/keygen.hpp"
#include "framework/scenario.hpp"
#include "obs/observer.hpp"
#include "scenario_runner.hpp"

namespace {

using framework::KeyGen;
using framework::KeyGenConfig;
using framework::parse_scenario;
using framework::Scenario;
using framework::ScenarioError;

// Expects `parse_scenario(text)` to fail with a diagnostic anchored at
// `path` whose reason contains `needle`.
void expect_error(const std::string& text, const std::string& path,
                  const std::string& needle, int line = -1) {
  try {
    (void)parse_scenario(text);
    FAIL() << "expected ScenarioError(" << path << ") for: " << text;
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.path(), path) << e.what();
    EXPECT_NE(e.reason().find(needle), std::string::npos) << e.what();
    if (line >= 0) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  }
}

// ------------------------------------------------------------ parser ------

TEST(ScenarioParser, RejectsUnknownTopLevelKeyWithLocation) {
  expect_error("{\n  \"name\": \"x\",\n  \"keyz\": 1\n}", "scenario",
               "unknown key 'keyz'", /*line=*/3);
}

TEST(ScenarioParser, RejectsUnknownNestedKeyWithPath) {
  expect_error(
      R"({"name":"x","mix":[{"service":"table"}],"arrivals":{"rate":5}})",
      "scenario.arrivals", "unknown key 'rate'");
}

TEST(ScenarioParser, RejectsDuplicateKeys) {
  expect_error(R"({"name":"x","name":"y"})", "<spec>", "duplicate key");
}

TEST(ScenarioParser, RejectsTrailingContent) {
  expect_error("{\"name\":\"x\",\"mix\":[{\"service\":\"table\"}]} garbage",
               "<spec>", "trailing content");
}

TEST(ScenarioParser, RejectsMissingName) {
  expect_error(R"({"mix":[{"service":"table"}]})", "scenario",
               "missing required key 'name'");
}

TEST(ScenarioParser, RequiresMixOrFigure) {
  expect_error(R"({"name":"x"})", "scenario", "either 'mix'");
}

TEST(ScenarioParser, RejectsZeroWeightMixEntry) {
  // Pre-fix class of bug: a zero-weight entry silently never executes; the
  // DSL rejects it outright instead.
  expect_error(
      R"({"name":"x","mix":[{"service":"table","op":"read","weight":0}]})",
      "scenario.mix[0].weight", "zero-weight");
}

TEST(ScenarioParser, RejectsReadRatioOutOfRange) {
  expect_error(
      R"({"name":"x","read_ratio":1.5,"mix":[{"service":"table"}]})",
      "scenario.read_ratio", "out of range");
}

TEST(ScenarioParser, RejectsDiurnalAmplitudeAtOne) {
  // Boundary: amplitude lives in the half-open [0, 1) — exactly 1.0 makes
  // the trough rate 0 and the thinning envelope degenerate.
  expect_error(R"({"name":"x","mix":[{"service":"table"}],)"
               R"("arrivals":{"kind":"diurnal","amplitude":1.0}})",
               "scenario.arrivals.amplitude", "must be in [0, 1)");
  // 0.999... is fine.
  const Scenario sc = parse_scenario(
      R"({"name":"x","mix":[{"service":"table"}],)"
      R"("arrivals":{"kind":"diurnal","amplitude":0.999}})");
  EXPECT_DOUBLE_EQ(sc.arrivals.amplitude, 0.999);
}

TEST(ScenarioParser, RejectsValueSizeLoAboveHi) {
  expect_error(R"({"name":"x","mix":[{"service":"table"}],)"
               R"("values":{"min_bytes":100,"max_bytes":10}})",
               "scenario.values.min_bytes", "exceeds max_bytes");
}

TEST(ScenarioParser, RejectsKeySpaceZero) {
  expect_error(R"({"name":"x","mix":[{"service":"table"}],)"
               R"("keys":{"space":0}})",
               "scenario.keys.space", "out of range");
}

TEST(ScenarioParser, RejectsZipfExponentAboveBound) {
  expect_error(R"({"name":"x","mix":[{"service":"table"}],)"
               R"("keys":{"kind":"zipf","zipf_s":16.5}})",
               "scenario.keys.zipf_s", "out of range");
}

TEST(ScenarioParser, RejectsInvalidOpForService) {
  expect_error(
      R"({"name":"x","mix":[{"service":"blob","op":"scan"}]})",
      "scenario.mix[0].op", "not valid for service 'blob'");
}

TEST(ScenarioParser, RejectsUnknownService) {
  expect_error(R"({"name":"x","mix":[{"service":"disk"}]})",
               "scenario.mix[0].service", "unknown service");
}

TEST(ScenarioParser, RejectsUnknownArrivalKind) {
  expect_error(R"({"name":"x","mix":[{"service":"table"}],)"
               R"("arrivals":{"kind":"bursty"}})",
               "scenario.arrivals.kind", "unknown arrival kind");
}

TEST(ScenarioParser, RejectsFigurePlusMix) {
  expect_error(R"({"name":"x","figure":{"id":"fig4"},)"
               R"("mix":[{"service":"table"}]})",
               "scenario.mix", "cannot also declare a mix");
}

TEST(ScenarioParser, RejectsGenericSectionsInFigureMode) {
  expect_error(
      R"({"name":"x","figure":{"id":"fig4"},"keys":{"space":10}})",
      "scenario.keys", "no effect in figure mode");
}

TEST(ScenarioParser, RejectsUnknownFigureId) {
  expect_error(R"({"name":"x","figure":{"id":"fig3"}})",
               "scenario.figure.id", "unknown figure");
}

TEST(ScenarioParser, RejectsQueuePayloadAboveMessageCap) {
  expect_error(R"({"name":"x","values":{"bytes":65536},)"
               R"("mix":[{"service":"queue","op":"put"}]})",
               "scenario.values", "cap at 49152");
}

TEST(ScenarioParser, RejectsIntegerOverflow) {
  expect_error(R"({"name":"x","operations":99999999999999999999})", "<spec>",
               "does not fit");
}

TEST(ScenarioParser, RejectsMalformedToken) {
  expect_error(R"({"name":"x","operations":12abc})", "<spec>", "");
}

TEST(ScenarioParser, ParsesFullGenericSpecWithCommentsAndDefaults) {
  const Scenario sc = parse_scenario(R"({
    // comments are allowed — this is a config dialect
    "name": "full",
    "description": "d",
    "seed": 42,
    "operations": 500,
    "read_ratio": 0.25,
    "queue_fanout": 3,
    "rows_per_partition": 32,
    "arrivals": {"kind": "flash_crowd", "rate_per_sec": 100.0,
                 "spike_at_s": 2.0, "spike_duration_s": 1.0,
                 "spike_rate_per_sec": 400.0},
    "think": {"mean_ms": 5.0, "jitter": 0.5},
    "keys": {"kind": "zipf", "space": 100, "zipf_s": 1.1},
    "values": {"min_bytes": 100, "max_bytes": 200},
    "cluster": {"partition_servers": 8, "balancer": true,
                "throttle": "queue"},
    "faults": {"drop_probability": 0.01, "server_crashes": 2},
    "mix": [
      {"service": "queue", "op": "put", "weight": 1.0},
      {"service": "queue", "op": "get", "weight": 2.0}
    ]
  })");
  EXPECT_EQ(sc.name, "full");
  EXPECT_EQ(sc.operations, 500);
  EXPECT_EQ(sc.queue_fanout, 3);
  EXPECT_EQ(sc.arrivals.kind, framework::ArrivalConfig::Kind::kFlashCrowd);
  EXPECT_EQ(sc.arrivals.spike_at, 2 * sim::kSecond);
  EXPECT_EQ(sc.think.mean, sim::millis(5));
  EXPECT_EQ(sc.keys.kind, KeyGenConfig::Kind::kZipf);
  EXPECT_EQ(sc.keys.space, 100u);
  EXPECT_EQ(sc.values.lo, 100);
  EXPECT_EQ(sc.values.hi, 200);
  EXPECT_TRUE(sc.cluster.balancer);
  EXPECT_TRUE(sc.cluster.throttle_queue);
  EXPECT_TRUE(sc.faults.enabled());
  ASSERT_EQ(sc.mix.size(), 2u);
  EXPECT_EQ(sc.mix[1].weight, 2.0);
  // Derived seeds: distinct per section, stable, functions of the master.
  EXPECT_EQ(sc.arrivals.seed, framework::scenario_derive_seed(42, 0x10AD));
  EXPECT_EQ(sc.keys.seed, framework::scenario_derive_seed(42, 0x4E59));
  EXPECT_NE(sc.arrivals.seed, sc.keys.seed);
  EXPECT_NE(sc.keys.seed, sc.faults.seed);
}

TEST(ScenarioParser, ExplicitSectionSeedsOverrideDerivation) {
  const Scenario sc = parse_scenario(
      R"({"name":"x","mix":[{"service":"table"}],)"
      R"("keys":{"seed":7},"arrivals":{"seed":8}})");
  EXPECT_EQ(sc.keys.seed, 7u);
  EXPECT_EQ(sc.arrivals.seed, 8u);
}

TEST(ScenarioParser, PopulateDefaultsDeriveFromSpace) {
  const Scenario small = parse_scenario(
      R"({"name":"x","mix":[{"service":"table"}],"keys":{"space":50}})");
  EXPECT_EQ(small.populate_count(), 50);
  const Scenario big = parse_scenario(
      R"({"name":"x","mix":[{"service":"table"}],"keys":{"space":100000}})");
  EXPECT_EQ(big.populate_count(), 10'000);
  const Scenario expl = parse_scenario(
      R"({"name":"x","populate":3,"mix":[{"service":"table"}]})");
  EXPECT_EQ(expl.populate_count(), 3);
}

// ------------------------------------------------------------ keygen ------

std::vector<std::uint64_t> draws(const KeyGenConfig& cfg, int n) {
  KeyGen g(cfg);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(g.next());
  return out;
}

TEST(KeyGen, UniformKnownAnswer) {
  KeyGenConfig cfg;
  cfg.kind = KeyGenConfig::Kind::kUniform;
  cfg.space = 1'000;
  cfg.seed = 1;
  EXPECT_EQ(draws(cfg, 8), (std::vector<std::uint64_t>{702, 520, 574, 391, 697, 143, 71, 381}));
}

TEST(KeyGen, ZipfKnownAnswer) {
  KeyGenConfig cfg;
  cfg.kind = KeyGenConfig::Kind::kZipf;
  cfg.space = 1'000;
  cfg.zipf_s = 0.99;
  cfg.seed = 1;
  EXPECT_EQ(draws(cfg, 8), (std::vector<std::uint64_t>{4, 21, 13, 56, 5, 351, 597, 60}));
}

TEST(KeyGen, GoldenStrideKnownAnswer) {
  KeyGenConfig cfg;
  cfg.kind = KeyGenConfig::Kind::kGoldenStride;
  cfg.space = 1'000;
  cfg.seed = 1;
  EXPECT_EQ(draws(cfg, 8), (std::vector<std::uint64_t>{557, 176, 795, 414, 33, 652, 271, 890}));
}

TEST(KeyGen, CoverageKnownAnswer) {
  KeyGenConfig cfg;
  cfg.kind = KeyGenConfig::Kind::kCoverage;
  cfg.space = 1'000;
  cfg.seed = 1;
  EXPECT_EQ(draws(cfg, 8), (std::vector<std::uint64_t>{175, 123, 930, 920, 10, 265, 202, 325}));
}

TEST(KeyGen, ZipfExponentZeroDegeneratesToExactUniform) {
  // The boundary fix: s == 0 must route through the uniform path (one RNG
  // draw per key), not the rejection sampler — same seed, same sequence,
  // byte-identical replay with an explicitly-uniform generator.
  KeyGenConfig z;
  z.kind = KeyGenConfig::Kind::kZipf;
  z.zipf_s = 0.0;
  z.space = 512;
  z.seed = 99;
  KeyGenConfig u = z;
  u.kind = KeyGenConfig::Kind::kUniform;
  EXPECT_EQ(draws(z, 1'000), draws(u, 1'000));
}

TEST(KeyGen, ZipfSkewConcentratesMassOnHotKeys) {
  KeyGenConfig cfg;
  cfg.kind = KeyGenConfig::Kind::kZipf;
  cfg.space = 100;
  cfg.zipf_s = 1.1;
  cfg.seed = 5;
  std::map<std::uint64_t, int> freq;
  KeyGen g(cfg);
  const int n = 20'000;
  for (int i = 0; i < n; ++i) freq[g.next()] += 1;
  // Analytic: P(key 0) = 1 / H, H = sum_{k=1..100} k^-1.1 ~ 4.28 =>
  // ~0.234; P(key 49) = 50^-1.1 / H ~ 0.0032, a ~73x ratio. Wide
  // tolerances: the sampler is exact, the draw count is finite.
  const double p0 = static_cast<double>(freq[0]) / n;
  EXPECT_GT(p0, 0.20);
  EXPECT_LT(p0, 0.27);
  EXPECT_GT(freq[0], 20 * freq[49]);
}

TEST(KeyGen, UniformMomentsWithinAnalyticBounds) {
  KeyGenConfig cfg;
  cfg.kind = KeyGenConfig::Kind::kUniform;
  cfg.space = 1'000;
  cfg.seed = 123;
  KeyGen g(cfg);
  const int n = 50'000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(g.next());
  const double mean = sum / n;
  // E = 499.5, sigma = sqrt((1000^2-1)/12) ~ 288.67; 5 sigma / sqrt(n).
  const double tol = 5.0 * 288.67 / std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(mean, 499.5, tol);
}

TEST(KeyGen, CoverageIsAPermutationEachCycle) {
  KeyGenConfig cfg;
  cfg.kind = KeyGenConfig::Kind::kCoverage;
  cfg.space = 1'000;  // not a power of two: exercises cycle-walking
  cfg.seed = 7;
  KeyGen g(cfg);
  std::vector<std::uint64_t> first;
  std::vector<bool> seen(cfg.space, false);
  for (std::uint64_t i = 0; i < cfg.space; ++i) {
    const std::uint64_t k = g.next();
    ASSERT_LT(k, cfg.space);
    ASSERT_FALSE(seen[k]) << "repeat inside one cycle at " << i;
    seen[k] = true;
    first.push_back(k);
  }
  // The second cycle replays the same permutation (stateless in the cycle).
  for (std::uint64_t i = 0; i < cfg.space; ++i) {
    EXPECT_EQ(g.next(), first[i]);
  }
}

TEST(KeyGen, GoldenStrideCoversTheWholeSpace) {
  for (const std::uint64_t space : {997ull, 1000ull, 1024ull}) {
    KeyGenConfig cfg;
    cfg.kind = KeyGenConfig::Kind::kGoldenStride;
    cfg.space = space;
    cfg.seed = 11;
    KeyGen g(cfg);
    std::vector<bool> seen(space, false);
    for (std::uint64_t i = 0; i < space; ++i) {
      const std::uint64_t k = g.next();
      ASSERT_LT(k, space);
      ASSERT_FALSE(seen[k]) << "stride not coprime with space " << space;
      seen[k] = true;
    }
  }
}

TEST(KeyGen, SpaceOfOneAlwaysDrawsZero) {
  for (const auto kind :
       {KeyGenConfig::Kind::kUniform, KeyGenConfig::Kind::kZipf,
        KeyGenConfig::Kind::kGoldenStride, KeyGenConfig::Kind::kCoverage}) {
    KeyGenConfig cfg;
    cfg.kind = kind;
    cfg.space = 1;
    KeyGen g(cfg);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(g.next(), 0u);
  }
}

TEST(KeyGen, ConfigBoundaryValidation) {
  KeyGenConfig cfg;
  cfg.space = 0;
  EXPECT_THROW(KeyGen{cfg}, framework::KeyGenError);
  cfg.space = 10;
  cfg.kind = KeyGenConfig::Kind::kZipf;
  cfg.zipf_s = framework::kMaxZipfS;  // exact bound is valid
  EXPECT_NO_THROW(KeyGen{cfg});
  cfg.zipf_s = framework::kMaxZipfS + 0.001;
  EXPECT_THROW(KeyGen{cfg}, framework::KeyGenError);
  cfg.zipf_s = -0.1;
  EXPECT_THROW(KeyGen{cfg}, framework::KeyGenError);
}

// ------------------------------------------------- flag parsing (bugfix) --

using benchutil::IntParse;
using benchutil::parse_int;
using benchutil::UsageError;

TEST(FlagParsing, ParseIntRejectsWhatAtollAccepted) {
  // Pre-fix, flag_int used std::atoll: "abc" silently became 0, "12x"
  // silently became 12, overflow was undefined. All are typed errors now.
  std::int64_t v = -1;
  EXPECT_EQ(parse_int("abc", v), IntParse::kBadDigit);
  EXPECT_EQ(parse_int("", v), IntParse::kEmpty);
  EXPECT_EQ(parse_int("12x", v), IntParse::kTrailingJunk);
  EXPECT_EQ(parse_int("1.5", v), IntParse::kTrailingJunk);
  EXPECT_EQ(parse_int("+5", v), IntParse::kBadDigit);
  EXPECT_EQ(parse_int("99999999999999999999", v), IntParse::kOverflow);
  EXPECT_EQ(parse_int("-42", v), IntParse::kOk);
  EXPECT_EQ(v, -42);
  EXPECT_EQ(parse_int("007", v), IntParse::kOk);
  EXPECT_EQ(v, 7);
}

char** make_argv(std::vector<std::string>& storage) {
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (std::string& s : storage) ptrs.push_back(s.data());
  return ptrs.data();
}

TEST(FlagParsing, CheckedFlagThrowsTypedUsageError) {
  std::vector<std::string> args = {"prog", "--workers=abc"};
  char** argv = make_argv(args);
  try {
    (void)benchutil::flag_int_checked(2, argv, "--workers", 4, 1, 100);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(e.flag(), "--workers");
    EXPECT_EQ(e.value(), "abc");
    EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos);
  }
}

TEST(FlagParsing, CheckedFlagEnforcesBoundsOnExplicitValuesOnly) {
  {
    std::vector<std::string> args = {"prog", "--workers=0"};
    EXPECT_THROW((void)benchutil::flag_int_checked(2, make_argv(args),
                                                   "--workers", 4, 1, 100),
                 UsageError);
  }
  {
    std::vector<std::string> args = {"prog", "--workers=101"};
    EXPECT_THROW((void)benchutil::flag_int_checked(2, make_argv(args),
                                                   "--workers", 4, 1, 100),
                 UsageError);
  }
  {
    // The fallback is the binary's own default and is returned unchecked —
    // sentinel defaults like 0 = "auto" keep working.
    std::vector<std::string> args = {"prog"};
    EXPECT_EQ(benchutil::flag_int_checked(1, make_argv(args), "--workers", 0,
                                          1, 100),
              0);
  }
  {
    std::vector<std::string> args = {"prog", "--workers=100"};
    EXPECT_EQ(benchutil::flag_int_checked(2, make_argv(args), "--workers", 4,
                                          1, 100),
              100);
  }
}

TEST(FlagParsing, DuplicateFlagsFirstOccurrenceWins) {
  // The documented (and now tested) duplicate-flag contract: first wins,
  // matching flag_value. Pre-fix this was implicit and untested.
  std::vector<std::string> args = {"prog", "--workers=3", "--workers=96"};
  EXPECT_EQ(benchutil::flag_int_checked(3, make_argv(args), "--workers", 4,
                                        1, 100),
            3);
}

TEST(FlagParsingDeathTest, FlagIntExitsWithUsageErrorOnGarbage) {
  // flag_int (the exit(2) wrapper every binary uses) must die loudly on
  // what atoll silently zeroed.
  std::vector<std::string> args = {"prog", "--workers=abc"};
  char** argv = make_argv(args);
  EXPECT_EXIT((void)benchutil::flag_int(2, argv, "--workers", 4, 1, 100),
              ::testing::ExitedWithCode(2), "usage error: --workers=abc");
}

TEST(FlagParsingDeathTest, WorkerSweepRejectsNonPositiveWorkers) {
  // Pre-fix: --workers=0 (or =abc -> 0) produced an empty/zero sweep that
  // benches silently interpreted as "default sweep" or ran zero work.
  std::vector<std::string> args = {"prog", "--workers=0"};
  char** argv = make_argv(args);
  EXPECT_EXIT((void)benchutil::worker_sweep(2, argv),
              ::testing::ExitedWithCode(2), "usage error: --workers=0");
}

TEST(FlagParsing, UnknownFlagNamesTheFirstUndeclaredToken) {
  // Pre-fix, flags were looked up by prefix and anything else was ignored:
  // `--worker=2` ran the full sweep, `--sefcheck` skipped the replay check.
  const auto first_unknown = [](std::vector<std::string> args) {
    return benchutil::unknown_flag(static_cast<int>(args.size()),
                                   make_argv(args), {"--workers=", "--quick"},
                                   {"--spec"});
  };
  EXPECT_EQ(first_unknown({"prog"}), std::nullopt);
  EXPECT_EQ(first_unknown({"prog", "--workers=4", "--quick"}), std::nullopt);
  EXPECT_EQ(first_unknown({"prog", "--spec", "f.json", "--quick"}),
            std::nullopt);
  EXPECT_EQ(first_unknown({"prog", ""}), "");
  EXPECT_EQ(first_unknown({"prog", "--worker=2"}), "--worker=2");
  EXPECT_EQ(first_unknown({"prog", "--workers"}), "--workers");
  EXPECT_EQ(first_unknown({"prog", "--workers", "4"}), "--workers");
  EXPECT_EQ(first_unknown({"prog", "--quick=1"}), "--quick=1");
  EXPECT_EQ(first_unknown({"prog", "--quickly"}), "--quickly");
  EXPECT_EQ(first_unknown({"prog", "--quick", "stray"}), "stray");
  EXPECT_EQ(first_unknown({"prog", "--spec"}), "--spec");
  EXPECT_EQ(first_unknown({"prog", "--domains=8", "--sefcheck"}),
            "--domains=8");
}

TEST(FlagParsingDeathTest, RequireKnownFlagsExitsTwoNamingTheFlag) {
  std::vector<std::string> args = {"prog", "--quick", "--domains=8"};
  char** argv = make_argv(args);
  EXPECT_EXIT(
      benchutil::require_known_flags(3, argv, {"--workers=", "--quick"}),
      ::testing::ExitedWithCode(2), "unknown flag '--domains=8'");
}

using benchutil::DoubleParse;
using benchutil::parse_double;

TEST(FlagParsing, ParseDoubleIsFullTokenAndFiniteOnly) {
  double v = -1;
  EXPECT_EQ(parse_double("1.5", v), DoubleParse::kOk);
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_EQ(parse_double("-0.25", v), DoubleParse::kOk);
  EXPECT_DOUBLE_EQ(v, -0.25);
  EXPECT_EQ(parse_double("2e3", v), DoubleParse::kOk);
  EXPECT_DOUBLE_EQ(v, 2000.0);
  // Everything strtod/stod quietly tolerated is a typed failure here.
  EXPECT_EQ(parse_double("", v), DoubleParse::kEmpty);
  EXPECT_EQ(parse_double("fast", v), DoubleParse::kBadDigit);
  EXPECT_EQ(parse_double("1.5x", v), DoubleParse::kTrailingJunk);
  EXPECT_EQ(parse_double("1.5 ", v), DoubleParse::kTrailingJunk);
  EXPECT_EQ(parse_double("nan", v), DoubleParse::kNotFinite);
  EXPECT_EQ(parse_double("inf", v), DoubleParse::kNotFinite);
  EXPECT_EQ(parse_double("1e999", v), DoubleParse::kNotFinite);
}

TEST(FlagParsing, FlagDoubleCheckedMirrorsTheIntContract) {
  {
    // Strict parse, typed error carrying flag and value.
    std::vector<std::string> args = {"prog", "--rate_scale=fast"};
    try {
      (void)benchutil::flag_double_checked(2, make_argv(args), "--rate_scale",
                                           1.0, 0.001, 1000.0);
      FAIL() << "expected UsageError";
    } catch (const UsageError& e) {
      EXPECT_EQ(e.flag(), "--rate_scale");
      EXPECT_EQ(e.value(), "fast");
    }
  }
  {
    // Bounds apply to explicit values...
    std::vector<std::string> args = {"prog", "--rate_scale=1e6"};
    EXPECT_THROW((void)benchutil::flag_double_checked(
                     2, make_argv(args), "--rate_scale", 1.0, 0.001, 1000.0),
                 UsageError);
  }
  {
    // ...but not to the binary's own fallback.
    std::vector<std::string> args = {"prog"};
    EXPECT_DOUBLE_EQ(benchutil::flag_double_checked(
                         1, make_argv(args), "--rate_scale", 0.0, 0.001,
                         1000.0),
                     0.0);
  }
  {
    // First occurrence wins, matching flag_int/flag_value.
    std::vector<std::string> args = {"prog", "--rate_scale=0.5",
                                     "--rate_scale=2.0"};
    EXPECT_DOUBLE_EQ(benchutil::flag_double_checked(
                         3, make_argv(args), "--rate_scale", 1.0, 0.001,
                         1000.0),
                     0.5);
  }
}

TEST(FlagParsingDeathTest, FlagDoubleExitsWithUsageErrorOnGarbage) {
  std::vector<std::string> args = {"prog", "--rate_scale=1.5x"};
  char** argv = make_argv(args);
  EXPECT_EXIT((void)benchutil::flag_double(2, argv, "--rate_scale", 1.0,
                                           0.001, 1000.0),
              ::testing::ExitedWithCode(2),
              "usage error: --rate_scale=1.5x");
}

// ------------------------------------------------- backend declarations --

TEST(ScenarioParser, BackendDefaultsToAzure) {
  const Scenario sc =
      parse_scenario(R"({"name":"x","mix":[{"service":"table"}]})");
  EXPECT_EQ(sc.backend, framework::BackendKind::kAzure);
}

TEST(ScenarioParser, ParsesEveryKnownBackend) {
  const std::map<std::string, framework::BackendKind> kinds = {
      {"azure", framework::BackendKind::kAzure},
      {"s3", framework::BackendKind::kS3},
      {"tiered", framework::BackendKind::kTiered}};
  for (const auto& [name, kind] : kinds) {
    const Scenario sc = parse_scenario(
        R"({"name":"x","backend":")" + name +
        R"(","mix":[{"service":"blob"}]})");
    EXPECT_EQ(sc.backend, kind) << name;
    EXPECT_STREQ(framework::backend_name(sc.backend), name.c_str());
  }
}

TEST(ScenarioParser, RejectsUnknownBackendWithLocation) {
  expect_error("{\n  \"name\": \"x\",\n  \"backend\": \"gcs\",\n"
               "  \"mix\": [{\"service\": \"blob\"}]\n}",
               "scenario.backend", "unknown backend 'gcs'", 3);
}

TEST(ScenarioParser, CapabilityMismatchNamesBackendServiceAndFlag) {
  // The s3-like backend has no queue service; the diagnostic must anchor at
  // the offending mix entry's 'service' token and name the capability flag.
  expect_error("{\n  \"name\": \"x\",\n  \"backend\": \"s3\",\n"
               "  \"mix\": [\n    {\"service\": \"blob\"},\n"
               "    {\"service\": \"queue\"}\n  ]\n}",
               "scenario.mix[1].service", "has no queue service", 6);
  expect_error(R"({"name":"x","backend":"s3","mix":[{"service":"sql"}]})",
               "scenario.mix[0].service", "has_sql=false");
}

TEST(ScenarioParser, RejectsTierSplitBytesOnNonTieredBackend) {
  expect_error(R"({"name":"x","backend":"s3","tier_split_bytes":65536,)"
               R"("mix":[{"service":"blob"}]})",
               "scenario.tier_split_bytes",
               "only applies to backend 'tiered'");
  // And on the default (azure) backend, not just an explicit non-tiered one.
  expect_error(R"({"name":"x","tier_split_bytes":65536,)"
               R"("mix":[{"service":"blob"}]})",
               "scenario.tier_split_bytes",
               "only applies to backend 'tiered'");
}

TEST(ScenarioParser, TieredBackendAcceptsTierSplitBytes) {
  const Scenario sc = parse_scenario(
      R"({"name":"x","backend":"tiered","tier_split_bytes":65536,)"
      R"("mix":[{"service":"blob"}]})");
  EXPECT_EQ(sc.backend, framework::BackendKind::kTiered);
  EXPECT_EQ(sc.tier_split_bytes, 65536);
}

TEST(ScenarioParser, BackendCapsMatrixMatchesTheDesignContract) {
  using framework::BackendKind;
  const framework::BackendCaps azure =
      framework::backend_caps(BackendKind::kAzure);
  EXPECT_TRUE(azure.has_queues);
  EXPECT_TRUE(azure.has_tables);
  EXPECT_TRUE(azure.has_sql);
  EXPECT_TRUE(azure.consistent_list);
  const framework::BackendCaps s3 = framework::backend_caps(BackendKind::kS3);
  EXPECT_TRUE(s3.has_blobs);
  EXPECT_FALSE(s3.has_queues);
  EXPECT_FALSE(s3.has_tables);
  EXPECT_FALSE(s3.has_sql);
  EXPECT_FALSE(s3.consistent_list);
  const framework::BackendCaps tiered =
      framework::backend_caps(BackendKind::kTiered);
  EXPECT_TRUE(tiered.has_queues);
  // Merged listings inherit the capacity tier's eventuality.
  EXPECT_FALSE(tiered.consistent_list);
}

// ------------------------------------------------------------ replay ------

const char* kReplaySpec = R"({
  "name": "replay",
  "seed": 77,
  "operations": 600,
  "read_ratio": 0.6,
  "queue_fanout": 2,
  "populate": 48,
  "arrivals": {"kind": "flash_crowd", "rate_per_sec": 300.0,
               "spike_at_s": 1.0, "spike_duration_s": 1.0,
               "spike_rate_per_sec": 600.0},
  "think": {"mean_ms": 1.0, "jitter": 0.5},
  "keys": {"kind": "zipf", "space": 48, "zipf_s": 1.1},
  "values": {"min_bytes": 256, "max_bytes": 4096},
  "faults": {"drop_probability": 0.005, "latency_spike_probability": 0.01},
  "mix": [
    {"service": "blob", "op": "mixed", "weight": 1.0},
    {"service": "queue", "op": "mixed", "weight": 1.0},
    {"service": "table", "op": "rmw", "weight": 0.5},
    {"service": "sql", "op": "mixed", "weight": 0.5}
  ]
})";

TEST(ScenarioReplay, GenericRunIsBytewiseDeterministic) {
  const Scenario sc = parse_scenario(kReplaySpec);
  const auto r1 = benchscn::run_generic_scenario(sc, nullptr);
  const auto r2 = benchscn::run_generic_scenario(sc, nullptr);
  EXPECT_EQ(benchscn::canonical_report(sc, r1),
            benchscn::canonical_report(sc, r2));
  EXPECT_EQ(r1.stats, r2.stats);
}

TEST(ScenarioReplay, ObsExportReplaysByteIdentically) {
  const Scenario sc = parse_scenario(kReplaySpec);
  obs::Observer o1;
  obs::Observer o2;
  const auto r1 = benchscn::run_generic_scenario(sc, &o1);
  const auto r2 = benchscn::run_generic_scenario(sc, &o2);
  EXPECT_EQ(benchscn::canonical_report(sc, r1),
            benchscn::canonical_report(sc, r2));
  EXPECT_EQ(o1.to_json(), o2.to_json());
}

TEST(ScenarioReplay, ObserverDoesNotPerturbTheRun) {
  // Observability must be free: the canonical report with an observer
  // attached is byte-identical to the unobserved run.
  const Scenario sc = parse_scenario(kReplaySpec);
  obs::Observer o;
  const auto observed = benchscn::run_generic_scenario(sc, &o);
  const auto plain = benchscn::run_generic_scenario(sc, nullptr);
  EXPECT_EQ(benchscn::canonical_report(sc, observed),
            benchscn::canonical_report(sc, plain));
}

TEST(ScenarioReplay, AccountingInvariantsHold) {
  const Scenario sc = parse_scenario(kReplaySpec);
  const auto r = benchscn::run_generic_scenario(sc, nullptr);
  const framework::LoadStats& st = r.stats;
  EXPECT_EQ(st.offered, sc.operations);
  EXPECT_EQ(st.offered, st.admitted + st.shed);
  EXPECT_EQ(st.admitted, st.completed + st.dead_lettered);
  // Every admitted session lands in exactly one per-entry bucket: count,
  // miss, or err (err also covers the final-busy rethrow that the engine
  // dead-letters).
  std::int64_t bucketed = 0;
  for (const benchscn::MixStat& ms : r.per_entry) {
    bucketed += ms.count + ms.miss + ms.err;
  }
  EXPECT_EQ(bucketed, st.completed + st.dead_lettered);
}

// Regression: a stale partition-map redirect is retried, not booked as an
// error. scenarios/hot_account.json without its link faults, over 1,024
// populated keys: the balancer moves buckets while the store is populated
// and while the load runs, and clients routed on a stale map get
// redirects in both phases. Pre-fix, the populate loop let a
// PartitionMovedError escape setup (the run aborted), and with only that
// mended the session loop still booked five of the redirects in `err`.
const char* kRedirectSpec = R"({
  "name": "redirects",
  "seed": 2001,
  "operations": 2000,
  "read_ratio": 0.7,
  "populate": 1024,
  "arrivals": {"kind": "flash_crowd", "rate_per_sec": 400.0,
               "spike_at_s": 5.0, "spike_duration_s": 5.0,
               "spike_rate_per_sec": 800.0},
  "keys": {"kind": "zipf", "space": 1024, "zipf_s": 1.2},
  "values": {"min_bytes": 512, "max_bytes": 8192},
  "cluster": {"partition_servers": 16, "balancer": true},
  "mix": [
    {"service": "blob", "op": "mixed", "weight": 2.0},
    {"service": "table", "op": "mixed", "weight": 2.0},
    {"service": "queue", "op": "mixed", "weight": 1.0},
    {"service": "sql", "op": "mixed", "weight": 1.0}
  ]
})";

TEST(ScenarioReplay, PartitionRedirectsAreRetriedNotBookedAsErrors) {
  const Scenario sc = parse_scenario(kRedirectSpec);
  obs::Observer o;
  benchscn::ScenarioRunResult r;
  ASSERT_NO_THROW(r = benchscn::run_generic_scenario(sc, &o));
  EXPECT_GT(o.metrics().counter("cluster.partition_moves").value(), 0);
  EXPECT_GT(o.metrics().counter("cluster.stale_map_redirects").value(), 0);
  std::int64_t err = 0;
  for (const benchscn::MixStat& ms : r.per_entry) err += ms.err;
  EXPECT_EQ(err, 0);
  EXPECT_EQ(r.stats.completed, sc.operations);
}

}  // namespace
