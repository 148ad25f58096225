// Fault-injection sweep: queue + blob throughput vs. injected fault rate.
//
// A fleet of workers drives one queue each (the Fig. 6 shape: put a batch,
// then drain it with get+delete) followed by a blob upload/download phase,
// through the fault-tolerant retry policy (capped exponential backoff,
// deterministic jitter), while the fault plan injects message drops,
// duplications, latency spikes, payload bit-flips, and partition-server
// crash/restart cycles. Reported per profile:
//
//   * virtual completion time and client-observed throughput;
//   * retries the policy absorbed (the client-side cost of the faults);
//   * the injected fault counts from the plan's log (the ground truth);
//   * integrity accounting: bit-flips injected vs. checksum detections vs.
//     replica repairs (read-repair + scrub), plus residual divergence after
//     a forced anti-entropy pass (must be zero).
//
// The zero-fault row is the control: it must match a run without any plan
// armed, because a disabled plan draws no randomness and schedules nothing.
//
// Flags: --workers=N, --messages=N (per worker), --seed=N, --quick, --csv.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "azure/cloud_storage_account.hpp"
#include "azure/common/retry.hpp"
#include "azure/environment.hpp"
#include "bench_util.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"

namespace {

struct World {
  explicit World(const azure::CloudConfig& cfg) : env(sim, cfg) {}
  sim::Simulation sim;
  azure::CloudEnvironment env;
  netsim::Nic nic{sim,
                  netsim::NicConfig{100e6, 100e6, sim::micros(50), 65536.0}};
  azure::CloudStorageAccount account{env, nic};
};

struct FaultProfile {
  const char* name;
  double drop = 0;
  double duplicate = 0;
  double spike = 0;
  int crashes = 0;
  double corrupt = 0;
};

struct Point {
  double seconds = 0;
  std::int64_t ops = 0;
  std::int64_t retries = 0;
  std::int64_t injected_drops = 0;
  std::int64_t injected_dups = 0;
  std::int64_t injected_spikes = 0;
  std::int64_t injected_crashes = 0;
  std::int64_t injected_flips = 0;
  std::int64_t injected_torn = 0;
  std::int64_t checksum_detections = 0;
  std::int64_t repairs = 0;
  std::int64_t residual_divergence = 0;
};

sim::Task<void> worker(World& w, int id, int messages, std::int64_t& ops,
                       std::int64_t& retries, sim::WaitGroup& wg) {
  azure::RetryPolicy retry;
  retry.backoff = sim::millis(250);
  retry.max_backoff = sim::seconds(2);
  retry.jitter_seed = static_cast<std::uint64_t>(id);
  auto q = w.account.create_cloud_queue_client().get_queue_reference(
      "flt-q-" + std::to_string(id));
  co_await azure::with_retry_counted(
      w.sim, [&] { return q.create_if_not_exists(); }, retry, retries);
  for (int k = 0; k < messages; ++k) {
    co_await azure::with_retry_counted(w.sim, [&] {
      return q.add_message(azure::Payload::synthetic(4096));
    }, retry, retries);
    ++ops;
  }
  int done = 0;
  while (done < messages) {
    auto m = co_await azure::with_retry_counted(
        w.sim, [&] { return q.get_message(sim::seconds(30)); }, retry,
        retries);
    ++ops;
    if (!m.has_value()) {
      co_await w.sim.delay(sim::millis(100));
      continue;
    }
    co_await azure::with_retry_counted(
        w.sim, [&] { return q.delete_message(*m); }, retry, retries);
    ++ops;
    ++done;
  }
  // Blob phase: round-trip a handful of 64 KB blobs through the same wire,
  // so the sweep also exercises the upload-reject and download-verify
  // integrity paths (blob payloads dwarf queue message bodies).
  auto c = w.account.create_cloud_blob_client().get_container_reference(
      "flt-c-" + std::to_string(id));
  co_await azure::with_retry_counted(
      w.sim, [&] { return c.create_if_not_exists(); }, retry, retries);
  const int blobs = std::max(1, messages / 8);
  for (int b = 0; b < blobs; ++b) {
    auto blob = c.get_block_blob_reference("b-" + std::to_string(b));
    co_await azure::with_retry_counted(w.sim, [&] {
      return blob.upload_text(azure::Payload::synthetic(64 << 10));
    }, retry, retries);
    ++ops;
    (void)co_await azure::with_retry_counted(
        w.sim, [&] { return blob.download_text(); }, retry, retries);
    ++ops;
  }
  wg.done();
}

Point run_profile(const FaultProfile& p, int workers, int messages,
                  std::uint64_t seed) {
  azure::CloudConfig cfg;
  cfg.faults.seed = seed;
  cfg.faults.drop_probability = p.drop;
  cfg.faults.duplicate_probability = p.duplicate;
  cfg.faults.latency_spike_probability = p.spike;
  cfg.faults.drop_timeout = sim::millis(300);
  cfg.faults.server_crashes = p.crashes;
  cfg.faults.crash_mean_interval = sim::seconds(10);
  cfg.faults.server_downtime = sim::seconds(2);
  cfg.faults.corruption_probability = p.corrupt;
  World w(cfg);
  Point out;
  sim::WaitGroup wg(w.sim);
  for (int i = 0; i < workers; ++i) {
    wg.add();
    w.sim.spawn(worker(w, i, messages, out.ops, out.retries, wg));
  }
  w.sim.run();
  out.seconds =
      static_cast<double>(w.sim.now()) / static_cast<double>(sim::kSecond);
  // Force one anti-entropy pass so the residual-divergence column reports
  // the scrubber's converged end state, not a mid-repair snapshot.
  auto& cluster = w.env.storage_cluster();
  if (w.env.fault_plan().enabled()) {
    w.sim.spawn(cluster.scrub_all());
    w.sim.run();
  }
  const faults::FaultPlan& plan = w.env.fault_plan();
  out.injected_drops = plan.count(faults::FaultKind::kDrop);
  out.injected_dups = plan.count(faults::FaultKind::kDuplicate);
  out.injected_spikes = plan.count(faults::FaultKind::kLatencySpike);
  out.injected_crashes = plan.count(faults::FaultKind::kServerCrash);
  out.injected_flips = plan.count(faults::FaultKind::kBitFlip);
  out.injected_torn = plan.count(faults::FaultKind::kTornWrite);
  out.checksum_detections = cluster.request_checksum_rejects() +
                            cluster.response_corruptions() +
                            cluster.read_mismatches();
  out.repairs = cluster.read_repairs() + cluster.scrub_repairs();
  out.residual_divergence = cluster.replica_store().divergent_replicas();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--quick", "--workers=",
                                 "--messages=", "--seed=", "--csv"});
  const bool quick = benchutil::flag_set(argc, argv, "--quick");
  const int workers = static_cast<int>(
      benchutil::flag_int(argc, argv, "--workers", quick ? 8 : 32, 1));
  const int messages = static_cast<int>(
      benchutil::flag_int(argc, argv, "--messages", quick ? 20 : 100, 1));
  const auto seed = static_cast<std::uint64_t>(
      benchutil::flag_int(argc, argv, "--seed", 0xFA017));
  const bool csv = benchutil::flag_set(argc, argv, "--csv");

  std::printf(
      "AzureBench fault sweep — queue throughput vs. injected fault rate\n"
      "%d workers x %d messages; retry: 250 ms exponential, 2 s cap\n\n",
      workers, messages);

  const std::vector<FaultProfile> profiles = {
      {"none", 0, 0, 0, 0, 0},
      {"drop-0.1%", 0.001, 0, 0, 0, 0},
      {"drop-1%", 0.01, 0, 0, 0, 0},
      {"drop-5%", 0.05, 0, 0, 0, 0},
      {"drop-10%", 0.10, 0, 0, 0, 0},
      {"corrupt-0.1%", 0, 0, 0, 0, 0.001},
      {"corrupt-1%", 0, 0, 0, 0, 0.01},
      {"corrupt-5%", 0, 0, 0, 0, 0.05},
      {"mixed-links", 0.01, 0.01, 0.02, 0, 0.01},
      {"links+crashes", 0.01, 0.01, 0.02, 4, 0.01},
  };

  benchutil::Table table({"profile", "sim_s", "ops", "ops/s", "retries",
                          "inj_drop", "inj_flip", "inj_torn", "inj_crash",
                          "crc_detect", "repairs", "resid_div"});
  for (const FaultProfile& p : profiles) {
    const Point r = run_profile(p, workers, messages, seed);
    table.add_row({p.name,
                   benchutil::fmt(r.seconds),
                   std::to_string(r.ops),
                   benchutil::fmt(static_cast<double>(r.ops) / r.seconds, 1),
                   std::to_string(r.retries),
                   std::to_string(r.injected_drops),
                   std::to_string(r.injected_flips),
                   std::to_string(r.injected_torn),
                   std::to_string(r.injected_crashes),
                   std::to_string(r.checksum_detections),
                   std::to_string(r.repairs),
                   std::to_string(r.residual_divergence)});
  }
  if (csv) {
    table.print_csv();
  } else {
    table.print();
    std::printf(
        "\nExpected shape: throughput degrades gracefully with the drop "
        "rate (each drop\ncosts one 300 ms timeout plus a backoff), and "
        "retries track injected faults;\nbit-flip profiles show checksum "
        "detections scaling with the corruption rate and\nresid_div 0 — "
        "every divergent replica healed by read-repair or scrub; the\n"
        "zero-fault row is byte-identical to a run without fault "
        "injection.\n");
  }
  return 0;
}
