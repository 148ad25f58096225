// End-to-end data-integrity tests: the tentpole invariant is that under any
// seeded corruption plan no client ever observes a corrupt byte — damaged
// uploads are rejected at the front-end, damaged downloads fail their
// end-to-end checksum and are retried, damaged replicas are detected on
// read and healed by read-repair or the anti-entropy scrubber — and that
// poison tasks are dead-lettered within the delivery cap instead of cycling
// through workers forever.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/checksum.hpp"
#include "azure/common/errors.hpp"
#include "azure/common/retry.hpp"
#include "cluster/replica_store.hpp"
#include "fabric/deployment.hpp"
#include "faults/fault_plan.hpp"
#include "framework/bag_of_tasks.hpp"
#include "simcore/random.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using framework::BagOfTasksApp;
using framework::BagOfTasksConfig;
using framework::TaskDescriptor;
using sim::Task;

// ------------------------------------------------------- CRC32C primitive ----

TEST(Crc32cTest, KnownAnswer) {
  // The canonical CRC32C (Castagnoli) check value.
  EXPECT_EQ(azure::Crc32c::of("123456789"), 0xE3069283u);
  EXPECT_EQ(azure::Crc32c::of(""), 0u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  azure::Crc32c inc;
  inc.update("123").update("45").update("6789");
  EXPECT_EQ(inc.value(), azure::Crc32c::of("123456789"));
}

TEST(Crc32cTest, U64FoldMatchesLittleEndianBytes) {
  const std::uint64_t v = 0x0123456789ABCDEFull;
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  azure::Crc32c a;
  a.update_u64(v);
  azure::Crc32c b;
  b.update(bytes, sizeof(bytes));
  EXPECT_EQ(a.value(), b.value());
}

TEST(Crc32cTest, PayloadCrcIsStableForSyntheticAndRealBytes) {
  // Synthetic payloads hash their size; equal sizes must collide, different
  // sizes should not (for these values).
  EXPECT_EQ(azure::payload_crc(Payload::synthetic(4096)),
            azure::payload_crc(Payload::synthetic(4096)));
  EXPECT_NE(azure::payload_crc(Payload::synthetic(4096)),
            azure::payload_crc(Payload::synthetic(4097)));
  EXPECT_EQ(azure::payload_crc(Payload::bytes("hello")),
            azure::Crc32c::of("hello"));
}

// --------------------------------------------------------------- helpers ----

std::string pattern_body(int id, std::size_t filler) {
  std::string s = std::to_string(id) + ":";
  sim::Random rng(static_cast<std::uint64_t>(id) * 2654435761u + 17);
  for (std::size_t i = 0; i < filler; ++i) {
    s += static_cast<char>('!' + rng.uniform(0, 90));
  }
  return s;
}

azure::RetryPolicy integrity_retry(int id = 0) {
  azure::RetryPolicy p;
  p.backoff = sim::millis(250);
  p.max_backoff = sim::seconds(2);
  p.jitter_seed = static_cast<std::uint64_t>(id);
  return p;
}

/// A cloud whose wire flips bits on ~8% of transfers and nothing else.
azure::CloudConfig corrupting_cloud(std::uint64_t seed) {
  azure::CloudConfig cfg;
  cfg.faults.seed = seed;
  cfg.faults.corruption_probability = 0.08;
  return cfg;
}

/// Arms fault injection without any fault ever firing, so the integrity
/// machinery (replica ledger, read verification, scrubbers-on-demand) is
/// live but the test controls all damage by staging it directly.
azure::CloudConfig armed_quiet_cloud() {
  azure::CloudConfig cfg;
  cfg.faults.corruption_probability = 1e-12;
  return cfg;
}

// -------------------------------------------------- wire-corruption sweeps ----

TEST(IntegrityBlobTest, CorruptedTransfersNeverYieldCorruptBytes) {
  TestWorld w(corrupting_cloud(0xB10B'C0DE));
  int mismatches = 0;
  w.sim.spawn([](TestWorld& t, int& mismatches) -> Task<> {
    const azure::RetryPolicy retry = integrity_retry();
    auto c = t.account.create_cloud_blob_client().get_container_reference("c");
    co_await azure::with_retry(
        t.sim, [&] { return c.create_if_not_exists(); }, retry);
    for (int i = 0; i < 12; ++i) {
      auto blob = c.get_block_blob_reference("b" + std::to_string(i));
      const std::string data = pattern_body(i, 2048);
      co_await azure::with_retry(
          t.sim, [&] { return blob.upload_text(Payload::bytes(data)); },
          retry);
      const auto back = co_await azure::with_retry(
          t.sim, [&] { return blob.download_text(); }, retry);
      if (back.data() != data) ++mismatches;
    }
  }(w, mismatches));
  w.sim.run();

  EXPECT_EQ(mismatches, 0);
  // The plan actually flipped bits, and the stack actually caught some of
  // them on integrity-tracked payloads (both counts are seeded).
  auto& cluster = w.env.storage_cluster();
  EXPECT_GT(w.env.fault_plan().count(faults::FaultKind::kBitFlip), 0);
  EXPECT_GT(cluster.request_checksum_rejects() +
                cluster.response_corruptions(),
            0);
}

TEST(IntegrityQueueTest, CorruptedDeliveriesAreRetriedIntact) {
  constexpr int kMessages = 24;
  TestWorld w(corrupting_cloud(0x0CEE'C0DE));
  std::vector<int> seen(kMessages, 0);
  int mismatches = 0;
  w.sim.spawn([](TestWorld& t, std::vector<int>& seen,
                 int& mismatches) -> Task<> {
    const azure::RetryPolicy retry = integrity_retry();
    auto q = t.account.create_cloud_queue_client().get_queue_reference("iq");
    co_await azure::with_retry(
        t.sim, [&] { return q.create_if_not_exists(); }, retry);
    const int n = static_cast<int>(seen.size());
    for (int i = 0; i < n; ++i) {
      co_await azure::with_retry(t.sim, [&] {
        return q.add_message(Payload::bytes(pattern_body(i, 512)));
      }, retry);
    }
    int deleted = 0;
    while (deleted < n) {
      CO_ASSERT_TRUE(t.sim.now() < sim::seconds(600));
      auto m = co_await azure::with_retry(
          t.sim, [&] { return q.get_message(sim::seconds(10)); }, retry);
      if (!m.has_value()) {
        co_await t.sim.delay(sim::millis(200));
        continue;
      }
      const int id = std::stoi(m->body.data());
      ++seen[static_cast<std::size_t>(id)];
      if (m->body.data() != pattern_body(id, 512)) ++mismatches;
      co_await azure::with_retry(
          t.sim, [&] { return q.delete_message(*m); }, retry);
      ++deleted;
    }
    CO_ASSERT_EQ(co_await azure::with_retry(
                     t.sim, [&] { return q.get_message_count(); }, retry),
                 0);
  }(w, seen, mismatches));
  w.sim.run();

  EXPECT_EQ(mismatches, 0);
  for (int i = 0; i < kMessages; ++i) {
    // A corrupted GetMessage response throws before the claim, so the
    // retried delivery is the FIRST claim: exactly-once consumption holds.
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "message " << i;
  }
  EXPECT_GT(w.env.fault_plan().count(faults::FaultKind::kBitFlip), 0);
}

TEST(IntegrityTableTest, QueriedEntitiesVerifyEndToEnd) {
  constexpr int kRows = 14;
  TestWorld w(corrupting_cloud(0x7AB1'C0DE));
  int mismatches = 0;
  w.sim.spawn([](TestWorld& t, int& mismatches) -> Task<> {
    const azure::RetryPolicy retry = integrity_retry();
    auto tbl = t.account.create_cloud_table_client().get_table_reference("it");
    co_await azure::with_retry(
        t.sim, [&] { return tbl.create_if_not_exists(); }, retry);
    for (int i = 0; i < kRows; ++i) {
      azure::TableEntity e;
      e.partition_key = "p" + std::to_string(i % 3);
      e.row_key = "r" + std::to_string(i);
      e.properties["v"] = Payload::bytes(pattern_body(i, 300));
      co_await azure::with_retry(t.sim, [&] { return tbl.insert(e); }, retry);
    }
    for (int i = 0; i < kRows; ++i) {
      const std::string pk = "p" + std::to_string(i % 3);
      const std::string rk = "r" + std::to_string(i);
      auto row = co_await azure::with_retry(
          t.sim, [&] { return tbl.query(pk, rk); }, retry);
      if (std::get<Payload>(row.properties.at("v")).data() !=
          pattern_body(i, 300)) {
        ++mismatches;
      }
    }
  }(w, mismatches));
  w.sim.run();
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(w.env.fault_plan().count(faults::FaultKind::kBitFlip), 0);
}

// ------------------------------------------------ read-repair and scrubbing ----

TEST(IntegrityRepairTest, StagedReplicaDamageIsDetectedOnReadAndHealed) {
  TestWorld w(armed_quiet_cloud());
  auto& cluster = w.env.storage_cluster();
  w.sim.spawn([](TestWorld& t, cluster::StorageCluster& cluster) -> Task<> {
    auto c = t.account.create_cloud_blob_client().get_container_reference("c");
    co_await c.create_if_not_exists();
    auto blob = c.get_block_blob_reference("b");
    const std::string data = pattern_body(1, 4096);
    co_await blob.upload_text(Payload::bytes(data));

    // Stage damage directly in the replica ledger: the serving copy
    // (replica 0, on the home server) is torn, replica 1 is stale.
    auto& entries = cluster.replica_store().entries();
    CO_ASSERT_EQ(entries.size(), std::size_t{1});
    auto& entry = entries.begin()->second;
    entry.replicas[0].torn = true;
    entry.replicas[0].crc ^= 0xDEADBEEFu;
    entry.replicas[1].gen = 0;
    CO_ASSERT_EQ(cluster.replica_store().divergent_replicas(), 2);

    // The read must detect the bad serving copy, fail over to committed
    // content, and hand back the correct bytes anyway.
    const auto back = co_await blob.download_text();
    CO_ASSERT_EQ(back.data(), data);
    // Let the spawned read-repairs drain.
    co_await t.sim.delay(sim::seconds(2));
  }(w, cluster));
  w.sim.run();

  EXPECT_GE(cluster.read_mismatches(), 1);
  EXPECT_EQ(cluster.read_repairs(), 2);
  EXPECT_EQ(cluster.replica_store().divergent_replicas(), 0);
  EXPECT_GT(w.env.fault_plan().count(faults::FaultKind::kReadRepair), 0);
}

TEST(IntegrityRepairTest, ScrubAllConvergesEveryStagedDivergence) {
  TestWorld w(armed_quiet_cloud());
  auto& cluster = w.env.storage_cluster();
  w.sim.spawn([](TestWorld& t, cluster::StorageCluster& cluster) -> Task<> {
    auto c = t.account.create_cloud_blob_client().get_container_reference("c");
    co_await c.create_if_not_exists();
    for (int i = 0; i < 4; ++i) {
      auto blob = c.get_block_blob_reference("b" + std::to_string(i));
      co_await blob.upload_text(Payload::bytes(pattern_body(i, 1024)));
    }
    // Damage one copy of every object, alternating torn and stale.
    int i = 0;
    for (auto& [id, entry] : cluster.replica_store().entries()) {
      auto& rep = entry.replicas[static_cast<std::size_t>(1 + (i % 2))];
      if (i % 2 == 0) {
        rep.torn = true;
      } else {
        rep.gen = 0;
      }
      ++i;
    }
    CO_ASSERT_EQ(cluster.replica_store().divergent_replicas(), 4);
    co_await cluster.scrub_all();
  }(w, cluster));
  w.sim.run();

  EXPECT_EQ(cluster.replica_store().divergent_replicas(), 0);
  EXPECT_EQ(cluster.scrub_repairs(), 4);
  EXPECT_EQ(w.env.fault_plan().count(faults::FaultKind::kScrubRepair), 4);
}

TEST(IntegrityRepairTest, CrashDuringScrubNeverDamagesHealthyState) {
  TestWorld w(armed_quiet_cloud());
  auto& cluster = w.env.storage_cluster();
  w.sim.spawn([](TestWorld& t, cluster::StorageCluster& cluster) -> Task<> {
    auto c = t.account.create_cloud_blob_client().get_container_reference("c");
    co_await c.create_if_not_exists();
    auto blob = c.get_block_blob_reference("b");
    // A large object so the in-flight repair copy takes real time to land.
    co_await blob.upload_text(Payload::synthetic(4 << 20));

    auto& entry = cluster.replica_store().entries().begin()->second;
    const std::uint64_t committed_gen = entry.committed_gen;
    const std::uint32_t committed_crc = entry.committed_crc;
    const int victim = cluster.replica_store().server_of(entry, 1);
    entry.replicas[1].torn = true;

    // Kick off a full scrub, then crash the repairing server while the
    // repair copy is still streaming in.
    sim::WaitGroup wg(t.sim);
    wg.add();
    t.sim.spawn([](cluster::StorageCluster& cl, sim::WaitGroup& wg) -> Task<> {
      co_await cl.scrub_all();
      wg.done();
    }(cluster, wg));
    co_await t.sim.delay(sim::millis(5));
    cluster.server(victim).crash();
    co_await wg.wait();

    // The dying server must not have touched anything but its own copy:
    // the committed version is unchanged and the other replicas still
    // verify. Its own copy is allowed to stay bad — never to become
    // "bad but marked good".
    CO_ASSERT_EQ(entry.committed_gen, committed_gen);
    CO_ASSERT_EQ(entry.committed_crc, committed_crc);
    CO_ASSERT_TRUE(entry.replica_good(0));
    CO_ASSERT_TRUE(entry.replica_good(2));
    CO_ASSERT_TRUE(!entry.replica_good(1));
    CO_ASSERT_TRUE(!entry.replicas[1].repairing);

    // After the server comes back, the next anti-entropy pass converges it.
    cluster.server(victim).restart();
    co_await cluster.scrub_all();
    CO_ASSERT_EQ(cluster.replica_store().divergent_replicas(), 0);
  }(w, cluster));
  w.sim.run();
  EXPECT_EQ(cluster.scrub_repairs(), 1);
}

// Regression: once the plan's crash driver exhausts its schedule it
// releases the parked scrubbers (they exit). An externally driven restart
// after that used to set the dead scrubber's gate — silently skipping the
// post-restart scrub; it must fall through to the one-shot pass instead.
TEST(IntegrityRepairTest, ExternalRestartAfterCrashScheduleStillScrubs) {
  azure::CloudConfig cfg;
  cfg.faults.server_crashes = 1;
  cfg.faults.crash_mean_interval = sim::millis(50);
  cfg.faults.server_downtime = sim::millis(100);
  TestWorld w(cfg);
  auto& cluster = w.env.storage_cluster();
  // Run the plan's own schedule to exhaustion: the crash driver releases
  // the scrubbers at the instant of the last restart, so they exit.
  w.sim.run();
  const std::int64_t plan_passes = cluster.scrub_passes();

  // An external chaos driver crashes and restarts a server after the
  // plan-driven scrubbers are gone. The restart must still scrub.
  cluster.crash_server(0);
  cluster.restart_server(0);
  w.sim.run();
  EXPECT_EQ(cluster.scrub_passes(), plan_passes + 1);
}

TEST(IntegrityDisabledTest, FaultFreeRunsNeverTouchTheIntegrityMachinery) {
  TestWorld w;  // default config: fault plan disabled
  w.sim.spawn([](TestWorld& t) -> Task<> {
    auto c = t.account.create_cloud_blob_client().get_container_reference("c");
    co_await c.create_if_not_exists();
    auto blob = c.get_block_blob_reference("b");
    co_await blob.upload_text(Payload::bytes("quiet"));
    (void)co_await blob.download_text();
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("quiet"));
    auto m = co_await q.get_message();
    if (m) co_await q.delete_message(*m);
  }(w));
  w.sim.run();

  auto& cluster = w.env.storage_cluster();
  EXPECT_EQ(cluster.replica_store().tracked_objects(), 0);
  EXPECT_EQ(cluster.request_checksum_rejects(), 0);
  EXPECT_EQ(cluster.response_corruptions(), 0);
  EXPECT_EQ(cluster.read_mismatches(), 0);
  EXPECT_EQ(cluster.read_repairs(), 0);
  EXPECT_EQ(cluster.scrub_repairs(), 0);
  EXPECT_EQ(cluster.scrub_passes(), 0);
  EXPECT_TRUE(w.env.fault_plan().log().empty());
}

// ------------------------------------------------ poison-task dead-letter ----

TEST(IntegrityDlqTest, PoisonTaskIsDeadLetteredWithinTheDeliveryCap) {
  constexpr int kTasks = 6;
  TestWorld w;
  BagOfTasksConfig cfg;
  cfg.task_visibility_timeout = sim::seconds(20);
  cfg.max_deliveries = 3;
  BagOfTasksApp app(w.account, cfg);

  azb_test::run(w, [&](TestWorld&) -> Task<> { co_await app.provision(); });

  w.sim.spawn([](BagOfTasksApp& a) -> Task<> {
    for (int i = 0; i < kTasks; ++i) {
      co_await a.submit("task-" + std::to_string(i));
    }
    // wait_for_completion would spin forever on the poison task;
    // wait_for_resolution counts dead-lettered tasks as resolved.
    co_await a.wait_for_resolution(kTasks);
  }(app));

  // task-0 is poison: its handler throws on EVERY execution.
  std::map<std::string, int> executions;
  fabric::Deployment dep(w.env);
  dep.add_worker_roles(3);
  dep.start_workers([&](fabric::RoleContext& ctx) -> Task<> {
    co_await app.worker_loop(
        ctx.account(),
        [&](const TaskDescriptor& task) -> Task<> {
          ++executions[task.body];
          if (task.body == "task-0") {
            throw azure::TimeoutError("poison task always crashes");
          }
          co_await ctx.simulation().delay(sim::millis(25));
        },
        /*max_idle_polls=*/10);
  });
  w.sim.run();

  EXPECT_EQ(app.dead_lettered(), 1);
  EXPECT_EQ(app.handler_failures(), cfg.max_deliveries);
  // The poison handler ran exactly max_deliveries times, then the next
  // delivery was parked on the dead-letter queue without executing it.
  EXPECT_EQ(executions["task-0"], cfg.max_deliveries);
  for (int i = 1; i < kTasks; ++i) {
    EXPECT_EQ(executions["task-" + std::to_string(i)], 1);
  }

  std::int64_t parked = -1;
  azb_test::run(w, [&](TestWorld&) -> Task<> {
    parked = co_await app.dead_letter_count();
  });
  EXPECT_EQ(parked, 1);
}

TEST(IntegrityDlqTest, ZeroCapDisablesDeadLettering) {
  TestWorld w;
  BagOfTasksConfig cfg;
  cfg.task_visibility_timeout = sim::seconds(20);
  cfg.max_deliveries = 0;  // 2010-era unbounded redelivery
  BagOfTasksApp app(w.account, cfg);

  azb_test::run(w, [&](TestWorld&) -> Task<> { co_await app.provision(); });

  // A task that fails its first two executions, then succeeds: with
  // dead-lettering off it must still complete via plain redelivery.
  int attempts = 0;
  w.sim.spawn([](BagOfTasksApp& a) -> Task<> {
    co_await a.submit("flaky");
    co_await a.wait_for_completion(1);
  }(app));
  fabric::Deployment dep(w.env);
  dep.add_worker_roles(2);
  dep.start_workers([&](fabric::RoleContext& ctx) -> Task<> {
    co_await app.worker_loop(
        ctx.account(),
        [&](const TaskDescriptor&) -> Task<> {
          if (++attempts <= 2) {
            throw azure::TimeoutError("not yet");
          }
          co_await ctx.simulation().delay(sim::millis(10));
        },
        /*max_idle_polls=*/10);
  });
  w.sim.run();

  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(app.dead_lettered(), 0);
}

}  // namespace
