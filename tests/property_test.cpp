// Parameterized property-style sweeps over the storage services and kernel
// primitives (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/retry.hpp"
#include "core/barrier.hpp"
#include "simcore/random.hpp"
#include "simcore/rate_limiter.hpp"
#include "simcore/sync.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using sim::Task;
using sim::TimePoint;

// --------------------------------------------------- blob roundtrip sweep ----

/// Property: any payload uploaded through any of the three upload paths
/// (single-shot, staged blocks, pages) downloads byte-identical.
class BlobRoundtrip : public ::testing::TestWithParam<std::int64_t> {};

std::string pattern_data(std::int64_t size) {
  std::string s(static_cast<std::size_t>(size), '\0');
  sim::Random rng(static_cast<std::uint64_t>(size) * 2654435761u + 1);
  for (auto& c : s) c = static_cast<char>('!' + rng.uniform(0, 90));
  return s;
}

TEST_P(BlobRoundtrip, SingleShotPreservesBytes) {
  const std::int64_t size = GetParam();
  TestWorld w;
  azb_test::run(w, [](TestWorld&) -> Task<> { co_return; });
  w.sim.spawn([](TestWorld& t, std::int64_t n) -> Task<> {
    auto c = t.account.create_cloud_blob_client().get_container_reference("c");
    co_await c.create_if_not_exists();
    auto blob = c.get_block_blob_reference("b");
    const std::string data = pattern_data(n);
    co_await blob.upload_text(Payload::bytes(data));
    const auto back = co_await blob.download_text();
    EXPECT_EQ(back.data(), data);
  }(w, size));
  w.sim.run();
}

TEST_P(BlobRoundtrip, StagedBlocksPreserveBytes) {
  const std::int64_t size = GetParam();
  TestWorld w;
  w.sim.spawn([](TestWorld& t, std::int64_t n) -> Task<> {
    auto c = t.account.create_cloud_blob_client().get_container_reference("c");
    co_await c.create_if_not_exists();
    auto blob = c.get_block_blob_reference("b");
    const std::string data = pattern_data(n);
    // Stage in <=64 KB blocks.
    std::vector<std::string> ids;
    for (std::int64_t off = 0; off < n; off += 64 << 10) {
      const auto len = std::min<std::int64_t>(64 << 10, n - off);
      ids.push_back("blk-" + std::to_string(off));
      co_await blob.put_block(
          ids.back(),
          Payload::bytes(data.substr(static_cast<std::size_t>(off),
                                     static_cast<std::size_t>(len))));
    }
    co_await blob.put_block_list(ids);
    const auto back = co_await blob.download_text();
    EXPECT_EQ(back.data(), data);
    const auto props = co_await blob.get_properties();
    EXPECT_EQ(props.size, n);
  }(w, size));
  w.sim.run();
}

TEST_P(BlobRoundtrip, PagesPreserveBytes) {
  // Page path requires 512-alignment; round the size up.
  const std::int64_t size = ((GetParam() + 511) / 512) * 512;
  TestWorld w;
  w.sim.spawn([](TestWorld& t, std::int64_t n) -> Task<> {
    auto c = t.account.create_cloud_blob_client().get_container_reference("c");
    co_await c.create_if_not_exists();
    auto blob = c.get_page_blob_reference("p");
    co_await blob.create(((n + (4 << 20) - 1) / (4 << 20)) * (4 << 20));
    const std::string data = pattern_data(n);
    for (std::int64_t off = 0; off < n; off += 1 << 20) {
      const auto len = std::min<std::int64_t>(1 << 20, n - off);
      co_await blob.put_page(
          off, Payload::bytes(data.substr(static_cast<std::size_t>(off),
                                          static_cast<std::size_t>(len))));
    }
    const auto back = co_await blob.open_read();
    EXPECT_EQ(back.data(), data);
  }(w, size));
  w.sim.run();
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlobRoundtrip,
                         ::testing::Values<std::int64_t>(1, 511, 512, 1000,
                                                         4096, 65536, 100000,
                                                         262144));

// ------------------------------------------------- queue congruence sweep ----

/// Property: for any payload size within the limit and any message count,
/// n puts followed by n gets return every payload exactly once (order may
/// differ: FIFO is not guaranteed).
class QueueConservation
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {};

TEST_P(QueueConservation, EveryMessageDeliveredExactlyOnce) {
  const auto [size, count] = GetParam();
  TestWorld w;
  w.sim.spawn([](TestWorld& t, std::int64_t sz, int n) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (int i = 0; i < n; ++i) {
      std::string body = std::to_string(i);
      body.resize(static_cast<std::size_t>(sz), 'x');
      co_await q.add_message(Payload::bytes(body));
    }
    for (int i = 0; i < n; ++i) {
      auto m = co_await q.get_message(sim::seconds(3600));
      CO_ASSERT_TRUE(m.has_value());
      const int id = std::stoi(m->body.data());
      EXPECT_FALSE(seen[static_cast<std::size_t>(id)]) << "duplicate " << id;
      seen[static_cast<std::size_t>(id)] = true;
      EXPECT_EQ(m->body.size(), sz);
      co_await q.delete_message(*m);
    }
    EXPECT_EQ(co_await q.get_message_count(), 0);
    for (bool s : seen) EXPECT_TRUE(s);
  }(w, size, count));
  w.sim.run();
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCounts, QueueConservation,
    ::testing::Combine(::testing::Values<std::int64_t>(8, 1024, 49'152),
                       ::testing::Values(1, 7, 40)));

// ---------------------------------------------------- table entity sweep ----

/// Property: insert -> query roundtrips the payload; update strictly
/// refreshes the ETag; delete makes the row unqueryable.
class TableLifecycle : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TableLifecycle, FullLifecycleHoldsAtAnySize) {
  const std::int64_t size = GetParam();
  TestWorld w;
  w.sim.spawn([](TestWorld& t, std::int64_t sz) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create_if_not_exists();
    azure::TableEntity e;
    e.partition_key = "pk";
    e.row_key = "rk";
    e.properties["data"] = Payload::synthetic(sz);
    co_await tbl.insert(e);
    auto q1 = co_await tbl.query("pk", "rk");
    EXPECT_EQ(std::get<Payload>(q1.properties.at("data")).size(), sz);

    e.properties["data"] = Payload::synthetic(sz / 2 + 1);
    co_await tbl.update(e, "*");
    auto q2 = co_await tbl.query("pk", "rk");
    EXPECT_NE(q2.etag, q1.etag);
    EXPECT_GE(q2.timestamp, q1.timestamp);
    EXPECT_EQ(std::get<Payload>(q2.properties.at("data")).size(), sz / 2 + 1);

    co_await tbl.erase("pk", "rk", q2.etag);
    EXPECT_THROW(co_await tbl.query("pk", "rk"), azure::NotFoundError);
  }(w, size));
  w.sim.run();
}

INSTANTIATE_TEST_SUITE_P(Sizes, TableLifecycle,
                         ::testing::Values<std::int64_t>(16, 4096, 65'536,
                                                         500'000, 1'000'000));

// ------------------------------------------------- flow limiter invariants ----

/// Property: for any (rate, amount, concurrency), the total completion time
/// of n concurrent transfers is exactly n*amount/rate (serialized fluid
/// flow, zero burst) and completions preserve FIFO order.
class FlowLimiterLaw
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(FlowLimiterLaw, SerializationAndOrder) {
  const auto [rate, amount, n] = GetParam();
  sim::Simulation s;
  sim::FlowLimiter limiter(s, rate, /*burst=*/0.0);
  std::vector<int> completions;
  for (int i = 0; i < n; ++i) {
    s.spawn([](sim::FlowLimiter& l, double amt, std::vector<int>& done,
               int id) -> Task<> {
      co_await l.acquire(amt);
      done.push_back(id);
    }(limiter, amount, completions, i));
  }
  s.run();
  ASSERT_EQ(static_cast<int>(completions.size()), n);
  for (int i = 0; i < n; ++i) EXPECT_EQ(completions[static_cast<size_t>(i)], i);
  const auto expected = static_cast<sim::Duration>(
      static_cast<double>(n) * amount / rate * sim::kSecond);
  EXPECT_NEAR(static_cast<double>(s.now()), static_cast<double>(expected),
              static_cast<double>(n));  // 1 ns rounding per acquire
}

INSTANTIATE_TEST_SUITE_P(
    RatesAmountsConcurrency, FlowLimiterLaw,
    ::testing::Combine(::testing::Values(100.0, 1e6, 6e7),
                       ::testing::Values(1.0, 1024.0, 1048576.0),
                       ::testing::Values(1, 3, 17)));

// ---------------------------------------------- window counter invariants ----

/// Property: exactly `budget` admissions succeed per window, for any budget
/// and any burst size.
class WindowCounterLaw
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WindowCounterLaw, ExactBudgetPerWindow) {
  const auto [budget, attempts] = GetParam();
  sim::Simulation s;
  sim::WindowCounter wc(s, budget);
  int admitted = 0;
  for (int i = 0; i < attempts; ++i) {
    if (wc.try_consume()) ++admitted;
  }
  EXPECT_EQ(admitted, std::min(budget, attempts));
  // Next window refills exactly once more.
  s.run_until(sim::kSecond);
  int second = 0;
  for (int i = 0; i < attempts; ++i) {
    if (wc.try_consume()) ++second;
  }
  EXPECT_EQ(second, std::min(budget, attempts));
}

INSTANTIATE_TEST_SUITE_P(BudgetsAndBursts, WindowCounterLaw,
                         ::testing::Combine(::testing::Values(1, 5, 500),
                                            ::testing::Values(1, 100, 700)));

/// Boundary regression for the window roll: an admission at exactly
/// t == window must land in the NEW window (with a fresh budget), not
/// consume a slot of the expired one, and the budget of the old window
/// must be honoured up to its last representable instant.
TEST(WindowCounterBoundaryTest, RollHappensExactlyAtTheWindowEdge) {
  sim::Simulation s;
  constexpr int kBudget = 3;
  sim::WindowCounter wc(s, kBudget);
  // Exhaust the first window's budget at t = 0.
  for (int i = 0; i < kBudget; ++i) EXPECT_TRUE(wc.try_consume());
  EXPECT_FALSE(wc.try_consume());
  // One tick before the edge the old window still applies.
  s.run_until(sim::kSecond - 1);
  EXPECT_FALSE(wc.try_consume());
  // At exactly t == window the counter rolls: a full fresh budget.
  s.run_until(sim::kSecond);
  for (int i = 0; i < kBudget; ++i) {
    EXPECT_TRUE(wc.try_consume()) << "admission " << i << " at the edge";
  }
  EXPECT_FALSE(wc.try_consume());
  // The rejected attempts above must not have consumed future budget.
  s.run_until(2 * sim::kSecond);
  EXPECT_TRUE(wc.try_consume());
}

// -------------------------------------------------------- barrier sweep ----

/// Property: for any worker count, no worker passes the barrier before the
/// last one arrives.
class BarrierLaw : public ::testing::TestWithParam<int> {};

TEST_P(BarrierLaw, NoEarlyRelease) {
  const int workers = GetParam();
  TestWorld w;
  std::vector<TimePoint> released(static_cast<std::size_t>(workers), -1);
  TimePoint last_arrival = 0;
  for (int i = 0; i < workers; ++i) {
    const auto arrival = sim::millis(137 * (i + 1));
    last_arrival = std::max(last_arrival, arrival);
    w.sim.spawn([](TestWorld& t, int id, int n, sim::Duration delay,
                   std::vector<TimePoint>& out) -> Task<> {
      azurebench::QueueBarrier barrier(t.account, "sync", n);
      co_await barrier.provision();
      co_await t.sim.delay(delay);
      co_await barrier.arrive();
      out[static_cast<std::size_t>(id)] = t.sim.now();
    }(w, i, workers, arrival, released));
  }
  w.sim.run();
  for (const TimePoint r : released) EXPECT_GE(r, last_arrival);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, BarrierLaw,
                         ::testing::Values(1, 2, 5, 17, 64));

// ---------------------------------------------- fault-injection property ----

/// Property: for ANY fault-plan seed, the queue's visibility-timeout
/// mechanism preserves at-least-once delivery — no message is lost to
/// injected drops or simulated consumer crashes — and the service's
/// redelivery counter equals exactly the number of injected abandons
/// (dropped requests never cause phantom claims, because services mutate
/// state only after the cluster round-trip succeeds).
class FaultPlanLaw : public ::testing::TestWithParam<int> {};

TEST_P(FaultPlanLaw, AtLeastOnceAndExactRedeliveryAccounting) {
  const int seed = GetParam();
  azure::CloudConfig cfg;
  cfg.faults.seed = 0xF00D + static_cast<std::uint64_t>(seed);
  cfg.faults.drop_probability = 0.02;
  cfg.faults.duplicate_probability = 0.02;
  cfg.faults.latency_spike_probability = 0.03;
  cfg.faults.drop_timeout = sim::millis(200);
  TestWorld w(cfg);

  constexpr int kMessages = 18;
  azure::RetryPolicy retry;
  retry.backoff = sim::millis(250);
  retry.max_backoff = sim::seconds(2);
  retry.jitter_seed = static_cast<std::uint64_t>(seed);

  std::int64_t abandons = 0;
  std::vector<int> deliveries(kMessages, 0);

  w.sim.spawn([](TestWorld& t, azure::RetryPolicy retry, int test_seed,
                 std::int64_t& abandons,
                 std::vector<int>& deliveries) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("pq");
    co_await azure::with_retry(
        t.sim, [&] { return q.create_if_not_exists(); }, retry);
    const int n = static_cast<int>(deliveries.size());
    for (int i = 0; i < n; ++i) {
      co_await azure::with_retry(t.sim, [&] {
        return q.add_message(Payload::bytes(std::to_string(i)));
      }, retry);
    }
    // Consume everything; a seeded coin decides which deliveries the
    // "consumer" abandons mid-processing (crash before delete). Abandoned
    // messages must reappear after the visibility timeout.
    sim::Random crash_coin(0xC0FFEE ^ static_cast<std::uint64_t>(test_seed));
    int deleted = 0;
    while (deleted < n) {
      CO_ASSERT_TRUE(t.sim.now() < sim::seconds(600));  // lost-message guard
      auto m = co_await azure::with_retry(
          t.sim, [&] { return q.get_message(sim::seconds(5)); }, retry);
      if (!m.has_value()) {
        co_await t.sim.delay(sim::millis(200));
        continue;
      }
      ++deliveries[static_cast<std::size_t>(std::stoi(m->body.data()))];
      if (crash_coin.bernoulli(0.25)) {
        ++abandons;  // crashed before deleting; never acks this delivery
        continue;
      }
      co_await azure::with_retry(
          t.sim, [&] { return q.delete_message(*m); }, retry);
      ++deleted;
    }
    const std::int64_t left = co_await azure::with_retry(
        t.sim, [&] { return q.get_message_count(); }, retry);
    EXPECT_EQ(left, 0);
  }(w, retry, seed, abandons, deliveries));
  w.sim.run();

  for (int i = 0; i < kMessages; ++i) {
    EXPECT_GE(deliveries[static_cast<std::size_t>(i)], 1)
        << "message " << i << " was lost under fault seed " << seed;
  }
  EXPECT_EQ(w.env.queue_service().redeliveries(), abandons);
}

INSTANTIATE_TEST_SUITE_P(TwoHundredSeeds, FaultPlanLaw,
                         ::testing::Range(0, 200));

// -------------------------------------------------- determinism property ----

/// Property: the whole stack is deterministic — identical runs produce
/// identical virtual end times for any worker count.
class DeterminismLaw : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismLaw, IdenticalEndTimes) {
  const int workers = GetParam();
  auto run_once = [workers] {
    TestWorld w;
    for (int i = 0; i < workers; ++i) {
      w.sim.spawn([](TestWorld& t, int id) -> Task<> {
        auto q = t.account.create_cloud_queue_client().get_queue_reference(
            "q" + std::to_string(id % 3));
        co_await q.create_if_not_exists();
        for (int k = 0; k < 5; ++k) {
          co_await q.add_message(Payload::synthetic(1024 * (id + 1)));
          auto m = co_await q.get_message();
          if (m) co_await q.delete_message(*m);
        }
      }(w, i));
    }
    w.sim.run();
    return std::pair{w.sim.now(), w.sim.events_executed()};
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DeterminismLaw,
                         ::testing::Values(1, 8, 33));

// ----------------------------------------------------- integrity property ----

/// Property: for ANY corruption-plan seed — bit-flips on the wire, server
/// crashes tearing replica writes — no client ever observes a corrupt byte
/// (damaged payloads are rejected or retried end-to-end), and one forced
/// anti-entropy pass converges every replica of every tracked object back
/// to its committed checksum.
class IntegrityLaw : public ::testing::TestWithParam<int> {};

std::string integrity_body(int id) {
  std::string s = std::to_string(id) + ":";
  sim::Random rng(static_cast<std::uint64_t>(id) * 2654435761u + 99);
  for (int i = 0; i < 256; ++i) s += static_cast<char>('!' + rng.uniform(0, 90));
  return s;
}

TEST_P(IntegrityLaw, NoCorruptByteReachesClientsAndScrubConverges) {
  const int seed = GetParam();
  azure::CloudConfig cfg;
  cfg.faults.seed = 0x1D7E9 + static_cast<std::uint64_t>(seed);
  cfg.faults.corruption_probability = 0.04;
  cfg.faults.drop_probability = 0.01;
  cfg.faults.drop_timeout = sim::millis(200);
  cfg.faults.server_crashes = 2;
  cfg.faults.crash_mean_interval = sim::seconds(2);
  cfg.faults.server_downtime = sim::millis(500);
  TestWorld w(cfg);

  constexpr int kMessages = 12;
  azure::RetryPolicy retry;
  retry.backoff = sim::millis(250);
  retry.max_backoff = sim::seconds(2);
  retry.jitter_seed = static_cast<std::uint64_t>(seed);

  int corrupt_observed = 0;
  w.sim.spawn([](TestWorld& t, azure::RetryPolicy retry,
                 int& corrupt_observed) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("iq");
    co_await azure::with_retry(
        t.sim, [&] { return q.create_if_not_exists(); }, retry);
    for (int i = 0; i < kMessages; ++i) {
      co_await azure::with_retry(t.sim, [&] {
        return q.add_message(Payload::bytes(integrity_body(i)));
      }, retry);
    }
    int deleted = 0;
    while (deleted < kMessages) {
      CO_ASSERT_TRUE(t.sim.now() < sim::seconds(600));  // lost-message guard
      auto m = co_await azure::with_retry(
          t.sim, [&] { return q.get_message(sim::seconds(5)); }, retry);
      if (!m.has_value()) {
        co_await t.sim.delay(sim::millis(200));
        continue;
      }
      const int id = std::stoi(m->body.data());
      if (m->body.data() != integrity_body(id)) ++corrupt_observed;
      co_await azure::with_retry(
          t.sim, [&] { return q.delete_message(*m); }, retry);
      ++deleted;
    }
    // One blob round-trip through the same hostile wire.
    auto c = t.account.create_cloud_blob_client().get_container_reference("ic");
    co_await azure::with_retry(
        t.sim, [&] { return c.create_if_not_exists(); }, retry);
    auto blob = c.get_block_blob_reference("ib");
    const std::string data = integrity_body(1'000'000);
    co_await azure::with_retry(
        t.sim, [&] { return blob.upload_text(Payload::bytes(data)); }, retry);
    const auto back = co_await azure::with_retry(
        t.sim, [&] { return blob.download_text(); }, retry);
    if (back.data() != data) ++corrupt_observed;
  }(w, retry, corrupt_observed));
  w.sim.run();

  EXPECT_EQ(corrupt_observed, 0)
      << "a corrupt payload reached a client under seed " << seed;

  // Force one full anti-entropy pass and require total convergence: every
  // replica of every tracked object back on the committed checksum.
  auto& cluster = w.env.storage_cluster();
  EXPECT_GT(cluster.replica_store().tracked_objects(), 0);
  w.sim.spawn(cluster.scrub_all());
  w.sim.run();
  EXPECT_EQ(cluster.replica_store().divergent_replicas(), 0)
      << "scrub failed to converge replicas under seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(TwoHundredSeeds, IntegrityLaw,
                         ::testing::Range(0, 200));

}  // namespace
