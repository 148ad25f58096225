// Unit tests for Queue storage semantics and its timing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/retry.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using sim::Task;
using sim::TimePoint;

TEST(QueueTest, CreateExistsDelete) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    EXPECT_FALSE(co_await q.exists());
    co_await q.create();
    EXPECT_TRUE(co_await q.exists());
    EXPECT_THROW(co_await q.create(), azure::ConflictError);
    co_await q.create_if_not_exists();  // no throw
    co_await q.delete_queue();
    EXPECT_FALSE(co_await q.exists());
    EXPECT_THROW(co_await q.delete_queue(), azure::NotFoundError);
  });
}

TEST(QueueTest, PutGetDeleteRoundtrip) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("task-1"));
    auto msg = co_await q.get_message();
    CO_ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->body.data(), "task-1");
    EXPECT_EQ(msg->dequeue_count, 1);
    EXPECT_FALSE(msg->pop_receipt.empty());
    co_await q.delete_message(*msg);
    EXPECT_EQ(co_await q.get_message_count(), 0);
  });
}

TEST(QueueTest, GetHidesMessageUntilVisibilityTimeout) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("m"));
    auto first = co_await q.get_message(sim::seconds(10));
    CO_ASSERT_TRUE(first.has_value());
    // Hidden: a second get finds nothing.
    auto second = co_await q.get_message();
    EXPECT_FALSE(second.has_value());
    // Count still includes the invisible message.
    EXPECT_EQ(co_await q.get_message_count(), 1);
    // After the visibility timeout it reappears with a higher dequeue count.
    co_await t.sim.delay(sim::seconds(11));
    auto again = co_await q.get_message();
    CO_ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->dequeue_count, 2);
  });
}

TEST(QueueTest, StalePopReceiptRejected) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("m"));
    auto first = co_await q.get_message(sim::seconds(1));
    CO_ASSERT_TRUE(first.has_value());
    co_await t.sim.delay(sim::seconds(2));
    auto second = co_await q.get_message(sim::seconds(30));
    CO_ASSERT_TRUE(second.has_value());
    // The first receipt is now stale: the consumer must not delete a message
    // someone else re-got.
    EXPECT_THROW(co_await q.delete_message(*first),
                 azure::PreconditionFailedError);
    co_await q.delete_message(*second);  // fresh receipt works
  });
}

TEST(QueueTest, PeekDoesNotHide) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("m"));
    auto p1 = co_await q.peek_message();
    CO_ASSERT_TRUE(p1.has_value());
    EXPECT_TRUE(p1->pop_receipt.empty());
    auto p2 = co_await q.peek_message();
    EXPECT_TRUE(p2.has_value());  // still visible
    auto g = co_await q.get_message();
    EXPECT_TRUE(g.has_value());
  });
}

TEST(QueueTest, EmptyQueueReturnsNullopt) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    EXPECT_FALSE((co_await q.get_message()).has_value());
    EXPECT_FALSE((co_await q.peek_message()).has_value());
  });
}

TEST(QueueTest, MessagesExpireAfterTtl) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("short-lived"), sim::seconds(5));
    co_await t.sim.delay(sim::seconds(6));
    EXPECT_EQ(co_await q.get_message_count(), 0);
    EXPECT_FALSE((co_await q.get_message()).has_value());
  });
}

TEST(QueueTest, DefaultTtlIsSevenDays) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("week"));
    co_await t.sim.delay(sim::seconds(6.9 * 24 * 3600));
    EXPECT_EQ(co_await q.get_message_count(), 1);
    co_await t.sim.delay(sim::seconds(0.2 * 24 * 3600));
    EXPECT_EQ(co_await q.get_message_count(), 0);
  });
}

TEST(QueueTest, PayloadOver48KBRejected) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    // 49,152 bytes is the precise usable maximum.
    co_await q.add_message(Payload::synthetic(49'152));
    EXPECT_THROW(co_await q.add_message(Payload::synthetic(49'153)),
                 azure::InvalidArgumentError);
  });
}

TEST(QueueTest, ThrottleAt500MessagesPerSecond) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
  });
  // 600 concurrent peeks land in the same one-second window: only 500 are
  // admitted, the rest see ServerBusy.
  int busy = 0, ok = 0;
  for (int i = 0; i < 600; ++i) {
    w.sim.spawn([](TestWorld& t, int& b, int& o) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      try {
        (void)co_await q.peek_message();
        ++o;
      } catch (const azure::ServerBusyError&) {
        ++b;
      }
    }(w, busy, ok));
  }
  w.sim.run();
  EXPECT_EQ(ok, 500);
  EXPECT_EQ(busy, 100);
}

TEST(QueueTest, RetryPolicyRidesOutThrottle) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
  });
  int completed = 0;
  for (int i = 0; i < 700; ++i) {
    w.sim.spawn([](TestWorld& t, int& done) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      co_await azure::with_retry(
          t.sim, [&] { return q.add_message(Payload::synthetic(64)); });
      ++done;
    }(w, completed));
  }
  w.sim.run();
  EXPECT_EQ(completed, 700);
  // Riding out the 500/s target must have cost at least a second of backoff.
  EXPECT_GT(w.sim.now(), sim::kSecond);
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    EXPECT_EQ(co_await q.get_message_count(), 700);
  });
}

TEST(QueueTest, ClearEmptiesQueue) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    for (int i = 0; i < 5; ++i) {
      co_await q.add_message(Payload::bytes("m" + std::to_string(i)));
    }
    EXPECT_EQ(co_await q.get_message_count(), 5);
    co_await q.clear();
    EXPECT_EQ(co_await q.get_message_count(), 0);
  });
}

TEST(QueueTest, FifoIsNotGuaranteed) {
  // With the scramble probability forced high, consumers observe reordering
  // — the reason the paper dedicates a termination-indicator queue instead
  // of an in-band "end of work" message.
  azure::CloudConfig cfg;
  cfg.queue.fifo_violation_probability = 0.5;
  TestWorld w(cfg);
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    constexpr int kMessages = 64;
    for (int i = 0; i < kMessages; ++i) {
      co_await q.add_message(Payload::bytes(std::to_string(i)));
    }
    bool out_of_order = false;
    int last = -1;
    for (int i = 0; i < kMessages; ++i) {
      auto m = co_await q.get_message();
      CO_ASSERT_TRUE(m.has_value());
      const int v = std::stoi(m->body.data());
      if (v < last) out_of_order = true;
      last = std::max(last, v);
      co_await q.delete_message(*m);
    }
    EXPECT_TRUE(out_of_order);
  });
}

TEST(QueueTest, FifoScrambleOffPreservesOrder) {
  azure::CloudConfig cfg;
  cfg.queue.fifo_violation_probability = 0.0;
  TestWorld w(cfg);
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    for (int i = 0; i < 32; ++i) {
      co_await q.add_message(Payload::bytes(std::to_string(i)));
    }
    for (int i = 0; i < 32; ++i) {
      auto m = co_await q.get_message();
      CO_ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->body.data(), std::to_string(i));
      co_await q.delete_message(*m);
    }
  });
}

// ---------------------------------------------------------- timing model ----

namespace timing {

/// Measures one operation's duration inside a fresh world.
template <class Op>
sim::Duration measure(TestWorld& w, Op op) {
  const TimePoint start = w.sim.now();
  w.sim.spawn(op(w));
  w.sim.run();
  return w.sim.now() - start;
}

}  // namespace timing

TEST(QueueTimingTest, GetCostsMoreThanPutCostsMoreThanPeek) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::synthetic(4096));
    co_await q.add_message(Payload::synthetic(4096));
  });
  const auto put = timing::measure(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.add_message(Payload::synthetic(4096));
  });
  const auto peek = timing::measure(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    (void)co_await q.peek_message();
  });
  const auto get = timing::measure(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    (void)co_await q.get_message();
  });
  EXPECT_GT(get, put);
  EXPECT_GT(put, peek);
}

TEST(QueueTimingTest, SixteenKbGetAnomalyReproduced) {
  auto get_time = [](std::int64_t payload, bool anomaly) {
    azure::CloudConfig cfg;
    cfg.queue.model_16k_get_anomaly = anomaly;
    TestWorld w(cfg);
    azb_test::run(w, [](TestWorld& t) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      co_await q.create();
    });
    // Seed the message at the requested size.
    struct Ctx {
      std::int64_t size;
    };
    w.sim.spawn([](TestWorld& t, std::int64_t size) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      co_await q.add_message(Payload::synthetic(size));
    }(w, payload));
    w.sim.run();
    const TimePoint start = w.sim.now();
    w.sim.spawn([](TestWorld& t) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      (void)co_await q.get_message();
    }(w));
    w.sim.run();
    return w.sim.now() - start;
  };
  const auto t16 = get_time(16 * 1024, true);
  const auto t32 = get_time(32 * 1024, true);
  // The anomaly: 16 KB gets are slower than *larger* 32 KB gets.
  EXPECT_GT(t16, t32);
  // Ablation: with the quirk off, 16 KB costs no more than 32 KB (equal when
  // both transfers fit within NIC burst credit).
  const auto t16_off = get_time(16 * 1024, false);
  const auto t32_off = get_time(32 * 1024, false);
  EXPECT_LE(t16_off, t32_off);
}

TEST(QueueTimingTest, SeparateQueuesScaleBetterThanShared) {
  // Fig. 6 vs Fig. 7: per-queue partitions parallelize; a shared queue
  // serializes at one partition server.
  auto measure = [](bool shared) {
    TestWorld w;
    constexpr int kWorkers = 8;
    constexpr int kOps = 25;
    azb_test::run(w, [](TestWorld& t) -> Task<> {
      auto qc = t.account.create_cloud_queue_client();
      co_await qc.get_queue_reference("shared").create();
      for (int i = 0; i < kWorkers; ++i) {
        co_await qc.get_queue_reference("own-" + std::to_string(i)).create();
      }
    });
    const TimePoint start = w.sim.now();
    sim::WaitGroup wg(w.sim);
    for (int i = 0; i < kWorkers; ++i) {
      wg.add();
      w.sim.spawn([](TestWorld& t, sim::WaitGroup& g, int id,
                     bool sh) -> Task<> {
        auto qc = t.account.create_cloud_queue_client();
        auto q = qc.get_queue_reference(
            sh ? "shared" : "own-" + std::to_string(id));
        for (int k = 0; k < kOps; ++k) {
          co_await azure::with_retry(t.sim, [&] {
            return q.add_message(azure::Payload::synthetic(4096));
          });
        }
        g.done();
      }(w, wg, i, shared));
    }
    w.sim.spawn([](sim::WaitGroup& g) -> Task<> { co_await g.wait(); }(wg));
    w.sim.run();
    return w.sim.now() - start;
  };
  EXPECT_GT(measure(true), measure(false));
}

// ------------------------------------------------- boundary-instant tests ----
//
// Both tests use a two-world calibration trick: a first deterministic run
// with relaxed limits measures the exact sim-time at which get_message's
// atomic claim sweep executes; a second run then pins the boundary
// (expiration_time / visible_from) to precisely that instant. Replays are
// byte-identical, so the measured instants transfer between worlds.

struct QueueBoundaryProbe {
  TimePoint insertion = 0;  // message insertion time (first run)
  TimePoint claim = 0;      // sim time right after the probing get returned
  bool served = false;
  int dequeue_count = 0;
};

Task<> expiry_world(TestWorld& t, sim::Duration ttl, QueueBoundaryProbe& out) {
  auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  co_await q.add_message(Payload::bytes("boundary"), ttl);
  const auto msg = co_await q.get_message();
  out.claim = t.sim.now();
  out.served = msg.has_value();
  if (msg.has_value()) out.insertion = msg->insertion_time;
}

QueueBoundaryProbe run_expiry_world(sim::Duration ttl) {
  TestWorld w;
  QueueBoundaryProbe p;
  w.sim.spawn(expiry_world(w, ttl, p));
  w.sim.run();
  return p;
}

TEST(QueueBoundaryTest, MessageRetrievableAtExactExpirationInstant) {
  // Calibration: default 7-day TTL; measure insertion -> claim delta.
  const QueueBoundaryProbe cal = run_expiry_world(0);
  ASSERT_TRUE(cal.served);
  const sim::Duration delta = cal.claim - cal.insertion;
  ASSERT_GT(delta, 1);

  // TTL lapses exactly at the claim sweep's `now`. A TTL is a guaranteed
  // lifetime (ExpirationTime = insertion + TTL, retrievable *through* that
  // instant); the pre-fix `expiration_time <= now` sweep dropped it here.
  const QueueBoundaryProbe at_edge = run_expiry_world(delta);
  EXPECT_TRUE(at_edge.served);

  // One nanosecond less and the TTL genuinely lapsed before the claim.
  const QueueBoundaryProbe past_edge = run_expiry_world(delta - 1);
  EXPECT_FALSE(past_edge.served);
}

Task<> visibility_world(TestWorld& t, sim::Duration first_vis,
                        QueueBoundaryProbe& out) {
  auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  co_await q.add_message(Payload::bytes("boundary"));
  const auto first = co_await q.get_message(first_vis);
  CO_ASSERT_TRUE(first.has_value());
  out.insertion = t.sim.now();  // instant the second get is issued
  const auto second = co_await q.get_message();
  out.claim = t.sim.now();
  out.served = second.has_value();
  if (second.has_value()) out.dequeue_count = second->dequeue_count;
}

QueueBoundaryProbe run_visibility_world(sim::Duration first_vis) {
  TestWorld w;
  QueueBoundaryProbe p;
  w.sim.spawn(visibility_world(w, first_vis, p));
  w.sim.run();
  return p;
}

TEST(QueueBoundaryTest, MessageVisibleAtExactTimeNextVisibleInstant) {
  // Calibration: default 30 s visibility; the second get finds nothing and
  // measures how long its own claim sweep takes to run (D).
  const QueueBoundaryProbe cal = run_visibility_world(0);
  ASSERT_FALSE(cal.served);
  const sim::Duration d = cal.claim - cal.insertion;
  ASSERT_GT(d, 1);

  // First get hides the message for exactly D: visible_from (Azure's
  // TimeNextVisible — the instant the message *becomes* visible) equals the
  // second get's claim instant, so that consumer must receive it.
  const QueueBoundaryProbe at_edge = run_visibility_world(d);
  EXPECT_TRUE(at_edge.served);
  EXPECT_EQ(at_edge.dequeue_count, 2);

  // One nanosecond more and the message is still hidden at the claim.
  const QueueBoundaryProbe before_edge = run_visibility_world(d + 1);
  EXPECT_FALSE(before_edge.served);
}

// ------------------------------------------------- differential reference ----
//
// The queue service keeps an expiry watermark and looks messages up by id
// with a binary search. The reference below is the simple code it replaced:
// an expiry sweep of the whole deque on every probe, a linear scan for the
// first/second visible message, a linear find by id, and its own FIFO
// scramble RNG. Seeded random op sequences run through the real service and
// the reference side by side and must agree on every result.
//
// Every state change in QueueService happens after the op's last
// suspension point, so the reference applies each op at the instant the
// real op completes. The reference expires exactly where the service does
// (put, get, peek, count), never on delete or update.

namespace reference {

struct Message {
  std::uint64_t id = 0;
  std::int64_t size = 0;
  TimePoint insertion = 0;
  TimePoint expiration = 0;
  TimePoint visible_from = 0;
  int dequeue_count = 0;
  std::uint64_t receipt_serial = 0;
};

class QueueModel {
 public:
  explicit QueueModel(const azure::QueueServiceConfig& cfg)
      : cfg_(cfg), rng_(cfg.seed) {}

  void create(const std::string& q) { queues_[q]; }

  void put(const std::string& q, std::int64_t size, sim::Duration ttl,
           TimePoint now) {
    const sim::Duration max_ttl =
        azure::limits::kMessageTtlSeconds * sim::kSecond;
    std::deque<Message>& d = queues_.at(q);
    expire(d, now);
    Message m;
    m.id = next_id_++;
    m.size = size;
    m.insertion = now;
    m.expiration = now + ((ttl <= 0 || ttl > max_ttl) ? max_ttl : ttl);
    m.visible_from = now;
    d.push_back(m);
  }

  std::string get(const std::string& q, sim::Duration vis, TimePoint now) {
    std::deque<Message>& d = queues_.at(q);
    expire(d, now);
    const std::size_t i = pick_visible(d, now);
    if (i == d.size()) return "none";
    Message& m = d[i];
    m.visible_from = now + (vis > 0 ? vis : cfg_.default_visibility_timeout);
    ++m.dequeue_count;
    m.receipt_serial = next_receipt_++;
    return describe(m, true);
  }

  std::string peek(const std::string& q, TimePoint now) {
    std::deque<Message>& d = queues_.at(q);
    expire(d, now);
    const std::size_t i = pick_visible(d, now);
    return i == d.size() ? "none" : describe(d[i], false);
  }

  std::string remove(const std::string& q, std::uint64_t id,
                     const std::string& receipt) {
    std::deque<Message>& d = queues_.at(q);
    auto it = std::find_if(d.begin(), d.end(),
                           [id](const Message& m) { return m.id == id; });
    if (it == d.end()) return "not_found";
    if (receipt_of(*it) != receipt) return "precondition_failed";
    d.erase(it);
    return "deleted";
  }

  std::string update(const std::string& q, std::uint64_t id,
                     const std::string& receipt, sim::Duration vis,
                     std::optional<std::int64_t> new_size, TimePoint now) {
    std::deque<Message>& d = queues_.at(q);
    auto it = std::find_if(d.begin(), d.end(),
                           [id](const Message& m) { return m.id == id; });
    if (it == d.end()) return "not_found";
    if (receipt_of(*it) != receipt) return "precondition_failed";
    it->visible_from = now + vis;
    if (new_size) it->size = *new_size;
    it->receipt_serial = next_receipt_++;
    return describe(*it, true);
  }

  std::int64_t count(const std::string& q, TimePoint now) {
    std::deque<Message>& d = queues_.at(q);
    expire(d, now);
    return static_cast<std::int64_t>(d.size());
  }

  void clear(const std::string& q) { queues_.at(q).clear(); }

  /// Every (queue, expiry or visibility instant) in [now, until], as
  /// targets for landing an op's completion exactly on a boundary.
  std::vector<std::pair<std::string, TimePoint>> instants(
      TimePoint now, TimePoint until) const {
    std::vector<std::pair<std::string, TimePoint>> out;
    for (const auto& [name, d] : queues_) {
      for (const Message& m : d) {
        for (const TimePoint at : {m.expiration, m.visible_from}) {
          if (at >= now && at <= until) out.emplace_back(name, at);
        }
      }
    }
    return out;
  }

  /// True when some message's expiry or visibility instant is `now`.
  bool on_boundary(TimePoint now) const {
    for (const auto& [name, d] : queues_) {
      for (const Message& m : d) {
        if (m.expiration == now || m.visible_from == now) return true;
      }
    }
    return false;
  }

  int scramble_draws() const noexcept { return scramble_draws_; }

  static std::string describe(std::uint64_t id, const std::string& receipt,
                              int dequeue_count, TimePoint insertion,
                              TimePoint expiration, std::int64_t size) {
    return "id=" + std::to_string(id) + " receipt=" + receipt +
           " dequeues=" + std::to_string(dequeue_count) +
           " inserted=" + std::to_string(insertion) +
           " expires=" + std::to_string(expiration) +
           " bytes=" + std::to_string(size);
  }

 private:
  static std::string receipt_of(const Message& m) {
    return "pr-" + std::to_string(m.receipt_serial);
  }
  static std::string describe(const Message& m, bool with_receipt) {
    return describe(m.id, with_receipt ? receipt_of(m) : "", m.dequeue_count,
                    m.insertion, m.expiration, m.size);
  }

  static void expire(std::deque<Message>& d, TimePoint now) {
    std::erase_if(d, [now](const Message& m) { return m.expiration < now; });
  }

  std::size_t pick_visible(const std::deque<Message>& d, TimePoint now) {
    std::size_t first = d.size();
    std::size_t second = d.size();
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (d[i].visible_from <= now) {
        if (first == d.size()) {
          first = i;
        } else {
          second = i;
          break;
        }
      }
    }
    if (first == d.size()) return first;
    if (second != d.size()) {
      ++scramble_draws_;
      if (rng_.next_double() < cfg_.fifo_violation_probability) return second;
    }
    return first;
  }

  azure::QueueServiceConfig cfg_;
  sim::Random rng_;
  std::map<std::string, std::deque<Message>> queues_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_receipt_ = 1;
  int scramble_draws_ = 0;
};

}  // namespace reference

std::string describe_real(const std::optional<azure::QueueMessage>& m) {
  if (!m) return "none";
  return reference::QueueModel::describe(m->id, m->pop_receipt,
                                         m->dequeue_count, m->insertion_time,
                                         m->expiration_time, m->body.size());
}

struct DifferentialTally {
  int ops = 0;
  int boundary_hits = 0;  ///< ops completing on an expiry/visibility instant
  int scramble_draws = 0;
  bool diverged = false;
};

enum class DiffOp { kPut, kGet, kPeek, kDelete, kUpdate, kCount, kClear };
constexpr int kDiffOpKinds = 7;

// One sequential client against the real service; `model` follows along.
Task<> differential_client(TestWorld& t, std::uint64_t seed, int ops,
                           DifferentialTally& tally) {
  azure::QueueService& svc = t.env.queue_service();
  reference::QueueModel model(svc.config());
  sim::Random rng(seed ^ 0xD1FFull);
  const std::string queues[] = {"qa", "qb"};
  for (const std::string& q : queues) {
    co_await svc.create_queue(t.nic, q);
    model.create(q);
  }
  struct Lease {
    std::string queue;
    std::uint64_t id;
    std::string receipt;
  };
  std::vector<Lease> leases;  // kept after use, so stale receipts recur
  sim::Duration last_duration[kDiffOpKinds] = {};
  const std::int64_t sizes[] = {16, 1024, 16 * 1024, 40'000};
  // The next op, when it is set up to complete on a boundary instant.
  struct Planned {
    DiffOp op;
    std::string queue;
  };
  std::optional<Planned> forced;
  // The op's completion instant, where the reference applies it; counts
  // completions that land on a pending expiry or visibility instant.
  auto completed = [&]() {
    const TimePoint now = t.sim.now();
    tally.boundary_hits += model.on_boundary(now) ? 1 : 0;
    return now;
  };

  // Op kinds that expire or pick at their completion instant.
  const DiffOp probes[] = {DiffOp::kPut, DiffOp::kGet, DiffOp::kPeek,
                           DiffOp::kCount};
  auto pick_probe = [&]() { return probes[rng.uniform(0, 3)]; };

  // Draws a TTL or visibility timeout for a message in `q`. Some land the
  // lapse exactly on the next op's completion: the next op on `q` is of a
  // kind whose last duration was measured, and the timeout is that
  // duration (+-1 ns; durations repeat in most states).
  auto pick_timeout = [&](const std::string& q, double p_landing,
                          double p_random,
                          sim::Duration random_max) -> sim::Duration {
    const double u = rng.next_double();
    if (u < p_landing) {
      const DiffOp kind = pick_probe();
      const sim::Duration d = last_duration[static_cast<int>(kind)];
      if (d > 1) {
        forced = Planned{kind, q};
        return d + rng.uniform(-1, 1);
      }
    }
    if (u < p_landing + p_random) return rng.uniform(1, random_max);
    return 0;  // the service default
  };

  for (int i = 0; i < ops; ++i) {
    DiffOp op;
    std::string q;
    if (forced) {
      op = forced->op;
      q = forced->queue;
      forced.reset();
    } else {
      q = queues[rng.uniform(0, 1)];
      const double u = rng.next_double();
      op = u < 0.40    ? DiffOp::kPut
           : u < 0.58  ? DiffOp::kGet
           : u < 0.66  ? DiffOp::kPeek
           : u < 0.78  ? DiffOp::kDelete
           : u < 0.88  ? DiffOp::kUpdate
           : u < 0.995 ? DiffOp::kCount
                       : DiffOp::kClear;
    }
    const std::int64_t size = sizes[rng.uniform(0, 3)];
    const TimePoint start = t.sim.now();
    std::string real;
    std::string want;

    switch (op) {
      case DiffOp::kPut: {
        const sim::Duration ttl = pick_timeout(q, 0.15, 0.25, sim::seconds(3));
        co_await svc.put_message(t.nic, q, Payload::synthetic(size), ttl);
        model.put(q, size, ttl, completed());
        break;
      }
      case DiffOp::kGet: {
        const sim::Duration vis =
            pick_timeout(q, 0.3, 0.4, sim::seconds(3));
        const auto m = co_await svc.get_message(t.nic, q, vis);
        if (m) leases.push_back({q, m->id, m->pop_receipt});
        real = describe_real(m);
        want = model.get(q, vis, completed());
        break;
      }
      case DiffOp::kPeek:
        real = describe_real(co_await svc.peek_message(t.nic, q));
        want = model.peek(q, completed());
        break;
      case DiffOp::kDelete:
      case DiffOp::kUpdate: {
        // Mostly a lease handed out earlier (its receipt may be stale by
        // now); sometimes a random id with a receipt no message holds.
        Lease l{q, static_cast<std::uint64_t>(rng.uniform(1, 400)), "pr-0"};
        if (!leases.empty() && rng.bernoulli(0.9)) {
          l = leases[static_cast<std::size_t>(
              rng.uniform(0, static_cast<std::int64_t>(leases.size()) - 1))];
        }
        const sim::Duration vis =
            op == DiffOp::kUpdate
                ? pick_timeout(l.queue, 0.3, 0.4, sim::seconds(3))
                : 0;
        std::optional<std::int64_t> new_size;
        if (op == DiffOp::kUpdate && rng.bernoulli(0.5)) new_size = size;
        try {
          if (op == DiffOp::kDelete) {
            co_await svc.delete_message(t.nic, l.queue, l.id, l.receipt);
            real = "deleted";
          } else {
            std::optional<Payload> body;
            if (new_size) body = Payload::synthetic(*new_size);
            const azure::QueueMessage m = co_await svc.update_message(
                t.nic, l.queue, l.id, l.receipt, vis, std::move(body));
            leases.push_back({l.queue, m.id, m.pop_receipt});
            real = describe_real(m);
          }
        } catch (const azure::NotFoundError&) {
          real = "not_found";
        } catch (const azure::PreconditionFailedError&) {
          real = "precondition_failed";
        }
        const TimePoint now = completed();
        want = op == DiffOp::kDelete
                   ? model.remove(l.queue, l.id, l.receipt)
                   : model.update(l.queue, l.id, l.receipt, vis, new_size,
                                  now);
        break;
      }
      case DiffOp::kCount:
        real = std::to_string(co_await svc.get_message_count(t.nic, q));
        want = std::to_string(model.count(q, completed()));
        break;
      case DiffOp::kClear:
        co_await svc.clear_queue(t.nic, q);
        completed();
        model.clear(q);
        break;
    }
    last_duration[static_cast<int>(op)] = t.sim.now() - start;
    ++tally.ops;
    if (real != want) {
      ADD_FAILURE() << "seed " << seed << ", op #" << i << " (kind "
                    << static_cast<int>(op) << ", queue " << q << ", t="
                    << t.sim.now() << "):\n  service:   " << real
                    << "\n  reference: " << want;
      tally.diverged = true;
      co_return;
    }

    // Space the next op: back to back, a short random gap, a long gap
    // (default visibility timeouts run out), or timed so that it completes
    // exactly on (+-1 ns) a pending expiry or visibility instant — mostly
    // one a few seconds ahead, rarely a default 7-day expiry.
    if (forced) continue;
    const double u = rng.next_double();
    if (u < 0.35) {
      const TimePoint now = t.sim.now();
      const auto at = model.instants(
          now, rng.bernoulli(0.02) ? std::numeric_limits<TimePoint>::max()
                                   : now + sim::seconds(5));
      const DiffOp kind = pick_probe();
      const sim::Duration d = last_duration[static_cast<int>(kind)];
      if (!at.empty() && d > 0) {
        const auto& [queue, instant] = at[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(at.size()) - 1))];
        const TimePoint begin = instant + rng.uniform(-1, 1) - d;
        if (begin >= now) {
          co_await t.sim.delay_until(begin);
          forced = Planned{kind, queue};
        }
      }
    } else if (u < 0.65) {
      co_await t.sim.delay(rng.uniform(0, sim::millis(200)));
    } else if (u < 0.72) {
      co_await t.sim.delay(rng.uniform(sim::seconds(1), sim::seconds(40)));
    }
  }
  tally.scramble_draws = model.scramble_draws();
}

TEST(QueueDifferentialTest, ServiceMatchesReferenceModel) {
  constexpr int kSeeds = 60;
  constexpr int kOps = 300;
  DifferentialTally total;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    azure::CloudConfig cfg;
    cfg.queue.fifo_violation_probability = 0.3;
    cfg.queue.seed = seed * 0x9E37'79B9'7F4A'7C15ull;
    TestWorld w(cfg);
    DifferentialTally tally;
    w.sim.spawn(differential_client(w, seed, kOps, tally));
    w.sim.run();
    ASSERT_FALSE(tally.diverged) << "seed " << seed;
    ASSERT_EQ(tally.ops, kOps) << "seed " << seed;
    total.boundary_hits += tally.boundary_hits;
    total.scramble_draws += tally.scramble_draws;
  }
  // The sequences reach what the optimisation must preserve: ops that
  // complete exactly on an expiry or visibility instant, and scrambled
  // picks (each one draws the FIFO RNG on both sides).
  EXPECT_GT(total.boundary_hits, kSeeds);
  EXPECT_GT(total.scramble_draws, 10 * kSeeds);
}

}  // namespace
