// Integration tests for the Section III bag-of-tasks application framework.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "fabric/deployment.hpp"
#include "framework/bag_of_tasks.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using framework::BagOfTasksApp;
using framework::BagOfTasksConfig;
using framework::TaskDescriptor;
using sim::Task;

TEST(BagOfTasksTest, TasksFlowFromWebRoleToWorkers) {
  TestWorld w;
  BagOfTasksApp app(w.account);
  std::multiset<std::string> processed;

  azb_test::run(w, [](TestWorld& t) -> Task<> {
    BagOfTasksApp setup(t.account);
    co_await setup.provision();
  });

  // Web role: submit 12 tasks, then wait for completion.
  w.sim.spawn([](TestWorld&, BagOfTasksApp& a) -> Task<> {
    for (int i = 0; i < 12; ++i) {
      co_await a.submit("work-" + std::to_string(i));
    }
    co_await a.wait_for_completion(12);
  }(w, app));

  // Worker roles: three workers drain the pool.
  fabric::Deployment dep(w.env);
  dep.add_worker_roles(3);
  dep.start_workers([&app, &processed](fabric::RoleContext& ctx) -> Task<> {
    co_await app.worker_loop(
        ctx.account(),
        [&processed, &ctx](const TaskDescriptor& task) -> Task<> {
          processed.insert(task.body);
          co_await ctx.simulation().delay(sim::millis(50));  // "compute"
        });
  });
  w.sim.run();

  EXPECT_EQ(processed.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(processed.count("work-" + std::to_string(i)), 1u);
  }
}

TEST(BagOfTasksTest, OversizedTasksSpillToBlobStorage) {
  TestWorld w;
  BagOfTasksApp app(w.account);
  std::vector<std::int64_t> sizes;
  std::string first_bytes;

  azb_test::run(w, [](TestWorld& t) -> Task<> {
    BagOfTasksApp setup(t.account);
    co_await setup.provision();
  });

  const std::string big(200 * 1024, 'G');  // 200 KB: over the 48 KB limit
  w.sim.spawn([](BagOfTasksApp& a, const std::string& payload) -> Task<> {
    co_await a.submit(payload);
    co_await a.submit("small");
    co_await a.wait_for_completion(2);
  }(app, big));

  fabric::Deployment dep(w.env);
  dep.add_worker_roles(1);
  dep.start_workers([&](fabric::RoleContext& ctx) -> Task<> {
    co_await app.worker_loop(
        ctx.account(), [&](const TaskDescriptor& task) -> Task<> {
          sizes.push_back(task.bytes);
          if (task.bytes > 1000) first_bytes = task.body.substr(0, 4);
          co_return;
        });
  });
  w.sim.run();

  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0] + sizes[1], 200 * 1024 + 5);
  EXPECT_EQ(first_bytes, "GGGG");  // spilled payload resolved from the blob
}

TEST(BagOfTasksTest, ShardedQueuesBalanceLoad) {
  TestWorld w;
  BagOfTasksConfig cfg;
  cfg.task_queue_shards = 4;
  BagOfTasksApp app(w.account, cfg);

  azb_test::run(w, [](TestWorld& t) -> Task<> {
    BagOfTasksConfig c;
    c.task_queue_shards = 4;
    BagOfTasksApp setup(t.account, c);
    co_await setup.provision();
  });
  w.sim.spawn([](BagOfTasksApp& a) -> Task<> {
    for (int i = 0; i < 8; ++i) co_await a.submit("t" + std::to_string(i));
  }(app));
  w.sim.run();

  // Round-robin placement: every shard holds exactly two messages.
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto queues = t.account.create_cloud_queue_client();
    for (int i = 0; i < 4; ++i) {
      auto q =
          queues.get_queue_reference("task-assignment-" + std::to_string(i));
      EXPECT_EQ(co_await q.get_message_count(), 2);
    }
  });
}

TEST(BagOfTasksTest, CrashedWorkerTaskReappearsForAnother) {
  TestWorld w;
  BagOfTasksConfig cfg;
  cfg.task_visibility_timeout = sim::seconds(5);
  BagOfTasksApp app(w.account, cfg);

  azb_test::run(w, [](TestWorld& t) -> Task<> {
    BagOfTasksConfig c;
    c.task_visibility_timeout = sim::seconds(5);
    BagOfTasksApp setup(t.account, c);
    co_await setup.provision();
  });

  // A "crashing" worker takes the message but never deletes it.
  w.sim.spawn([](TestWorld& t, BagOfTasksApp& a) -> Task<> {
    co_await a.submit("fragile-task");
    auto q = t.account.create_cloud_queue_client().get_queue_reference(
        "task-assignment-0");
    auto msg = co_await q.get_message(sim::seconds(5));
    EXPECT_TRUE(msg.has_value());
    // Crash: no delete, no termination signal.
  }(w, app));
  w.sim.run();

  // A healthy worker arrives later; the task must reappear and complete.
  int handled = 0;
  fabric::Deployment dep(w.env);
  dep.add_worker_roles(1);
  dep.start_workers([&](fabric::RoleContext& ctx) -> Task<> {
    co_await ctx.simulation().delay(sim::seconds(1));
    co_await app.worker_loop(ctx.account(),
                             [&](const TaskDescriptor&) -> Task<> {
                               ++handled;
                               co_return;
                             },
                             /*max_idle_polls=*/8);
  });
  w.sim.run();
  EXPECT_EQ(handled, 1);
}


TEST(BagOfTasksTest, LeaseRenewalPreventsDuplicateExecutionOfLongTasks) {
  TestWorld w;
  BagOfTasksConfig cfg;
  cfg.task_visibility_timeout = sim::seconds(4);
  BagOfTasksApp app(w.account, cfg);
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    BagOfTasksConfig c;
    c.task_visibility_timeout = sim::seconds(4);
    BagOfTasksApp setup(t.account, c);
    co_await setup.provision();
  });
  // One slow task (runs 12 s, three times the visibility timeout) and two
  // eager workers: without lease renewal the task would reappear and run
  // again on the second worker.
  int executions = 0;
  w.sim.spawn([](BagOfTasksApp& a) -> Task<> {
    co_await a.submit("slow-task");
    co_await a.wait_for_completion(1);
  }(app));
  fabric::Deployment dep(w.env);
  dep.add_worker_roles(2);
  dep.start_workers([&](fabric::RoleContext& ctx) -> Task<> {
    co_await app.worker_loop(
        ctx.account(),
        [&](const framework::TaskDescriptor&) -> Task<> {
          ++executions;
          co_await ctx.simulation().delay(sim::seconds(12));
        },
        /*max_idle_polls=*/16);
  });
  w.sim.run();
  EXPECT_EQ(executions, 1);
}

TEST(BagOfTasksTest, WithoutRenewalLongTasksRunTwice) {
  // The ablation: the bare 2010-era behaviour re-delivers a task whose
  // handler outruns the visibility timeout, so it executes twice. (The
  // second execution completes quickly here; with uniformly-slow handlers
  // the two workers would livelock, ping-ponging the lease forever —
  // exactly the pathology renew_task_leases exists to prevent.)
  TestWorld w;
  BagOfTasksConfig cfg;
  cfg.task_visibility_timeout = sim::seconds(4);
  cfg.renew_task_leases = false;
  BagOfTasksApp app(w.account, cfg);
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    BagOfTasksConfig c;
    c.task_visibility_timeout = sim::seconds(4);
    BagOfTasksApp setup(t.account, c);
    co_await setup.provision();
  });
  int executions = 0;
  w.sim.spawn([](BagOfTasksApp& a) -> Task<> {
    co_await a.submit("slow-task");
    co_await a.wait_for_completion(1);
  }(app));
  fabric::Deployment dep(w.env);
  dep.add_worker_roles(2);
  dep.start_workers([&](fabric::RoleContext& ctx) -> Task<> {
    co_await app.worker_loop(
        ctx.account(),
        [&](const framework::TaskDescriptor&) -> Task<> {
          const int my_execution = ++executions;
          if (my_execution == 1) {
            co_await ctx.simulation().delay(sim::seconds(12));
          }
        },
        /*max_idle_polls=*/16);
  });
  w.sim.run();
  EXPECT_EQ(executions, 2);
}

}  // namespace
