// Extension benches for the services the paper defers to future work:
//
//   * caching service vs. durable storage: read latency and hot-read
//     throughput;
//   * internal TCP endpoints vs. queue-mediated messaging;
//   * deployment provisioning: time-to-ready vs. instance count and VM
//     size ("resource provisioning times and application deployment
//     timings").
//
// Flags: --csv.
#include <cstdio>

#include "azure/cloud_storage_account.hpp"
#include "azure/environment.hpp"
#include "bench_util.hpp"
#include "fabric/endpoints.hpp"
#include "fabric/provisioning.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"

namespace {

using sim::Task;

struct World {
  sim::Simulation sim;
  azure::CloudEnvironment env{sim};
  netsim::Nic nic{sim,
                  netsim::NicConfig{12.5e6, 12.5e6, sim::micros(50), 65536.0}};
  azure::CloudStorageAccount account{env, nic};
};

/// Measures the virtual time of one coroutine op.
template <class Op>
double measure_ms(World& w, Op op) {
  const sim::TimePoint t0 = w.sim.now();
  w.sim.spawn(op(w));
  w.sim.run();
  return sim::to_millis(w.sim.now() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--csv"});
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  benchutil::Table table({"experiment", "variant", "value"});

  // ------------------------------------------- cache vs. durable storage --
  {
    World w;
    w.sim.spawn([](World& ww) -> Task<> {
      auto c = ww.account.create_cloud_blob_client().get_container_reference(
          "data");
      co_await c.create();
      co_await c.get_block_blob_reference("item").upload_text(
          azure::Payload::synthetic(64 << 10));
      auto t = ww.account.create_cloud_table_client().get_table_reference(
          "items");
      co_await t.create();
      azure::TableEntity e;
      e.partition_key = "p";
      e.row_key = "item";
      e.properties["data"] = azure::Payload::synthetic(64 << 10);
      co_await t.insert(e);
      co_await ww.account.create_cloud_cache_client()
          .get_cache_reference("hot")
          .put("item", azure::Payload::synthetic(64 << 10));
    }(w));
    w.sim.run();

    const double cache_ms = measure_ms(w, [](World& ww) -> Task<> {
      (void)co_await ww.account.create_cloud_cache_client()
          .get_cache_reference("hot")
          .get("item");
    });
    const double table_ms = measure_ms(w, [](World& ww) -> Task<> {
      (void)co_await ww.account.create_cloud_table_client()
          .get_table_reference("items")
          .query("p", "item");
    });
    const double blob_ms = measure_ms(w, [](World& ww) -> Task<> {
      (void)co_await ww.account.create_cloud_blob_client()
          .get_container_reference("data")
          .get_block_blob_reference("item")
          .download_text();
    });
    table.add_row({"64KB hot read latency", "cache",
                   benchutil::fmt(cache_ms) + " ms"});
    table.add_row({"64KB hot read latency", "table",
                   benchutil::fmt(table_ms) + " ms"});
    table.add_row({"64KB hot read latency", "blob",
                   benchutil::fmt(blob_ms) + " ms"});
  }

  // --------------------------------- TCP endpoints vs. queue messaging --
  {
    World w;
    auto& net = w.env.storage_cluster().network();
    netsim::Nic nic_b(w.sim, netsim::NicConfig{12.5e6, 12.5e6,
                                               sim::micros(50), 65536.0});
    fabric::InternalEndpoint a(w.sim, net, w.nic);
    fabric::InternalEndpoint b(w.sim, net, nic_b);

    constexpr int kMessages = 500;
    sim::TimePoint t0 = w.sim.now();
    w.sim.spawn([](fabric::InternalEndpoint& from,
                   fabric::InternalEndpoint& to) -> Task<> {
      for (int i = 0; i < kMessages; ++i) {
        co_await from.send(to, azure::Payload::synthetic(4 << 10));
      }
    }(a, b));
    w.sim.spawn([](fabric::InternalEndpoint& ep) -> Task<> {
      for (int i = 0; i < kMessages; ++i) (void)co_await ep.receive();
    }(b));
    w.sim.run();
    const double tcp_ms =
        sim::to_millis(w.sim.now() - t0) / kMessages;

    t0 = w.sim.now();
    w.sim.spawn([](World& ww) -> Task<> {
      auto q = ww.account.create_cloud_queue_client().get_queue_reference(
          "relay");
      co_await q.create();
      for (int i = 0; i < kMessages; ++i) {
        co_await q.add_message(azure::Payload::synthetic(4 << 10));
        auto m = co_await q.get_message();
        if (m) co_await q.delete_message(*m);
        co_await ww.sim.delay(sim::millis(8));  // stay under 500 msg/s
      }
    }(w));
    w.sim.run();
    const double queue_ms =
        sim::to_millis(w.sim.now() - t0) / kMessages;
    table.add_row({"4KB role-to-role message", "TCP endpoint",
                   benchutil::fmt(tcp_ms, 3) + " ms"});
    table.add_row({"4KB role-to-role message", "queue (put+get+delete)",
                   benchutil::fmt(queue_ms, 3) + " ms"});
  }

  // ----------------------------------------------- provisioning timings --
  for (const int instances : {1, 8, 32, 96}) {
    sim::Simulation s;
    fabric::ProvisioningReport report;
    s.spawn([](sim::Simulation& sim, int n,
               fabric::ProvisioningReport& out) -> Task<> {
      out = co_await fabric::provision_deployment(sim, n,
                                                  fabric::VmSize::kSmall);
    }(s, instances, report));
    s.run();
    table.add_row(
        {"provisioning (Small VMs)", std::to_string(instances) + " instances",
         "first ready " +
             benchutil::fmt(sim::to_seconds(report.time_to_first_instance()),
                            0) +
             " s, all ready " +
             benchutil::fmt(sim::to_seconds(report.time_to_all_instances()),
                            0) +
             " s"});
  }

  std::printf(
      "AzureBench extensions — services the paper defers to future work\n\n");
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  return 0;
}
