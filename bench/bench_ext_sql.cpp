// SQL Azure vs. Table storage — the comparison the paper deferred with its
// SQL-Azure future work: point reads, writes, and predicate queries on the
// relational service against the schemaless Table storage.
//
// Flags: --csv.
#include <cstdio>

#include "azure/cloud_storage_account.hpp"
#include "azure/environment.hpp"
#include "azure/sql/sql_service.hpp"
#include "bench_util.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"

namespace {

namespace sql = azure::sql;
using sim::Task;

struct World {
  sim::Simulation sim;
  azure::CloudEnvironment env{sim};
  netsim::Nic nic{sim,
                  netsim::NicConfig{12.5e6, 12.5e6, sim::micros(50), 65536.0}};
  azure::CloudStorageAccount account{env, nic};
};

constexpr int kRows = 1'000;

sim::Task<void> seed(World& w) {
  auto& db = w.env.sql_service();
  co_await db.create_database(w.nic, "bench", sql::Edition::kWeb5GB);
  std::vector<sql::Column> schema = {{"id", sql::ColumnType::kInt},
                                     {"bucket", sql::ColumnType::kInt},
                                     {"payload", sql::ColumnType::kText}};
  co_await db.create_table(w.nic, "bench", "items", std::move(schema));
  auto table =
      w.account.create_cloud_table_client().get_table_reference("items");
  co_await table.create();
  const std::string payload(4096, 'd');
  for (int i = 0; i < kRows; ++i) {
    // Named row: GCC 12 miscompiles brace-init-list temporaries in
    // co_await expressions.
    sql::Row row;
    row.emplace_back(std::int64_t{i});
    row.emplace_back(std::int64_t{i % 10});
    row.emplace_back(payload);
    co_await db.insert(w.nic, "bench", "items", std::move(row));
    azure::TableEntity e;
    e.partition_key = "bucket-" + std::to_string(i % 10);
    e.row_key = "item-" + std::to_string(i);
    e.properties["payload"] = azure::Payload::synthetic(4096);
    co_await table.insert(e);
    // Stay under the table partition targets while seeding.
    co_await w.sim.delay(sim::millis(4));
  }
}

template <class Op>
double measure_ms(World& w, Op op, int repeats) {
  const sim::TimePoint t0 = w.sim.now();
  w.sim.spawn([](World& ww, Op o, int n) -> Task<> {
    for (int i = 0; i < n; ++i) co_await o(ww, i);
  }(w, op, repeats));
  w.sim.run();
  return sim::to_millis(w.sim.now() - t0) / repeats;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--csv"});
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  World w;
  w.sim.spawn(seed(w));
  w.sim.run();

  benchutil::Table table({"operation", "SQL Azure", "Table storage"});

  const double sql_seek = measure_ms(
      w,
      [](World& ww, int i) -> Task<> {
        (void)co_await ww.env.sql_service().select_by_key(
            ww.nic, "bench", "items",
            sql::Value{std::int64_t{(i * 37) % kRows}});
      },
      100);
  const double tbl_seek = measure_ms(
      w,
      [](World& ww, int i) -> Task<> {
        const int id = (i * 37) % kRows;
        (void)co_await ww.account.create_cloud_table_client()
            .get_table_reference("items")
            .query("bucket-" + std::to_string(id % 10),
                   "item-" + std::to_string(id));
      },
      100);
  table.add_row({"point read (4 KB row)", benchutil::fmt(sql_seek) + " ms",
                 benchutil::fmt(tbl_seek) + " ms"});

  const double sql_scan = measure_ms(
      w,
      [](World& ww, int) -> Task<> {
        sql::Predicate p{"bucket", sql::Predicate::Op::kEq,
                         sql::Value{std::int64_t{3}}};
        (void)co_await ww.env.sql_service().select_where(ww.nic, "bench",
                                                         "items", p);
      },
      20);
  const double tbl_scan = measure_ms(
      w,
      [](World& ww, int) -> Task<> {
        (void)co_await ww.account.create_cloud_table_client()
            .get_table_reference("items")
            .query_partition("bucket-3");
      },
      20);
  table.add_row({"100-row predicate/partition query",
                 benchutil::fmt(sql_scan) + " ms",
                 benchutil::fmt(tbl_scan) + " ms"});

  std::printf(
      "AzureBench extension — SQL Azure vs. Table storage (the comparison "
      "the paper\ndeferred; 1,000 seeded 4 KB rows; means per "
      "operation)\n\n");
  if (csv) {
    table.print_csv();
  } else {
    table.print();
    std::printf(
        "\nTakeaway: the relational service wins point lookups (no "
        "partition-server\njourney, in-memory index) but offers hard size "
        "caps and a connection limit;\nTable storage trades latency for "
        "elastic capacity — the paper's Section IV-C\nguidance in numbers."
        "\n");
  }
  return 0;
}
