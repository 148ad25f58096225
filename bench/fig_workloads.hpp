// The six figure workloads (fig4–fig9) as reusable table builders.
//
// bench_scenario renders a figure-mode spec (scenarios/figN.json) through
// these functions, and perfbench times fig6 through them. Each function
// builds exactly the CSV table that tests/golden/ pins for its figure, so
// a change here that moves a figure's numbers fails `ctest -L parity`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/blob_benchmark.hpp"
#include "core/queue_benchmark.hpp"
#include "core/table_benchmark.hpp"
#include "obs/observer.hpp"

namespace benchfig {

/// The paper's default ten-point worker sweep.
inline std::vector<int> default_worker_sweep() {
  return {1, 2, 4, 8, 16, 32, 48, 64, 80, 96};
}

// ------------------------------------------------------------------ fig4 ----

struct Fig4Options {
  std::vector<int> workers = default_worker_sweep();
  int repeats = 10;
  bool no_replica_reads = false;
  obs::Observer* observer = nullptr;
};

/// Fig. 4: blob upload/download time and throughput vs. workers.
inline benchutil::Table fig4_table(const Fig4Options& opt) {
  benchutil::Table table({"workers", "pageUp_s", "pageUp_MiBps", "blockUp_s",
                          "blockUp_MiBps", "pageDown_s", "pageDown_MiBps",
                          "blockDown_s", "blockDown_MiBps", "barrier_s"});
  for (const int workers : opt.workers) {
    azurebench::BlobBenchConfig cfg;
    cfg.workers = workers;
    cfg.repeats = opt.repeats;
    cfg.cloud.blob.replica_reads = !opt.no_replica_reads;
    if (opt.observer != nullptr) cfg.observer = opt.observer;
    const auto r = azurebench::run_blob_benchmark(cfg);
    table.add_row({std::to_string(workers),
                   benchutil::fmt(r.page_upload.seconds),
                   benchutil::fmt(r.page_upload.mib_per_sec()),
                   benchutil::fmt(r.block_upload.seconds),
                   benchutil::fmt(r.block_upload.mib_per_sec()),
                   benchutil::fmt(r.page_full_read.seconds),
                   benchutil::fmt(r.page_full_read.mib_per_sec()),
                   benchutil::fmt(r.block_full_read.seconds),
                   benchutil::fmt(r.block_full_read.mib_per_sec()),
                   benchutil::fmt(r.barrier_seconds)});
  }
  return table;
}

// ------------------------------------------------------------------ fig5 ----

struct Fig5Options {
  std::vector<int> workers = default_worker_sweep();
  int repeats = 10;
  obs::Observer* observer = nullptr;
};

/// Fig. 5: chunk-wise blob download (random pages / sequential blocks).
inline benchutil::Table fig5_table(const Fig5Options& opt) {
  benchutil::Table table({"workers", "pageRand_s", "pageRand_MiBps",
                          "pageRand_ms/op", "blockSeq_s", "blockSeq_MiBps",
                          "blockSeq_ms/op"});
  for (const int workers : opt.workers) {
    azurebench::BlobBenchConfig cfg;
    cfg.workers = workers;
    cfg.repeats = opt.repeats;
    if (opt.observer != nullptr) cfg.observer = opt.observer;
    const auto r = azurebench::run_blob_benchmark(cfg);
    table.add_row({std::to_string(workers),
                   benchutil::fmt(r.page_random_read.seconds),
                   benchutil::fmt(r.page_random_read.mib_per_sec()),
                   benchutil::fmt(r.page_random_read.ms_per_op() * workers),
                   benchutil::fmt(r.block_seq_read.seconds),
                   benchutil::fmt(r.block_seq_read.mib_per_sec()),
                   benchutil::fmt(r.block_seq_read.ms_per_op() * workers)});
  }
  return table;
}

// ------------------------------------------------------------------ fig6 ----

struct Fig6Options {
  std::vector<int> workers = default_worker_sweep();
  std::int64_t messages = 20'000;
  bool no_anomaly = false;
  obs::Observer* observer = nullptr;
};

/// Fig. 6: queue storage, separate queue per worker, one series per size.
inline benchutil::Table fig6_table(const Fig6Options& opt) {
  benchutil::Table table({"workers", "size_KB", "put_s", "peek_s", "get_s",
                          "put_ms/op", "peek_ms/op", "get_ms/op"});
  for (const int workers : opt.workers) {
    azurebench::QueueSeparateConfig cfg;
    cfg.workers = workers;
    cfg.total_messages = opt.messages;
    cfg.cloud.queue.model_16k_get_anomaly = !opt.no_anomaly;
    if (opt.observer != nullptr) cfg.observer = opt.observer;
    const auto r = azurebench::run_queue_separate_benchmark(cfg);
    for (const auto& p : r.points) {
      table.add_row(
          {std::to_string(workers), std::to_string(p.message_size / 1024),
           benchutil::fmt(p.put.seconds), benchutil::fmt(p.peek.seconds),
           benchutil::fmt(p.get.seconds),
           benchutil::fmt(p.put.ms_per_op() * workers),
           benchutil::fmt(p.peek.ms_per_op() * workers),
           benchutil::fmt(p.get.ms_per_op() * workers)});
    }
  }
  return table;
}

// ------------------------------------------------------------------ fig7 ----

struct Fig7Options {
  /// The default sweep starts at 2: a single worker cycling 20,000
  /// messages with 1–5 s think times spans >10 virtual days — past the
  /// 7-day message TTL the queue barrier depends on.
  std::vector<int> workers = {2, 4, 8, 16, 32, 48, 64, 80, 96};
  std::int64_t messages = 20'000;
  obs::Observer* observer = nullptr;
};

/// Fig. 7: queue storage, single shared queue, one series per think time.
inline benchutil::Table fig7_table(const Fig7Options& opt) {
  benchutil::Table table({"workers", "think_s", "put_s", "peek_s", "get_s",
                          "put_ms/op", "peek_ms/op", "get_ms/op"});
  for (const int workers : opt.workers) {
    azurebench::QueueSharedConfig cfg;
    cfg.workers = workers;
    cfg.total_messages = opt.messages;
    if (opt.observer != nullptr) cfg.observer = opt.observer;
    const auto r = azurebench::run_queue_shared_benchmark(cfg);
    for (const auto& p : r.points) {
      table.add_row({std::to_string(workers), std::to_string(p.think_seconds),
                     benchutil::fmt(p.put.seconds),
                     benchutil::fmt(p.peek.seconds),
                     benchutil::fmt(p.get.seconds),
                     benchutil::fmt(p.put.ms_per_op()),
                     benchutil::fmt(p.peek.ms_per_op()),
                     benchutil::fmt(p.get.ms_per_op())});
    }
  }
  return table;
}

// ------------------------------------------------------------------ fig8 ----

struct Fig8Options {
  std::vector<int> workers = default_worker_sweep();
  int entities = 500;
  obs::Observer* observer = nullptr;
};

/// Fig. 8: table storage Insert/Query/Update/Delete, one series per size.
inline benchutil::Table fig8_table(const Fig8Options& opt) {
  benchutil::Table table({"workers", "size_KB", "insert_s", "query_s",
                          "update_s", "delete_s", "busy_retries"});
  for (const int workers : opt.workers) {
    azurebench::TableBenchConfig cfg;
    cfg.workers = workers;
    cfg.entities = opt.entities;
    if (opt.observer != nullptr) cfg.observer = opt.observer;
    const auto r = azurebench::run_table_benchmark(cfg);
    bool first = true;
    for (const auto& p : r.points) {
      table.add_row({std::to_string(workers),
                     std::to_string(p.entity_size / 1024),
                     benchutil::fmt(p.insert.seconds),
                     benchutil::fmt(p.query.seconds),
                     benchutil::fmt(p.update.seconds),
                     benchutil::fmt(p.erase.seconds),
                     first ? std::to_string(r.server_busy_retries) : ""});
      first = false;
    }
  }
  return table;
}

// ------------------------------------------------------------------ fig9 ----

struct Fig9Options {
  std::vector<int> workers = default_worker_sweep();
  int entities = 500;
  std::int64_t messages = 20'000;
  obs::Observer* observer = nullptr;
};

/// Fig. 9: per-operation time for table and queue storage (32 KB payloads).
inline benchutil::Table fig9_table(const Fig9Options& opt) {
  benchutil::Table table({"workers", "tbl_insert", "tbl_query", "tbl_update",
                          "tbl_delete", "q_put", "q_peek", "q_get"});
  for (const int workers : opt.workers) {
    azurebench::TableBenchConfig tcfg;
    tcfg.workers = workers;
    tcfg.entities = opt.entities;
    tcfg.entity_sizes = {32 << 10};
    if (opt.observer != nullptr) tcfg.observer = opt.observer;
    const auto t = azurebench::run_table_benchmark(tcfg);
    const auto& tp = t.points.front();

    azurebench::QueueSeparateConfig qcfg;
    qcfg.workers = workers;
    qcfg.total_messages = opt.messages;
    qcfg.message_sizes = {32 << 10};
    if (opt.observer != nullptr) qcfg.observer = opt.observer;
    const auto q = azurebench::run_queue_separate_benchmark(qcfg);
    const auto& qp = q.points.front();

    // Phase time is per-worker (longest worker); ops are fleet-wide, so
    // ms/op * workers = mean per-operation time.
    auto per_op = [&](const azurebench::PhaseReport& r) {
      return benchutil::fmt(r.ms_per_op() * workers);
    };
    table.add_row({std::to_string(workers), per_op(tp.insert),
                   per_op(tp.query), per_op(tp.update), per_op(tp.erase),
                   per_op(qp.put), per_op(qp.peek), per_op(qp.get)});
  }
  return table;
}

}  // namespace benchfig
