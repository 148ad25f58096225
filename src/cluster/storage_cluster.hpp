// The simulated storage stamp: partition servers behind a front-end, with
// account-level scalability targets and synchronous 3-replica commits.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/errors.hpp"
#include "cluster/partition_map.hpp"
#include "cluster/partition_server.hpp"
#include "cluster/replica_store.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/network.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/rate_limiter.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"

namespace cluster {

/// Cost description of one storage request, filled in by the service layer
/// (blob/queue/table), which knows the operation semantics.
struct RequestCost {
  /// Payload bytes client -> server (uploads, message bodies, entities).
  std::int64_t request_bytes = 0;
  /// Payload bytes server -> client (downloads, query results).
  std::int64_t response_bytes = 0;
  /// Extra server CPU beyond the fixed per-request overhead (index lookups,
  /// serialization, ETag checks).
  sim::Duration server_cpu = 0;
  /// Bytes moved through the primary's disk.
  std::int64_t disk_bytes = 0;
  /// Synchronously commit to the other replicas before acknowledging.
  bool replicate = false;
  /// Whether the request counts against the account's transactions/s target.
  bool counts_as_transaction = true;

  // ------------------------------------------- per-prefix throttling ----
  /// ThrottleMode::kPrefixSlowdown only: hash of the key prefix this
  /// request lands in. Each distinct value carries its own read and write
  /// rate windows; 0 means the request is exempt from prefix throttling.
  std::uint64_t throttle_prefix = 0;
  /// Classifies the request against the prefix's read window (GET/HEAD/
  /// LIST) instead of its write window (PUT/DELETE/COPY).
  bool prefix_read = false;

  // ----------------------------------------------------------- integrity ----
  /// Identity of the stored object this request reads or writes, for
  /// end-to-end integrity tracking (0 = untracked: metadata and other
  /// requests without a checksummed payload). Only consulted under an armed
  /// fault plan.
  std::uint64_t object_id = 0;
  /// CRC32C of the object's content *after* this mutation (writes only).
  std::uint32_t content_crc = 0;
  /// Stored size of the object after this mutation — what a replica repair
  /// has to copy. Defaults to disk_bytes when 0.
  std::int64_t object_bytes = 0;
};

/// What execute() tells the service layer beyond "it completed".
struct ExecResult {
  /// The response payload was corrupted in flight. Only integrity-tracked
  /// requests can observe this: the service's end-to-end checksum fails
  /// client-side and the caller must surface ChecksumMismatchError instead
  /// of handing corrupt bytes to the application.
  bool response_corrupted = false;
  /// Partition server that served the request (after any failover).
  int served_by = -1;
};

class StorageCluster {
 public:
  StorageCluster(sim::Simulation& sim, const ClusterConfig& cfg = {})
      : sim_(sim),
        cfg_(validated(cfg)),
        network_(sim),
        account_tx_(sim, cfg.account_transactions_per_sec),
        account_ingress_(sim, cfg.account_bytes_per_sec, 1024.0 * 1024),
        account_egress_(sim, cfg.account_bytes_per_sec, 1024.0 * 1024),
        map_(cfg.partition_servers, cfg.balancer.buckets_per_server),
        store_(cfg.replicas, cfg.partition_servers) {
    servers_.reserve(static_cast<std::size_t>(cfg.partition_servers));
    for (int i = 0; i < cfg.partition_servers; ++i) {
      servers_.push_back(std::make_unique<PartitionServer>(sim, cfg_, i));
    }
    bucket_requests_.assign(static_cast<std::size_t>(map_.buckets()), 0);
    crash_moved_.resize(servers_.size());
  }

  sim::Simulation& simulation() noexcept { return sim_; }
  const ClusterConfig& config() const noexcept { return cfg_; }
  netsim::Network& network() noexcept { return network_; }

  /// Arms fault injection: link faults on the network, plus — when the plan
  /// schedules server crashes — a driver process that crashes and restarts
  /// partition servers per the plan's precomputed schedule, and one
  /// anti-entropy scrubber per partition server that re-verifies and repairs
  /// that server's replicas after each restart. Requests routed to a down
  /// primary fail over to the next healthy server; a crash while a request
  /// is in flight resets the client's connection.
  void enable_faults(faults::FaultPlan& plan) {
    faults_ = &plan;
    network_.set_fault_plan(&plan);
    if (plan.config().server_faults_enabled()) {
      scrub_gates_.reserve(servers_.size());
      for (std::size_t i = 0; i < servers_.size(); ++i) {
        scrub_gates_.push_back(std::make_unique<sim::Gate>(sim_));
      }
      for (int i = 0; i < static_cast<int>(servers_.size()); ++i) {
        sim_.spawn(scrubber(i), "scrubber");
      }
      sim_.spawn(crash_driver(), "fault-crash-driver");
    }
  }
  faults::FaultPlan* fault_plan() const noexcept { return faults_; }

  /// Crashes server `s` now: marks it down, records the fault, and
  /// proactively reassigns its buckets across the healthy servers so most
  /// requests during the downtime pay only a stale-map redirect. Shared by
  /// the plan-driven crash driver and external chaos controllers.
  void crash_server(int s) {
    PartitionServer& victim = server(s);
    victim.crash();
    if (faults_ != nullptr) {
      faults_->record(faults::FaultKind::kServerCrash, victim.index());
    }
    reassign_off(victim.index(), /*throw_when_none_healthy=*/false);
  }

  /// Restarts server `s`: marks it up, records the restart, fails its
  /// pre-crash buckets back, and triggers the post-restart anti-entropy
  /// scrub — via the parked per-server scrubber when the plan armed one
  /// and it is still running, else (externally driven crashes, or restarts
  /// after the plan's own schedule released the scrubbers) as a one-shot
  /// delayed pass.
  void restart_server(int s) {
    PartitionServer& victim = server(s);
    victim.restart();
    if (faults_ != nullptr) {
      faults_->record(faults::FaultKind::kServerRestart, victim.index());
    }
    fail_back(victim.index());
    if (!scrub_shutdown_ && static_cast<std::size_t>(s) < scrub_gates_.size()) {
      // Wake the restarted server's scrubber: any replica it hosts may have
      // missed commits (stale) or been torn by the crash.
      scrub_gates_[static_cast<std::size_t>(s)]->set();
    } else if (faults_ != nullptr) {
      // No parked scrubber to wake — either the plan never armed one, or
      // the crash driver already exhausted its schedule and released them
      // (scrub_shutdown_): setting an exited scrubber's gate would silently
      // skip the scrub, so run it as a one-shot instead.
      sim_.spawn(post_restart_scrub(s), "scrub-once");
    }
  }

  /// The integrity ledger (which generation/checksum each replica of each
  /// tracked object holds). Mutable access so tests can stage damage.
  ReplicaStore& replica_store() noexcept { return store_; }
  const ReplicaStore& replica_store() const noexcept { return store_; }

  /// Server currently serving `partition_hash`, per the partition map. With
  /// no moves (balancer off, no crashes) this equals the historical static
  /// placement `hash % partition_servers`.
  int server_index(std::uint64_t partition_hash) const noexcept {
    return map_.server_of(partition_hash);
  }

  PartitionServer& server(int index) noexcept {
    return *servers_[static_cast<std::size_t>(index)];
  }

  int server_count() const noexcept {
    return static_cast<int>(servers_.size());
  }

  /// The authoritative hash-range -> server assignment (see
  /// partition_map.hpp). Mutate only through move_bucket(), which keeps the
  /// counters, gauges and span records consistent with the map.
  const PartitionMap& partition_map() const noexcept { return map_; }

  /// Requests routed per bucket since construction — the load signal the
  /// balancer samples each epoch (includes requests that then failed).
  const std::vector<std::int64_t>& bucket_requests() const noexcept {
    return bucket_requests_;
  }

  /// Buckets reassigned (by the balancer or by crash failover).
  std::int64_t partition_moves() const noexcept { return partition_moves_; }

  /// Requests redirected because the client's cached map version predated
  /// the target bucket's last move.
  std::int64_t stale_map_redirects() const noexcept {
    return stale_map_redirects_;
  }

  /// Reassigns `bucket` to `to`, optionally making it unavailable for
  /// `offline_for` (the move-cost window paid by requests arriving while
  /// the handoff is in progress). The single mutation point of the map.
  void move_bucket(int bucket, int to, sim::Duration offline_for) {
    if (map_.owner(bucket) == to) return;
    map_.assign(bucket, to,
                offline_for > 0 ? sim_.now() + offline_for : sim::TimePoint{0});
    ++partition_moves_;
    if (obs::Observer* const o = sim_.observer(); o != nullptr) {
      o->metrics().counter("cluster.partition_moves").add(1);
      o->metrics().gauge("cluster.map_version").set(
          static_cast<std::int64_t>(map_.version()));
      o->emit(obs::SpanKind::kPartitionMove, obs::TraceContext{}, sim_.now(),
              sim_.now() + (offline_for > 0 ? offline_for : 0), 0, to,
              bucket);
    }
  }

  /// Executes one request against the partition owning `partition_hash` on
  /// behalf of the client endpoint `client`. Throws ServerBusyError when the
  /// account transaction target is exceeded (before any time is spent, as a
  /// front-end rejection). For integrity-tracked requests (cost.object_id
  /// != 0 under an armed fault plan) the cluster additionally verifies the
  /// request payload's checksum server-side, verifies the serving replica on
  /// reads (failing over and read-repairing on mismatch), and reports
  /// response-payload corruption to the caller via ExecResult.
  sim::Task<ExecResult> execute(netsim::Nic& client,
                                std::uint64_t partition_hash,
                                RequestCost cost) {
    // Claim the context the service layer staged for this request (empty
    // when tracing is off or the caller is untraced). Must be the first
    // statement: lazy Tasks run synchronously up to their first suspension,
    // so nothing can interleave between the caller's set and this take.
    obs::Observer* const o = sim_.observer();
    obs::TraceContext trace{};
    if (o != nullptr) trace = o->take_ambient();

    if (cfg_.throttle_mode == ThrottleMode::kPrefixSlowdown) {
      // S3-style contract: no account-wide gate. Each key prefix carries
      // independent read/write request-rate windows; overruns reject with
      // 503 SlowDown before any time is spent, like the front-end
      // rejection of kReject but scoped to one prefix.
      if (cost.throttle_prefix != 0) {
        PrefixWindows& w = prefix_windows(cost.throttle_prefix);
        sim::WindowCounter& gate = cost.prefix_read ? w.reads : w.writes;
        if (!gate.try_consume()) {
          ++prefix_slowdowns_;
          if (o != nullptr) {
            o->metrics().counter("cluster.prefix_slowdowns").add(1);
          }
          throw SlowDownError(cost.prefix_read
                                  ? "503 SlowDown: prefix read request "
                                    "rate exceeded"
                                  : "503 SlowDown: prefix write request "
                                    "rate exceeded");
        }
      }
    } else if (cost.counts_as_transaction) {
      const sim::TimePoint admission_start = sim_.now();
      bool throttled = false;
      if (cfg_.throttle_mode == ThrottleMode::kReject) {
        if (!account_tx_.try_consume()) {
          if (o != nullptr) {
            o->metrics().counter("cluster.throttle_rejects").add(1);
          }
          throw ServerBusyError(
              "account transaction target exceeded (5,000 tx/s)");
        }
      } else {
        // Ablation mode: over-target arrivals wait for a later admission
        // window instead of being rejected. Admission is FIFO by arrival
        // ticket: only the waiter at the head of the queue may consume
        // budget. Without the ticket, every waiter raced try_consume at the
        // window boundary and the event queue broke the tie by *scheduling*
        // time — so a late arrival whose wakeup happened to be scheduled
        // earlier could starve waiters that had been parked for windows.
        const std::uint64_t ticket = throttle_next_ticket_++;
        for (;;) {
          if (ticket == throttle_front_) {
            if (account_tx_.try_consume()) {
              ++throttle_front_;
              break;
            }
            // Head of the queue with the window exhausted: nothing can be
            // admitted before the next window boundary.
            throttled = true;
            co_await sim_.delay_until(
                (sim_.now() / sim::kSecond + 1) * sim::kSecond);
          } else if (account_tx_.current_window_count() >=
                     account_tx_.budget()) {
            // Not at the head and the window is dry anyway — park to the
            // boundary rather than spinning behind the head waiter.
            throttled = true;
            co_await sim_.delay_until(
                (sim_.now() / sim::kSecond + 1) * sim::kSecond);
          } else {
            // Not at the head but budget remains: yield to the back of this
            // instant's event queue so earlier tickets (whose events are
            // already pending) claim the budget first, then recheck.
            throttled = true;
            co_await sim_.delay(0);
          }
        }
      }
      if (o != nullptr && throttled) {
        o->emit(obs::SpanKind::kThrottleWait, trace, admission_start,
                sim_.now(), o->label("account.tx"));
      }
    }
    ++total_requests_;
    if (o != nullptr) o->metrics().counter("cluster.requests").add(1);

    // ------------------------------------------------------------ routing ----
    // The partition map owns the hash-range -> server assignment. On the
    // fast path (no bucket has ever moved: balancer off, no crash failover)
    // the default assignment equals the historical `hash % servers` modulo
    // and none of the staleness machinery below runs.
    const int bucket = map_.bucket_of(partition_hash);
    ++bucket_requests_[static_cast<std::size_t>(bucket)];
    if (map_.moves() > 0) {
      // Client-side map cache: a client whose cached version predates this
      // bucket's last move is routed on stale state. The front-end answers
      // with a redirect carrying the fresh map (modelled as one front-end
      // round trip plus a typed, retryable error) instead of executing the
      // request against the wrong server.
      std::uint64_t& cached = client_versions_[&client];
      if (cached < map_.changed_at(bucket)) {
        cached = map_.version();
        ++stale_map_redirects_;
        co_await sim_.delay(cfg_.frontend_latency);
        if (o != nullptr) {
          o->metrics().counter("cluster.stale_map_redirects").add(1);
        }
        throw PartitionMovedError(
            "partition map is stale: bucket " + std::to_string(bucket) +
            " moved to server " + std::to_string(map_.owner(bucket)) +
            " (map version " + std::to_string(map_.version()) + ")");
      }
      cached = map_.version();
      // Move cost: a bucket mid-handoff is briefly unavailable; requests
      // arriving inside the window wait out the remainder at the front-end.
      if (map_.unavailable_until(bucket) > sim_.now()) {
        const sim::TimePoint wait_start = sim_.now();
        co_await sim_.delay_until(map_.unavailable_until(bucket));
        if (o != nullptr) {
          o->emit(obs::SpanKind::kThrottleWait, trace, wait_start, sim_.now(),
                  o->label("partition.move"), map_.owner(bucket));
        }
      }
    }
    // Replica placement is anchored to the hash-derived default owner and
    // never follows the map: moves and failovers reassign the *serving*
    // role, not the stored copies.
    const int home = map_.default_owner(bucket);
    PartitionServer* primary = &server(map_.owner(bucket));
    if (!primary->up()) {
      // Crash failover is a partition-map update: every bucket of the down
      // server is reassigned across the healthy ring (throwing when no
      // healthy server remains), and this request pays the re-route latency
      // before reaching the bucket's new owner. Other clients learn of the
      // move through the redirect path above.
      const sim::TimePoint reroute_start = sim_.now();
      reassign_off(primary->index(), /*throw_when_none_healthy=*/true);
      primary = &server(map_.owner(bucket));
      client_versions_[&client] = map_.version();
      if (faults_ != nullptr) {
        co_await sim_.delay(faults_->config().failover_latency);
      }
      if (o != nullptr) {
        o->metrics().counter("cluster.failovers").add(1);
        o->emit(obs::SpanKind::kFailover, trace, reroute_start, sim_.now(),
                0, primary->index());
      }
    }

    // Integrity bookkeeping is engaged only for tracked requests under an
    // armed fault plan; everything below the `tracked` checks is otherwise
    // byte-identical to the fault-free path.
    const bool tracked = faults_ != nullptr && cost.object_id != 0;
    const bool tracked_write = tracked && cost.replicate;
    // An object's home is always hash-derived — failover moves the serving
    // role, never the stored replicas.
    ReplicaStore::Entry* entry =
        tracked ? (tracked_write ? &store_.open(cost.object_id, home)
                                 : store_.find(cost.object_id))
                : nullptr;

    // Request path: client uplink -> account ingress shaping -> front-end ->
    // primary NIC.
    if (cost.request_bytes > 0) {
      const sim::TimePoint shaping_start = sim_.now();
      co_await account_ingress_.acquire(
          static_cast<double>(cost.request_bytes));
      if (o != nullptr && sim_.now() > shaping_start) {
        o->emit(obs::SpanKind::kThrottleWait, trace, shaping_start,
                sim_.now(), o->label("account.ingress"), -1,
                cost.request_bytes);
      }
    }
    const bool request_corrupted = co_await network_.transfer_checked(
        client, primary->nic(), cost.request_bytes, trace);

    // Server span: front-end validation + executor + CPU + disk.
    obs::SpanHandle server_span{};
    if (o != nullptr) server_span = o->begin(trace, sim_.now());
    co_await sim_.delay(cfg_.frontend_latency);

    // The front-end validates the upload's checksum before any state is
    // touched: a payload damaged in flight is rejected outright (HTTP 400
    // Md5Mismatch in real Azure), never written to disk or replicated.
    if (request_corrupted && tracked_write) {
      ++request_checksum_rejects_;
      faults_->record(faults::FaultKind::kChecksumMismatch, primary->index());
      if (o != nullptr) {
        o->metrics().counter("cluster.checksum_rejects").add(1);
        o->end(server_span, obs::SpanKind::kServerProcess, 0,
               primary->index(), 0, /*error=*/true, sim_.now());
      }
      throw ChecksumMismatchError(
          "request payload failed checksum validation at partition server " +
          std::to_string(primary->index()));
    }

    // Server-side processing (executor + CPU + disk).
    co_await primary->process(cost.server_cpu, cost.disk_bytes,
                              server_span.ctx);
    if (o != nullptr) {
      o->end(server_span, obs::SpanKind::kServerProcess, 0, primary->index(),
             cost.disk_bytes, /*error=*/false, sim_.now());
    }

    // Read-path replica verification: the serving server re-checksums its
    // local copy. On mismatch (torn write, stale or divergent generation)
    // it fails over to the committed content — modelled as the partition
    // log replay cost — and queues background read-repair of every bad
    // copy, so one detected mismatch heals the object for later readers.
    if (tracked && !tracked_write && entry != nullptr &&
        entry->committed_gen > 0) {
      int serve = store_.replica_on(*entry, primary->index());
      if (serve < 0) serve = 0;  // failed-over off the replica set
      if (!entry->replica_good(serve)) {
        const auto& bad = entry->replicas[static_cast<std::size_t>(serve)];
        // Attribute the mismatch to the server that actually served the
        // read. When the serving server failed over off the replica set,
        // `serve` falls back to replica 0 for the *verification*, but
        // replica 0's server did not serve anything — logging
        // server_of(entry, serve) would blame it (typically the crashed
        // home server) for a mismatch observed elsewhere.
        faults_->record(bad.torn ? faults::FaultKind::kChecksumMismatch
                                 : faults::FaultKind::kReplicaDivergence,
                        primary->index());
        ++read_mismatches_;
        const sim::TimePoint verify_failover_start = sim_.now();
        co_await sim_.delay(faults_->config().failover_latency);
        if (o != nullptr) {
          o->metrics().counter("cluster.read_mismatches").add(1);
          o->emit(obs::SpanKind::kFailover, trace, verify_failover_start,
                  sim_.now(), o->label("read.verify"), primary->index());
        }
        for (int r = 0; r < store_.replicas_per_object(); ++r) {
          if (!entry->replica_good(r)) {
            sim_.spawn(repair_replica(*entry, r, /*scrub=*/false),
                       "read-repair");
          }
        }
      }
    }

    // Synchronous replication: payload flows from the primary to each of the
    // other replicas in parallel; the request acks when the slowest commits.
    std::uint64_t attempt_gen = 0;
    const bool will_replicate =
        (tracked_write && entry != nullptr) ||
        (cost.replicate && cfg_.replicas > 1);
    obs::SpanHandle replication_span{};
    if (o != nullptr && will_replicate) {
      replication_span = o->begin(trace, sim_.now());
    }
    if (tracked_write && entry != nullptr) {
      entry->next_gen = std::max(entry->next_gen, entry->committed_gen) + 1;
      attempt_gen = entry->next_gen;
      co_await replicate_tracked(*primary, *entry, cost, attempt_gen,
                                 replication_span.ctx);
    } else if (cost.replicate && cfg_.replicas > 1) {
      co_await replicate(*primary, cost.disk_bytes, replication_span.ctx);
    }
    if (o != nullptr && will_replicate) {
      o->end(replication_span, obs::SpanKind::kReplication, 0,
             primary->index(), cost.disk_bytes, /*error=*/false, sim_.now());
    }

    // A crash while the request was being served kills the connection: the
    // executor's output dies with the process and no response is sent. The
    // client cannot know whether the mutation was applied (here it was not —
    // services apply state only after execute() returns).
    if (faults_ != nullptr && !primary->up()) {
      if (tracked_write && entry != nullptr) {
        // The local append raced the crash: the primary's own copy may be
        // torn, and the fan-out copies hold an unacknowledged generation.
        // Neither is committed — the scrubber converges them back.
        const int lr = store_.replica_on(*entry, primary->index());
        if (lr >= 0) {
          auto& rep = entry->replicas[static_cast<std::size_t>(lr)];
          rep.gen = attempt_gen;
          if (faults_->draw_torn_write()) {
            rep.crc = cost.content_crc ^ 0x5A5A5A5Au;
            rep.torn = true;
            faults_->record(faults::FaultKind::kTornWrite, primary->index());
          } else {
            rep.crc = cost.content_crc;
            rep.torn = false;
          }
        }
      }
      if (o != nullptr) {
        o->metrics().counter("cluster.connection_resets").add(1);
      }
      throw ConnectionResetError("partition server " +
                                 std::to_string(primary->index()) +
                                 " crashed while serving the request");
    }

    // The write is now acknowledged: advance the committed generation and
    // mark the primary's local copy clean. A concurrent later write may
    // already have committed a higher generation — never regress it.
    if (tracked_write && entry != nullptr) {
      const int lr = store_.replica_on(*entry, primary->index());
      if (lr >= 0) {
        auto& rep = entry->replicas[static_cast<std::size_t>(lr)];
        if (rep.gen <= attempt_gen) {
          rep.gen = attempt_gen;
          rep.crc = cost.content_crc;
          rep.torn = false;
        }
      }
      if (attempt_gen > entry->committed_gen) {
        entry->committed_gen = attempt_gen;
        entry->committed_crc = cost.content_crc;
        entry->bytes =
            cost.object_bytes > 0 ? cost.object_bytes : cost.disk_bytes;
      }
    }

    // Response path mirrors the request path.
    if (cost.response_bytes > 0) {
      const sim::TimePoint shaping_start = sim_.now();
      co_await account_egress_.acquire(
          static_cast<double>(cost.response_bytes));
      if (o != nullptr && sim_.now() > shaping_start) {
        o->emit(obs::SpanKind::kThrottleWait, trace, shaping_start,
                sim_.now(), o->label("account.egress"), -1,
                cost.response_bytes);
      }
    }
    const bool response_corrupted = co_await network_.transfer_checked(
        primary->nic(), client, cost.response_bytes, trace);

    ExecResult result;
    result.served_by = primary->index();
    if (response_corrupted && tracked) {
      // The server sent good bytes; the wire damaged them. Only the client
      // can detect this (end-to-end checksum) — execute() reports it and the
      // service layer throws on the client's behalf.
      ++response_corruptions_;
      faults_->record(faults::FaultKind::kChecksumMismatch, primary->index());
      result.response_corrupted = true;
    }
    co_return result;
  }

  /// Applies one geo-replicated write (shipped from another stamp's log) to
  /// this stamp: the bucket owner's replica set commits the bytes through
  /// the normal replica-commit path (disk + executor occupancy on each live
  /// replica server, in ring order), and — for integrity-tracked objects —
  /// the local ledger advances to the shipped generation/CRC. `torn` stages
  /// a torn tail on the first replica copy (a crash mid-apply on the
  /// receiving stamp), which the scrub detects and heals. Generations never
  /// regress: a redelivered or reordered batch is a no-op on the ledger.
  sim::Task<void> apply_geo_write(std::uint64_t object_id, int home_server,
                                  std::uint64_t gen, std::uint32_t crc,
                                  std::int64_t bytes, bool torn = false) {
    ReplicaStore::Entry* entry =
        object_id != 0 ? &store_.open(object_id, home_server) : nullptr;
    const int copies =
        entry != nullptr ? store_.replicas_per_object() : cfg_.replicas;
    for (int r = 0; r < copies; ++r) {
      const int s = entry != nullptr
                        ? store_.server_of(*entry, r)
                        : (home_server + r) % cfg_.partition_servers;
      PartitionServer& target = server(s);
      if (!target.up()) continue;  // stale copy; the scrub converges it
      co_await target.replica_commit(bytes);
      if (entry == nullptr) continue;
      auto& rep = entry->replicas[static_cast<std::size_t>(r)];
      if (rep.gen > gen) continue;  // a later apply already landed here
      rep.gen = gen;
      if (torn && r == 0) {
        rep.crc = crc ^ 0x5A5A5A5Au;
        rep.torn = true;
      } else {
        rep.crc = crc;
        rep.torn = false;
      }
    }
    if (entry != nullptr && gen > entry->committed_gen) {
      entry->committed_gen = gen;
      entry->committed_crc = crc;
      entry->bytes = bytes;
    }
  }

  /// One full anti-entropy pass over every partition server, for tests and
  /// benchmarks that want to force convergence at a known point in time.
  /// No-op when faults are not armed.
  sim::Task<void> scrub_all() {
    if (faults_ == nullptr) co_return;
    for (int s = 0; s < static_cast<int>(servers_.size()); ++s) {
      co_await scrub_server(s);
    }
  }

  std::int64_t total_requests() const noexcept { return total_requests_; }
  std::int64_t throttle_rejections() const noexcept {
    return account_tx_.rejected();
  }
  /// Requests rejected with 503 SlowDown (ThrottleMode::kPrefixSlowdown).
  std::int64_t prefix_slowdowns() const noexcept { return prefix_slowdowns_; }

  // Integrity counters (all zero when faults are off).
  /// Uploads rejected at the front-end because the request payload arrived
  /// corrupt (the client retries; no state was touched).
  std::int64_t request_checksum_rejects() const noexcept {
    return request_checksum_rejects_;
  }
  /// Responses whose payload was corrupted in flight (detected client-side).
  std::int64_t response_corruptions() const noexcept {
    return response_corruptions_;
  }
  /// Read-path replica verifications that failed and triggered failover.
  std::int64_t read_mismatches() const noexcept { return read_mismatches_; }
  /// Replica copies healed by read-triggered repair.
  std::int64_t read_repairs() const noexcept { return read_repairs_; }
  /// Replica copies healed by the background anti-entropy scrubber.
  std::int64_t scrub_repairs() const noexcept { return scrub_repairs_; }
  /// Scrub passes started (per server, post-restart plus forced).
  std::int64_t scrub_passes() const noexcept { return scrub_passes_; }

  /// Per-server load snapshot, for capacity analysis and tests.
  struct ServerLoad {
    int server = 0;
    std::int64_t requests = 0;
    std::int64_t replica_commits = 0;
    std::int64_t disk_bytes = 0;
    int executor_high_watermark = 0;
  };
  struct LoadReport {
    std::int64_t total_requests = 0;
    std::int64_t throttle_rejections = 0;
    std::vector<ServerLoad> servers;

    /// Ratio of the busiest server's request count to the mean — 1.0 is a
    /// perfectly balanced partition map.
    double imbalance() const {
      if (servers.empty() || total_requests == 0) return 1.0;
      std::int64_t peak = 0;
      for (const auto& s : servers) peak = std::max(peak, s.requests);
      const double mean = static_cast<double>(total_requests) /
                          static_cast<double>(servers.size());
      return mean > 0 ? static_cast<double>(peak) / mean : 1.0;
    }
  };

  LoadReport load_report() const {
    LoadReport report;
    report.total_requests = total_requests_;
    report.throttle_rejections = account_tx_.rejected();
    report.servers.reserve(servers_.size());
    for (const auto& server : servers_) {
      const PartitionServer& s = *server;
      report.servers.push_back(ServerLoad{
          s.index(), s.requests(), s.replica_commits(), s.disk_bytes(),
          s.executors().high_watermark()});
    }
    return report;
  }

 private:
  /// Rejects impossible topologies before any dependent member (replica
  /// ring, partition map) is built from them. A Release build must fail as
  /// loudly as a Debug build here: replicas > servers would silently fold
  /// distinct replicas onto the same server and fake durability.
  static const ClusterConfig& validated(const ClusterConfig& cfg) {
    if (cfg.partition_servers <= 0) {
      throw std::invalid_argument(
          "ClusterConfig: partition_servers must be positive, got " +
          std::to_string(cfg.partition_servers));
    }
    if (cfg.replicas <= 0) {
      throw std::invalid_argument("ClusterConfig: replicas must be positive, "
                                  "got " +
                                  std::to_string(cfg.replicas));
    }
    if (cfg.partition_servers < cfg.replicas) {
      throw std::invalid_argument(
          "ClusterConfig: partition_servers (" +
          std::to_string(cfg.partition_servers) +
          ") must be >= replicas (" + std::to_string(cfg.replicas) +
          "): each replica of an object lives on a distinct server");
    }
    return cfg;
  }

  sim::Task<void> replicate(PartitionServer& primary, std::int64_t bytes,
                            obs::TraceContext trace = {}) {
    sim::WaitGroup wg(sim_);
    const int fanout = cfg_.replicas - 1;
    for (int k = 1; k <= fanout; ++k) {
      PartitionServer& replica =
          server((primary.index() + k) % cfg_.partition_servers);
      wg.add();
      sim_.spawn(replica_send(primary, replica, bytes, wg, trace));
    }
    co_await wg.wait();
  }

  sim::Task<void> replica_send(PartitionServer& primary,
                               PartitionServer& replica, std::int64_t bytes,
                               sim::WaitGroup& wg,
                               obs::TraceContext trace = {}) {
    if (faults_ != nullptr && !replica.up()) {
      // A down replica does not block the commit: the stream layer seals
      // its extent and re-routes the append to a healthy extent node, for
      // the price of the failover latency (Calder et al., SOSP'11 §4).
      co_await sim_.delay(cfg_.replica_commit_latency +
                          faults_->config().failover_latency);
      wg.done();
      co_return;
    }
    if (bytes > 0) co_await primary.nic().send(bytes);
    co_await sim_.delay(network_.config().propagation);
    co_await replica.replica_commit(bytes, trace);
    wg.done();
  }

  /// Tracked analogue of replicate(): fans the payload out to the object's
  /// replica set (same ring order, so the event sequence is identical to
  /// replicate() when the primary has not failed over), recording which
  /// generation each copy landed — including torn copies when a replica
  /// crashes mid-commit.
  sim::Task<void> replicate_tracked(PartitionServer& primary,
                                    ReplicaStore::Entry& entry,
                                    const RequestCost& cost,
                                    std::uint64_t attempt_gen,
                                    obs::TraceContext trace = {}) {
    sim::WaitGroup wg(sim_);
    for (int r = 0; r < store_.replicas_per_object(); ++r) {
      if (store_.server_of(entry, r) == primary.index()) continue;
      wg.add();
      sim_.spawn(replica_send_tracked(primary, entry, r, cost.disk_bytes,
                                      attempt_gen, cost.content_crc, wg,
                                      trace));
    }
    co_await wg.wait();
  }

  sim::Task<void> replica_send_tracked(PartitionServer& primary,
                                       ReplicaStore::Entry& entry, int r,
                                       std::int64_t bytes,
                                       std::uint64_t attempt_gen,
                                       std::uint32_t crc, sim::WaitGroup& wg,
                                       obs::TraceContext trace = {}) {
    PartitionServer& target = server(store_.server_of(entry, r));
    if (!target.up()) {
      // Stream-layer re-route (see replica_send); this copy stays on its old
      // generation — stale until repaired.
      co_await sim_.delay(cfg_.replica_commit_latency +
                          faults_->config().failover_latency);
      wg.done();
      co_return;
    }
    if (bytes > 0) co_await primary.nic().send(bytes);
    co_await sim_.delay(network_.config().propagation);
    co_await target.replica_commit(bytes, trace);
    auto& rep = entry.replicas[static_cast<std::size_t>(r)];
    if (rep.gen > attempt_gen) {
      // A concurrent later write already landed here; don't regress.
      wg.done();
      co_return;
    }
    rep.gen = attempt_gen;
    if (!target.up() && faults_->draw_torn_write()) {
      // Crash mid-append: the extent holds a partial record whose checksum
      // cannot validate.
      rep.crc = crc ^ 0x5A5A5A5Au;
      rep.torn = true;
      faults_->record(faults::FaultKind::kTornWrite, target.index());
    } else {
      rep.crc = crc;
      rep.torn = false;
    }
    wg.done();
  }

  /// Copies the committed content back onto replica `r` of `entry`. The
  /// source is always the committed (acknowledged) version — a repair never
  /// propagates bad bytes, and a crash mid-repair leaves the target no worse
  /// than before (the copy simply stays bad for the next pass).
  sim::Task<void> repair_replica(ReplicaStore::Entry& entry, int r,
                                 bool scrub) {
    auto& rep = entry.replicas[static_cast<std::size_t>(r)];
    if (rep.repairing || entry.replica_good(r)) co_return;
    PartitionServer& target = server(store_.server_of(entry, r));
    if (!target.up()) co_return;
    rep.repairing = true;
    co_await target.replica_commit(entry.bytes);
    rep.repairing = false;
    if (!target.up()) co_return;  // crashed mid-repair; copy stays bad
    if (entry.replica_good(r)) co_return;  // a concurrent write converged it
    rep.gen = entry.committed_gen;
    rep.crc = entry.committed_crc;
    rep.torn = false;
    if (scrub) {
      ++scrub_repairs_;
      faults_->record(faults::FaultKind::kScrubRepair, target.index());
    } else {
      ++read_repairs_;
      faults_->record(faults::FaultKind::kReadRepair, target.index());
    }
  }

  /// Per-server anti-entropy loop: parked on a gate the crash driver sets
  /// after each restart of this server, then (after a settling delay)
  /// verifies every replica the server hosts and repairs the bad ones.
  sim::Task<void> scrubber(int s) {
    sim::Gate& gate = *scrub_gates_[static_cast<std::size_t>(s)];
    for (;;) {
      co_await gate.wait();
      gate.reset();
      if (scrub_shutdown_) co_return;
      co_await sim_.delay(cfg_.scrub_delay);
      co_await scrub_server(s);
    }
  }

  /// One verification pass over every replica hosted on server `s`.
  sim::Task<void> scrub_server(int s) {
    ++scrub_passes_;
    for (auto& kv : store_.entries()) {
      if (!server(s).up()) co_return;  // server died mid-scrub
      ReplicaStore::Entry& entry = kv.second;
      const int r = store_.replica_on(entry, s);
      if (r < 0) continue;
      co_await sim_.delay(cfg_.scrub_check_time);
      if (!entry.replica_good(r) &&
          !entry.replicas[static_cast<std::size_t>(r)].repairing) {
        co_await repair_replica(entry, r, /*scrub=*/true);
      }
    }
  }

  /// Reassigns every bucket owned by `down` across the healthy servers, in
  /// ring order starting after `down` (round-robin, so a crash spreads the
  /// victim's load instead of doubling up one neighbour). The buckets are
  /// remembered for fail-back when `down` restarts. When no healthy server
  /// exists the guard either throws a retryable ConnectionResetError (the
  /// request path: the client must see a clean typed error, never a request
  /// served by a crashed process) or returns silently (the crash driver:
  /// nothing to reassign to, requests will hit the guard themselves).
  void reassign_off(int down, bool throw_when_none_healthy) {
    const int n = static_cast<int>(servers_.size());
    std::vector<int> healthy;
    healthy.reserve(static_cast<std::size_t>(n));
    for (int k = 1; k < n; ++k) {
      const int candidate = (down + k) % n;
      if (server(candidate).up()) healthy.push_back(candidate);
    }
    if (healthy.empty()) {
      if (throw_when_none_healthy) {
        throw ConnectionResetError(
            "no healthy partition server available: every server in the "
            "stamp is down");
      }
      return;
    }
    std::size_t next = 0;
    for (const int b : map_.buckets_of(down)) {
      move_bucket(b, healthy[next], /*offline_for=*/0);
      // A bucket that is *already* crash-displaced belongs to an earlier
      // victim: it was parked on `down` only temporarily, and fail-back must
      // return it to its original owner, not to `down`. Registering it under
      // `down` as well would hand it to whichever of the two victims
      // restarted *last* — with inverted restart order the bucket ended up
      // stranded on the second victim instead of its true pre-crash owner.
      if (crash_displaced_.empty()) {
        crash_displaced_.assign(static_cast<std::size_t>(map_.buckets()), 0);
      }
      if (crash_displaced_[static_cast<std::size_t>(b)] == 0) {
        crash_displaced_[static_cast<std::size_t>(b)] = 1;
        crash_moved_[static_cast<std::size_t>(down)].push_back(b);
      }
      next = (next + 1) % healthy.size();
    }
  }

  /// Returns the buckets that were on `restarted` when it went down (and
  /// were reassigned off it) back to it. Restores the pre-crash assignment
  /// so a crash-restart cycle converges instead of permanently skewing the
  /// map; the balancer remains free to move them again afterwards. Under
  /// overlapping failures each bucket is registered under exactly one victim
  /// (its original owner — see reassign_off), so restart order does not
  /// matter: A's buckets return to A whenever A restarts, even if they rode
  /// out B's crash on a third server in between.
  void fail_back(int restarted) {
    auto moved = std::move(crash_moved_[static_cast<std::size_t>(restarted)]);
    crash_moved_[static_cast<std::size_t>(restarted)].clear();
    for (const int b : moved) {
      crash_displaced_[static_cast<std::size_t>(b)] = 0;
      move_bucket(b, restarted, /*offline_for=*/0);
    }
  }

  /// One-shot settling-delay + scrub pass, for restarts driven from outside
  /// the plan's own crash schedule (no parked scrubber to wake).
  sim::Task<void> post_restart_scrub(int s) {
    co_await sim_.delay(cfg_.scrub_delay);
    co_await scrub_server(s);
  }

  /// Executes the plan's precomputed crash schedule, one crash at a time
  /// (the downtime serializes crashes, so at most one server is down).
  sim::Task<void> crash_driver() {
    for (const faults::FaultPlan::CrashEvent& ev : faults_->crash_schedule()) {
      co_await sim_.delay(ev.after_previous);
      const int victim = static_cast<int>(
          ev.victim_raw % static_cast<std::uint64_t>(servers_.size()));
      crash_server(victim);
      co_await sim_.delay(faults_->config().server_downtime);
      restart_server(victim);
    }
    // Schedule exhausted: release every parked scrubber so no coroutine is
    // left suspended on a gate when the simulation drains (Gate asserts it
    // has no waiters at destruction, and a forever-suspended frame leaks
    // under ASan).
    scrub_shutdown_ = true;
    for (auto& gate : scrub_gates_) gate->set();
  }

  sim::Simulation& sim_;
  ClusterConfig cfg_;
  faults::FaultPlan* faults_ = nullptr;
  netsim::Network network_;
  sim::WindowCounter account_tx_;
  sim::FlowLimiter account_ingress_;
  sim::FlowLimiter account_egress_;
  std::vector<std::unique_ptr<PartitionServer>> servers_;
  std::int64_t total_requests_ = 0;

  // Partition map state. client_versions_ models each client endpoint's
  // cached map version (keyed by NIC identity; never iterated, so the
  // unordered container cannot affect event order). crash_moved_ remembers,
  // per server, the buckets reassigned off it at crash time for fail-back.
  PartitionMap map_;
  std::vector<std::int64_t> bucket_requests_;
  std::unordered_map<const netsim::Nic*, std::uint64_t> client_versions_;
  std::vector<std::vector<int>> crash_moved_;
  // Per-bucket flag: 1 while the bucket is crash-displaced (registered in
  // exactly one crash_moved_ list). Lazily sized on first crash so the
  // crash-free path allocates nothing.
  std::vector<char> crash_displaced_;
  std::int64_t partition_moves_ = 0;
  std::int64_t stale_map_redirects_ = 0;

  // FIFO admission queue for ThrottleMode::kQueue: the next ticket to hand
  // out and the ticket currently allowed to consume window budget.
  std::uint64_t throttle_next_ticket_ = 0;
  std::uint64_t throttle_front_ = 0;

  // ThrottleMode::kPrefixSlowdown: one read window + one write window per
  // key prefix, created lazily on first touch (keyed lookups only, never
  // iterated, so the unordered container cannot affect event order).
  struct PrefixWindows {
    PrefixWindows(sim::Simulation& sim, const ClusterConfig& cfg)
        : reads(sim, cfg.prefix_read_requests_per_sec),
          writes(sim, cfg.prefix_write_requests_per_sec) {}
    sim::WindowCounter reads;
    sim::WindowCounter writes;
  };
  PrefixWindows& prefix_windows(std::uint64_t prefix) {
    auto it = prefix_windows_.find(prefix);
    if (it == prefix_windows_.end()) {
      it = prefix_windows_
               .emplace(prefix, std::make_unique<PrefixWindows>(sim_, cfg_))
               .first;
    }
    return *it->second;
  }
  std::unordered_map<std::uint64_t, std::unique_ptr<PrefixWindows>>
      prefix_windows_;
  std::int64_t prefix_slowdowns_ = 0;

  // Integrity state (quiescent unless a fault plan is armed).
  ReplicaStore store_;
  std::vector<std::unique_ptr<sim::Gate>> scrub_gates_;
  bool scrub_shutdown_ = false;
  std::int64_t request_checksum_rejects_ = 0;
  std::int64_t response_corruptions_ = 0;
  std::int64_t read_mismatches_ = 0;
  std::int64_t read_repairs_ = 0;
  std::int64_t scrub_repairs_ = 0;
  std::int64_t scrub_passes_ = 0;
};

}  // namespace cluster
