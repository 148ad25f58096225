// Server-side Queue storage service.
//
// Semantics reproduced from the paper and the 2011/2012 API docs:
//  * FIFO is NOT guaranteed (a deterministic scramble knob emulates this);
//  * GetMessage hides the message for a visibility timeout and returns a pop
//    receipt; un-deleted messages reappear;
//  * PeekMessage reads without hiding (and without replica synchronization,
//    making it the cheapest operation);
//  * messages expire after 7 days; 64 KB max encoded size with 48 KB
//    (49,152 bytes) of usable payload;
//  * one queue = one partition: at most 500 messages/s, and the measured
//    cost ordering is Get > Put > Peek.
//
// The consistently-slow 16 KB GetMessage the paper reports ("we do not know
// the reason behind this") is reproduced by an explicit service-time quirk,
// switchable via QueueServiceConfig::model_16k_get_anomaly.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "azure/common/errors.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/payload.hpp"
#include "cluster/hash.hpp"
#include "cluster/storage_cluster.hpp"
#include "netsim/nic.hpp"
#include "simcore/random.hpp"
#include "simcore/rate_limiter.hpp"
#include "simcore/resource.hpp"
#include "simcore/task.hpp"

namespace azure {

struct QueueServiceConfig {
  /// Server work per operation (on top of cluster request overheads),
  /// calibrated to 2011/2012-era HTTP round-trip costs — which is also why
  /// ~100 sequential workers stay under the account's 5,000 tx/s target,
  /// as the paper observed. Put synchronizes the insert across replicas;
  /// Peek needs no replica synchronization; Get additionally maintains
  /// visibility state on all copies — hence Peek < Put < Get.
  sim::Duration put_cpu = sim::millis(10);
  sim::Duration peek_cpu = sim::millis(17);
  sim::Duration get_cpu = sim::millis(14);
  sim::Duration delete_cpu = sim::millis(8);

  /// Mutations append to the queue's message log, which is serialized per
  /// queue (one queue = one partition). This serialization is what makes a
  /// *shared* queue slower than per-worker queues (Fig. 7 vs Fig. 6) and
  /// why raising the think time cuts per-op time by up to ~2x (lower
  /// arrival rate => less waiting behind the commit log).
  sim::Duration put_commit_time = sim::millis(9);
  sim::Duration get_commit_time = sim::millis(11);
  sim::Duration delete_commit_time = sim::millis(7);

  /// Default visibility timeout applied by GetMessage.
  sim::Duration default_visibility_timeout = sim::seconds(30);

  /// Per-message metadata bytes on the wire (headers, receipt, timestamps).
  std::int64_t message_metadata_bytes = 512;

  /// Emulate the paper's consistently-observed slow GetMessage at 16 KB
  /// payloads (applied to payloads in [12 KiB, 24 KiB)).
  bool model_16k_get_anomaly = true;
  double get_16k_anomaly_factor = 2.6;

  /// Probability that a Get/Peek returns the second-oldest visible message
  /// instead of the oldest — Azure queues do not guarantee FIFO.
  double fifo_violation_probability = 0.02;

  /// Deterministic seed for the FIFO scramble.
  std::uint64_t seed = 0x51EE7;
};

/// A message as returned to clients.
struct QueueMessage {
  std::uint64_t id = 0;
  Payload body;
  std::string pop_receipt;       // empty for peeked messages
  sim::TimePoint insertion_time = 0;
  sim::TimePoint expiration_time = 0;
  int dequeue_count = 0;
};

class QueueService {
 public:
  QueueService(cluster::StorageCluster& cluster, const QueueServiceConfig& cfg)
      : cluster_(cluster), cfg_(cfg), rng_(cfg.seed) {}

  const QueueServiceConfig& config() const noexcept { return cfg_; }

  sim::Task<void> create_queue(netsim::Nic& client, std::string name);
  sim::Task<void> create_queue_if_not_exists(netsim::Nic& client,
                                             std::string name);
  sim::Task<void> delete_queue(netsim::Nic& client, std::string name);
  sim::Task<bool> queue_exists(netsim::Nic& client, std::string name);
  sim::Task<void> clear_queue(netsim::Nic& client, std::string name);

  /// Adds a message. `ttl` defaults to (and is capped at) 7 days.
  sim::Task<void> put_message(netsim::Nic& client, std::string name,
                              Payload body, sim::Duration ttl = 0);

  /// Dequeues the (approximately) oldest visible message, hiding it for
  /// `visibility_timeout`. Returns nullopt when no message is visible.
  sim::Task<std::optional<QueueMessage>> get_message(
      netsim::Nic& client, std::string name,
      sim::Duration visibility_timeout = 0);

  /// Reads without hiding. Returns nullopt when no message is visible.
  sim::Task<std::optional<QueueMessage>> peek_message(netsim::Nic& client,
                                                      std::string name);

  /// Deletes a previously-gotten message; the pop receipt must still match
  /// (it is invalidated when the message reappears and is gotten again).
  sim::Task<void> delete_message(netsim::Nic& client, std::string name,
                                 std::uint64_t id,
                                 std::string pop_receipt);

  /// UpdateMessage (added in the 2011-08 API): extends/changes the
  /// visibility timeout of a previously-gotten message and optionally
  /// replaces its content — the lease-renewal pattern for long-running
  /// tasks. Requires a valid pop receipt; returns the refreshed message
  /// with a new receipt.
  sim::Task<QueueMessage> update_message(
      netsim::Nic& client, std::string name, std::uint64_t id,
      std::string pop_receipt, sim::Duration visibility_timeout,
      std::optional<Payload> new_body = std::nullopt);

  /// ApproximateMessageCount: includes invisible (gotten) messages.
  sim::Task<std::int64_t> get_message_count(netsim::Nic& client,
                                            std::string name);

  /// Number of re-deliveries across all queues: GetMessage returning a
  /// message whose visibility timeout expired un-deleted (dequeue_count of
  /// the delivery > 1). Under fault injection this is the observable count
  /// of consumer crashes the visibility-timeout mechanism absorbed.
  std::int64_t redeliveries() const noexcept { return redeliveries_; }

 private:
  struct StoredMessage {
    std::uint64_t id;
    Payload body;
    sim::TimePoint insertion_time;
    sim::TimePoint expiration_time;
    sim::TimePoint visible_from;  // > now while hidden
    int dequeue_count = 0;
    std::uint64_t receipt_serial = 0;
  };

  struct QueueData {
    explicit QueueData(sim::Simulation& sim)
        : throttle(sim, limits::kQueueMessagesPerSec), commit_lock(sim, 1) {}
    /// Sorted by id: ids come from the service-wide `next_id_++` and
    /// put_message only ever appends.
    std::deque<StoredMessage> messages;
    /// Lower bound on the earliest expiration_time in `messages` (never
    /// above it). put_message lowers it; expire() skips its sweep while
    /// nothing can have lapsed and resets it to the exact minimum after one.
    sim::TimePoint min_expiry = std::numeric_limits<sim::TimePoint>::max();
    sim::WindowCounter throttle;
    sim::Resource commit_lock;  // serialized message-log appends
    /// Count of acknowledged mutations — versions the queue's integrity
    /// checksum (one queue = one partition = one tracked object).
    std::uint64_t mutation_serial = 0;
  };

  QueueData& require_queue(std::string name);
  std::int64_t encoded_size(std::int64_t payload) const noexcept {
    // Queue message bodies travel base64-encoded plus metadata.
    return (payload * 4 + 2) / 3 + cfg_.message_metadata_bytes;
  }
  void admit(QueueData& q, std::string name);
  void expire(QueueData& q);
  /// Index of the first visible message at or after `from`, or
  /// messages.size() when there is none.
  std::size_t next_visible(const QueueData& q, std::size_t from) const;
  /// Index of the visible message a consumer sees first (with the FIFO
  /// scramble), or messages.size() when there is none.
  std::size_t pick_visible(QueueData& q);
  /// The message `id` holding `pop_receipt`; throws NotFoundError when the
  /// message is gone and PreconditionFailedError when the receipt is stale.
  std::deque<StoredMessage>::iterator leased_message(
      QueueData& q, const std::string& name, std::uint64_t id,
      const std::string& pop_receipt);

  sim::Task<void> metadata_op(netsim::Nic& client, std::uint64_t part_hash,
                              bool write);

  /// Per-queue integrity object id (salted partition hash; never 0).
  std::uint64_t object_id(std::uint64_t part_hash) const;
  /// Checksum of the queue's state after its next acknowledged mutation.
  std::uint32_t next_state_crc(const QueueData& q,
                               std::uint64_t oid) const noexcept;

  cluster::StorageCluster& cluster_;
  QueueServiceConfig cfg_;
  sim::Random rng_;
  std::map<std::string, std::unique_ptr<QueueData>> queues_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_receipt_ = 1;
  std::int64_t redeliveries_ = 0;
};

}  // namespace azure
