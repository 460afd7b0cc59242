// Replication of LambdaStore write batches (paper §4.2.1).
//
// Primary-backup: a mutating invocation executes at the shard's primary;
// the resulting WriteBatch is applied locally, shipped to every backup,
// applied there in sequence order, and acknowledged — one network
// round-trip inside the replica set.
//
// Chain mode (the design the paper decided *against*, kept for the
// ablation benchmark): the batch hops head -> ... -> tail, each node
// applying before forwarding, and the ack travels back up the chain, so
// commit latency grows with chain length.
//
// A node may play different roles for different shards (it is typically
// primary for one shard and backup for its neighbours'), so all state is
// kept per shard.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "sim/rpc.h"
#include "storage/db.h"

namespace lo::replication {

enum class Mode { kPrimaryBackup, kChain };

using ShardId = uint32_t;

/// What a client has observed of a shard: the configuration epoch it last
/// talked to and the highest replication sequence it knows is applied.
/// Every token-wrapped write ack carries one; a follower read presents it
/// and the backup serves only if its own apply state covers the token
/// (read-your-writes). Ordered component-wise: a later config epoch
/// supersedes any sequence from an earlier one.
struct EpochToken {
  uint64_t epoch = 0;
  uint64_t seq = 0;
};

/// Staleness contract a follower read requests (LO_FOLLOWER_READS):
///   kPrimaryOnly  every read at the primary (the pre-follower baseline)
///   kStrict       backup serves iff apply-epoch >= the client's token
///                 (read-your-writes; bounces otherwise)
///   kBounded      backup may trail the token by <= staleness_epochs
///   kEventual     any replica serves unconditionally
///   kTail         chain-mode tail serves (linearizable: a chain commit
///                 implies the tail already applied it)
enum class ReadMode : uint8_t {
  kPrimaryOnly = 0,
  kStrict = 1,
  kBounded = 2,
  kEventual = 3,
  kTail = 4,
};

/// "strict" -> kStrict etc.; unknown strings return `fallback`.
ReadMode ParseReadMode(std::string_view name, ReadMode fallback);
std::string_view ReadModeName(ReadMode mode);

/// Wire helpers for token-wrapped responses (lambda.invoke2 /
/// lambda.create2 / lambda.read): varint64 epoch | varint64 seq |
/// length-prefixed body.
std::string EncodeTokenWrapped(const EpochToken& token, std::string_view body);
bool DecodeTokenWrapped(std::string_view payload, EpochToken* token,
                        std::string_view* body);

/// Client side of a token-wrapped reply: decodes it, folds its token
/// into `held` (a newer config epoch supersedes; within an epoch the
/// sequence only advances) and returns the body.
Result<std::string> UnwrapToken(std::string_view payload, EpochToken* held);

/// "lambda.read" request, the same on the sim and the real stack:
/// LP oid | LP method | LP arg | varint32 mode | varint64 token.epoch |
/// varint64 token.seq | varint64 staleness. The same payload works at a
/// bounce target: the primary ignores the gate (it always serves).
struct ReadRequest {
  std::string_view oid;
  std::string_view method;
  std::string_view argument;
  ReadMode mode = ReadMode::kPrimaryOnly;
  EpochToken token;
  uint64_t staleness_epochs = 0;
};
std::string EncodeReadRequest(const ReadRequest& request);
/// False on a torn payload or a mode above kTail.
bool DecodeReadRequest(std::string_view payload, ReadRequest* request);

class Replicator {
 public:
  /// Registers the "repl.apply" / "repl.chain" services on `rpc`.
  Replicator(sim::RpcEndpoint* rpc, storage::DB* db, Mode mode = Mode::kPrimaryBackup);

  /// (Re)configures this node's role for one shard. `peers` excludes this
  /// node: the backups for a primary; the chain successors for kChain.
  void Configure(ShardId shard, uint64_t epoch, bool is_primary,
                 std::vector<sim::NodeId> peers);

  /// Primary path: apply locally, replicate to all peers, return once
  /// the batch is durable on every reachable replica. A sampled `trace`
  /// context rides along on every replication hop.
  sim::Task<Status> ReplicateAndApply(ShardId shard, storage::WriteBatch batch,
                                      obs::TraceContext trace = {});

  /// Called on every locally applied batch (primary and backups) —
  /// the runtime hooks cache invalidation here. Replicated batches carry
  /// the write set, so a backup invalidates result-cache entries exactly
  /// like the primary that executed the write.
  void SetApplyHook(std::function<void(const storage::WriteBatch&)> hook) {
    apply_hook_ = std::move(hook);
  }

  /// Called when Configure promotes this node (backup -> primary) for a
  /// shard, with the new epoch. The storage node hooks "drop every cached
  /// result from before the promotion" here: entries cached while backup
  /// were valid for the *old* primary's history, and serving them under
  /// the new epoch could leak results the failover rolled over.
  void SetPromotionHook(std::function<void(ShardId, uint64_t epoch)> hook) {
    promotion_hook_ = std::move(hook);
  }

  bool is_primary(ShardId shard) const;
  uint64_t epoch(ShardId shard) const;
  uint64_t applied_seq(ShardId shard) const;
  /// Highest applied sequence across every shard this node replicates —
  /// the node's apply-epoch, exported as repl.apply_epoch via obs.
  uint64_t max_applied_seq() const;

  /// This node's apply state for `shard`, in token form.
  EpochToken ApplyToken(ShardId shard) const;

  /// Last sequence `peer` acknowledged as applied for `shard` (0 if it
  /// never acked). In chain mode the direct successor's entry carries the
  /// minimum applied seq down the whole chain, since acks aggregate on
  /// the way back up.
  uint64_t backup_applied_seq(ShardId shard, sim::NodeId peer) const;

  /// True if this node is the tail of `shard`'s chain (chain mode, backup
  /// role, no successors). The tail applied every committed batch before
  /// the primary acked it, so tail reads are linearizable.
  bool is_chain_tail(ShardId shard) const;

  /// Gate for serving a read at this replica under `mode`. OK means this
  /// node's applied state satisfies the client's token (or the mode does
  /// not care); kEpochBehind means the caller should bounce the read to
  /// the primary. The primary always serves. A zero token (client that
  /// never wrote) is satisfied by any state.
  Status CheckFollowerRead(ShardId shard, const EpochToken& token,
                           ReadMode mode, uint64_t staleness_epochs) const;

  struct Metrics {
    uint64_t replicated_batches = 0;
    uint64_t applied_batches = 0;
    uint64_t reordered_arrivals = 0;
    uint64_t stale_epoch_rejections = 0;
    /// Replication acks that failed or timed out (degraded-mode signal:
    /// each one turns into an Unavailable surfaced to the client).
    uint64_t failed_peer_acks = 0;
    /// Backup→primary transitions observed via Configure (failovers).
    uint64_t promotions = 0;
  };
  const Metrics& metrics() const { return metrics_; }

 private:
  struct ShardState {
    uint64_t epoch = 0;
    bool is_primary = false;
    std::vector<sim::NodeId> peers;
    uint64_t next_seq = 1;     // primary: next sequence to assign
    uint64_t applied_seq = 0;  // last applied in-order sequence
    std::map<uint64_t, storage::WriteBatch> reorder_buffer;
    /// Primary: last applied seq each peer reported in its ack.
    std::map<sim::NodeId, uint64_t> peer_applied;
  };

  sim::Task<Result<std::string>> HandleApply(sim::NodeId from,
                                             obs::TraceContext trace,
                                             std::string payload);
  sim::Task<Result<std::string>> HandleChain(sim::NodeId from,
                                             obs::TraceContext trace,
                                             std::string payload);
  Status ApplyLocal(const storage::WriteBatch& batch, obs::TraceContext trace = {});
  void DrainReorderBuffer(ShardState& state);
  /// Parks until `seq` has been applied in order (or times out).
  sim::Task<Status> AwaitInOrderApply(ShardState& state, uint64_t seq);

  sim::RpcEndpoint* rpc_;
  storage::DB* db_;
  Mode mode_;
  std::map<ShardId, ShardState> shards_;
  std::function<void(const storage::WriteBatch&)> apply_hook_;
  std::function<void(ShardId, uint64_t)> promotion_hook_;
  Metrics metrics_;
};

/// Durable, replicated append-only log — the OpenWhisk-style load
/// balancer's request log (paper §4.1: "implemented using Apache Kafka"
/// in OpenWhisk). The leader appends locally (synced WAL-backed DB) and
/// replicates each record to its followers before acknowledging.
class ReplicatedLog {
 public:
  ReplicatedLog(sim::RpcEndpoint* rpc, storage::DB* db);

  void Configure(bool is_leader, std::vector<sim::NodeId> followers);

  /// Appends a record; resolves once every follower acked. Returns the
  /// assigned log index.
  sim::Task<Result<uint64_t>> Append(std::string record,
                                     obs::TraceContext trace = {});

  /// Reads record `index` (for recovery/auditing).
  Result<std::string> Read(uint64_t index) const;
  uint64_t size() const { return next_index_; }

 private:
  sim::Task<Result<std::string>> HandleReplicate(sim::NodeId from,
                                                 std::string payload);
  static std::string IndexKey(uint64_t index);

  sim::RpcEndpoint* rpc_;
  storage::DB* db_;
  bool is_leader_ = false;
  std::vector<sim::NodeId> followers_;
  uint64_t next_index_ = 0;
};

}  // namespace lo::replication
