// Simulated WAL device, grouping commits by storage/group_commit.h.
//
// A storage node has one WAL device; its fsyncs are inherently serial.
// Before this existed, every commit slept the sync latency
// independently — unlimited overlapping fsyncs, which both overstates
// device parallelism and understates what grouping buys. This models the
// device honestly: one sync in flight per shard at a time, and every
// commit that arrives while a sync is in flight joins the next group. A
// group is appended as one combined WriteBatch — a single WAL record, one
// fsync charge — and then handed to the node's sync sink (replicate +
// apply) once, so the fsync and the replication round are both amortized
// over the group.
//
// Groups never span shards: replication is per shard, and the combined
// batch must replicate as one unit.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "coord/coordinator.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "storage/group_commit.h"
#include "storage/write_batch.h"

namespace lo::cluster {

class WalGroupCommitter {
 public:
  /// Device time per fsync (NVMe flush).
  static constexpr sim::Duration kSyncLatency = sim::Micros(80);

  /// Called once per group after the modeled sync delay: durably apply
  /// (and replicate) the combined batch. The trace is the first group
  /// member's.
  using SyncSink = std::function<sim::Task<Status>(
      coord::ShardId shard, storage::WriteBatch batch, obs::TraceContext trace)>;

  /// Groups hold at most `max_batch_bytes` (and at least one batch). A
  /// non-null `tracer` records each sampled member's "wal_sync" span.
  WalGroupCommitter(sim::Simulator* sim, SyncSink sink, size_t max_batch_bytes,
                    obs::Tracer* tracer = nullptr, uint32_t node_label = 0);

  /// Queues the batch on the shard's WAL device and completes when its
  /// group's sync (+ replication) resolves, with the group's status.
  sim::Task<Status> Commit(coord::ShardId shard, storage::WriteBatch batch,
                           obs::TraceContext trace);

  const storage::GroupCommitStats& stats() const { return stats_; }

 private:
  struct Pending {
    storage::WriteBatch batch;
    obs::TraceContext trace;
    std::shared_ptr<sim::OneShot<Status>> slot;
    void Resolve(const Status& status) { slot->Fulfill(status); }
  };

  /// Detached per-shard device loop; exits when the queue drains (so the
  /// simulator can always run to completion — no forever loop).
  sim::Task<void> FlushLoop(coord::ShardId shard);

  sim::Simulator* sim_;
  SyncSink sink_;
  size_t max_batch_bytes_;
  obs::Tracer* tracer_;
  uint32_t node_label_;
  std::unordered_map<coord::ShardId, std::deque<Pending>> queues_;
  std::unordered_set<coord::ShardId> flushing_;  // shards with a FlushLoop
  storage::GroupCommitStats stats_;
};

}  // namespace lo::cluster
