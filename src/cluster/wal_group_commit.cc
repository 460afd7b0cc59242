#include "cluster/wal_group_commit.h"

#include <utility>

namespace lo::cluster {

WalGroupCommitter::WalGroupCommitter(sim::Simulator* sim, SyncSink sink,
                                     size_t max_batch_bytes,
                                     obs::Tracer* tracer, uint32_t node_label)
    : sim_(sim),
      sink_(std::move(sink)),
      max_batch_bytes_(max_batch_bytes),
      tracer_(tracer),
      node_label_(node_label) {}

sim::Task<Status> WalGroupCommitter::Commit(coord::ShardId shard,
                                            storage::WriteBatch batch,
                                            obs::TraceContext trace) {
  if (batch.Count() == 0) co_return Status::OK();
  auto slot = std::make_shared<sim::OneShot<Status>>();
  queues_[shard].push_back(Pending{std::move(batch), trace, slot});
  if (flushing_.insert(shard).second) sim::Detach(FlushLoop(shard));
  co_return co_await slot->Wait();
}

sim::Task<void> WalGroupCommitter::FlushLoop(coord::ShardId shard) {
  std::deque<Pending>& queue = queues_[shard];
  while (!queue.empty()) {
    auto group =
        storage::CommitGroup<Pending>::Seal(&queue, max_batch_bytes_);

    // One device sync for the whole group. Commits arriving during the
    // sleep queue up behind the busy device — that backpressure is where
    // the next group comes from.
    sim::Time sync_started = sim_->Now();
    co_await sim_->Sleep(kSyncLatency);
    for (const Pending& p : group.members) {
      if (obs::Tracing(tracer_, p.trace)) {
        tracer_->RecordChild(p.trace, "wal_sync", node_label_, sync_started,
                             sim_->Now());
      }
    }
    Status status = co_await sink_(shard, std::move(group.combined),
                                   group.members.front().trace);
    // Resolving resumes the waiting invocations; any commit they submit
    // reentrantly lands back on the queue and keeps this loop alive.
    group.Resolve(status, &stats_);
  }
  flushing_.erase(shard);
}

}  // namespace lo::cluster
