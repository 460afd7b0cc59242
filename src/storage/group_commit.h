// WAL group commit: one grouping rule, two committers.
//
// Execution lanes commit concurrently, and each commit waits until its
// batch is durable (or failed). A committer coalesces every batch that
// queued while the previous sync was in flight into a single combined
// WriteBatch — one WAL append, one fsync — and propagates the resulting
// status to exactly the members of that group. A sync failure therefore
// fails precisely the commits whose bytes were at risk; later groups go
// through the DB's WAL-rotation recovery path untouched. Idempotency
// markers ride inside each member batch and are preserved verbatim by
// the coalescing (WriteBatch::Append concatenates records). Grouping
// comes purely from that backpressure (LevelDB's writer queue).
//
// CommitGroup::Seal and CommitGroup::Resolve are the rule, with no thread
// and no clock, so both stacks drive it: GroupCommitter below on a
// committer thread against a real DB, and cluster::WalGroupCommitter on
// the simulated node's modeled WAL device.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/db.h"
#include "storage/write_batch.h"

namespace lo::storage {

struct GroupCommitStats {
  uint64_t commits = 0;          // batches resolved through a group
  uint64_t groups = 0;           // group writes (== fsyncs while healthy)
  uint64_t coalesced_bytes = 0;  // payload bytes across all groups
  uint64_t max_group_commits = 0;
  uint64_t sync_failures = 0;    // groups whose write/sync failed
};

/// A sealed group. `Member` carries a `WriteBatch batch` and a
/// `void Resolve(const Status&)` that releases its waiter.
template <typename Member>
struct CommitGroup {
  std::vector<Member> members;  // arrival order
  WriteBatch combined;          // the members' records, in that order
  size_t bytes = 0;             // the members' batch sizes, summed

  /// Seals the next group off the front of a non-empty `queue`: members
  /// in arrival order up to `max_group_bytes`, always at least one so an
  /// oversized single batch still commits.
  static CommitGroup Seal(std::deque<Member>* queue, size_t max_group_bytes) {
    CommitGroup group;
    do {
      group.bytes += queue->front().batch.ByteSize();
      group.combined.Append(queue->front().batch);
      group.members.push_back(std::move(queue->front()));
      queue->pop_front();
    } while (!queue->empty() &&
             group.bytes + queue->front().batch.ByteSize() <= max_group_bytes);
    return group;
  }

  /// Counts the group into `stats`, then resolves every member.
  void Resolve(const Status& status, GroupCommitStats* stats) {
    stats->commits += members.size();
    stats->groups += 1;
    stats->coalesced_bytes += bytes;
    stats->max_group_commits =
        std::max<uint64_t>(stats->max_group_commits, members.size());
    if (!status.ok()) stats->sync_failures += 1;
    for (Member& member : members) member.Resolve(status);
  }
};

/// A group is sealed once its combined payload reaches this size (the
/// default of the sim node's gc_max_batch_bytes, which A8 sweeps).
inline constexpr size_t kMaxCommitGroupBytes = 1 << 20;

struct GroupCommitterOptions {
  /// Invoked on the committer thread after each group's DB::Write
  /// succeeds, with the group's commit sequence (1, 2, ...) and the
  /// combined batch — *before* the group's waiters are released, so by
  /// the time a Commit() caller observes its ack, every listener has
  /// seen the batch (replication shipping hooks here). Runs unlocked;
  /// must not re-enter the committer.
  std::function<void(uint64_t seq, const WriteBatch& batch)> on_commit;
};

/// The DB must be opened with Options::serialize_access so the committer
/// thread and concurrent readers can share it.
class GroupCommitter {
 public:
  /// `db` is not owned and must outlive this committer.
  explicit GroupCommitter(DB* db, GroupCommitterOptions options = {});
  /// Drains every commit already queued, then joins. Commits submitted
  /// after shutdown begins fail with Unavailable.
  ~GroupCommitter();

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Thread-safe. Blocks until the batch is durable in the WAL (shared
  /// fsync) or its group's write failed. Empty batches return OK
  /// immediately.
  Status Commit(WriteBatch batch);

  /// Blocks until every commit submitted before this call has resolved.
  void Drain();

  using Stats = GroupCommitStats;
  Stats stats() const;

 private:
  struct Pending {
    WriteBatch batch;
    std::optional<Status>* result;  // on the Commit() caller's stack
    void Resolve(const Status& status) { *result = status; }
  };

  void CommitterLoop();

  DB* db_;
  GroupCommitterOptions options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // committer: queue became non-empty
  std::condition_variable done_cv_;  // waiters: some group resolved
  std::deque<Pending> queue_;
  uint64_t in_flight_ = 0;  // members taken off the queue, not yet resolved
  uint64_t commit_seq_ = 0;  // committer-thread-only: groups written so far
  bool stop_ = false;
  Stats stats_;
  std::thread committer_;  // last member: started after everything above
};

}  // namespace lo::storage
