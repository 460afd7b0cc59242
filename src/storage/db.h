// MiniLSM public API — the persistence substrate of LambdaStore (the
// paper uses LevelDB in this role).
//
// Two modes, chosen by Options::serialize_access:
//   - Off (every sim node): single-threaded. The simulator serializes all
//     access on a node, and flushes and compactions run synchronously and
//     deterministically inside the write that fills the memtable.
//   - On (lambdastore-server, perfbench's embedded stack, every
//     real-threaded test and bench): an internal mutex guards every public
//     entry point so real threads (the execution lane, the group-commit
//     thread) can share one DB, and flushes and compactions run on the
//     DB's own maintenance thread, as LevelDB's do, at idle CPU priority
//     (SCHED_IDLE) so they yield the CPU to every other thread. A commit
//     only appends to the WAL and inserts into the memtable; it waits for
//     maintenance only when the soft-slowdown / hard-stop ladder engages
//     (see docs/minilsm.md "Maintenance: inline or background").
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "storage/dbformat.h"
#include "storage/env.h"
#include "storage/iterator.h"
#include "storage/memtable.h"
#include "storage/version.h"
#include "storage/write_batch.h"

namespace lo::storage {

struct Options {
  Env* env = nullptr;  // required; not owned
  /// Memtable size that triggers a flush to L0.
  size_t write_buffer_size = 1 << 20;
  /// SSTable block cache (sharded LRU, charge = block bytes), shared by
  /// every table of this DB. Point reads and iterator seeks consult it
  /// before touching the Env; compaction reads bypass *insertion* so bulk
  /// scans don't flush the hot set. 0 disables caching entirely.
  size_t block_cache_bytes = 8 << 20;
  /// If false, Open fails when the DB does not exist yet.
  bool create_if_missing = true;
  /// Guards every public DB entry point with an internal mutex so real
  /// threads (the execution lane + the group-commit thread) can share one
  /// DB, and runs flushes and compactions on a maintenance thread instead
  /// of inline in the write path. Off by default: simulated nodes are
  /// single-threaded, skip the locking and keep maintenance inline and
  /// deterministic.
  bool serialize_access = false;
  /// L0 file count where compaction starts. 0 = auto: 4 (each flush
  /// writes one L0 file).
  int l0_compaction_trigger = 0;
  /// L0 file count where writes start taking one soft-slowdown delay
  /// each, giving compaction room before the hard stop. 0 = auto (2x the
  /// compaction trigger). Only meaningful with serialize_access.
  int l0_slowdown_trigger = 0;
  /// L0 file count where writes block until compaction catches up.
  /// 0 = auto (3x the compaction trigger).
  int l0_stop_trigger = 0;
  /// Delay one write takes when the soft-slowdown tier is engaged.
  uint64_t slowdown_delay_us = 1000;
  /// Records instant memtable_flush / compaction spans; nullptr disables.
  obs::Tracer* tracer = nullptr;
  /// Clock for span timestamps (storage has no sim dependency, so the
  /// owning node injects `[&sim]{ return sim.Now(); }`). Required if
  /// `tracer` is set.
  std::function<int64_t()> clock;
  /// Node label stamped on recorded spans.
  uint32_t node_label = 0;
};

/// A read view at a fixed sequence number. Obtained from DB::GetSnapshot.
class Snapshot {
 public:
  SequenceNumber sequence() const { return sequence_; }

 private:
  friend class DB;
  explicit Snapshot(SequenceNumber seq) : sequence_(seq) {}
  SequenceNumber sequence_;
};

struct ReadOptions {
  /// nullptr reads the latest committed state.
  const Snapshot* snapshot = nullptr;
};

struct WriteOptions {
  /// Sync the WAL before acknowledging (durability barrier).
  bool sync = true;
  /// Sampled trace context; flush/compaction spans triggered by this
  /// write are parented under it.
  obs::TraceContext trace{};
};

class DB {
 public:
  /// Opens (and if needed creates) the database under `name`, replaying
  /// any WAL left by a crash.
  static Result<std::unique_ptr<DB>> Open(const Options& options, std::string name);

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;
  ~DB();

  Status Put(const WriteOptions& opts, std::string_view key, std::string_view value);
  Status Delete(const WriteOptions& opts, std::string_view key);
  /// Atomically applies the batch; stamps its sequence number.
  Status Write(const WriteOptions& opts, WriteBatch* batch);

  /// Returns NotFound for missing or deleted keys.
  Result<std::string> Get(const ReadOptions& opts, std::string_view key);

  /// Forward iterator over live user keys/values at the read snapshot.
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& opts);

  /// Pins the current state; must be released.
  const Snapshot* GetSnapshot();
  void ReleaseSnapshot(const Snapshot* snapshot);

  /// Flushes the memtable and fully compacts every level (tests/tools).
  Status CompactAll();

  SequenceNumber LastSequence() const {
    auto guard = Guard();
    return versions_->last_sequence();
  }

  struct Stats {
    uint64_t puts = 0;
    uint64_t deletes = 0;
    uint64_t gets = 0;
    uint64_t wal_syncs = 0;
    uint64_t flushes = 0;
    uint64_t compactions = 0;
    uint64_t compaction_bytes_read = 0;
    uint64_t compaction_bytes_written = 0;
    // Recovery phases (DB::Open on an existing directory) and write-path
    // fault handling — the obs registry exports these so degraded-mode
    // runs are diagnosable.
    uint64_t recoveries = 0;
    uint64_t wal_records_replayed = 0;
    uint64_t wal_torn_tails = 0;
    uint64_t manifest_torn_tails = 0;
    uint64_t wal_write_failures = 0;
    uint64_t wal_rotations_after_error = 0;
    // Read-path caches (block cache counters are cumulative; bytes is the
    // attached charge at snapshot time).
    uint64_t block_cache_hits = 0;
    uint64_t block_cache_misses = 0;
    uint64_t block_cache_evictions = 0;
    uint64_t block_cache_inserts = 0;
    uint64_t block_cache_bytes = 0;
    uint64_t table_cache_hits = 0;
    uint64_t table_cache_misses = 0;
    // Write-path shaping (serialize_access mode).
    uint64_t stall_soft = 0;      // writes that took a soft-slowdown delay
    uint64_t stall_hard = 0;      // writes that hit the hard L0/imm stop
    uint64_t stall_us = 0;        // total stalled microseconds
    int files_per_level[kNumLevels] = {};
    uint64_t bytes_per_level[kNumLevels] = {};
    size_t memtable_bytes = 0;
  };
  Stats GetStats() const;

 private:
  DB(Options options, std::string name);

  /// Serialization of real-threaded callers (no-op unless
  /// Options::serialize_access): every public entry point takes this
  /// before touching DB state.
  std::unique_lock<std::mutex> Guard() const {
    return options_.serialize_access ? std::unique_lock<std::mutex>(mu_)
                                     : std::unique_lock<std::mutex>();
  }

  /// Write body; the caller holds `guard` (Put/Delete funnel here). The
  /// guard is threaded through so the stall tiers can drop the mutex
  /// while a write waits for background maintenance.
  Status WriteLocked(const WriteOptions& opts, WriteBatch* batch,
                     std::unique_lock<std::mutex>& guard);
  /// Applies the L0 stall tiers (serialize_access only): one soft-
  /// slowdown delay per write past the slowdown trigger, blocking wait
  /// past the stop trigger or when the imm backlog is full.
  Status StallIfNeeded(std::unique_lock<std::mutex>& guard);
  /// Returns and clears bg_error_, waking the maintenance thread to retry
  /// the unit that failed. A failure parks that thread until a stalled
  /// write or CompactAll takes it, so a failing env fails writes instead
  /// of blocking them, and a transient one heals on the next retry.
  Status TakeBackgroundError();

  Status Initialize();
  Status RecoverWal();
  Status NewWal();
  /// Abandons a WAL whose tail may be torn (a failed Append/Sync):
  /// flushes the memtable — whose contents are exactly the acknowledged
  /// prefix — and rotates to a fresh log, restoring the invariant that
  /// the live WAL tail is well-formed.
  Status RotateWal();
  /// Moves the active memtable onto the imm queue (with the WAL that
  /// covers it) and opens a fresh WAL. Maintenance-thread mode only.
  Status SwitchMemTable();
  /// Builds one L0 table from `mem`. Called inline (recovery, sim mode)
  /// or from the maintenance thread with the mutex released;
  /// touches only thread-safe state (env, table builder, atomic file
  /// numbers).
  Status BuildL0File(const MemTable& mem, FileMetaData* meta);
  /// Inline flush of the active memtable (sim mode / recovery / tools).
  Status FlushMemTable();
  /// Flushes imm_.front() from the maintenance thread, dropping `lock`
  /// during the build.
  Status FlushOldestImm(std::unique_lock<std::mutex>& lock);
  Status MaybeCompact();
  /// Zero-duration span under the write that triggered the maintenance.
  void RecordInstantSpan(const char* name);
  /// Runs one compaction. `lock` is non-null on the maintenance thread,
  /// which releases it during the merge so commits keep flowing; inline
  /// callers pass nullptr and keep the DB mutex the whole time.
  Status DoCompaction(const VersionSet::CompactionPick& pick,
                      std::unique_lock<std::mutex>* lock);
  /// The compaction's merge: writes the live entries of the input files
  /// into output tables of at most kMaxOutputFileBytes each. Reads only
  /// immutable inputs and thread-safe state (env, table cache, atomic
  /// file numbers), so the maintenance thread runs it with the mutex
  /// released; it then passes the released `lock`, and the merge stops
  /// to flush any memtable queued meanwhile. Inline callers pass nullptr.
  Status MergeInputs(const std::vector<FileMetaData>& input_metas,
                     SequenceNumber smallest_snapshot, int output_level,
                     std::unique_lock<std::mutex>* lock,
                     std::vector<FileMetaData>* outputs, uint64_t* bytes_written);
  void BackgroundLoop();
  Status DeleteObsoleteFiles();
  SequenceNumber SmallestSnapshot() const;

  Options options_;
  std::string name_;
  mutable std::mutex mu_;  // taken only when options_.serialize_access
  /// Declared before table_cache_: tables hold a raw pointer into it.
  std::unique_ptr<Cache> block_cache_;
  TableCache table_cache_;
  std::unique_ptr<VersionSet> versions_;
  /// shared_ptr: open DB iterators keep their memtable snapshot alive
  /// after a flush retires it (same pattern as Table ownership).
  std::shared_ptr<MemTable> mem_;
  /// Immutable memtables awaiting background flush, oldest first, each
  /// with the WAL that covers it (the manifest log floor stays at the
  /// oldest entry's WAL until it flushes).
  struct ImmMemTable {
    std::shared_ptr<MemTable> mem;
    uint64_t wal_number = 0;
  };
  std::deque<ImmMemTable> imm_;
  /// !imm_.empty(), readable without the mutex by the merge.
  std::atomic<bool> has_imm_{false};
  std::unique_ptr<wal::Writer> wal_;
  uint64_t wal_number_ = 0;
  /// Set when a WAL append/sync failed; the next write rotates the WAL
  /// before proceeding (the torn tail must never be appended to).
  bool wal_failed_ = false;
  // Effective (resolved) knobs.
  int l0_slowdown_trigger_ = 0;
  int l0_stop_trigger_ = 0;
  // Maintenance thread state (all guarded by mu_).
  std::thread bg_thread_;
  std::condition_variable bg_work_cv_;  // maintenance thread: work arrived
  std::condition_variable bg_done_cv_;  // writers/CompactAll: progress made
  bool bg_stop_ = false;
  bool bg_busy_ = false;  // maintenance thread is mid-unit (lock dropped)
  Status bg_error_;       // last failed unit, until TakeBackgroundError
  std::multiset<SequenceNumber> snapshots_;
  InternalKeyComparator icmp_;
  /// Trace context of the write currently being applied (empty outside
  /// Write); flushes/compactions it triggers parent their spans here.
  obs::TraceContext write_trace_;

  mutable Stats stats_;
};

}  // namespace lo::storage
