// Version management: which SSTables exist at which level, persisted as a
// log of VersionEdits in the MANIFEST. There is one live version, changed
// only under the DB's mutex (or by the single-threaded sim DB); open
// iterators stay valid because DB::NewIterator takes every Table they may
// read (shared_ptr-owned), and an open Table keeps reading its file after
// a compaction unlinks it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/cache.h"
#include "storage/dbformat.h"
#include "storage/env.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace lo::storage {

constexpr int kNumLevels = 5;

struct FileMetaData {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest;  // internal keys
  std::string largest;
};

/// A delta against the current version, logged to the MANIFEST.
class VersionEdit {
 public:
  void SetLogNumber(uint64_t n) { log_number_ = n; }
  void SetNextFileNumber(uint64_t n) { next_file_number_ = n; }
  void SetLastSequence(SequenceNumber s) { last_sequence_ = s; }
  void AddFile(int level, FileMetaData meta) {
    new_files_.emplace_back(level, std::move(meta));
  }
  void DeleteFile(int level, uint64_t number) {
    deleted_files_.emplace_back(level, number);
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(std::string_view src);

  const std::optional<uint64_t>& log_number() const { return log_number_; }
  const std::optional<uint64_t>& next_file_number() const { return next_file_number_; }
  const std::optional<SequenceNumber>& last_sequence() const { return last_sequence_; }
  const std::vector<std::pair<int, FileMetaData>>& new_files() const { return new_files_; }
  const std::vector<std::pair<int, uint64_t>>& deleted_files() const { return deleted_files_; }

 private:
  std::optional<uint64_t> log_number_;
  std::optional<uint64_t> next_file_number_;
  std::optional<SequenceNumber> last_sequence_;
  std::vector<std::pair<int, FileMetaData>> new_files_;
  std::vector<std::pair<int, uint64_t>> deleted_files_;
};

/// Opens Tables by file number, memoized on the shared LRU core (hash
/// lookup + handle lifetime instead of the old O(n) vector scan). Each
/// cached Table pins its index/filter blocks for as long as it stays in
/// the cache; open iterators keep their Table alive via shared_ptr even
/// after eviction.
class TableCache {
 public:
  /// `block_cache` (nullable, not owned) is handed to every Table opened
  /// through this cache; tables key their blocks by file number.
  TableCache(Env* env, std::string dbname, Cache* block_cache = nullptr,
             size_t capacity = 64);

  Result<std::shared_ptr<Table>> Get(uint64_t file_number);
  /// Drops the table (compaction-input deletion must call this so dead
  /// files don't pin open file handles and metadata blocks).
  void Evict(uint64_t file_number);

  Cache::Stats GetStats() const { return cache_.GetStats(); }

 private:
  Env* env_;
  std::string dbname_;
  Cache* block_cache_;
  // Key: fixed64 file number. Value: heap shared_ptr<Table>; charge 1 per
  // entry, so `capacity` counts open tables.
  Cache cache_;
};

/// The current file layout plus manifest persistence.
class VersionSet {
 public:
  VersionSet(Env* env, std::string dbname, TableCache* table_cache);

  /// Loads CURRENT + MANIFEST. Returns NotFound if no CURRENT exists
  /// (fresh database).
  Status Recover();
  /// Writes a fresh manifest describing the current state and points
  /// CURRENT at it. Used on create and after recovery.
  Status WriteSnapshot();
  /// Applies the edit in memory and appends it to the manifest (synced).
  Status LogAndApply(VersionEdit* edit);

  /// Lock-free: the maintenance thread allocates output file numbers
  /// without holding the DB mutex.
  uint64_t NewFileNumber() {
    return next_file_number_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Guarantees future NewFileNumber() results exceed n (recovery may
  /// find files newer than the last manifest record).
  void EnsureFileNumberAbove(uint64_t n) {
    uint64_t cur = next_file_number_.load(std::memory_order_relaxed);
    while (cur <= n && !next_file_number_.compare_exchange_weak(
                           cur, n + 1, std::memory_order_relaxed)) {
    }
  }
  uint64_t log_number() const { return log_number_; }
  SequenceNumber last_sequence() const { return last_sequence_; }
  void SetLastSequence(SequenceNumber s) { last_sequence_ = s; }

  const std::vector<FileMetaData>& files(int level) const { return files_[level]; }
  int NumLevelFiles(int level) const { return static_cast<int>(files_[level].size()); }
  uint64_t LevelBytes(int level) const;
  uint64_t TotalTableBytes() const;

  /// Files in `level` whose user-key range intersects [begin, end].
  std::vector<FileMetaData> OverlappingFiles(int level, std::string_view begin,
                                             std::string_view end) const;

  /// True if no file in levels > `level` can contain user_key (safe to
  /// drop tombstones when compacting into `level`).
  bool IsBaseLevelForKey(int level, std::string_view user_key) const;

  struct CompactionPick {
    int level = -1;  // -1: nothing to do
    std::vector<FileMetaData> inputs;       // from `level`
    std::vector<FileMetaData> next_inputs;  // from `level + 1`
  };
  /// Chooses the most urgent compaction, or level = -1.
  CompactionPick PickCompaction() const;
  bool NeedsCompaction() const;

  /// L0 file count that makes the L0 compaction score reach 1.0. The DB
  /// sets this from Options::l0_compaction_trigger.
  void SetL0CompactionTrigger(int files);
  int l0_compaction_trigger() const { return l0_compaction_trigger_; }

  /// All live table numbers (for orphan cleanup on recovery).
  std::vector<uint64_t> LiveFiles() const;

  /// True if the last Recover() discarded a torn manifest tail — the
  /// expected shape of a crash during LogAndApply (the half-appended
  /// record was never synced, so its edit was never acknowledged).
  bool recovered_torn_manifest_tail() const { return torn_manifest_tail_; }

 private:
  void Apply(const VersionEdit& edit);
  double CompactionScore(int level) const;
  uint64_t MaxBytesForLevel(int level) const;

  Env* env_;
  std::string dbname_;
  TableCache* table_cache_;
  InternalKeyComparator icmp_;

  std::vector<FileMetaData> files_[kNumLevels];
  // Atomic so compaction workers can mint file numbers off-mutex; 1 is
  // reserved for the first manifest.
  std::atomic<uint64_t> next_file_number_{2};
  int l0_compaction_trigger_ = 4;
  uint64_t manifest_number_ = 1;
  uint64_t log_number_ = 0;
  SequenceNumber last_sequence_ = 0;
  bool torn_manifest_tail_ = false;
  std::unique_ptr<wal::Writer> manifest_;
};

}  // namespace lo::storage
