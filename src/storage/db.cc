#include "storage/db.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "storage/filename.h"

namespace lo::storage {
namespace {

/// log2 of the block cache's shard count: lanes reading concurrently
/// rarely serialize on one shard mutex.
constexpr int kBlockCacheShardBits = 4;

/// A compaction cuts its output into tables of at most this size
/// (LevelDB's max_file_size default). Tables use TableOptions' defaults,
/// which are LevelDB's too.
constexpr uint64_t kMaxOutputFileBytes = 2 << 20;

uint64_t SteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Keeps the memtable alive for as long as its iterator (a flush may
/// retire the memtable while a DB iterator still walks it).
class OwningMemIterator : public Iterator {
 public:
  explicit OwningMemIterator(std::shared_ptr<MemTable> mem)
      : mem_(std::move(mem)), iter_(mem_->NewIterator()) {}

  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void Seek(std::string_view target) override { iter_->Seek(target); }
  void Next() override { iter_->Next(); }
  std::string_view key() const override { return iter_->key(); }
  std::string_view value() const override { return iter_->value(); }
  Status status() const override { return iter_->status(); }

 private:
  std::shared_ptr<MemTable> mem_;
  std::unique_ptr<Iterator> iter_;
};

/// Keeps the Table shared_ptr alive for as long as its iterator.
class OwningTableIterator : public Iterator {
 public:
  explicit OwningTableIterator(std::shared_ptr<Table> table, bool fill_cache = true)
      : table_(std::move(table)), iter_(table_->NewIterator(fill_cache)) {}

  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void Seek(std::string_view target) override { iter_->Seek(target); }
  void Next() override { iter_->Next(); }
  std::string_view key() const override { return iter_->key(); }
  std::string_view value() const override { return iter_->value(); }
  Status status() const override { return iter_->status(); }

 private:
  std::shared_ptr<Table> table_;
  std::unique_ptr<Iterator> iter_;
};

/// Concatenation over the sorted, non-overlapping files of one level >= 1.
/// Holds every file's Table from construction on: NewIterator takes them
/// under the DB mutex, so a compaction that unlinks the files before the
/// iterator reaches them cannot fail it (an open Table keeps reading an
/// unlinked file).
class LevelIterator : public Iterator {
 public:
  struct File {
    std::string largest;  // internal key
    std::shared_ptr<Table> table;
  };
  explicit LevelIterator(std::vector<File> files) : files_(std::move(files)) {}

  bool Valid() const override { return current_ != nullptr && current_->Valid(); }

  void SeekToFirst() override {
    index_ = 0;
    OpenCurrent();
    if (current_ != nullptr) current_->SeekToFirst();
    SkipExhausted();
  }

  void Seek(std::string_view target) override {
    // First file whose largest key >= target.
    index_ = files_.size();
    for (size_t i = 0; i < files_.size(); i++) {
      if (icmp_.Compare(files_[i].largest, target) >= 0) {
        index_ = i;
        break;
      }
    }
    OpenCurrent();
    if (current_ != nullptr) current_->Seek(target);
    SkipExhausted();
  }

  void Next() override {
    current_->Next();
    SkipExhausted();
  }

  std::string_view key() const override { return current_->key(); }
  std::string_view value() const override { return current_->value(); }
  Status status() const override {
    return current_ != nullptr ? current_->status() : Status::OK();
  }

 private:
  void OpenCurrent() {
    current_.reset();
    if (index_ < files_.size()) current_ = files_[index_].table->NewIterator();
  }

  void SkipExhausted() {
    while (current_ != nullptr && !current_->Valid() && current_->status().ok()) {
      index_++;
      OpenCurrent();
      if (current_ != nullptr) current_->SeekToFirst();
    }
  }

  std::vector<File> files_;
  size_t index_ = 0;
  std::unique_ptr<Iterator> current_;
  InternalKeyComparator icmp_;
};

/// User-facing iterator: resolves versions and tombstones at a snapshot.
class DBIter : public Iterator {
 public:
  DBIter(std::unique_ptr<Iterator> internal, SequenceNumber sequence)
      : internal_(std::move(internal)), sequence_(sequence) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    internal_->SeekToFirst();
    FindNextUserEntry(/*skipping=*/false);
  }

  void Seek(std::string_view target) override {
    internal_->Seek(MakeInternalKey(target, sequence_, kValueTypeForSeek));
    FindNextUserEntry(/*skipping=*/false);
  }

  void Next() override {
    LO_CHECK(valid_);
    skip_key_ = key_;
    internal_->Next();
    FindNextUserEntry(/*skipping=*/true);
  }

  std::string_view key() const override { return key_; }
  std::string_view value() const override { return value_; }
  Status status() const override { return internal_->status(); }

 private:
  // Advances to the newest visible, non-deleted version of the next user
  // key. If `skipping`, entries equal to skip_key_ are passed over.
  void FindNextUserEntry(bool skipping) {
    valid_ = false;
    while (internal_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(internal_->key(), &parsed)) {
        internal_->Next();
        continue;
      }
      if (parsed.sequence > sequence_ ||
          (skipping && parsed.user_key == skip_key_)) {
        internal_->Next();
        continue;
      }
      if (parsed.type == ValueType::kDeletion) {
        // Tombstone shadows all older versions of this key.
        skip_key_.assign(parsed.user_key);
        skipping = true;
        internal_->Next();
        continue;
      }
      key_.assign(parsed.user_key);
      value_.assign(internal_->value());
      valid_ = true;
      return;
    }
  }

  std::unique_ptr<Iterator> internal_;
  SequenceNumber sequence_;
  bool valid_ = false;
  std::string key_;
  std::string value_;
  std::string skip_key_;
};

}  // namespace

DB::DB(Options options, std::string name)
    : options_(options),
      name_(std::move(name)),
      block_cache_(options.block_cache_bytes > 0
                       ? std::make_unique<Cache>(options.block_cache_bytes,
                                                 kBlockCacheShardBits)
                       : nullptr),
      table_cache_(options.env, name_, block_cache_.get()),
      versions_(std::make_unique<VersionSet>(options.env, name_, &table_cache_)) {}

DB::~DB() {
  if (bg_thread_.joinable()) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      bg_stop_ = true;
    }
    bg_work_cv_.notify_all();
    bg_thread_.join();
    // Unflushed imm contents are covered by their WALs (the log floor
    // never advanced past them), so recovery replays them on reopen.
  }
}

Result<std::unique_ptr<DB>> DB::Open(const Options& options, std::string name) {
  LO_CHECK_MSG(options.env != nullptr, "Options::env is required");
  std::unique_ptr<DB> db(new DB(options, std::move(name)));
  LO_RETURN_IF_ERROR(db->Initialize());
  return db;
}

Status DB::Initialize() {
  Env* env = options_.env;
  LO_RETURN_IF_ERROR(env->CreateDir(name_));
  mem_ = std::make_shared<MemTable>();

  // Resolve the L0 tier ladder. Each flush writes one L0 file, so the
  // auto trigger starts compaction after 4 flushes.
  int trigger = options_.l0_compaction_trigger > 0
                    ? options_.l0_compaction_trigger
                    : 4;
  versions_->SetL0CompactionTrigger(trigger);
  l0_slowdown_trigger_ = options_.l0_slowdown_trigger > 0
                             ? options_.l0_slowdown_trigger
                             : 2 * trigger;
  l0_stop_trigger_ =
      options_.l0_stop_trigger > 0 ? options_.l0_stop_trigger : 3 * trigger;

  if (env->FileExists(CurrentFileName(name_))) {
    stats_.recoveries++;
    LO_RETURN_IF_ERROR(versions_->Recover());
    if (versions_->recovered_torn_manifest_tail()) stats_.manifest_torn_tails++;
    // WAL files written after the last manifest record may carry numbers
    // the manifest never learned about; never reuse them.
    LO_ASSIGN_OR_RETURN(auto names, env->ListDir(name_));
    for (const auto& n : names) {
      uint64_t number = 0;
      if (ParseFileName(n, &number) != FileKind::kUnknown) {
        versions_->EnsureFileNumberAbove(number);
      }
    }
    LO_RETURN_IF_ERROR(versions_->WriteSnapshot());  // opens manifest writer
    LO_RETURN_IF_ERROR(RecoverWal());
  } else if (!options_.create_if_missing) {
    return Status::NotFound("db does not exist: " + name_);
  } else {
    LO_RETURN_IF_ERROR(versions_->WriteSnapshot());
  }
  LO_RETURN_IF_ERROR(NewWal());
  VersionEdit edit;
  edit.SetLogNumber(wal_number_);
  LO_RETURN_IF_ERROR(versions_->LogAndApply(&edit));
  LO_RETURN_IF_ERROR(DeleteObsoleteFiles());
  if (options_.serialize_access) {
    bg_thread_ = std::thread([this] { BackgroundLoop(); });
  }
  return Status::OK();
}

Status DB::RecoverWal() {
  Env* env = options_.env;
  LO_ASSIGN_OR_RETURN(auto names, env->ListDir(name_));
  std::vector<uint64_t> logs;
  for (const auto& n : names) {
    uint64_t number = 0;
    if (ParseFileName(n, &number) == FileKind::kWal &&
        number >= versions_->log_number()) {
      logs.push_back(number);
    }
  }
  std::sort(logs.begin(), logs.end());
  bool saw_torn_tail = false;
  for (uint64_t log : logs) {
    LO_ASSIGN_OR_RETURN(auto file, env->NewSequentialFile(WalFileName(name_, log)));
    wal::LogReader reader(std::move(file));
    std::string record;
    while (reader.ReadRecord(&record)) {
      if (saw_torn_tail) {
        // Records after a torn tail in an *earlier* log would replay
        // out of commit order. The log floor makes this unreachable
        // (a later log only gets records once a flush advanced the
        // floor past the earlier one), so reaching here means the
        // directory is inconsistent, not crashed.
        return Status::Corruption("WAL records follow a torn tail");
      }
      auto batch = WriteBatch::FromRep(record);
      if (!batch.ok()) {
        // CRC-valid but undecodable: torn writes never pass the
        // checksum, so this is real corruption, not a crash point.
        return Status::Corruption("undecodable WAL record in log " +
                                  std::to_string(log));
      }
      stats_.wal_records_replayed++;
      SequenceNumber base = batch->sequence();
      LO_RETURN_IF_ERROR(batch->InsertInto(base, mem_.get()));
      SequenceNumber last = base + batch->Count() - 1;
      if (last > versions_->last_sequence()) versions_->SetLastSequence(last);
      if (mem_->ApproximateMemoryUsage() > options_.write_buffer_size) {
        LO_RETURN_IF_ERROR(FlushMemTable());
      }
    }
    if (reader.hit_corruption()) {
      // A torn tail marks the crash point: the batch it held was never
      // acknowledged (AddRecord+Sync had not returned), so truncating
      // the replay here loses nothing that was committed.
      stats_.wal_torn_tails++;
      saw_torn_tail = true;
    }
  }
  if (mem_->entries() > 0) {
    LO_RETURN_IF_ERROR(FlushMemTable());
  }
  return Status::OK();
}

Status DB::NewWal() {
  wal_number_ = versions_->NewFileNumber();
  LO_ASSIGN_OR_RETURN(auto file,
                      options_.env->NewWritableFile(WalFileName(name_, wal_number_)));
  wal_ = std::make_unique<wal::Writer>(std::move(file));
  // Everything at or below wal_number_ - 1 is captured by SSTables after
  // the next flush; record the log floor now.
  return Status::OK();
}

Status DB::RotateWal() {
  if (mem_->entries() > 0) {
    if (options_.serialize_access) {
      // The memtable holds exactly the acknowledged prefix; hand it to
      // the maintenance thread (its WAL — the torn one — stays until
      // that flush lands, and a crash before then replays its intact
      // prefix).
      LO_RETURN_IF_ERROR(SwitchMemTable());
      bg_work_cv_.notify_one();
      return Status::OK();
    }
    // Inline maintenance: flushing persists the acknowledged prefix and
    // rotates to a fresh WAL.
    return FlushMemTable();
  }
  uint64_t old_wal = wal_number_;
  LO_RETURN_IF_ERROR(NewWal());
  if (imm_.empty()) {
    // With unflushed imms the log floor must stay at the oldest imm's
    // WAL; their flushes will advance it.
    VersionEdit edit;
    edit.SetLogNumber(wal_number_);
    LO_RETURN_IF_ERROR(versions_->LogAndApply(&edit));
  }
  // The abandoned WAL's tail may be torn; it backs no memtable entry.
  options_.env->DeleteFile(WalFileName(name_, old_wal)).ok();
  return Status::OK();
}

Status DB::Put(const WriteOptions& opts, std::string_view key, std::string_view value) {
  auto guard = Guard();
  stats_.puts++;
  WriteBatch batch;
  batch.Put(key, value);
  return WriteLocked(opts, &batch, guard);
}

Status DB::Delete(const WriteOptions& opts, std::string_view key) {
  auto guard = Guard();
  stats_.deletes++;
  WriteBatch batch;
  batch.Delete(key);
  return WriteLocked(opts, &batch, guard);
}

Status DB::Write(const WriteOptions& opts, WriteBatch* batch) {
  auto guard = Guard();
  return WriteLocked(opts, batch, guard);
}

Status DB::StallIfNeeded(std::unique_lock<std::mutex>& guard) {
  // Tier ladder (maintenance thread only):
  //   L0 < slowdown                  -> free flow
  //   slowdown <= L0 < stop          -> one delayed write (soft tier)
  //   L0 >= stop or imm backlog full -> block until maintenance catches up
  bool took_soft_delay = false;
  for (;;) {
    int l0 = versions_->NumLevelFiles(0);
    if (l0 >= l0_stop_trigger_ || imm_.size() >= 2) {
      // Maintenance failed, so waiting would not end: fail this write.
      if (!bg_error_.ok()) return TakeBackgroundError();
      stats_.stall_hard++;
      uint64_t start = SteadyMicros();
      bg_work_cv_.notify_one();
      bg_done_cv_.wait(guard);
      stats_.stall_us += SteadyMicros() - start;
      continue;  // re-evaluate from the top
    }
    if (!took_soft_delay && l0 >= l0_slowdown_trigger_) {
      // Cede the mutex for one bounded delay so compaction gains ground
      // gradually instead of every writer slamming into the hard stop.
      stats_.stall_soft++;
      took_soft_delay = true;
      uint64_t start = SteadyMicros();
      guard.unlock();
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.slowdown_delay_us));
      guard.lock();
      stats_.stall_us += SteadyMicros() - start;
      continue;  // state may have moved while unlocked
    }
    return Status::OK();
  }
}

Status DB::SwitchMemTable() {
  ImmMemTable imm;
  imm.mem = std::move(mem_);
  imm.wal_number = wal_number_;
  mem_ = std::make_shared<MemTable>();
  Status s = NewWal();
  if (!s.ok()) {
    // Roll back so the DB keeps accepting writes against the old state.
    mem_ = std::move(imm.mem);
    wal_number_ = imm.wal_number;
    return s;
  }
  imm_.push_back(std::move(imm));
  has_imm_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status DB::WriteLocked(const WriteOptions& opts, WriteBatch* batch,
                       std::unique_lock<std::mutex>& guard) {
  if (batch->Count() == 0) return Status::OK();
  if (options_.serialize_access) {
    LO_RETURN_IF_ERROR(StallIfNeeded(guard));
  }
  if (wal_failed_) {
    // The live WAL tail may be torn by the earlier failure; appending to
    // it would corrupt replay. Rotate first, fail the write if we can't.
    LO_RETURN_IF_ERROR(RotateWal());
    wal_failed_ = false;
    stats_.wal_rotations_after_error++;
  }
  SequenceNumber base = versions_->last_sequence() + 1;
  batch->SetSequence(base);
  Status wal_status = wal_->AddRecord(batch->rep());
  if (wal_status.ok() && opts.sync) {
    wal_status = wal_->Sync();
    if (wal_status.ok()) stats_.wal_syncs++;
  }
  if (!wal_status.ok()) {
    // Surface the failure to the commit caller — the batch is NOT
    // applied (not in the memtable), so the acknowledged state and the
    // recoverable state stay identical.
    stats_.wal_write_failures++;
    wal_failed_ = true;
    return wal_status;
  }
  LO_RETURN_IF_ERROR(batch->InsertInto(base, mem_.get()));
  versions_->SetLastSequence(base + batch->Count() - 1);
  if (mem_->ApproximateMemoryUsage() > options_.write_buffer_size) {
    if (options_.serialize_access) {
      // Hand the full memtable to the maintenance thread; the stall
      // tiers above bound how far writes can outrun it.
      LO_RETURN_IF_ERROR(SwitchMemTable());
      bg_work_cv_.notify_one();
    } else {
      write_trace_ = opts.trace;
      Status s = FlushMemTable();
      if (s.ok()) s = MaybeCompact();
      write_trace_ = {};
      LO_RETURN_IF_ERROR(s);
    }
  }
  return Status::OK();
}

Result<std::string> DB::Get(const ReadOptions& opts, std::string_view key) {
  auto guard = Guard();
  stats_.gets++;
  SequenceNumber seq =
      opts.snapshot != nullptr ? opts.snapshot->sequence() : versions_->last_sequence();

  std::string value;
  Status s;
  if (mem_->Get(key, seq, &value, &s)) {
    if (s.ok()) return value;
    return s;  // NotFound tombstone (or corruption)
  }
  // Unflushed imms, newest first (each one is older than the active
  // memtable but newer than anything on disk).
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {
    if (it->mem->Get(key, seq, &value, &s)) {
      if (s.ok()) return value;
      return s;
    }
  }

  std::string lookup = MakeInternalKey(key, seq, kValueTypeForSeek);
  // L0: newest file first; deeper levels: at most one candidate by range.
  for (int level = 0; level < kNumLevels; level++) {
    for (const auto& meta : versions_->files(level)) {
      if (key < ExtractUserKey(meta.smallest) || key > ExtractUserKey(meta.largest)) {
        continue;
      }
      LO_ASSIGN_OR_RETURN(auto table, table_cache_.Get(meta.number));
      bool found = false;
      bool deleted = false;
      LO_RETURN_IF_ERROR(table->InternalGet(
          lookup, [&](std::string_view ikey, std::string_view v) {
            ParsedInternalKey parsed;
            if (!ParseInternalKey(ikey, &parsed)) return;
            if (parsed.user_key != key) return;
            found = true;
            if (parsed.type == ValueType::kDeletion) {
              deleted = true;
            } else {
              value.assign(v);
            }
          }));
      if (found) {
        if (deleted) return Status::NotFound("");
        return value;
      }
    }
  }
  return Status::NotFound("");
}

std::unique_ptr<Iterator> DB::NewIterator(const ReadOptions& opts) {
  auto guard = Guard();
  SequenceNumber seq =
      opts.snapshot != nullptr ? opts.snapshot->sequence() : versions_->last_sequence();
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<OwningMemIterator>(mem_));
  for (const auto& imm : imm_) {
    children.push_back(std::make_unique<OwningMemIterator>(imm.mem));
  }
  for (const auto& meta : versions_->files(0)) {
    auto table = table_cache_.Get(meta.number);
    if (!table.ok()) return NewEmptyIterator(table.status());
    children.push_back(std::make_unique<OwningTableIterator>(std::move(table).value()));
  }
  for (int level = 1; level < kNumLevels; level++) {
    std::vector<LevelIterator::File> files;
    for (const auto& meta : versions_->files(level)) {
      auto table = table_cache_.Get(meta.number);
      if (!table.ok()) return NewEmptyIterator(table.status());
      files.push_back({meta.largest, std::move(table).value()});
    }
    if (!files.empty()) children.push_back(std::make_unique<LevelIterator>(std::move(files)));
  }
  auto merged = NewMergingIterator(icmp_, std::move(children));
  return std::make_unique<DBIter>(std::move(merged), seq);
}

const Snapshot* DB::GetSnapshot() {
  auto guard = Guard();
  auto* snapshot = new Snapshot(versions_->last_sequence());
  snapshots_.insert(snapshot->sequence());
  return snapshot;
}

void DB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  auto guard = Guard();
  auto it = snapshots_.find(snapshot->sequence());
  LO_CHECK_MSG(it != snapshots_.end(), "double snapshot release");
  snapshots_.erase(it);
  delete snapshot;
}

SequenceNumber DB::SmallestSnapshot() const {
  return snapshots_.empty() ? versions_->last_sequence() : *snapshots_.begin();
}

void DB::RecordInstantSpan(const char* name) {
  if (!obs::Tracing(options_.tracer, write_trace_) || !options_.clock) return;
  int64_t now = options_.clock();
  options_.tracer->RecordChild(write_trace_, name, options_.node_label, now, now);
}

Status DB::BuildL0File(const MemTable& mem, FileMetaData* meta) {
  meta->number = versions_->NewFileNumber();
  LO_ASSIGN_OR_RETURN(auto file,
                      options_.env->NewWritableFile(TableFileName(name_, meta->number)));
  TableBuilder builder(TableOptions{}, std::move(file));
  auto iter = mem.NewIterator();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (meta->smallest.empty()) meta->smallest.assign(iter->key());
    meta->largest.assign(iter->key());
    builder.Add(iter->key(), iter->value());
  }
  LO_RETURN_IF_ERROR(builder.Finish());
  meta->file_size = builder.file_size();
  return Status::OK();
}

Status DB::FlushMemTable() {
  if (mem_->entries() == 0) return Status::OK();
  stats_.flushes++;
  RecordInstantSpan("memtable_flush");
  FileMetaData meta;
  LO_RETURN_IF_ERROR(BuildL0File(*mem_, &meta));

  uint64_t old_wal = wal_number_;
  LO_RETURN_IF_ERROR(NewWal());
  VersionEdit edit;
  edit.AddFile(0, std::move(meta));
  edit.SetLogNumber(wal_number_);
  LO_RETURN_IF_ERROR(versions_->LogAndApply(&edit));
  mem_ = std::make_shared<MemTable>();
  // Best effort: the old log is below the floor recorded above, so
  // recovery ignores it and DeleteObsoleteFiles reaps a leftover.
  // Nothing user-visible depends on that succeeding — unlike the WAL and
  // manifest writes above, whose failures all propagate.
  options_.env->DeleteFile(WalFileName(name_, old_wal)).ok();
  return Status::OK();
}

Status DB::FlushOldestImm(std::unique_lock<std::mutex>& lock) {
  LO_CHECK(!imm_.empty());
  // The shared_ptr keeps the memtable alive while the lock is dropped;
  // it is immutable from the moment it left the write path.
  std::shared_ptr<MemTable> mem = imm_.front().mem;
  uint64_t imm_wal = imm_.front().wal_number;
  stats_.flushes++;

  lock.unlock();
  FileMetaData meta;
  Status build = BuildL0File(*mem, &meta);
  lock.lock();
  LO_RETURN_IF_ERROR(build);

  VersionEdit edit;
  edit.AddFile(0, std::move(meta));
  // The log floor advances to the next unflushed imm's WAL (everything
  // below it is now in L0), or to the live WAL when the queue drains.
  edit.SetLogNumber(imm_.size() > 1 ? imm_[1].wal_number : wal_number_);
  LO_RETURN_IF_ERROR(versions_->LogAndApply(&edit));
  imm_.pop_front();
  has_imm_.store(!imm_.empty(), std::memory_order_relaxed);
  // The WAL is the only file this flush retires. No DeleteObsoleteFiles
  // here: mid-compaction, the merge's finished outputs are in no version
  // yet. The next compaction, or the next Open, reaps any leftover.
  options_.env->DeleteFile(WalFileName(name_, imm_wal)).ok();
  return Status::OK();
}

Status DB::TakeBackgroundError() {
  Status s = std::move(bg_error_);
  bg_error_ = Status::OK();
  bg_work_cv_.notify_one();
  return s;
}

void DB::BackgroundLoop() {
  // SCHED_IDLE: maintenance runs only on CPU time no normal-priority
  // thread wants, and a waking lane, reactor or committer preempts it at
  // once. At normal priority a compaction now and then shares the lane's
  // CPU, so request latency would depend on when compactions run.
  // Writers that outrun a starved thread wait in the stall ladder, which
  // frees the CPU it needs. Best effort: on failure it keeps its priority.
  sched_param idle{};
  (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    bg_work_cv_.wait(lock, [this] {
      return bg_stop_ || (bg_error_.ok() &&
                          (!imm_.empty() || versions_->NeedsCompaction()));
    });
    if (bg_stop_) return;
    bg_busy_ = true;
    // Flushes before compactions: the imm backlog gates writers harder
    // (two pending imms is a hard stall) than L0 depth does.
    Status s = !imm_.empty() ? FlushOldestImm(lock)
                             : DoCompaction(versions_->PickCompaction(), &lock);
    bg_busy_ = false;
    if (!s.ok()) bg_error_ = s;
    bg_done_cv_.notify_all();
  }
}

Status DB::MaybeCompact() {
  while (versions_->NeedsCompaction()) {
    LO_RETURN_IF_ERROR(DoCompaction(versions_->PickCompaction(), nullptr));
  }
  return Status::OK();
}

Status DB::MergeInputs(const std::vector<FileMetaData>& input_metas,
                       SequenceNumber smallest_snapshot, int output_level,
                       std::unique_lock<std::mutex>* lock,
                       std::vector<FileMetaData>* outputs, uint64_t* bytes_written) {
  std::vector<std::unique_ptr<Iterator>> inputs;
  for (const auto& meta : input_metas) {
    LO_ASSIGN_OR_RETURN(auto table, table_cache_.Get(meta.number));
    // fill_cache=false: a compaction reads each input block exactly once;
    // inserting them would evict the read path's hot set for nothing.
    inputs.push_back(
        std::make_unique<OwningTableIterator>(std::move(table), /*fill_cache=*/false));
  }
  auto merged = NewMergingIterator(icmp_, std::move(inputs));
  merged->SeekToFirst();

  std::unique_ptr<TableBuilder> builder;
  FileMetaData out_meta;
  auto finish_output = [&]() -> Status {
    if (builder == nullptr) return Status::OK();
    LO_RETURN_IF_ERROR(builder->Finish());
    out_meta.file_size = builder->file_size();
    *bytes_written += out_meta.file_size;
    outputs->push_back(out_meta);
    builder.reset();
    return Status::OK();
  };

  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

  for (; merged->Valid(); merged->Next()) {
    if (lock != nullptr && has_imm_.load(std::memory_order_relaxed)) {
      // As LevelDB does: a memtable that filled during the merge is
      // flushed first, so a writer at the imm stop waits for one flush,
      // not for the rest of the compaction.
      lock->lock();
      Status flushed = FlushOldestImm(*lock);
      lock->unlock();
      bg_done_cv_.notify_all();
      LO_RETURN_IF_ERROR(flushed);
    }
    std::string_view ikey = merged->key();
    ParsedInternalKey parsed;
    bool drop = false;
    if (!ParseInternalKey(ikey, &parsed)) {
      // Keep unparseable entries verbatim; surface them to reads.
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
    } else {
      if (!has_current_user_key || parsed.user_key != current_user_key) {
        current_user_key.assign(parsed.user_key);
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }
      if (last_sequence_for_key <= smallest_snapshot) {
        // Shadowed by a newer entry that every snapshot already sees.
        drop = true;
      } else if (parsed.type == ValueType::kDeletion &&
                 parsed.sequence <= smallest_snapshot &&
                 versions_->IsBaseLevelForKey(output_level, parsed.user_key)) {
        // Tombstone with nothing underneath it to shadow.
        drop = true;
      }
      last_sequence_for_key = parsed.sequence;
    }
    if (drop) continue;
    if (builder == nullptr) {
      out_meta = FileMetaData{};
      out_meta.number = versions_->NewFileNumber();
      LO_ASSIGN_OR_RETURN(
          auto file, options_.env->NewWritableFile(TableFileName(name_, out_meta.number)));
      builder = std::make_unique<TableBuilder>(TableOptions{}, std::move(file));
      out_meta.smallest.assign(ikey);
    }
    out_meta.largest.assign(ikey);
    builder->Add(ikey, merged->value());
    if (builder->file_size() >= kMaxOutputFileBytes) {
      LO_RETURN_IF_ERROR(finish_output());
    }
  }
  LO_RETURN_IF_ERROR(merged->status());
  return finish_output();
}

Status DB::DoCompaction(const VersionSet::CompactionPick& pick,
                        std::unique_lock<std::mutex>* lock) {
  if (pick.level < 0) return Status::OK();
  stats_.compactions++;
  RecordInstantSpan("compaction");
  int output_level = pick.level + 1;
  SequenceNumber smallest_snapshot = SmallestSnapshot();

  std::vector<FileMetaData> input_metas;
  input_metas.reserve(pick.inputs.size() + pick.next_inputs.size());
  for (const auto& meta : pick.inputs) input_metas.push_back(meta);
  for (const auto& meta : pick.next_inputs) input_metas.push_back(meta);
  for (const auto& meta : input_metas) stats_.compaction_bytes_read += meta.file_size;

  // The merge reads versions_ and table_cache_ without the DB mutex;
  // safe because one thread runs all maintenance, so while it runs the
  // version changes only on this thread (the merge's own flushes).
  std::vector<FileMetaData> outputs;
  uint64_t bytes_written = 0;
  if (lock != nullptr) lock->unlock();
  Status s = MergeInputs(input_metas, smallest_snapshot, output_level, lock,
                         &outputs, &bytes_written);
  if (lock != nullptr) lock->lock();
  stats_.compaction_bytes_written += bytes_written;
  LO_RETURN_IF_ERROR(s);

  VersionEdit edit;
  for (auto& meta : outputs) edit.AddFile(output_level, std::move(meta));
  for (const auto& meta : pick.inputs) edit.DeleteFile(pick.level, meta.number);
  for (const auto& meta : pick.next_inputs) edit.DeleteFile(output_level, meta.number);
  LO_RETURN_IF_ERROR(versions_->LogAndApply(&edit));
  // The inputs are dead the moment the edit commits: evict them now so
  // they stop pinning open file handles and metadata blocks even if the
  // directory sweep below cannot delete them yet.
  for (const auto& meta : pick.inputs) table_cache_.Evict(meta.number);
  for (const auto& meta : pick.next_inputs) table_cache_.Evict(meta.number);
  return DeleteObsoleteFiles();
}

Status DB::DeleteObsoleteFiles() {
  Env* env = options_.env;
  auto live_vec = versions_->LiveFiles();
  std::set<uint64_t> live(live_vec.begin(), live_vec.end());
  LO_ASSIGN_OR_RETURN(auto names, env->ListDir(name_));
  for (const auto& n : names) {
    uint64_t number = 0;
    switch (ParseFileName(n, &number)) {
      case FileKind::kTable:
        if (!live.contains(number)) {
          table_cache_.Evict(number);
          env->DeleteFile(name_ + "/" + n).ok();
        }
        break;
      case FileKind::kWal: {
        // WALs backing unflushed imms are at or above the manifest log
        // floor, but guard explicitly anyway — losing one loses writes.
        bool backs_imm = false;
        for (const auto& imm : imm_) backs_imm |= (imm.wal_number == number);
        if (number < versions_->log_number() && number != wal_number_ && !backs_imm) {
          env->DeleteFile(name_ + "/" + n).ok();
        }
        break;
      }
      default:
        break;  // CURRENT, manifests, unknown: kept
    }
  }
  return Status::OK();
}

Status DB::CompactAll() {
  auto guard = Guard();
  if (options_.serialize_access) {
    // Hand the memtable to the maintenance thread and wait until it has
    // drained every imm and every pending compaction; from then on this
    // thread is the sole maintenance executor (the bg thread has nothing
    // left to pick up while we hold the mutex).
    if (mem_->entries() > 0) LO_RETURN_IF_ERROR(SwitchMemTable());
    bg_work_cv_.notify_all();
    bg_done_cv_.wait(guard, [this] {
      return !bg_error_.ok() ||
             (!bg_busy_ && imm_.empty() && !versions_->NeedsCompaction());
    });
    if (!bg_error_.ok()) return TakeBackgroundError();
  } else {
    LO_RETURN_IF_ERROR(FlushMemTable());
  }
  for (int level = 0; level < kNumLevels - 1; level++) {
    while (versions_->NumLevelFiles(level) > 0) {
      VersionSet::CompactionPick pick;
      pick.level = level;
      pick.inputs = versions_->files(level);
      std::string smallest, largest;
      for (const auto& f : pick.inputs) {
        if (smallest.empty() || icmp_.Compare(f.smallest, smallest) < 0) {
          smallest = f.smallest;
        }
        if (largest.empty() || icmp_.Compare(f.largest, largest) > 0) {
          largest = f.largest;
        }
      }
      pick.next_inputs = versions_->OverlappingFiles(
          level + 1, ExtractUserKey(smallest), ExtractUserKey(largest));
      LO_RETURN_IF_ERROR(DoCompaction(pick, nullptr));
    }
  }
  return Status::OK();
}

DB::Stats DB::GetStats() const {
  auto guard = Guard();
  Stats stats = stats_;
  if (block_cache_ != nullptr) {
    Cache::Stats cache = block_cache_->GetStats();
    stats.block_cache_hits = cache.hits;
    stats.block_cache_misses = cache.misses;
    stats.block_cache_evictions = cache.evictions;
    stats.block_cache_inserts = cache.inserts;
    stats.block_cache_bytes = cache.charge;
  }
  Cache::Stats tables = table_cache_.GetStats();
  stats.table_cache_hits = tables.hits;
  stats.table_cache_misses = tables.misses;
  for (int level = 0; level < kNumLevels; level++) {
    stats.files_per_level[level] = versions_->NumLevelFiles(level);
    stats.bytes_per_level[level] = versions_->LevelBytes(level);
  }
  stats.memtable_bytes = mem_->ApproximateMemoryUsage();
  for (const auto& imm : imm_) stats.memtable_bytes += imm.mem->ApproximateMemoryUsage();
  return stats;
}

}  // namespace lo::storage
