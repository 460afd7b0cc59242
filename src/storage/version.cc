#include "storage/version.h"

#include <algorithm>

#include "common/coding.h"
#include "common/log.h"
#include "storage/filename.h"

namespace lo::storage {
namespace {

enum EditTag : uint32_t {
  kLogNumber = 1,
  kNextFileNumber = 2,
  kLastSequence = 3,
  kNewFile = 4,
  kDeletedFile = 5,
};

}  // namespace

// ------------------------------------------------------------ VersionEdit

void VersionEdit::EncodeTo(std::string* dst) const {
  if (log_number_) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, *log_number_);
  }
  if (next_file_number_) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, *next_file_number_);
  }
  if (last_sequence_) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, *last_sequence_);
  }
  for (const auto& [level, number] : deleted_files_) {
    PutVarint32(dst, kDeletedFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, number);
  }
  for (const auto& [level, meta] : new_files_) {
    PutVarint32(dst, kNewFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, meta.number);
    PutVarint64(dst, meta.file_size);
    PutLengthPrefixed(dst, meta.smallest);
    PutLengthPrefixed(dst, meta.largest);
  }
}

Status VersionEdit::DecodeFrom(std::string_view src) {
  Reader reader{src};
  while (!reader.empty()) {
    uint32_t tag = 0;
    if (!reader.GetVarint32(&tag)) return Status::Corruption("bad edit tag");
    uint64_t number = 0;
    uint32_t level = 0;
    switch (tag) {
      case kLogNumber:
        if (!reader.GetVarint64(&number)) return Status::Corruption("bad log number");
        log_number_ = number;
        break;
      case kNextFileNumber:
        if (!reader.GetVarint64(&number)) return Status::Corruption("bad next file");
        next_file_number_ = number;
        break;
      case kLastSequence:
        if (!reader.GetVarint64(&number)) return Status::Corruption("bad last seq");
        last_sequence_ = number;
        break;
      case kDeletedFile:
        if (!reader.GetVarint32(&level) || !reader.GetVarint64(&number)) {
          return Status::Corruption("bad deleted file");
        }
        deleted_files_.emplace_back(static_cast<int>(level), number);
        break;
      case kNewFile: {
        FileMetaData meta;
        std::string_view smallest, largest;
        if (!reader.GetVarint32(&level) || !reader.GetVarint64(&meta.number) ||
            !reader.GetVarint64(&meta.file_size) ||
            !reader.GetLengthPrefixed(&smallest) ||
            !reader.GetLengthPrefixed(&largest)) {
          return Status::Corruption("bad new file");
        }
        meta.smallest.assign(smallest);
        meta.largest.assign(largest);
        new_files_.emplace_back(static_cast<int>(level), std::move(meta));
        break;
      }
      default:
        return Status::Corruption("unknown edit tag");
    }
  }
  return Status::OK();
}

// -------------------------------------------------------------- TableCache

namespace {

std::string TableCacheKey(uint64_t file_number) {
  std::string key;
  key.reserve(8);
  PutFixed64(&key, file_number);
  return key;
}

void DeleteCachedTable(std::string_view, void* value) {
  delete static_cast<std::shared_ptr<Table>*>(value);
}

}  // namespace

TableCache::TableCache(Env* env, std::string dbname, Cache* block_cache,
                       size_t capacity)
    : env_(env),
      dbname_(std::move(dbname)),
      block_cache_(block_cache),
      // One shard: a table open touches the Env anyway, and per-DB open
      // tables are few enough that lock contention is not the issue here.
      cache_(capacity, /*shard_bits=*/0) {}

Result<std::shared_ptr<Table>> TableCache::Get(uint64_t file_number) {
  std::string key = TableCacheKey(file_number);
  if (Cache::Handle* handle = cache_.Lookup(key)) {
    auto table = *static_cast<std::shared_ptr<Table>*>(Cache::Value(handle));
    cache_.Release(handle);
    return table;
  }
  LO_ASSIGN_OR_RETURN(auto file,
                      env_->NewRandomAccessFile(TableFileName(dbname_, file_number)));
  LO_ASSIGN_OR_RETURN(auto table,
                      Table::Open(std::shared_ptr<RandomAccessFile>(std::move(file)),
                                  block_cache_, file_number));
  cache_.Release(cache_.Insert(key, new std::shared_ptr<Table>(table), 1,
                               &DeleteCachedTable));
  return table;
}

void TableCache::Evict(uint64_t file_number) {
  cache_.Erase(TableCacheKey(file_number));
}

// --------------------------------------------------------------- VersionSet

VersionSet::VersionSet(Env* env, std::string dbname, TableCache* table_cache)
    : env_(env), dbname_(std::move(dbname)), table_cache_(table_cache) {}

void VersionSet::Apply(const VersionEdit& edit) {
  if (edit.log_number()) log_number_ = *edit.log_number();
  // Never rewind: the maintenance thread mints numbers off-mutex, so one
  // may have gone out after LogAndApply stamped this edit.
  if (edit.next_file_number()) EnsureFileNumberAbove(*edit.next_file_number() - 1);
  if (edit.last_sequence()) last_sequence_ = *edit.last_sequence();
  for (const auto& [level, number] : edit.deleted_files()) {
    auto& files = files_[level];
    std::erase_if(files, [n = number](const FileMetaData& f) { return f.number == n; });
  }
  bool grew[kNumLevels] = {};
  for (const auto& [level, meta] : edit.new_files()) {
    LO_CHECK(level >= 0 && level < kNumLevels);
    files_[level].push_back(meta);
    grew[level] = true;
  }
  // L0 newest-first (file number descending); deeper levels by key. Only
  // levels that gained a file are re-sorted: std::sort moves elements even
  // of sorted input, and a compaction's merge reads the deeper levels off
  // the mutex while a commit may log a WAL rotation.
  if (grew[0]) {
    std::sort(files_[0].begin(), files_[0].end(),
              [](const FileMetaData& a, const FileMetaData& b) {
                return a.number > b.number;
              });
  }
  for (int level = 1; level < kNumLevels; level++) {
    if (!grew[level]) continue;
    std::sort(files_[level].begin(), files_[level].end(),
              [this](const FileMetaData& a, const FileMetaData& b) {
                return icmp_.Compare(a.smallest, b.smallest) < 0;
              });
  }
}

Status VersionSet::Recover() {
  LO_ASSIGN_OR_RETURN(std::string current,
                      env_->ReadFileToString(CurrentFileName(dbname_)));
  while (!current.empty() && current.back() == '\n') current.pop_back();
  std::string manifest_path = dbname_ + "/" + current;
  LO_ASSIGN_OR_RETURN(auto file, env_->NewSequentialFile(manifest_path));
  wal::LogReader reader(std::move(file));
  std::string record;
  while (reader.ReadRecord(&record)) {
    VersionEdit edit;
    // A CRC-valid record that does not decode is real corruption (torn
    // writes never pass the checksum), so DecodeFrom errors propagate.
    LO_RETURN_IF_ERROR(edit.DecodeFrom(record));
    Apply(edit);
  }
  if (reader.hit_corruption()) {
    // Torn tail: the crash hit mid-LogAndApply. Every applied edit was
    // synced before being acknowledged, so the prefix is consistent —
    // keep it. The lost edit is re-derived on recovery: the WAL holding
    // its data is only deleted *after* LogAndApply succeeds, so replay
    // regenerates the flush the torn record described.
    torn_manifest_tail_ = true;
  }
  // Reconcile: every table the recovered version references must exist.
  // Tables are synced before the manifest records them, so a missing
  // file cannot be a crash artifact — it is real corruption.
  for (int level = 0; level < kNumLevels; level++) {
    for (const auto& meta : files_[level]) {
      if (!env_->FileExists(TableFileName(dbname_, meta.number))) {
        return Status::Corruption("manifest references missing table " +
                                  std::to_string(meta.number));
      }
    }
  }
  uint64_t current_manifest = 0;
  ParseFileName(current, &current_manifest);
  manifest_number_ = std::max(manifest_number_, current_manifest);
  if (next_file_number_ <= manifest_number_) next_file_number_ = manifest_number_ + 1;
  return Status::OK();
}

Status VersionSet::WriteSnapshot() {
  manifest_number_ = next_file_number_++;
  std::string path = ManifestFileName(dbname_, manifest_number_);
  LO_ASSIGN_OR_RETURN(auto file, env_->NewWritableFile(path));
  manifest_ = std::make_unique<wal::Writer>(std::move(file));

  VersionEdit snapshot;
  snapshot.SetLogNumber(log_number_);
  snapshot.SetNextFileNumber(next_file_number_);
  snapshot.SetLastSequence(last_sequence_);
  for (int level = 0; level < kNumLevels; level++) {
    for (const auto& meta : files_[level]) snapshot.AddFile(level, meta);
  }
  std::string record;
  snapshot.EncodeTo(&record);
  LO_RETURN_IF_ERROR(manifest_->AddRecord(record));
  LO_RETURN_IF_ERROR(manifest_->Sync());

  // Point CURRENT at the new manifest via atomic rename.
  std::string tmp = dbname_ + "/CURRENT.tmp";
  char name[64];
  std::snprintf(name, sizeof(name), "MANIFEST-%06llu\n",
                static_cast<unsigned long long>(manifest_number_));
  LO_RETURN_IF_ERROR(env_->WriteStringToFile(tmp, name, /*sync=*/true));
  return env_->RenameFile(tmp, CurrentFileName(dbname_));
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  edit->SetNextFileNumber(next_file_number_);
  edit->SetLastSequence(last_sequence_);
  LO_CHECK_MSG(manifest_ != nullptr, "VersionSet not initialized");
  std::string record;
  edit->EncodeTo(&record);
  LO_RETURN_IF_ERROR(manifest_->AddRecord(record));
  LO_RETURN_IF_ERROR(manifest_->Sync());
  Apply(*edit);
  return Status::OK();
}

uint64_t VersionSet::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& f : files_[level]) total += f.file_size;
  return total;
}

uint64_t VersionSet::TotalTableBytes() const {
  uint64_t total = 0;
  for (int level = 0; level < kNumLevels; level++) total += LevelBytes(level);
  return total;
}

std::vector<FileMetaData> VersionSet::OverlappingFiles(int level,
                                                       std::string_view begin,
                                                       std::string_view end) const {
  std::vector<FileMetaData> result;
  for (const auto& f : files_[level]) {
    if (ExtractUserKey(f.largest) < begin || ExtractUserKey(f.smallest) > end) {
      continue;
    }
    result.push_back(f);
  }
  return result;
}

bool VersionSet::IsBaseLevelForKey(int level, std::string_view user_key) const {
  for (int l = level + 1; l < kNumLevels; l++) {
    for (const auto& f : files_[l]) {
      if (user_key >= ExtractUserKey(f.smallest) &&
          user_key <= ExtractUserKey(f.largest)) {
        return false;
      }
    }
  }
  return true;
}

uint64_t VersionSet::MaxBytesForLevel(int level) const {
  // L1 = 4 MiB, growing 10x per level.
  uint64_t bytes = 4ull << 20;
  for (int l = 1; l < level; l++) bytes *= 10;
  return bytes;
}

void VersionSet::SetL0CompactionTrigger(int files) {
  l0_compaction_trigger_ = std::max(files, 1);
}

double VersionSet::CompactionScore(int level) const {
  if (level == 0) {
    return static_cast<double>(files_[0].size()) /
           static_cast<double>(l0_compaction_trigger_);
  }
  return static_cast<double>(LevelBytes(level)) /
         static_cast<double>(MaxBytesForLevel(level));
}

bool VersionSet::NeedsCompaction() const {
  for (int level = 0; level < kNumLevels - 1; level++) {
    if (CompactionScore(level) >= 1.0) return true;
  }
  return false;
}

VersionSet::CompactionPick VersionSet::PickCompaction() const {
  int best_level = -1;
  double best_score = 1.0;
  for (int level = 0; level < kNumLevels - 1; level++) {
    double score = CompactionScore(level);
    if (score >= best_score) {
      best_score = score;
      best_level = level;
    }
  }
  CompactionPick pick;
  if (best_level < 0) return pick;
  pick.level = best_level;
  if (best_level == 0) {
    // All of L0 participates: files overlap each other.
    pick.inputs = files_[0];
  } else {
    // One file (the first; simple round-robin-free policy).
    pick.inputs = {files_[best_level].front()};
  }
  // Key range of inputs -> overlapping files downstream.
  std::string smallest, largest;
  for (const auto& f : pick.inputs) {
    if (smallest.empty() || icmp_.Compare(f.smallest, smallest) < 0) smallest = f.smallest;
    if (largest.empty() || icmp_.Compare(f.largest, largest) > 0) largest = f.largest;
  }
  pick.next_inputs = OverlappingFiles(best_level + 1, ExtractUserKey(smallest),
                                      ExtractUserKey(largest));
  return pick;
}

std::vector<uint64_t> VersionSet::LiveFiles() const {
  std::vector<uint64_t> live;
  for (int level = 0; level < kNumLevels; level++) {
    for (const auto& f : files_[level]) live.push_back(f.number);
  }
  return live;
}

}  // namespace lo::storage
