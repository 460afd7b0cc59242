#include "storage/faulty_env.h"

#include <utility>

namespace lo::storage {

namespace {

Status Crashed() { return Status::IOError("crashed"); }

}  // namespace

/// Write handle that routes every Append/Sync through the env's fault
/// countdown. A crashing Append may leave a seeded prefix of the data in
/// the file (torn write); the wrapped MemEnv then models power loss via
/// DropUnsyncedData() as usual.
class FaultyWritableFile : public WritableFile {
 public:
  FaultyWritableFile(FaultyEnv* env, std::string path,
                     std::unique_ptr<WritableFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    size_t torn = 0;
    if (!env_->ChargeAppend(path_, data.size(), &torn)) {
      if (torn > 0) {
        // A prefix of the write had already been flushed to the platter
        // when the lights went out (disks persist in page-sized units,
        // not record-sized ones). Sync it so the wrapped MemEnv's
        // DropUnsyncedData keeps exactly this torn tail — the case WAL /
        // manifest recovery must detect via the per-record CRC.
        base_->Append(data.substr(0, torn)).ok();
        base_->Sync().ok();
      }
      return Crashed();
    }
    return base_->Append(data);
  }

  Status Sync() override {
    if (env_->SyncShouldFail()) {
      return Status::IOError("injected sync failure");
    }
    if (!env_->ChargeWriteOp(path_)) return Crashed();
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultyEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

FaultyEnv::FaultyEnv(Env* base, uint64_t seed) : base_(base), rng_(seed) {}

bool FaultyEnv::ChargeWriteOp(const std::string& path) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return ChargeWriteOpLocked(path);
}

bool FaultyEnv::ChargeWriteOpLocked(const std::string& path) {
  write_ops_++;
  if (crashed_) {
    stats_.failed_ops_while_crashed++;
    return false;
  }
  if (countdown_ > 0 && --countdown_ == 0) {
    crashed_ = true;
    crash_path_ = path;
    stats_.injected_crashes++;
    return false;
  }
  return true;
}

bool FaultyEnv::ChargeAppend(const std::string& path, size_t data_size, size_t* torn) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  *torn = 0;
  if (ChargeWriteOpLocked(path)) return true;
  *torn = static_cast<size_t>(rng_.Uniform(data_size + 1));
  if (*torn > 0) stats_.torn_appends++;
  return false;
}

bool FaultyEnv::SyncShouldFail() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (!fail_syncs_) return false;
  stats_.injected_sync_failures++;
  return true;
}

void FaultyEnv::CrashAfterWriteOps(uint64_t n) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  countdown_ = n;
  if (n > 0) crashed_ = false;
}

void FaultyEnv::Revive() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  crashed_ = false;
  countdown_ = 0;
}

Result<std::unique_ptr<WritableFile>> FaultyEnv::NewWritableFile(
    const std::string& path) {
  if (!ChargeWriteOp(path)) return Crashed();
  LO_ASSIGN_OR_RETURN(auto file, base_->NewWritableFile(path));
  return std::unique_ptr<WritableFile>(
      new FaultyWritableFile(this, path, std::move(file)));
}

Result<std::unique_ptr<RandomAccessFile>> FaultyEnv::NewRandomAccessFile(
    const std::string& path) {
  return base_->NewRandomAccessFile(path);
}

Result<std::unique_ptr<SequentialFile>> FaultyEnv::NewSequentialFile(
    const std::string& path) {
  return base_->NewSequentialFile(path);
}

bool FaultyEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultyEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

Status FaultyEnv::DeleteFile(const std::string& path) {
  if (!ChargeWriteOp(path)) return Crashed();
  return base_->DeleteFile(path);
}

Status FaultyEnv::RenameFile(const std::string& from, const std::string& to) {
  if (!ChargeWriteOp(to)) return Crashed();
  return base_->RenameFile(from, to);
}

Status FaultyEnv::CreateDir(const std::string& path) {
  // Not charged: directory creation happens once per DB::Open and is not
  // a fault point of interest (the matrix targets the commit path).
  if (crashed_) return Crashed();
  return base_->CreateDir(path);
}

Result<std::vector<std::string>> FaultyEnv::ListDir(const std::string& dir) {
  return base_->ListDir(dir);
}

}  // namespace lo::storage
