// Deterministic fault injection for the storage write path.
//
// FaultyEnv wraps any Env and injects the failures a real disk stack can
// produce, at exactly reproducible points:
//
//   - crash points:   every write-side operation (Append / Sync / file
//                     create / rename / delete) decrements a countdown;
//                     when it reaches zero the "machine" loses power —
//                     the op fails, unsynced bytes are torn, and every
//                     later mutation fails with IOError("crashed") until
//                     the env is revived.
//   - torn writes:    the Append that triggers the crash may land
//                     partially (a prefix of the data), reproducing a
//                     torn WAL/manifest tail.
//   - sync failures:  Sync() can be forced to fail (fsync returning
//                     EIO) without crashing, to test that the error
//                     surfaces to the commit caller instead of being
//                     dropped.
//
// All randomness comes from an injected seed (torn-write lengths), so a
// fault schedule replays bit-identically — the crash-recovery matrix in
// tests/storage_test.cpp sweeps the countdown over every write op of a
// workload. See docs/minilsm.md ("Crash recovery & failure model").
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "storage/env.h"

namespace lo::storage {

class FaultyEnv : public Env {
 public:
  /// Wraps `base` (not owned). `seed` drives torn-write lengths.
  explicit FaultyEnv(Env* base, uint64_t seed = 42);

  using Env::NewWritableFile;
  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(const std::string& path) override;
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status CreateDir(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;

  // --- fault programming ----------------------------------------------
  /// Crash after `n` more write-side ops (0 disables the countdown). The
  /// n-th op fails; if it is an Append, a seeded prefix of the data may
  /// still reach the file (torn write).
  void CrashAfterWriteOps(uint64_t n);
  /// Clears the crashed state so the env accepts writes again (the
  /// "reboot" before recovery). The countdown stays disabled.
  void Revive();
  bool crashed() const {
    std::lock_guard<std::mutex> lock(fault_mu_);
    return crashed_;
  }
  /// The file whose op crashed the env (empty until a crash), so a sweep
  /// can tell a crash in a WAL append from one in a table or manifest
  /// write.
  std::string crash_path() const {
    std::lock_guard<std::mutex> lock(fault_mu_);
    return crash_path_;
  }

  /// Forces every Sync() to fail with IOError until cleared. The data is
  /// still buffered (no crash) — models fsync returning EIO.
  void FailSyncs(bool fail) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    fail_syncs_ = fail;
  }

  /// Write-side ops observed so far (sizing the crash matrix: run the
  /// workload once fault-free, read this, then sweep 1..count).
  uint64_t write_ops() const {
    std::lock_guard<std::mutex> lock(fault_mu_);
    return write_ops_;
  }

  struct Stats {
    uint64_t injected_crashes = 0;
    uint64_t injected_sync_failures = 0;
    uint64_t torn_appends = 0;
    uint64_t failed_ops_while_crashed = 0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(fault_mu_);
    return stats_;
  }

 private:
  friend class FaultyWritableFile;
  /// Charges one write-side op on `path`; returns false if this op must
  /// fail (countdown hit zero or already crashed).
  bool ChargeWriteOp(const std::string& path);
  bool ChargeWriteOpLocked(const std::string& path);
  /// Append variant: on failure also draws the seeded torn-prefix length
  /// into *torn under the same lock (concurrent appenders stay seeded
  /// deterministically with respect to op order).
  bool ChargeAppend(const std::string& path, size_t data_size, size_t* torn);
  bool SyncShouldFail();

  Env* base_;
  // Fault state is shared by every file handle; a DB's maintenance
  // thread writes tables through this env while its writers append to
  // the WAL.
  mutable std::mutex fault_mu_;
  Rng rng_;                 // guarded by fault_mu_
  uint64_t countdown_ = 0;  // 0 = disabled; guarded by fault_mu_
  bool crashed_ = false;    // guarded by fault_mu_
  bool fail_syncs_ = false; // guarded by fault_mu_
  uint64_t write_ops_ = 0;  // guarded by fault_mu_
  std::string crash_path_;  // guarded by fault_mu_
  Stats stats_;             // guarded by fault_mu_
};

}  // namespace lo::storage
