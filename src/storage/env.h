// Filesystem abstraction for MiniLSM (LevelDB-style Env).
//
// Storage nodes in the simulated cluster run on MemEnv — an in-process
// filesystem — so a whole cluster's disks live inside one deterministic
// process; I/O *latency* is charged by the node model, not here.
// PosixEnv backs lambdastore-server's --db and the tools that want real
// files.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace lo::storage {

/// No creation hints remain. This type and the two-argument
/// Env::NewWritableFile below stay only because perfbench's tracing Env
/// overrides that overload; both go with the next benchmark change.
struct WritableFileOptions {};

/// Append-only file handle.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Durability point; the WAL calls this on every commit.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Positional-read file handle (SSTables). Read is safe to call from
/// several threads at once: a lane's Get and a background compaction
/// read one table concurrently.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads up to n bytes at offset into *out (short read at EOF is OK).
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;
  virtual uint64_t Size() const = 0;
};

/// Streaming-read file handle (WAL replay).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  virtual Status Read(size_t n, std::string* out) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path) = 0;
  /// Forwards to the one-argument overload, which is what MiniLSM calls.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, const WritableFileOptions& opts) {
    (void)opts;
    return NewWritableFile(path);
  }
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(const std::string& path) = 0;
  virtual Result<std::unique_ptr<SequentialFile>> NewSequentialFile(const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  /// Atomic replace (used for CURRENT).
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status CreateDir(const std::string& path) = 0;
  /// Names (not paths) of children of dir.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;

  /// Convenience: read an entire file / atomically write an entire file.
  Result<std::string> ReadFileToString(const std::string& path);
  Status WriteStringToFile(const std::string& path, std::string_view data, bool sync);
};

/// In-memory filesystem. Also a fault-injection point: sync failures and
/// torn tail writes (crash simulation) can be enabled per instance.
///
/// The namespace (create/open/delete/rename/list) is thread-safe so a
/// DB's maintenance thread can open inputs and create outputs while a
/// writer creates WALs. Individual file *contents* follow POSIX rules:
/// one writer per file, readers only after the writer finalized it.
class MemEnv : public Env {
 public:
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

  /// Crash simulation: truncates every file to its last Sync()ed length,
  /// as if the machine lost power (unsynced page cache discarded).
  void DropUnsyncedData();

  /// Total bytes across all files (space-usage metrics).
  uint64_t TotalBytes() const;

  // Exposed for the file-handle implementations in env.cc.
  struct FileState {
    std::string data;
    uint64_t synced_length = 0;
  };

 private:
  // Guards the files_ map (namespace operations), not file contents.
  mutable std::mutex mu_;
  // shared_ptr: open handles stay valid across DeleteFile (POSIX unlink
  // semantics), which compaction relies on.
  std::unordered_map<std::string, std::shared_ptr<FileState>> files_;
};

/// Real-filesystem Env: lambdastore-server's --db, tools and examples.
class PosixEnv : public Env {
 public:
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
};

}  // namespace lo::storage
