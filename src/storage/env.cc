#include "storage/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace lo::storage {

Result<std::string> Env::ReadFileToString(const std::string& path) {
  LO_ASSIGN_OR_RETURN(auto file, NewSequentialFile(path));
  std::string out, chunk;
  for (;;) {
    LO_RETURN_IF_ERROR(file->Read(64 * 1024, &chunk));
    if (chunk.empty()) break;
    out += chunk;
  }
  return out;
}

Status Env::WriteStringToFile(const std::string& path, std::string_view data,
                              bool sync) {
  LO_ASSIGN_OR_RETURN(auto file, NewWritableFile(path));
  LO_RETURN_IF_ERROR(file->Append(data));
  if (sync) LO_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

// ---------------------------------------------------------------- MemEnv

namespace {

class MemWritableFile : public WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<MemEnv::FileState> state)
      : state_(std::move(state)) {}

  Status Append(std::string_view data) override {
    state_->data.append(data);
    return Status::OK();
  }
  Status Sync() override {
    state_->synced_length = state_->data.size();
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }

 private:
  std::shared_ptr<MemEnv::FileState> state_;
};

class MemRandomAccessFile : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<MemEnv::FileState> state)
      : state_(std::move(state)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->clear();
    const std::string& data = state_->data;
    if (offset >= data.size()) return Status::OK();  // EOF: empty read
    size_t take = std::min<size_t>(n, data.size() - offset);
    out->assign(data, offset, take);
    return Status::OK();
  }
  uint64_t Size() const override { return state_->data.size(); }

 private:
  std::shared_ptr<MemEnv::FileState> state_;
};

class MemSequentialFile : public SequentialFile {
 public:
  explicit MemSequentialFile(std::shared_ptr<MemEnv::FileState> state)
      : state_(std::move(state)) {}

  Status Read(size_t n, std::string* out) override {
    out->clear();
    const std::string& data = state_->data;
    if (pos_ >= data.size()) return Status::OK();
    size_t take = std::min<size_t>(n, data.size() - pos_);
    out->assign(data, pos_, take);
    pos_ += take;
    return Status::OK();
  }
  Status Skip(uint64_t n) override {
    pos_ = std::min<uint64_t>(pos_ + n, state_->data.size());
    return Status::OK();
  }

 private:
  std::shared_ptr<MemEnv::FileState> state_;
  uint64_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> MemEnv::NewWritableFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto state = std::make_shared<FileState>();
  files_[path] = state;  // truncates any existing file
  return std::unique_ptr<WritableFile>(new MemWritableFile(std::move(state)));
}

Result<std::unique_ptr<RandomAccessFile>> MemEnv::NewRandomAccessFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  return std::unique_ptr<RandomAccessFile>(new MemRandomAccessFile(it->second));
}

Result<std::unique_ptr<SequentialFile>> MemEnv::NewSequentialFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  return std::unique_ptr<SequentialFile>(new MemSequentialFile(it->second));
}

bool MemEnv::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.contains(path);
}

Result<uint64_t> MemEnv::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  return static_cast<uint64_t>(it->second->data.size());
}

Status MemEnv::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) return Status::NotFound(path);
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound(from);
  files_[to] = it->second;
  files_.erase(from);
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string&) { return Status::OK(); }

Result<std::vector<std::string>> MemEnv::ListDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string prefix = dir;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  std::vector<std::string> names;
  for (const auto& [path, state] : files_) {
    if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0) {
      std::string rest = path.substr(prefix.size());
      if (rest.find('/') == std::string::npos) names.push_back(rest);
    }
  }
  return names;
}

void MemEnv::DropUnsyncedData() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [path, state] : files_) {
    state->data.resize(state->synced_length);
  }
}

uint64_t MemEnv::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, state] : files_) total += state->data.size();
  return total;
}

// --------------------------------------------------------------- PosixEnv

namespace {

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(std::FILE* f) : f_(f) {}
  ~PosixWritableFile() override {
    if (f_ != nullptr) std::fclose(f_);
  }
  Status Append(std::string_view data) override {
    if (std::fwrite(data.data(), 1, data.size(), f_) != data.size()) {
      return Status::IOError("fwrite failed");
    }
    return Status::OK();
  }
  Status Sync() override {
    if (std::fflush(f_) != 0) return Status::IOError("fflush failed");
    return Status::OK();
  }
  Status Close() override {
    int rc = std::fclose(f_);
    f_ = nullptr;
    return rc == 0 ? Status::OK() : Status::IOError("fclose failed");
  }

 private:
  std::FILE* f_;
};

/// Positional reads with pread(2) on a plain fd, as LevelDB's
/// PosixRandomAccessFile does: no shared file offset, so any number of
/// threads can read one table at once (a lane's Get beside a background
/// compaction's merge), and a read costs one syscall.
class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, uint64_t size) : fd_(fd), size_(size) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }
  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->resize(n);
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd_, out->data() + got, n - got,
                          static_cast<off_t>(offset + got));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0) {
        out->clear();
        return Status::IOError(std::string("pread: ") + std::strerror(errno));
      }
      if (r == 0) break;  // EOF: short read
      got += static_cast<size_t>(r);
    }
    out->resize(got);
    return Status::OK();
  }
  uint64_t Size() const override { return size_; }

 private:
  int fd_;
  uint64_t size_;
};

class PosixSequentialFile : public SequentialFile {
 public:
  explicit PosixSequentialFile(std::FILE* f) : f_(f) {}
  ~PosixSequentialFile() override { std::fclose(f_); }
  Status Read(size_t n, std::string* out) override {
    out->resize(n);
    size_t got = std::fread(out->data(), 1, n, f_);
    out->resize(got);
    return Status::OK();
  }
  Status Skip(uint64_t n) override {
    return std::fseek(f_, static_cast<long>(n), SEEK_CUR) == 0
               ? Status::OK()
               : Status::IOError("fseek failed");
  }

 private:
  std::FILE* f_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> PosixEnv::NewWritableFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("open for write: " + path);
  return std::unique_ptr<WritableFile>(new PosixWritableFile(f));
}

Result<std::unique_ptr<RandomAccessFile>> PosixEnv::NewRandomAccessFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound(path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path);
  }
  return std::unique_ptr<RandomAccessFile>(
      new PosixRandomAccessFile(fd, static_cast<uint64_t>(st.st_size)));
}

Result<std::unique_ptr<SequentialFile>> PosixEnv::NewSequentialFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound(path);
  return std::unique_ptr<SequentialFile>(new PosixSequentialFile(f));
}

bool PosixEnv::FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

Result<uint64_t> PosixEnv::FileSize(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  if (ec) return Status::NotFound(path);
  return static_cast<uint64_t>(size);
}

Status PosixEnv::DeleteFile(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::remove(path, ec) || ec) return Status::NotFound(path);
  return Status::OK();
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  if (ec) return Status::IOError("rename " + from + " -> " + to);
  return Status::OK();
}

Status PosixEnv::CreateDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return Status::IOError("mkdir " + path);
  return Status::OK();
}

Result<std::vector<std::string>> PosixEnv::ListDir(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    names.push_back(entry.path().filename().string());
  }
  if (ec) return Status::IOError("listdir " + dir);
  return names;
}

}  // namespace lo::storage
