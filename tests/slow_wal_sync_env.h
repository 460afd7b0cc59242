// A MemEnv whose WAL Sync takes `sync_us` of wall time, like a device
// flush (0 = as fast as MemEnv). Commits submitted meanwhile queue behind
// the busy group committer, so they coalesce through backpressure alone,
// and the commit-group rate stays bounded the way a real device bounds it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "storage/env.h"

namespace lo::storage {

class SlowWalSyncEnv : public MemEnv {
 public:
  explicit SlowWalSyncEnv(int64_t sync_us) : sync_us_(sync_us) {}

  using MemEnv::NewWritableFile;
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    auto base = MemEnv::NewWritableFile(path);
    if (!base.ok() || !path.ends_with(".log")) return base;
    return {std::make_unique<SlowSyncFile>(std::move(*base), sync_us_)};
  }

 private:
  class SlowSyncFile : public WritableFile {
   public:
    SlowSyncFile(std::unique_ptr<WritableFile> base, int64_t sync_us)
        : base_(std::move(base)), sync_us_(sync_us) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Sync() override {
      std::this_thread::sleep_for(std::chrono::microseconds(sync_us_));
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    int64_t sync_us_;
  };

  int64_t sync_us_;
};

}  // namespace lo::storage
