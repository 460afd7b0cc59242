// In-memory span log for the traced run: each thread appends to its own
// buffer, so recording takes no lock after a thread's first span. The
// buffers are read only once every recording thread is quiescent.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal
  uint64_t id = 0;        // request index + 1 where the benchmark knows it
  int64_t start_ns = 0;   // CLOCK_MONOTONIC
  int64_t end_ns = 0;
  uint64_t value = 0;     // bytes moved, where that applies
};

class SpanLog {
 public:
  void Record(const char* name, uint64_t id, int64_t start_ns, int64_t end_ns,
              uint64_t value = 0) {
    thread_local SpanLog* owner = nullptr;
    thread_local std::vector<Span>* buffer = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffers_.back()->reserve(1 << 12);
      buffer = buffers_.back().get();
      owner = this;
    }
    buffer->push_back(Span{name, id, start_ns, end_ns, value});
  }

  /// Every span recorded so far; call only while no thread records.
  std::vector<Span> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
    }
    return all;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

}  // namespace perfbench
