// Small fixed-size worker pool for CPU-parallel storage maintenance
// (parallel sub-compactions). The
// pool is deliberately minimal: one blocking RunAll primitive, no
// futures, no per-task results — callers stage their outputs in
// task-local state and merge after RunAll returns.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lo {

class ThreadPool {
 public:
  /// Spawns `threads` persistent workers (clamped to >= 1).
  explicit ThreadPool(size_t threads);
  /// Joins the workers. Must not be called while RunAll is in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs every task and returns once all have finished. The calling
  /// thread participates (it drains tasks alongside the workers), so a
  /// pool of N threads gives N+1-way parallelism and RunAll never
  /// deadlocks even with a single busy worker. Reentrant RunAll from
  /// inside a task is not supported.
  void RunAll(std::vector<std::function<void()>> tasks);

  size_t threads() const { return workers_.size(); }

 private:
  struct Batch {
    std::vector<std::function<void()>> tasks;
    size_t next = 0;      // next task index to claim
    size_t finished = 0;  // tasks completed
  };

  void WorkerLoop();
  /// Claims and runs tasks from the current batch until none are left.
  /// Precondition: caller holds `lock`. Returns with `lock` held.
  void DrainBatch(std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a batch arrived / stop
  std::condition_variable done_cv_;  // RunAll caller: batch finished
  Batch* batch_ = nullptr;           // owned by the RunAll frame
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace lo
