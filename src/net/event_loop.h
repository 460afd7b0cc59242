// Non-blocking event loop: the reactor under net::RpcServer and
// net::RpcClient, on level-triggered epoll.
//
// One thread calls Run(); everything else talks to the loop through
// RunInLoop (a mutex-guarded queue drained after each poll, with an
// eventfd wakeup so a sleeping loop notices immediately). Fd callbacks
// and timers always fire on the loop thread, so connection state needs
// no locking.
//
// Deadlines use a hashed timer wheel (512 slots × 1 ms ticks): insert
// and cancel are O(1), and the loop wakes at most once per tick while
// any timer is armed. 1 ms granularity is deliberate — RPC deadlines
// and reconnect backoffs are tens of milliseconds; sub-tick precision
// would buy nothing and cost a busier poll loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace lo::net {

using TimerId = uint64_t;

class EventLoop {
 public:
  /// Bitmask passed to fd callbacks; values match EPOLLIN/EPOLLOUT etc.
  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// CLOCK_MONOTONIC in microseconds — the TCP transport's clock domain
  /// (shared by every process on the machine, so absolute frame
  /// deadlines compare across the loopback deployment).
  static int64_t NowUs();

  // --- loop-thread-only API (fds, timers) ------------------------------
  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...). The callback
  /// fires on the loop thread. The fd is not owned.
  void AddFd(int fd, uint32_t events, FdCallback callback);
  void ModFd(int fd, uint32_t events);
  /// Deregisters; pending events for the fd are discarded.
  void RemoveFd(int fd);

  /// Arms a one-shot timer `delay_us` from now. Returns an id valid
  /// until the timer fires or is cancelled.
  TimerId AddTimer(int64_t delay_us, std::function<void()> fn);
  /// Returns false if the timer already fired (or never existed).
  bool CancelTimer(TimerId id);

  // --- any-thread API ---------------------------------------------------
  /// Queues `fn` to run on the loop thread and wakes the loop.
  void RunInLoop(std::function<void()> fn);
  /// Stops Run() after the current iteration. Safe from any thread.
  void Stop();

  /// Runs the loop on the calling thread until Stop().
  void Run();
  /// Executes work queued with RunInLoop after the loop has stopped
  /// (shutdown stragglers). Caller must guarantee Run() has returned.
  void DrainNow() { DrainPending(); }
  /// True on the thread currently inside Run(). Safe from any thread
  /// (the id is published atomically when the loop starts).
  bool InLoopThread() const {
    return std::this_thread::get_id() ==
           loop_thread_.load(std::memory_order_acquire);
  }

  /// Runs `fn` once per loop iteration, after fd events, due timers,
  /// and RunInLoop work have all executed. The transport's flush
  /// coalescing hangs off this: every response completed during the
  /// iteration — inline from a handler or marshalled in via RunInLoop —
  /// is queued first, then drained with one writev per connection.
  /// Loop-thread-only; set before Run().
  void SetEndOfIteration(std::function<void()> fn) {
    end_of_iteration_ = std::move(fn);
  }

  uint64_t iterations() const {
    return iterations_.load(std::memory_order_relaxed);
  }
  /// epoll_wait calls issued so far (one per iteration); feeds the
  /// transport's syscalls-per-RPC accounting. Readable off-loop.
  uint64_t poll_waits() const { return iterations(); }
  size_t armed_timers() const { return armed_timers_; }

 private:
  static constexpr size_t kWheelSlots = 512;   // power of two
  static constexpr int64_t kTickUs = 1000;     // wheel granularity

  struct TimerEntry {
    TimerId id = 0;
    int64_t fire_tick = 0;  // absolute tick index
    std::function<void()> fn;
  };
  using Slot = std::list<TimerEntry>;

  /// Fires every timer due at or before `now_us`.
  void AdvanceWheel(int64_t now_us);
  /// Milliseconds epoll may sleep: 1 tick with timers armed, else forever.
  int PollTimeoutMs() const;
  void DrainPending();
  void Wakeup();
  /// epoll_ctl(op) for `fd`; aborts on failure (a bad fd is a bug).
  void EpollCtl(int op, int fd, uint32_t events);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  std::atomic<std::thread::id> loop_thread_;
  bool running_ = false;
  std::atomic<uint64_t> iterations_{0};
  std::function<void()> end_of_iteration_;

  std::unordered_map<int, FdCallback> fd_callbacks_;

  // Timer wheel state (loop thread only).
  Slot wheel_[kWheelSlots];
  std::unordered_map<TimerId, std::pair<size_t, Slot::iterator>> timer_index_;
  int64_t current_tick_ = 0;
  TimerId next_timer_id_ = 1;
  size_t armed_timers_ = 0;

  std::mutex pending_mu_;
  std::vector<std::function<void()>> pending_;
  bool stop_requested_ = false;  // under pending_mu_
};

}  // namespace lo::net
