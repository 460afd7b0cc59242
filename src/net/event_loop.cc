#include "net/event_loop.h"

#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace lo::net {

int64_t EventLoop::NowUs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
}

EventLoop::EventLoop() {
  // Writes race peer hangups: a flush to a connection whose peer already
  // closed must surface as EPIPE from writev, not kill the process.
  static const int sigpipe_ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return 0;
  }();
  (void)sigpipe_ignored;
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  LO_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  LO_CHECK_MSG(wake_fd_ >= 0, "eventfd failed");
  current_tick_ = NowUs() / kTickUs;
  AddFd(wake_fd_, EPOLLIN, [this](uint32_t) {
    uint64_t drained;
    while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
    }
  });
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void EventLoop::EpollCtl(int op, int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  int rc = epoll_ctl(epoll_fd_, op, fd, &ev);
  LO_CHECK_MSG(rc == 0, "epoll_ctl failed");
}

void EventLoop::AddFd(int fd, uint32_t events, FdCallback callback) {
  EpollCtl(EPOLL_CTL_ADD, fd, events);
  fd_callbacks_[fd] = std::move(callback);
}

void EventLoop::ModFd(int fd, uint32_t events) {
  EpollCtl(EPOLL_CTL_MOD, fd, events);
}

void EventLoop::RemoveFd(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fd_callbacks_.erase(fd);
}

TimerId EventLoop::AddTimer(int64_t delay_us, std::function<void()> fn) {
  int64_t fire_at_us = NowUs() + std::max<int64_t>(0, delay_us);
  // A timer always fires on a *future* tick: firing "now" mid-iteration
  // would reorder it ahead of already-due work.
  int64_t fire_tick = std::max(current_tick_ + 1, fire_at_us / kTickUs);
  size_t slot_index = static_cast<size_t>(fire_tick) % kWheelSlots;
  TimerId id = next_timer_id_++;
  Slot& slot = wheel_[slot_index];
  slot.push_back(TimerEntry{id, fire_tick, std::move(fn)});
  timer_index_[id] = {slot_index, std::prev(slot.end())};
  armed_timers_++;
  return id;
}

bool EventLoop::CancelTimer(TimerId id) {
  auto it = timer_index_.find(id);
  if (it == timer_index_.end()) return false;
  wheel_[it->second.first].erase(it->second.second);
  timer_index_.erase(it);
  armed_timers_--;
  return true;
}

void EventLoop::AdvanceWheel(int64_t now_us) {
  int64_t now_tick = now_us / kTickUs;
  if (now_tick <= current_tick_ || armed_timers_ == 0) {
    current_tick_ = std::max(current_tick_, now_tick);
    return;
  }
  // Visit each slot between the last processed tick and now (at most one
  // full rotation — beyond that every slot has been seen once).
  int64_t steps = now_tick - current_tick_;
  size_t scan = steps >= static_cast<int64_t>(kWheelSlots)
                    ? kWheelSlots
                    : static_cast<size_t>(steps);
  std::vector<std::function<void()>> due;
  for (size_t i = 1; i <= scan; ++i) {
    Slot& slot = wheel_[static_cast<size_t>(current_tick_ + i) % kWheelSlots];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->fire_tick <= now_tick) {
        due.push_back(std::move(it->fn));
        timer_index_.erase(it->id);
        it = slot.erase(it);
        armed_timers_--;
      } else {
        ++it;  // later rotation of this slot
      }
    }
  }
  current_tick_ = now_tick;
  for (auto& fn : due) fn();
}

int EventLoop::PollTimeoutMs() const {
  // With timers armed the loop ticks the wheel once per kTickUs; idle
  // loops sleep until an fd event or eventfd wakeup.
  return armed_timers_ > 0 ? static_cast<int>(kTickUs / 1000) : -1;
}

void EventLoop::RunInLoop(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.push_back(std::move(fn));
  }
  Wakeup();
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    stop_requested_ = true;
  }
  Wakeup();
}

void EventLoop::Wakeup() {
  uint64_t one = 1;
  ssize_t written = write(wake_fd_, &one, sizeof(one));
  (void)written;  // EAGAIN just means a wakeup is already queued
}

void EventLoop::DrainPending() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    batch.swap(pending_);
    if (stop_requested_) running_ = false;
  }
  for (auto& fn : batch) fn();
}

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    running_ = !stop_requested_;
  }
  epoll_event events[64];
  while (running_) {
    int n = epoll_wait(epoll_fd_, events, 64, PollTimeoutMs());
    iterations_.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      // Look the callback up fresh: an earlier callback in this batch may
      // have removed (or replaced) this fd.
      auto it = fd_callbacks_.find(events[i].data.fd);
      if (it == fd_callbacks_.end()) continue;
      // Copy: the callback may RemoveFd its own registration mid-call.
      FdCallback callback = it->second;
      callback(events[i].events);
    }
    AdvanceWheel(NowUs());
    DrainPending();
    // Everything this iteration produced is queued; coalesced flushes
    // drain it with one writev per dirty connection.
    if (end_of_iteration_) end_of_iteration_();
  }
}

}  // namespace lo::net
