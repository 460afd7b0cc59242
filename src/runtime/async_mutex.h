// FIFO mutex for coroutines. One per execution lane (objects are pinned
// to lanes by hash): LambdaStore "combines function scheduling and
// concurrency control" (paper §4.2) by never running two read-write
// invocations of the same object concurrently — same-object invocations
// share a lane, so the lane lock is the object lock.
//
// Multi-tenant fairness: Lock() optionally carries a (tenant, weight)
// pair. Waiters queue in a tenant::FairQueue and Unlock() hands ownership
// deficit-round-robin across the tenants — a tenant with weight w gets w
// consecutive grants per rotation — so one tenant's queue depth cannot
// monopolize the lane. With a single tenant (the default, tenant 0) the
// grant order is exactly the old FIFO.
#pragma once

#include <cstdint>
#include <memory>

#include "common/log.h"
#include "sim/task.h"
#include "tenant/tenant.h"

namespace lo::runtime {

class AsyncMutex {
 public:
  sim::Task<void> Lock(uint32_t tenant = 0, uint32_t weight = 1) {
    if (!locked_ && waiters_.empty()) {
      locked_ = true;
      co_return;
    }
    auto slot = std::make_shared<sim::OneShot<bool>>();
    waiters_.Push(slot, tenant, weight);
    co_await slot->Wait();
    // Ownership was handed to us directly by Unlock().
  }

  void Unlock() {
    LO_CHECK_MSG(locked_, "unlock of unlocked AsyncMutex");
    std::shared_ptr<sim::OneShot<bool>> next;
    if (!waiters_.Pop(&next)) {
      locked_ = false;
      return;
    }
    next->Fulfill(true);  // lock stays held; ownership transfers DRR
  }

  bool locked() const { return locked_; }
  size_t queue_length() const { return waiters_.size(); }

 private:
  bool locked_ = false;
  tenant::FairQueue<std::shared_ptr<sim::OneShot<bool>>> waiters_;
};

}  // namespace lo::runtime
