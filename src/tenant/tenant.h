// Multi-tenant QoS: per-tenant admission control, fair-share scheduling
// and fuel budgeting for shared LambdaObjects nodes (ROADMAP 4(d)).
//
// A TenantId rides in the RPC request frame (net/frame.h, trailing
// optional varint; 0 = unattributed legacy traffic). Each serving node
// holds one TenantRegistry:
//
//   * token-bucket admission (rate + burst) — requests arriving over
//     budget are shed with Status::TenantThrottled before touching a
//     lane, so the client's dedicated throttle backoff (not the fault
//     retry budget) absorbs them;
//   * an in-flight cap per tenant;
//   * a windowed fuel budget debited by the LambdaVM interpreter via
//     VmLimits::fuel_tap, so a long-running invocation is charged
//     against its tenant mid-flight and trapped once the window is dry;
//   * DRR weights consumed by FairQueue (the per-lane scheduler) so one
//     tenant's queue depth cannot monopolize a lane.
//
// FairQueue is the one deficit-round-robin rule: runtime::ParallelNode
// lanes queue their jobs in one, and runtime::AsyncMutex its waiters. It
// is NOT thread-safe: callers hold their own lock. With only tenant 0
// active it degenerates to exact FIFO, so single-tenant behavior (and
// per-object ordering proofs) are unchanged.
//
// See docs/tenancy.md for the model and knob table.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"

namespace lo::obs {
class MetricsRegistry;
}  // namespace lo::obs

namespace lo::tenant {

using TenantId = uint32_t;

/// Per-tenant QoS contract. Zero means "unlimited" for every limit.
struct TenantConfig {
  uint32_t weight = 1;           // DRR share relative to other tenants
  double rate_per_sec = 0;       // token-bucket refill; 0 = no rate limit
  double burst = 0;              // bucket capacity; 0 = max(rate, 1)
  uint64_t fuel_per_window = 0;  // VM fuel budget per window; 0 = unlimited
  uint32_t max_inflight = 0;     // concurrent admitted requests; 0 = unlimited
};

/// Parses the LO_TENANTS / --tenants spec:
///   "1:weight=4,rate=2000,burst=200,fuel=5000000,inflight=64;2:weight=1"
/// Tenant entries are ';'-separated, keys ','-separated. Unknown keys and
/// malformed entries are errors (a silently-dropped limit is a QoS hole).
Result<std::map<TenantId, TenantConfig>> ParseTenantSpec(const std::string& spec);

/// Thread-safe per-node registry of tenant budgets and counters.
class TenantRegistry {
 public:
  struct Options {
    int64_t window_ms = 1000;          // fuel-budget window length
    std::function<int64_t()> clock;    // µs, monotonic; default steady_clock
  };

  TenantRegistry();
  explicit TenantRegistry(Options options);

  /// Installs (or replaces) a tenant's contract.
  void Configure(TenantId id, TenantConfig config);
  /// Bulk Configure from a parsed spec.
  void ConfigureAll(const std::map<TenantId, TenantConfig>& configs);

  /// Admission gate, called once per request before it is enqueued.
  /// OK → the caller MUST pair with Release(id). TenantThrottled → the
  /// request was shed (rate, in-flight, or fuel window exceeded) and
  /// must not run. Tenant 0 and unconfigured tenants always admit.
  Status Admit(TenantId id);
  /// Ends an admitted request (decrements in-flight).
  void Release(TenantId id);

  /// Debits `amount` fuel from the tenant's current window. Returns
  /// TenantThrottled once the window is exhausted (the VM surfaces it
  /// as the invocation's trap status). Always records the spend.
  Status ChargeFuel(TenantId id, uint64_t amount);

  /// DRR weight for FairQueue (>= 1; 1 for unconfigured tenants).
  uint32_t WeightFor(TenantId id) const;

  /// Records time a request spent queued behind a lane (µs).
  void RecordQueueWait(TenantId id, int64_t wait_us);

  /// Exports tenant.admitted/shed/fuel_used/queue_us_{p50,p99} per
  /// tenant (metric node = tenant id) via snapshot-time callbacks.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  // Counter reads for tests and the tenancy bench.
  uint64_t admitted(TenantId id) const;
  uint64_t shed(TenantId id) const;
  uint64_t fuel_used(TenantId id) const;
  uint32_t inflight(TenantId id) const;
  /// Queue-wait percentile over everything recorded so far (µs).
  int64_t QueuePercentile(TenantId id, double q) const;
  std::vector<TenantId> KnownTenants() const;

 private:
  struct State {
    TenantConfig config;
    bool configured = false;
    // Guarded by mu_:
    double tokens = 0;
    int64_t last_refill_us = 0;
    uint64_t window_fuel = 0;      // fuel spent in the current window
    int64_t window_start_us = 0;
    uint32_t inflight = 0;
    Histogram queue_us;
    // Monotonic counters; atomics so obs snapshot callbacks and the
    // bench can read them while worker threads bump them.
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> fuel_used{0};
  };

  State* StateFor(TenantId id);            // creates on first use; holds mu_
  void RollWindow(State* s, int64_t now);  // holds mu_

  Options options_;
  mutable std::mutex mu_;
  std::map<TenantId, std::unique_ptr<State>> tenants_;
};

/// Deficit round robin over per-tenant FIFO sub-queues. Unit cost (every
/// item costs one credit): a tenant with weight w takes w items per turn,
/// then goes to the back of the rotation. Externally synchronized.
template <typename Item>
class FairQueue {
 public:
  /// Queues `item` behind `tenant`'s earlier ones; `weight` (at least 1)
  /// becomes the tenant's weight from its next turn on.
  void Push(Item item, TenantId tenant, uint32_t weight) {
    SubQueue& q = queues_[tenant];
    q.weight = std::max<uint32_t>(1, weight);
    // A tenant is in the rotation exactly while it has items queued.
    if (q.items.empty()) rotation_.push_back(tenant);
    q.items.push_back(std::move(item));
    size_++;
  }

  /// Pops the next item per DRR, or returns false if empty.
  bool Pop(Item* out) {
    if (rotation_.empty()) return false;
    TenantId tenant = rotation_.front();
    SubQueue& q = queues_[tenant];
    if (q.credits == 0) q.credits = q.weight;
    *out = std::move(q.items.front());
    q.items.pop_front();
    q.credits--;
    size_--;
    if (q.credits == 0 || q.items.empty()) {
      // Turn over: to the back of the rotation, or out of it if drained.
      q.credits = 0;
      rotation_.pop_front();
      if (!q.items.empty()) rotation_.push_back(tenant);
    }
    return true;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

 private:
  struct SubQueue {
    std::deque<Item> items;
    uint32_t weight = 1;
    uint32_t credits = 0;
  };

  std::map<TenantId, SubQueue> queues_;
  std::deque<TenantId> rotation_;
  size_t size_ = 0;
};

}  // namespace lo::tenant
