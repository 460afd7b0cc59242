// The LambdaObjects runtime living inside one storage node: method
// dispatch, invocation linearizability, commit routing, result caching.
//
// Pluggable seams let the cluster layer reuse this runtime unchanged:
//  - CommitSink     where atomic write batches go (local DB by default;
//                   the primary replica replaces it with "replicate to
//                   backups, then apply locally")
//  - RemoteInvoker  how `invoke` on another object is carried out
//                   (local recursion by default; the cluster routes it
//                   to the owning node)
//  - CpuCharger     charges simulated CPU time for executed fuel
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "runtime/async_mutex.h"
#include "runtime/context.h"
#include "runtime/object.h"
#include "runtime/result_cache.h"
#include "sim/task.h"
#include "storage/db.h"
#include "tenant/tenant.h"

namespace lo::runtime {

struct RuntimeOptions {
  /// Execution lanes: invocations are scheduled on lane
  /// `hash(object_id) % lanes`. Distinct objects run concurrently (up to
  /// `lanes` at once, modeling a bounded worker pool), while same-object
  /// invocations always collide on one lane and stay FIFO — per-object
  /// linearizability is the lane-affinity invariant. 1 restores the
  /// fully serial runtime.
  size_t lanes = 8;
  bool enable_result_cache = true;
  /// Span recorder for vm_exec / commit phases; nullptr disables tracing.
  obs::Tracer* tracer = nullptr;
  /// Node label stamped on recorded spans (the hosting node's id).
  uint32_t node_label = 0;
  /// Optional multi-tenant QoS registry (not owned). When set, an
  /// invocation carrying a nonzero tenant id debits that tenant's fuel
  /// window as the VM runs (VmLimits::fuel_tap) — an exhausted window
  /// traps the invocation with kTenantThrottled — and lane-lock waits
  /// are granted deficit-round-robin by tenant weight.
  tenant::TenantRegistry* tenants = nullptr;
};

class Runtime {
 public:
  using CommitSink = std::function<sim::Task<Status>(
      const ObjectId& oid, storage::WriteBatch batch, obs::TraceContext trace)>;
  using RemoteInvoker = std::function<sim::Task<Result<std::string>>(
      ObjectId oid, std::string method, std::string argument,
      obs::TraceContext trace)>;
  using CpuCharger = std::function<sim::Task<void>(uint64_t fuel)>;
  /// Nanoseconds: sim virtual time or CLOCK_MONOTONIC. Stamps spans and
  /// backs InvocationContext::TimeMillis.
  using Clock = std::function<int64_t()>;

  Runtime(Clock clock, storage::DB* db, const TypeRegistry* types,
          RuntimeOptions options = {});

  /// Instantiates an object of `type_name`. Fails if it already exists —
  /// except when a non-empty `token` matches the marker of an earlier
  /// create of the same object, i.e. this is a retry whose ack was lost;
  /// that returns success so retried creates are idempotent.
  sim::Task<Result<std::string>> CreateObject(ObjectId oid, std::string type_name,
                                              std::string token = {});

  /// Invokes `method` on `oid` with invocation linearizability. A sampled
  /// `trace` context parents the vm_exec/commit spans this records. A
  /// non-empty `token` (stable across client retries) makes the commits
  /// idempotent: a commit whose marker is already present is skipped, so
  /// a retry after a lost ack or a failover never double-applies.
  /// A nonzero `tenant` attributes the invocation for QoS: DRR lane-lock
  /// scheduling and per-tenant fuel-window accounting (see
  /// RuntimeOptions::tenants).
  sim::Task<Result<std::string>> Invoke(ObjectId oid, std::string method,
                                        std::string argument,
                                        obs::TraceContext trace = {},
                                        std::string token = {},
                                        tenant::TenantId tenant = 0);

  /// Type name of an existing object (NotFound otherwise).
  Result<std::string> TypeOf(std::string_view oid);

  /// The gate of every read path: OK iff `method` is registered read-only
  /// on `oid`'s type. A mutating method there would fork history on a
  /// backup, and at the primary it would bypass lambda.invoke's
  /// idempotency token. A missing object answers with the type lookup's
  /// status, any other refusal with kNotPrimary.
  Status CheckReadOnly(std::string_view oid, std::string_view method);

  void SetCommitSink(CommitSink sink) { commit_sink_ = std::move(sink); }
  void SetRemoteInvoker(RemoteInvoker invoker) { remote_invoker_ = std::move(invoker); }
  void SetCpuCharger(CpuCharger charger) { cpu_charger_ = std::move(charger); }

  /// Cache invalidation hook for writes that bypass this runtime (e.g.
  /// replicated batches applied on a backup). Counted as remote
  /// invalidations in cache stats.
  void OnExternalCommit(const storage::WriteBatch& batch);

  /// Drops every cached result. Called on promotion (backup -> primary):
  /// entries cached while backup reflect the old primary's history and
  /// must not survive into the new epoch.
  void ClearResultCache();
  size_t result_cache_size() const { return cache_.size(); }

  struct Metrics {
    uint64_t invocations = 0;
    uint64_t read_only_invocations = 0;
    uint64_t nested_invocations = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t lock_waits = 0;  // invocations that queued behind their lane
    uint64_t max_busy_lanes = 0;  // high-water mark of concurrently held lanes
    uint64_t fuel_executed = 0;
    /// Commits skipped because their idempotency marker was already
    /// durable (a retried invocation that had in fact applied).
    uint64_t dedup_commit_skips = 0;
  };
  const Metrics& metrics() const { return metrics_; }
  const ResultCache::Stats& cache_stats() const { return cache_.stats(); }

  // --- internal API used by InvocationContext --------------------------
  /// Commits the context's buffered writes through the sink and
  /// invalidates overlapping cache entries. No-op on an empty buffer.
  sim::Task<Status> CommitContext(InvocationContext& ctx);
  /// Snapshot-or-latest read from the local store.
  Result<std::string> StorageRead(const std::string& key,
                                  const storage::Snapshot* snapshot);
  sim::Task<Result<std::string>> NestedInvoke(InvocationContext& caller,
                                              ObjectId oid, std::string method,
                                              std::string argument);
  uint64_t TimeMillis() const;
  storage::DB* db() { return db_; }

  // --- lane introspection (obs export, tests, Transaction) -------------
  size_t lanes() const { return lanes_.size(); }
  /// The lane an object's invocations are pinned to.
  size_t LaneIndexFor(const ObjectId& oid) const;
  /// The lane's scheduling lock. Transactions lock several lanes: they
  /// must dedupe indices (two objects can share a lane) and lock in
  /// ascending index order to stay deadlock-free.
  AsyncMutex& LaneLock(size_t lane) { return *lanes_[lane]; }
  /// Lanes whose lock is currently held (instantaneous occupancy).
  size_t BusyLanes() const;
  /// Invocations scheduled on `lane` so far.
  uint64_t lane_acquisitions(size_t lane) const { return lane_acquisitions_[lane]; }

  // --- internal API used by Transaction (runtime/transaction.h) --------
  /// The scheduling lock for an object's lane (kept for tests).
  AsyncMutex& LockForTesting(const ObjectId& oid) { return LockFor(oid); }
  /// Commits a cross-object batch through the sink + cache invalidation.
  sim::Task<Status> CommitBatchForTransaction(
      const ObjectId& routing_oid, storage::WriteBatch batch,
      const std::vector<std::string>& written_keys);

 private:
  sim::Task<Result<std::string>> RunMethod(const MethodImpl& method,
                                           std::string_view method_name,
                                           InvocationContext& ctx,
                                           std::string argument, uint64_t* fuel,
                                           tenant::TenantId tenant = 0);
  AsyncMutex& LockFor(const ObjectId& oid);
  /// Awaits the lane lock and updates wait/occupancy metrics. The tenant
  /// id selects the DRR grant group (see async_mutex.h).
  sim::Task<void> AcquireLane(size_t lane, tenant::TenantId tenant = 0);

  Clock clock_;
  storage::DB* db_;
  const TypeRegistry* types_;
  RuntimeOptions options_;
  CommitSink commit_sink_;
  RemoteInvoker remote_invoker_;
  CpuCharger cpu_charger_;
  std::vector<std::unique_ptr<AsyncMutex>> lanes_;
  std::vector<uint64_t> lane_acquisitions_;
  ResultCache cache_;
  Metrics metrics_;
};

}  // namespace lo::runtime
