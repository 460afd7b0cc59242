#include "runtime/runtime.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/log.h"

namespace lo::runtime {
namespace {

/// Entries of the consistent result cache.
constexpr size_t kResultCacheCapacity = 4096;
/// Fuel equivalent charged for native methods (they are not metered).
constexpr uint64_t kNativeFuelEstimate = 2000;

}  // namespace

Runtime::Runtime(Clock clock, storage::DB* db, const TypeRegistry* types,
                 RuntimeOptions options)
    : clock_(std::move(clock)),
      db_(db),
      types_(types),
      options_(options),
      cache_(kResultCacheCapacity) {
  size_t lanes = std::max<size_t>(1, options_.lanes);
  lanes_.reserve(lanes);
  for (size_t i = 0; i < lanes; ++i) lanes_.push_back(std::make_unique<AsyncMutex>());
  lane_acquisitions_.assign(lanes, 0);
  // Default commit sink: local durable write.
  commit_sink_ = [this](const ObjectId&, storage::WriteBatch batch,
                        obs::TraceContext trace) -> sim::Task<Status> {
    co_return db_->Write({.sync = true, .trace = trace}, &batch);
  };
  // Default remote invoker: every object is local.
  remote_invoker_ = [this](ObjectId oid, std::string method,
                           std::string argument,
                           obs::TraceContext trace) -> sim::Task<Result<std::string>> {
    return Invoke(std::move(oid), std::move(method), std::move(argument), trace);
  };
}

uint64_t Runtime::TimeMillis() const {
  return static_cast<uint64_t>(clock_() / 1'000'000);
}

Result<std::string> Runtime::StorageRead(const std::string& key,
                                         const storage::Snapshot* snapshot) {
  storage::ReadOptions opts;
  opts.snapshot = snapshot;
  return db_->Get(opts, key);
}

Result<std::string> Runtime::TypeOf(std::string_view oid) {
  return db_->Get({}, ObjectExistsKey(oid));
}

Status Runtime::CheckReadOnly(std::string_view oid, std::string_view method) {
  auto type_name = TypeOf(oid);
  if (!type_name.ok()) return type_name.status();
  const ObjectType* type = types_->Find(*type_name);
  const MethodImpl* impl = type == nullptr ? nullptr : type->FindMethod(method);
  if (impl == nullptr || impl->kind != MethodKind::kReadOnly) {
    return Status::NotPrimary("not a read-only method");
  }
  return Status::OK();
}

size_t Runtime::LaneIndexFor(const ObjectId& oid) const {
  return static_cast<size_t>(Fnv1a64(oid) % lanes_.size());
}

AsyncMutex& Runtime::LockFor(const ObjectId& oid) {
  return *lanes_[LaneIndexFor(oid)];
}

size_t Runtime::BusyLanes() const {
  size_t busy = 0;
  for (const auto& lane : lanes_) busy += lane->locked() ? 1 : 0;
  return busy;
}

sim::Task<void> Runtime::AcquireLane(size_t lane, tenant::TenantId tenant) {
  AsyncMutex& lock = *lanes_[lane];
  if (lock.locked()) metrics_.lock_waits++;
  uint32_t weight =
      options_.tenants != nullptr ? options_.tenants->WeightFor(tenant) : 1;
  co_await lock.Lock(tenant, weight);
  lane_acquisitions_[lane]++;
  size_t busy = BusyLanes();
  if (busy > metrics_.max_busy_lanes) metrics_.max_busy_lanes = busy;
}

sim::Task<Result<std::string>> Runtime::CreateObject(ObjectId oid,
                                                     std::string type_name,
                                                     std::string token) {
  if (oid.empty() || oid.find('\0') != std::string::npos) {
    co_return Status::InvalidArgument("invalid object id");
  }
  if (types_->Find(type_name) == nullptr) {
    co_return Status::NotFound("unknown object type: " + type_name);
  }
  size_t lane = LaneIndexFor(oid);
  AsyncMutex& lock = *lanes_[lane];
  co_await AcquireLane(lane);
  Result<std::string> existing = TypeOf(oid);
  if (existing.ok()) {
    // "Already exists" from our own earlier attempt (create committed,
    // ack lost, client retried) is success, not a conflict.
    bool own_retry = !token.empty() &&
                     db_->Get({}, AppliedMarkerKey(oid, token, 0)).ok();
    lock.Unlock();
    if (own_retry) {
      metrics_.dedup_commit_skips++;
      co_return oid;
    }
    co_return Status::FailedPrecondition("object already exists: " + oid);
  }
  storage::WriteBatch batch;
  batch.Put(ObjectExistsKey(oid), type_name);
  if (!token.empty()) batch.Put(AppliedMarkerKey(oid, token, 0), "");
  Status s = co_await commit_sink_(oid, std::move(batch), {});
  metrics_.commits++;
  lock.Unlock();
  if (!s.ok()) co_return s;
  co_return oid;
}

sim::Task<Result<std::string>> Runtime::Invoke(ObjectId oid, std::string method,
                                               std::string argument,
                                               obs::TraceContext trace,
                                               std::string token,
                                               tenant::TenantId tenant) {
  metrics_.invocations++;
  Result<std::string> type_name = TypeOf(oid);
  if (!type_name.ok()) {
    co_return Status::NotFound("no such object: " + oid);
  }
  const ObjectType* type = types_->Find(*type_name);
  if (type == nullptr) {
    co_return Status::Corruption("object has unregistered type: " + *type_name);
  }
  const MethodImpl* impl = type->FindMethod(method);
  if (impl == nullptr) {
    co_return Status::NotFound("no method " + method + " on type " + *type_name);
  }

  if (impl->kind == MethodKind::kReadOnly) {
    metrics_.read_only_invocations++;
    // Consistent cache: co-location means every commit passed through
    // this node, so a surviving entry is exact.
    std::string cache_key;
    uint64_t fill = 0;
    if (impl->deterministic && options_.enable_result_cache) {
      cache_key = ResultCache::MakeKey(oid, method, argument);
      if (auto cached = cache_.Lookup(cache_key)) {
        co_return std::move(*cached);
      }
      fill = cache_.BeginFill();  // before the snapshot: see result_cache.h
    }
    const storage::Snapshot* snapshot = db_->GetSnapshot();
    InvocationContext ctx(this, oid, MethodKind::kReadOnly, snapshot);
    ctx.set_trace(trace);
    uint64_t fuel = 0;
    auto result =
        co_await RunMethod(*impl, method, ctx, std::move(argument), &fuel, tenant);
    db_->ReleaseSnapshot(snapshot);
    if (cpu_charger_) {
      int64_t exec_started = clock_();
      co_await cpu_charger_(fuel);
      if (obs::Tracing(options_.tracer, trace)) {
        options_.tracer->RecordChild(trace, "vm_exec", options_.node_label,
                                     exec_started, clock_());
      }
    }
    if (!cache_key.empty()) {
      if (result.ok()) {
        cache_.Insert(fill, cache_key, *result, ctx.read_set());
      } else {
        cache_.AbandonFill(fill);
      }
    }
    co_return result;
  }

  // Read-write: exclusive per lane. Same-object invocations share a lane
  // (FIFO — per-object linearizability); distinct objects usually land on
  // different lanes and run concurrently.
  size_t lane = LaneIndexFor(oid);
  AsyncMutex& lock = *lanes_[lane];
  co_await AcquireLane(lane, tenant);
  InvocationContext ctx(this, oid, MethodKind::kReadWrite, /*snapshot=*/nullptr);
  ctx.set_object_lock(&lock);
  ctx.set_trace(trace);
  ctx.set_idempotency_token(std::move(token));
  uint64_t fuel = 0;
  auto result =
      co_await RunMethod(*impl, method, ctx, std::move(argument), &fuel, tenant);
  if (result.ok()) {
    int64_t commit_started = clock_();
    bool had_writes = ctx.has_writes();
    Status commit = co_await CommitContext(ctx);
    if (had_writes && obs::Tracing(options_.tracer, trace)) {
      options_.tracer->RecordChild(trace, "commit", options_.node_label,
                                   commit_started, clock_());
    }
    if (!commit.ok()) {
      metrics_.aborts++;
      result = commit;
    }
  } else {
    // Trap or error: buffered writes are discarded — atomicity.
    metrics_.aborts++;
  }
  lock.Unlock();
  if (cpu_charger_) {
    int64_t exec_started = clock_();
    co_await cpu_charger_(fuel);
    if (obs::Tracing(options_.tracer, trace)) {
      options_.tracer->RecordChild(trace, "vm_exec", options_.node_label,
                                   exec_started, clock_());
    }
  }
  co_return result;
}

sim::Task<Result<std::string>> Runtime::RunMethod(const MethodImpl& impl,
                                                  std::string_view method_name,
                                                  InvocationContext& ctx,
                                                  std::string argument,
                                                  uint64_t* fuel,
                                                  tenant::TenantId tenant) {
  tenant::TenantRegistry* tenants =
      tenant != 0 ? options_.tenants : nullptr;
  if (impl.native) {
    *fuel = kNativeFuelEstimate;
    metrics_.fuel_executed += *fuel;
    if (tenants != nullptr) {
      // Native methods are not metered instruction-by-instruction; charge
      // the flat estimate up front and refuse to run on a dry window.
      Status charged = tenants->ChargeFuel(tenant, *fuel);
      if (!charged.ok()) co_return charged;
    }
    co_return co_await impl.native(ctx, std::move(argument));
  }
  vm::VmLimits limits;
  if (tenants != nullptr) {
    // Debit the tenant's window as the VM burns fuel: a mid-invocation
    // exhaustion traps the invocation (buffered writes are discarded by
    // the abort path in Invoke) with the throttle status.
    limits.fuel_tap = [tenants, tenant](uint64_t spent) {
      return tenants->ChargeFuel(tenant, spent);
    };
  }
  vm::Instance instance(impl.module.get(), limits);
  auto result =
      co_await instance.Invoke(method_name, std::move(argument), &ctx);
  *fuel = instance.metrics().fuel_used;
  metrics_.fuel_executed += *fuel;
  co_return result;
}

sim::Task<Status> Runtime::CommitContext(InvocationContext& ctx) {
  if (!ctx.has_writes()) co_return Status::OK();
  std::vector<std::string> written = ctx.written_keys();
  storage::WriteBatch batch = ctx.TakeWriteBatch();
  if (!ctx.idempotency_token().empty()) {
    std::string marker =
        AppliedMarkerKey(ctx.oid(), ctx.idempotency_token(), ctx.NextCommitIndex());
    if (db_->Get({}, marker).ok()) {
      // This commit already applied durably — the client's earlier attempt
      // got this far but its ack was lost (crash, partition, failover; the
      // marker replicates inside the batch, so a promoted backup sees it
      // too). The retry's re-execution may have buffered slightly
      // different bytes (it read post-commit state), but the committed
      // effect it represents is already in, so applying again would
      // double-apply. Report success and drop the buffer.
      metrics_.dedup_commit_skips++;
      co_return Status::OK();
    }
    // Marker rides in the same atomic batch as the writes it guards.
    batch.Put(marker, "");
  }
  Status s = co_await commit_sink_(ctx.oid(), std::move(batch), ctx.trace());
  if (s.ok()) {
    metrics_.commits++;
    cache_.InvalidateWrites(written);
  }
  co_return s;
}

sim::Task<Result<std::string>> Runtime::NestedInvoke(InvocationContext& caller,
                                                     ObjectId oid,
                                                     std::string method,
                                                     std::string argument) {
  metrics_.nested_invocations++;
  // Paper §3.1: the caller's guarantees do not span the nested call —
  // its writes commit first and its object lock is *released* for the
  // duration of the call, so cyclic invocation patterns (A posts to B
  // while B posts to A) cannot deadlock; the caller then continues as a
  // logically separate invocation. Self-invocation works for the same
  // reason.
  AsyncMutex* lock = caller.object_lock();
  if (caller.kind() == MethodKind::kReadWrite) {
    if (caller.has_writes()) {
      Status s = co_await CommitContext(caller);
      if (!s.ok()) co_return s;
    }
    if (lock != nullptr) lock->Unlock();
  }
  auto result = co_await remote_invoker_(std::move(oid), std::move(method),
                                         std::move(argument), caller.trace());
  if (caller.kind() == MethodKind::kReadWrite && lock != nullptr) {
    co_await lock->Lock();
  }
  co_return result;
}

sim::Task<Status> Runtime::CommitBatchForTransaction(
    const ObjectId& routing_oid, storage::WriteBatch batch,
    const std::vector<std::string>& written_keys) {
  Status s = co_await commit_sink_(routing_oid, std::move(batch), {});
  if (s.ok()) {
    metrics_.commits++;
    cache_.InvalidateWrites(written_keys);
  }
  co_return s;
}

void Runtime::OnExternalCommit(const storage::WriteBatch& batch) {
  struct Collector : storage::WriteBatch::Handler {
    std::vector<std::string> keys;
    void Put(std::string_view key, std::string_view) override {
      keys.emplace_back(key);
    }
    void Delete(std::string_view key) override { keys.emplace_back(key); }
  } collector;
  batch.Iterate(&collector).ok();
  cache_.InvalidateWrites(collector.keys, /*remote=*/true);
}

void Runtime::ClearResultCache() { cache_.Clear(); }

}  // namespace lo::runtime
