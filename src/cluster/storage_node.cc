#include "cluster/storage_node.h"

#include "cluster/microshard.h"
#include "common/coding.h"
#include "common/log.h"
#include "runtime/object.h"

namespace lo::cluster {
namespace {

/// The node DB's memtable flush threshold.
constexpr size_t kDbWriteBufferSize = 8 << 20;
/// The node DB's SSTable block cache. Read-heavy workloads (GetTimeline)
/// live or die on it.
constexpr size_t kDbBlockCacheBytes = 16 << 20;

std::string EncodeInvoke(std::string_view oid, std::string_view method,
                         std::string_view argument) {
  std::string out;
  PutLengthPrefixed(&out, oid);
  PutLengthPrefixed(&out, method);
  PutLengthPrefixed(&out, argument);
  return out;
}

bool DecodeInvoke(std::string_view payload, std::string_view* oid,
                  std::string_view* method, std::string_view* argument,
                  std::string_view* token) {
  Reader reader{payload};
  if (!reader.GetLengthPrefixed(oid) || !reader.GetLengthPrefixed(method) ||
      !reader.GetLengthPrefixed(argument)) {
    return false;
  }
  // Optional idempotency token: client requests carry one; node-to-node
  // forwards of nested invocations (EncodeInvoke) do not.
  *token = {};
  reader.GetLengthPrefixed(token);
  return true;
}

}  // namespace

StorageNode::StorageNode(sim::Network& net, sim::NodeId id,
                         const runtime::TypeRegistry* types,
                         std::vector<sim::NodeId> coordinators,
                         StorageNodeOptions options)
    : options_(options),
      rpc_(net, id),
      cpu_(net.sim(), options.cores) {
  rpc_.SetTracer(options.tracer);
  storage::Options db_options;
  db_options.env = &env_;
  db_options.write_buffer_size = kDbWriteBufferSize;
  db_options.block_cache_bytes = kDbBlockCacheBytes;
  db_options.tracer = options.tracer;
  db_options.node_label = id;
  if (options.tracer != nullptr) {
    db_options.clock = [sim = &net.sim()] { return sim->Now(); };
  }
  db_ = std::move(*storage::DB::Open(db_options, "/lambdastore"));
  options_.runtime.tracer = options.tracer;
  options_.runtime.node_label = id;
  options_.runtime.tenants = options.tenants;  // per-tenant fuel + DRR lanes
  runtime_ = std::make_unique<runtime::Runtime>(
      [sim = &net.sim()] { return sim->Now(); }, db_.get(), types,
      options_.runtime);
  replicator_ = std::make_unique<replication::Replicator>(
      &rpc_, db_.get(), options.replication_mode);
  replicator_->SetApplyHook([this](const storage::WriteBatch& batch) {
    runtime_->OnExternalCommit(batch);
  });
  // Promotion (backup -> primary) drops the whole result cache: entries
  // cached while backup belong to the old primary's history and must not
  // be served under the new epoch (failover read-safety).
  replicator_->SetPromotionHook([this](replication::ShardId, uint64_t) {
    runtime_->ClearResultCache();
  });

  // The node's WAL device: serial fsyncs, group commit (the sink runs
  // once per group — one replication round per fsync, both amortized).
  group_committer_ = std::make_unique<WalGroupCommitter>(
      &net.sim(),
      [this](coord::ShardId shard, storage::WriteBatch batch,
             obs::TraceContext trace) -> sim::Task<Status> {
        co_return co_await replicator_->ReplicateAndApply(shard, std::move(batch),
                                                          trace);
      },
      options.gc_max_batch_bytes, options.tracer, id);

  // Commit path of the runtime: through the WAL device (group commit),
  // then replicate within the object's shard.
  runtime_->SetCommitSink(
      [this](const runtime::ObjectId& oid, storage::WriteBatch batch,
             obs::TraceContext trace) -> sim::Task<Status> {
        co_return co_await group_committer_->Commit(shard_map_.ShardFor(oid),
                                                    std::move(batch), trace);
      });
  // CPU: sandbox instantiation plus executed fuel occupies a worker core.
  runtime_->SetCpuCharger([this](uint64_t fuel) -> sim::Task<void> {
    return cpu_.Execute(options_.vm_instantiation_overhead +
                        static_cast<sim::Duration>(fuel * options_.ns_per_fuel));
  });
  // Nested invocations route through the shard map.
  runtime_->SetRemoteInvoker(
      [this](runtime::ObjectId oid, std::string method, std::string argument,
             obs::TraceContext trace) -> sim::Task<Result<std::string>> {
        if (IsPrimaryFor(oid) && !migrated_away_.contains(oid)) {
          metrics_.invokes_served++;
          co_return co_await runtime_->Invoke(std::move(oid), std::move(method),
                                              std::move(argument), trace);
        }
        sim::NodeId target = shard_map_.PrimaryFor(oid);
        if (target == 0) co_return Status::Unavailable("no shard map");
        metrics_.forwarded_invokes++;
        co_return co_await rpc_.Call(target, "lambda.invoke",
                                     EncodeInvoke(oid, method, argument),
                                     sim::Millis(200), trace);
      });

  if (!coordinators.empty()) {
    coord_client_ = std::make_unique<coord::CoordClient>(
        &rpc_, std::move(coordinators),
        [this](const coord::ClusterState& state) { ApplyConfig(state); });
  }

  // Serving handlers take the full request meta: the wire-level tenant id
  // gates admission before any lane or storage work happens.
  rpc_.Handle("lambda.invoke", [this](sim::RpcEndpoint::RequestMeta meta,
                                      std::string payload) {
    return Admitted(meta.tenant,
                    [this, meta, payload = std::move(payload)]() mutable {
                      return HandleInvoke(meta.trace, meta.tenant,
                                          std::move(payload));
                    });
  });
  rpc_.Handle("lambda.invoke2", [this](sim::RpcEndpoint::RequestMeta meta,
                                       std::string payload) {
    return Admitted(meta.tenant,
                    [this, meta, payload = std::move(payload)]() mutable {
                      return HandleInvoke2(meta.trace, meta.tenant,
                                           std::move(payload));
                    });
  });
  rpc_.Handle("lambda.create2", [this](sim::RpcEndpoint::RequestMeta meta,
                                       std::string payload) {
    return Admitted(meta.tenant,
                    [this, payload = std::move(payload)]() mutable {
                      return HandleCreate(std::move(payload));
                    });
  });
  rpc_.Handle("lambda.read", [this](sim::RpcEndpoint::RequestMeta meta,
                                    std::string payload) {
    return Admitted(meta.tenant,
                    [this, meta, payload = std::move(payload)]() mutable {
                      return HandleRead(meta.trace, meta.tenant,
                                        std::move(payload));
                    });
  });
  rpc_.Handle("kv.get", [this](sim::NodeId from, std::string payload) {
    return HandleKvGet(from, std::move(payload));
  });
  rpc_.Handle("kv.put", [this](sim::NodeId from, obs::TraceContext trace,
                               std::string payload) {
    return HandleKvPut(from, trace, std::move(payload));
  });
  rpc_.Handle("kv.batch", [this](sim::NodeId from, obs::TraceContext trace,
                                 std::string payload) {
    return HandleKvBatch(from, trace, std::move(payload));
  });
  rpc_.Handle("shard.extract", [this](sim::NodeId from, std::string payload) {
    return HandleExtract(from, std::move(payload));
  });
  rpc_.Handle("shard.install", [this](sim::NodeId from, std::string payload) {
    return HandleInstall(from, std::move(payload));
  });

  if (options.metrics_registry != nullptr) {
    RegisterMetrics(options.metrics_registry);
  }
}

void StorageNode::RegisterMetrics(obs::MetricsRegistry* reg) {
  uint32_t node = id();
  // Node-level counters: live pointers into metrics_, hot path unchanged.
  reg->RegisterExternal("node.invokes_served", node, &metrics_.invokes_served);
  reg->RegisterExternal("node.invokes_rejected_not_primary", node,
                        &metrics_.invokes_rejected_not_primary);
  reg->RegisterExternal("node.forwarded_invokes", node,
                        &metrics_.forwarded_invokes);
  reg->RegisterExternal("node.kv_ops_served", node, &metrics_.kv_ops_served);
  reg->RegisterExternal("node.objects_migrated_out", node,
                        &metrics_.objects_migrated_out);
  reg->RegisterExternal("node.objects_migrated_in", node,
                        &metrics_.objects_migrated_in);
  // Runtime: the accessor keeps returning the same live struct.
  const runtime::Runtime::Metrics& rt = runtime_->metrics();
  reg->RegisterExternal("runtime.invocations", node, &rt.invocations);
  reg->RegisterExternal("runtime.read_only_invocations", node,
                        &rt.read_only_invocations);
  reg->RegisterExternal("runtime.nested_invocations", node,
                        &rt.nested_invocations);
  reg->RegisterExternal("runtime.commits", node, &rt.commits);
  reg->RegisterExternal("runtime.aborts", node, &rt.aborts);
  reg->RegisterExternal("runtime.lock_waits", node, &rt.lock_waits);
  reg->RegisterExternal("runtime.max_busy_lanes", node, &rt.max_busy_lanes);
  reg->RegisterExternal("runtime.fuel_executed", node, &rt.fuel_executed);
  // Lane occupancy: configured width plus the instantaneous busy count.
  reg->RegisterCallback("runtime.lanes", node, [this] {
    return static_cast<double>(runtime_->lanes());
  });
  reg->RegisterCallback("runtime.busy_lanes", node, [this] {
    return static_cast<double>(runtime_->BusyLanes());
  });
  reg->RegisterExternal("runtime.dedup_commit_skips", node,
                        &rt.dedup_commit_skips);
  const runtime::ResultCache::Stats& cache = runtime_->cache_stats();
  reg->RegisterExternal("runtime.cache_hits", node, &cache.hits);
  reg->RegisterExternal("runtime.cache_misses", node, &cache.misses);
  reg->RegisterExternal("result_cache.remote_invalidations", node,
                        &cache.remote_invalidations);
  // Replicator.
  const replication::Replicator::Metrics& repl = replicator_->metrics();
  reg->RegisterExternal("repl.replicated_batches", node,
                        &repl.replicated_batches);
  reg->RegisterExternal("repl.applied_batches", node, &repl.applied_batches);
  reg->RegisterExternal("repl.reordered_arrivals", node,
                        &repl.reordered_arrivals);
  reg->RegisterExternal("repl.stale_epoch_rejections", node,
                        &repl.stale_epoch_rejections);
  reg->RegisterExternal("repl.failed_peer_acks", node, &repl.failed_peer_acks);
  reg->RegisterExternal("repl.promotions", node, &repl.promotions);
  // Follower-read path: served-at-backup count, bounce count, and this
  // node's apply-epoch (highest applied replication seq across shards).
  reg->RegisterExternal("repl.follower_reads", node, &metrics_.follower_reads);
  reg->RegisterExternal("repl.epoch_bounces", node, &metrics_.epoch_bounces);
  reg->RegisterCallback("repl.apply_epoch", node, [this] {
    return static_cast<double>(replicator_->max_applied_seq());
  });
  // WAL group commit: how well fsyncs amortize over commits.
  const storage::GroupCommitStats& gc = group_committer_->stats();
  reg->RegisterExternal("gc.commits", node, &gc.commits);
  reg->RegisterExternal("gc.groups", node, &gc.groups);
  reg->RegisterExternal("gc.synced_bytes", node, &gc.coalesced_bytes);
  reg->RegisterExternal("gc.max_group_commits", node, &gc.max_group_commits);
  reg->RegisterExternal("gc.sync_failures", node, &gc.sync_failures);
  reg->RegisterCallback("gc.fsyncs_per_commit", node, [this] {
    const auto& s = group_committer_->stats();
    return s.commits == 0 ? 0.0
                          : static_cast<double>(s.groups) /
                                static_cast<double>(s.commits);
  });
  // DB stats are returned by value; read lazily at snapshot time.
  reg->RegisterCallback("db.wal_syncs", node, [this] {
    return static_cast<double>(db_->GetStats().wal_syncs);
  });
  reg->RegisterCallback("db.flushes", node, [this] {
    return static_cast<double>(db_->GetStats().flushes);
  });
  reg->RegisterCallback("db.compactions", node, [this] {
    return static_cast<double>(db_->GetStats().compactions);
  });
  reg->RegisterCallback("db.compaction_bytes_written", node, [this] {
    return static_cast<double>(db_->GetStats().compaction_bytes_written);
  });
  reg->RegisterCallback("compaction.bytes", node, [this] {
    const auto s = db_->GetStats();
    return static_cast<double>(s.compaction_bytes_read + s.compaction_bytes_written);
  });
  // Recovery path: these stay zero in healthy runs; any nonzero value in a
  // fault experiment shows which recovery mechanism fired.
  reg->RegisterCallback("db.recoveries", node, [this] {
    return static_cast<double>(db_->GetStats().recoveries);
  });
  reg->RegisterCallback("db.wal_records_replayed", node, [this] {
    return static_cast<double>(db_->GetStats().wal_records_replayed);
  });
  reg->RegisterCallback("db.wal_torn_tails", node, [this] {
    return static_cast<double>(db_->GetStats().wal_torn_tails);
  });
  reg->RegisterCallback("db.manifest_torn_tails", node, [this] {
    return static_cast<double>(db_->GetStats().manifest_torn_tails);
  });
  reg->RegisterCallback("db.wal_write_failures", node, [this] {
    return static_cast<double>(db_->GetStats().wal_write_failures);
  });
  reg->RegisterCallback("db.wal_rotations_after_error", node, [this] {
    return static_cast<double>(db_->GetStats().wal_rotations_after_error);
  });
  // Block cache: hit ratio is the read path's health metric; bytes shows
  // steady-state residency against the configured capacity.
  reg->RegisterCallback("cache.hit", node, [this] {
    return static_cast<double>(db_->GetStats().block_cache_hits);
  });
  reg->RegisterCallback("cache.miss", node, [this] {
    return static_cast<double>(db_->GetStats().block_cache_misses);
  });
  reg->RegisterCallback("cache.evict", node, [this] {
    return static_cast<double>(db_->GetStats().block_cache_evictions);
  });
  reg->RegisterCallback("cache.bytes", node, [this] {
    return static_cast<double>(db_->GetStats().block_cache_bytes);
  });
  // RPC + CPU.
  reg->RegisterCallback("rpc.calls_started", node, [this] {
    return static_cast<double>(rpc_.calls_started());
  });
  reg->RegisterCallback("rpc.timeouts", node, [this] {
    return static_cast<double>(rpc_.timeouts());
  });
  reg->RegisterCallback("rpc.frame_rejects", node, [this] {
    return static_cast<double>(rpc_.frame_rejects());
  });
  reg->RegisterCallback("rpc.deadline_sheds", node, [this] {
    return static_cast<double>(rpc_.deadline_sheds());
  });
  reg->RegisterCallback("cpu.busy_core_ns", node, [this] {
    return static_cast<double>(cpu_.busy_core_ns());
  });
}

void StorageNode::RecordSpan(const obs::TraceContext& trace, const char* name,
                             sim::Time started) {
  if (!obs::Tracing(options_.tracer, trace)) return;
  options_.tracer->RecordChild(trace, name, id(), started, rpc_.sim().Now());
}

void StorageNode::Start() {
  if (coord_client_ != nullptr) coord_client_->Start();
}

void StorageNode::ApplyConfig(const coord::ClusterState& state) {
  shard_map_.Update(state);
  // A node typically is primary for one shard and backup for others;
  // replication state is kept per shard.
  for (const auto& [shard, config] : state.shards) {
    if (config.primary == id()) {
      replicator_->Configure(shard, config.epoch, /*is_primary=*/true,
                             config.backups);
    } else {
      for (size_t i = 0; i < config.backups.size(); i++) {
        if (config.backups[i] != id()) continue;
        std::vector<sim::NodeId> successors;
        if (options_.replication_mode == replication::Mode::kChain &&
            i + 1 < config.backups.size()) {
          successors.push_back(config.backups[i + 1]);
        }
        replicator_->Configure(shard, config.epoch, /*is_primary=*/false,
                               successors);
      }
    }
  }
}

bool StorageNode::IsPrimaryFor(std::string_view oid) const {
  return shard_map_.PrimaryFor(oid) == id();
}

bool StorageNode::IsReplicaFor(std::string_view oid) const {
  const coord::ShardConfig* config = shard_map_.ConfigFor(shard_map_.ShardFor(oid));
  return config != nullptr && config->Contains(id());
}

sim::Task<Result<std::string>> StorageNode::InvokeLocal(runtime::ObjectId oid,
                                                        std::string method,
                                                        std::string argument,
                                                        obs::TraceContext trace,
                                                        std::string token,
                                                        tenant::TenantId tenant) {
  metrics_.invokes_served++;
  co_return co_await runtime_->Invoke(std::move(oid), std::move(method),
                                      std::move(argument), trace,
                                      std::move(token), tenant);
}

sim::Task<Result<std::string>> StorageNode::Admitted(
    uint32_t tenant, std::function<sim::Task<Result<std::string>>()> body) {
  tenant::TenantRegistry* tenants = options_.tenants;
  if (tenants != nullptr) {
    Status admitted = tenants->Admit(tenant);
    if (!admitted.ok()) co_return admitted;
  }
  // Errors travel in-band as statuses, so the single resume point below
  // covers every exit: the in-flight slot is always released once.
  auto result = co_await body();
  if (tenants != nullptr) tenants->Release(tenant);
  co_return result;
}

sim::Task<Result<std::string>> StorageNode::HandleInvoke(obs::TraceContext trace,
                                                         uint32_t tenant,
                                                         std::string payload) {
  std::string_view oid, method, argument, token;
  if (!DecodeInvoke(payload, &oid, &method, &argument, &token)) {
    co_return Status::Corruption("bad invoke payload");
  }
  sim::Time dispatch_started = rpc_.sim().Now();
  co_await rpc_.sim().Sleep(options_.dispatch_overhead);
  RecordSpan(trace, "dispatch", dispatch_started);
  if (migrated_away_.contains(std::string(oid))) {
    metrics_.invokes_rejected_not_primary++;
    co_return Status::WrongNode("object migrated away");
  }
  if (!IsPrimaryFor(oid)) {
    // Backups serve reads only through the epoch-gated "lambda.read".
    metrics_.invokes_rejected_not_primary++;
    co_return Status::WrongNode("not primary for object");
  }
  co_return co_await InvokeLocal(runtime::ObjectId(oid), std::string(method),
                                 std::string(argument), trace,
                                 std::string(token), tenant);
}

sim::Task<Result<std::string>> StorageNode::HandleCreate(std::string payload) {
  Reader reader{payload};
  std::string_view oid, type_name;
  if (!reader.GetLengthPrefixed(&oid) || !reader.GetLengthPrefixed(&type_name)) {
    co_return Status::Corruption("bad create payload");
  }
  std::string_view token;  // optional third field (see DecodeInvoke)
  reader.GetLengthPrefixed(&token);
  coord::ShardId shard = shard_map_.ShardFor(oid);
  co_await rpc_.sim().Sleep(options_.dispatch_overhead);
  if (!IsPrimaryFor(oid)) co_return Status::WrongNode("not primary for object");
  auto result = co_await runtime_->CreateObject(runtime::ObjectId(oid),
                                                std::string(type_name),
                                                std::string(token));
  if (!result.ok()) co_return result.status();
  co_return replication::EncodeTokenWrapped(replicator_->ApplyToken(shard),
                                            *result);
}

sim::Task<Result<std::string>> StorageNode::HandleInvoke2(obs::TraceContext trace,
                                                          uint32_t tenant,
                                                          std::string payload) {
  std::string_view oid, method, argument, token;
  if (!DecodeInvoke(payload, &oid, &method, &argument, &token)) {
    co_return Status::Corruption("bad invoke payload");
  }
  coord::ShardId shard = shard_map_.ShardFor(oid);
  auto result = co_await HandleInvoke(trace, tenant, std::move(payload));
  if (!result.ok()) co_return result.status();
  co_return replication::EncodeTokenWrapped(replicator_->ApplyToken(shard),
                                            *result);
}

sim::Task<Result<std::string>> StorageNode::HandleRead(obs::TraceContext trace,
                                                       uint32_t tenant,
                                                       std::string payload) {
  replication::ReadRequest read;
  if (!replication::DecodeReadRequest(payload, &read)) {
    co_return Status::Corruption("bad read payload");
  }
  const std::string_view oid = read.oid;
  sim::Time dispatch_started = rpc_.sim().Now();
  co_await rpc_.sim().Sleep(options_.dispatch_overhead);
  RecordSpan(trace, "dispatch", dispatch_started);
  if (migrated_away_.contains(std::string(oid))) {
    co_return Status::WrongNode("object migrated away");
  }
  coord::ShardId shard = shard_map_.ShardFor(oid);
  bool primary = IsPrimaryFor(oid);
  if (!primary && !IsReplicaFor(oid)) {
    co_return Status::WrongNode("not a replica for object");
  }
  // Only read-only methods take the read path, at the primary too.
  LO_CO_RETURN_IF_ERROR(runtime_->CheckReadOnly(oid, read.method));
  if (!primary) {
    Status gate = replicator_->CheckFollowerRead(shard, read.token, read.mode,
                                                 read.staleness_epochs);
    if (!gate.ok()) {
      metrics_.epoch_bounces++;
      co_return gate;
    }
  }
  auto result = co_await InvokeLocal(runtime::ObjectId(oid),
                                     std::string(read.method),
                                     std::string(read.argument), trace, {},
                                     tenant);
  if (!result.ok()) co_return result.status();
  if (!primary) metrics_.follower_reads++;
  co_return replication::EncodeTokenWrapped(replicator_->ApplyToken(shard),
                                            *result);
}

sim::Task<Result<std::string>> StorageNode::HandleKvGet(sim::NodeId,
                                                        std::string payload) {
  metrics_.kv_ops_served++;
  co_await rpc_.sim().Sleep(options_.dispatch_overhead);
  co_await cpu_.Execute(options_.kv_op_cpu);
  co_return db_->Get({}, payload);
}

sim::Task<Result<std::string>> StorageNode::HandleKvPut(sim::NodeId,
                                                        obs::TraceContext trace,
                                                        std::string payload) {
  Reader reader{payload};
  std::string_view key, value;
  std::string_view is_delete;
  if (!reader.GetLengthPrefixed(&key) || !reader.GetLengthPrefixed(&value) ||
      !reader.GetBytes(1, &is_delete)) {
    co_return Status::Corruption("bad kv.put payload");
  }
  metrics_.kv_ops_served++;
  sim::Time dispatch_started = rpc_.sim().Now();
  co_await rpc_.sim().Sleep(options_.dispatch_overhead);
  RecordSpan(trace, "dispatch", dispatch_started);
  sim::Time exec_started = rpc_.sim().Now();
  co_await cpu_.Execute(options_.kv_op_cpu);
  RecordSpan(trace, "kv_exec", exec_started);
  storage::WriteBatch batch;
  if (is_delete[0] != 0) {
    batch.Delete(key);
  } else {
    batch.Put(key, value);
  }
  coord::ShardId shard = shard_map_.ShardFor(OidFromStorageKey(key));
  LO_CO_RETURN_IF_ERROR(
      co_await group_committer_->Commit(shard, std::move(batch), trace));
  co_return std::string("ok");
}

sim::Task<Result<std::string>> StorageNode::HandleKvBatch(sim::NodeId,
                                                          obs::TraceContext trace,
                                                          std::string payload) {
  metrics_.kv_ops_served++;
  sim::Time dispatch_started = rpc_.sim().Now();
  co_await rpc_.sim().Sleep(options_.dispatch_overhead);
  RecordSpan(trace, "dispatch", dispatch_started);
  sim::Time exec_started = rpc_.sim().Now();
  co_await cpu_.Execute(options_.kv_op_cpu);
  RecordSpan(trace, "kv_exec", exec_started);
  auto batch = storage::WriteBatch::FromRep(std::move(payload));
  if (!batch.ok()) co_return batch.status();
  // Route by the first key's object (callers batch per object).
  struct FirstKey : storage::WriteBatch::Handler {
    std::string key;
    void Put(std::string_view k, std::string_view) override {
      if (key.empty()) key.assign(k);
    }
    void Delete(std::string_view k) override {
      if (key.empty()) key.assign(k);
    }
  } first;
  LO_CO_RETURN_IF_ERROR(batch->Iterate(&first));
  coord::ShardId shard = shard_map_.ShardFor(OidFromStorageKey(first.key));
  LO_CO_RETURN_IF_ERROR(
      co_await group_committer_->Commit(shard, std::move(*batch), trace));
  co_return std::string("ok");
}

sim::Task<Result<std::string>> StorageNode::HandleExtract(sim::NodeId,
                                                          std::string payload) {
  // payload = oid. Returns a WriteBatch rep containing the whole object.
  runtime::ObjectId oid(payload);
  if (!IsPrimaryFor(oid)) co_return Status::WrongNode("not primary for object");
  auto rep = ExtractObjectRep(db_.get(), oid);
  if (!rep.ok()) co_return rep.status();
  // Stop serving the object; clients will refresh the directory. The
  // keys are deleted lazily (kept for crash-safety of the migration).
  migrated_away_.insert(oid);
  metrics_.objects_migrated_out++;
  co_return *rep;
}

sim::Task<Result<std::string>> StorageNode::HandleInstall(sim::NodeId,
                                                          std::string payload) {
  coord::ShardId shard = 0;
  std::string_view oid, batch_rep;
  if (!DecodeInstall(payload, &shard, &oid, &batch_rep)) {
    co_return Status::Corruption("bad install");
  }
  auto batch = DecodeObjectRep(std::string(batch_rep));
  if (!batch.ok()) co_return batch.status();
  LO_CO_RETURN_IF_ERROR(
      co_await group_committer_->Commit(shard, std::move(*batch), {}));
  migrated_away_.erase(std::string(oid));  // the object may be coming back
  metrics_.objects_migrated_in++;
  co_return std::string("ok");
}

}  // namespace lo::cluster
