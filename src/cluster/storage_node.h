// A LambdaStore node: storage and execution co-located (paper §4.2).
//
// Each node owns a MiniLSM database, a LambdaObjects runtime, a
// replicator, a CPU model (worker cores) and an RPC endpoint exposing:
//   lambda.invoke   invoke a method (peer nodes' nested invocations)
//   lambda.invoke2 / lambda.create2   invoke a method / instantiate an
//                   object for a client: the response carries the
//                   shard's apply token (epoch + seq) so clients can do
//                   read-your-writes follower reads
//   lambda.read     epoch-gated read-only invocation, served at the
//                   primary or at any backup whose apply state covers
//                   the client's token (docs/replication.md)
//   kv.get/kv.put/kv.batch   raw storage access — this is the service the
//                   disaggregated baseline uses, so both architectures
//                   run on the byte-identical storage stack
//   shard.extract / shard.install   microshard (object) migration
//   repl.apply/repl.chain           replication (via Replicator)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/routing.h"
#include "cluster/wal_group_commit.h"
#include "coord/coordinator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/replicator.h"
#include "runtime/runtime.h"
#include "sim/calibration.h"
#include "sim/cpu.h"
#include "sim/rpc.h"
#include "storage/db.h"
#include "storage/env.h"
#include "storage/group_commit.h"
#include "tenant/tenant.h"

namespace lo::cluster {

/// The node's costs are the simulator's calibration (sim/calibration.h);
/// the two a bench varies are fields here.
struct StorageNodeOptions {
  int cores = sim::kNodeCores;  // A11 runs 4
  /// WAL group commit (cluster/wal_group_commit.h): commits queued while
  /// the shard's WAL device is busy coalesce into one fsync, up to this
  /// many bytes per group (A8 sweeps it through bench::ExperimentConfig).
  size_t gc_max_batch_bytes = storage::kMaxCommitGroupBytes;
  /// Sandbox instantiation charged per invocation; Table 1's
  /// always-resident microservice arm runs 0.
  sim::Duration vm_instantiation_overhead = sim::kSandboxInstantiation;
  runtime::RuntimeOptions runtime;
  replication::Mode replication_mode = replication::Mode::kPrimaryBackup;
  /// Observability (nullptr = off). The registry publishes this node's
  /// component metrics under its node id; the tracer records spans for
  /// every sampled invocation that touches this node.
  obs::MetricsRegistry* metrics_registry = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Optional multi-tenant QoS (not owned; must outlive the node; usually
  /// shared by every node in the cluster). Serving requests pass admission
  /// (token bucket / in-flight cap / fuel window → kTenantThrottled) and
  /// invocations debit their tenant's fuel window as the VM runs. The
  /// caller registers the registry's metrics once, not per node. See
  /// docs/tenancy.md.
  tenant::TenantRegistry* tenants = nullptr;
};

class StorageNode {
 public:
  StorageNode(sim::Network& net, sim::NodeId id,
              const runtime::TypeRegistry* types,
              std::vector<sim::NodeId> coordinators, StorageNodeOptions options);

  sim::NodeId id() const { return rpc_.node(); }
  runtime::Runtime& runtime() { return *runtime_; }
  storage::DB& db() { return *db_; }
  replication::Replicator& replicator() { return *replicator_; }
  WalGroupCommitter& group_committer() { return *group_committer_; }
  sim::CpuModel& cpu() { return cpu_; }
  const ShardMap& shard_map() const { return shard_map_; }

  /// Starts heartbeats to the coordinator group.
  void Start();

  /// Applies a (possibly pushed) cluster configuration: updates routing
  /// and this node's replication role.
  void ApplyConfig(const coord::ClusterState& state);

  /// Local invocation entry (also used by the deployment's loopback path).
  /// A non-empty `token` makes the invocation's commits idempotent across
  /// retries (see Runtime::Invoke).
  sim::Task<Result<std::string>> InvokeLocal(runtime::ObjectId oid,
                                             std::string method,
                                             std::string argument,
                                             obs::TraceContext trace = {},
                                             std::string token = {},
                                             tenant::TenantId tenant = 0);

  struct Metrics {
    uint64_t invokes_served = 0;
    uint64_t invokes_rejected_not_primary = 0;
    uint64_t forwarded_invokes = 0;
    uint64_t kv_ops_served = 0;
    uint64_t objects_migrated_out = 0;
    uint64_t objects_migrated_in = 0;
    /// lambda.read requests served while this node was a backup.
    uint64_t follower_reads = 0;
    /// lambda.read requests bounced because this backup's apply state
    /// did not cover the client's epoch token (strict/bounded gate).
    uint64_t epoch_bounces = 0;
  };
  const Metrics& metrics() const { return metrics_; }

 private:
  bool IsPrimaryFor(std::string_view oid) const;
  bool IsReplicaFor(std::string_view oid) const;
  /// Publishes every component's metrics on the injected registry.
  void RegisterMetrics(obs::MetricsRegistry* registry);
  /// Records `name` as a child span of `trace` if tracing is active.
  void RecordSpan(const obs::TraceContext& trace, const char* name,
                  sim::Time started);
  /// Tenant admission wrapper for the serving handlers: sheds with
  /// kTenantThrottled before `body` starts when the tenant is over
  /// budget, else runs it and releases the in-flight slot when the
  /// response is ready. No-op pass-through when tenancy is off.
  sim::Task<Result<std::string>> Admitted(
      uint32_t tenant, std::function<sim::Task<Result<std::string>>()> body);
  sim::Task<Result<std::string>> HandleInvoke(obs::TraceContext trace,
                                              uint32_t tenant,
                                              std::string payload);
  /// Token-wrapped responses ("lambda.invoke2" / "lambda.create2"):
  /// prefixed with this node's apply token (epoch + seq) for the
  /// object's shard so clients can do read-your-writes follower reads.
  sim::Task<Result<std::string>> HandleInvoke2(obs::TraceContext trace,
                                               uint32_t tenant,
                                               std::string payload);
  sim::Task<Result<std::string>> HandleCreate(std::string payload);
  /// Epoch-gated read path ("lambda.read"): serves deterministic
  /// read-only invocations at the primary or any backup whose apply
  /// state satisfies the client's token, else kEpochBehind.
  sim::Task<Result<std::string>> HandleRead(obs::TraceContext trace,
                                            uint32_t tenant,
                                            std::string payload);
  sim::Task<Result<std::string>> HandleKvGet(sim::NodeId from, std::string payload);
  sim::Task<Result<std::string>> HandleKvPut(sim::NodeId from,
                                             obs::TraceContext trace,
                                             std::string payload);
  sim::Task<Result<std::string>> HandleKvBatch(sim::NodeId from,
                                               obs::TraceContext trace,
                                               std::string payload);
  sim::Task<Result<std::string>> HandleExtract(sim::NodeId from, std::string payload);
  sim::Task<Result<std::string>> HandleInstall(sim::NodeId from, std::string payload);

  StorageNodeOptions options_;
  sim::RpcEndpoint rpc_;
  sim::CpuModel cpu_;
  storage::MemEnv env_;
  std::unique_ptr<storage::DB> db_;
  std::unique_ptr<runtime::Runtime> runtime_;
  std::unique_ptr<replication::Replicator> replicator_;
  std::unique_ptr<WalGroupCommitter> group_committer_;
  std::unique_ptr<coord::CoordClient> coord_client_;
  ShardMap shard_map_;
  std::set<runtime::ObjectId> migrated_away_;
  Metrics metrics_;
};

}  // namespace lo::cluster
