// Client library for LambdaStore: routes invocations to the primary of
// the owning shard, refreshes the shard map from the coordinators on
// misroutes/timeouts, and retries — so a primary failure shows up to the
// application as one slow request, not an error (paper §4.2.1: "clients
// ... will reissue their request if needed").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/routing.h"
#include "coord/coordinator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/replicator.h"
#include "sim/rpc.h"

namespace lo::cluster {

struct ClientOptions {
  sim::Duration request_timeout = sim::Millis(100);
  /// Initial retry pause; doubles per attempt (with ±25% jitter from the
  /// seeded sim RNG) up to `retry_backoff_max`.
  sim::Duration retry_backoff = sim::Millis(10);
  sim::Duration retry_backoff_max = sim::Millis(160);
  /// Total wall-clock budget for one request including all retries.
  /// Exhausting it surfaces the last failure instead of sleeping past
  /// the deadline (a failover longer than this is an outage, not a blip).
  sim::Duration retry_budget = sim::Millis(2000);
  int max_attempts = 8;
  /// Observability (nullptr = off). Every Invoke/InvokeRead starts a
  /// root "invoke" trace on the tracer (subject to its sampling rate);
  /// the registry gets this client's request counters and an end-to-end
  /// invoke latency histogram.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics_registry = nullptr;
  /// Staleness contract for InvokeRead (LO_FOLLOWER_READS):
  /// kPrimaryOnly routes every read to the primary; the other modes
  /// spread reads across the shard's replicas, carrying the client's
  /// epoch token so a lagging backup bounces rather than serving stale
  /// state (docs/replication.md).
  replication::ReadMode read_mode = replication::ReadMode::kPrimaryOnly;
  /// Epoch slack a kBounded read tolerates (LO_STALENESS_EPOCHS).
  uint64_t staleness_epochs = 0;
  /// Tenant id stamped on every request (0 = untenanted legacy traffic).
  /// Servers running with a TenantRegistry gate admission and fuel on it.
  uint32_t tenant_id = 0;
  /// kTenantThrottled is admission pushback, not a fault: the client
  /// pauses `throttle_backoff` and re-sends without consuming a failure
  /// attempt, bounded by `max_throttle_retries` and the wall-clock
  /// retry_budget. Counted separately as rpc.throttled.
  sim::Duration throttle_backoff = sim::Millis(5);
  int max_throttle_retries = 16;
};

class Client {
 public:
  Client(sim::Network& net, sim::NodeId id, std::vector<sim::NodeId> coordinators,
         ClientOptions options = {});

  /// Installs a shard map directly (benchmarks skip the coordinator).
  void SeedConfig(coord::ClusterState state) { shard_map_.Update(std::move(state)); }

  sim::Task<Result<std::string>> Invoke(std::string oid, std::string method,
                                        std::string argument);

  /// Epoch-gated follower read ("lambda.read"): routes a deterministic
  /// read-only method per `options.read_mode` — to the primary
  /// (kPrimaryOnly), a uniformly random replica (kStrict / kBounded /
  /// kEventual) or the chain tail (kTail) — carrying this client's epoch
  /// token. A backup whose apply state does not cover the token answers
  /// kEpochBehind and the read falls back to the primary (counted in
  /// metrics().read_bounces), so read-your-writes holds in kStrict mode.
  sim::Task<Result<std::string>> InvokeRead(std::string oid, std::string method,
                                            std::string argument);

  sim::Task<Result<std::string>> Create(std::string oid, std::string type_name);

  /// The epoch token this client holds for `oid`'s shard (what its next
  /// follower read would present). Zero until a write of this client acked.
  replication::EpochToken TokenFor(const std::string& oid) const;

  /// Asks the coordinator to move `oid` to `shard` and orchestrates the
  /// copy: extract at the current primary, install at the new one,
  /// publish the directory update.
  sim::Task<Status> MigrateObject(const std::string& oid, coord::ShardId shard);

  struct Metrics {
    uint64_t requests = 0;
    uint64_t retries = 0;
    uint64_t config_refreshes = 0;
    /// Requests abandoned because the retry budget ran out.
    uint64_t budget_exhausted = 0;
    /// InvokeRead requests answered by a backup replica.
    uint64_t follower_reads = 0;
    /// InvokeRead requests a backup bounced (kEpochBehind) and the
    /// client re-issued at the primary.
    uint64_t read_bounces = 0;
    /// Requests the server shed with kTenantThrottled (each re-send after
    /// the dedicated throttle pause counts again).
    uint64_t throttled = 0;
  };
  const Metrics& metrics() const { return metrics_; }

 private:
  sim::Task<Result<std::string>> CallWithRouting(const std::string& oid,
                                                 std::string service,
                                                 std::string payload,
                                                 obs::TraceContext trace = {});
  sim::Task<void> RefreshConfig();
  /// Starts a sampled root trace for one client request (empty when off).
  obs::TraceContext StartRootTrace();
  /// Closes the root "invoke" span and records end-to-end latency.
  void FinishRootTrace(const obs::TraceContext& trace, sim::Time started);

  /// Mints the idempotency token for one logical request. Every retry of
  /// that request reuses the same token, so a node that already committed
  /// it (then lost the ack to a crash or partition) recognises the
  /// re-send and skips the re-apply instead of double-applying.
  std::string NextInvocationToken();

  /// Folds a token from a write ack into the per-shard token map: a newer
  /// config epoch supersedes; within an epoch the sequence only advances.
  void ObserveToken(coord::ShardId shard, const replication::EpochToken& token);
  /// Unwraps a token-wrapped response, folds the token in, returns the body.
  Result<std::string> UnwrapToken(coord::ShardId shard,
                                  Result<std::string> wrapped);

  sim::RpcEndpoint rpc_;
  ClientOptions options_;
  std::vector<sim::NodeId> coordinators_;
  ShardMap shard_map_;
  Metrics metrics_;
  /// Last token observed per shard — what this client knows it has written.
  std::map<coord::ShardId, replication::EpochToken> tokens_;
  uint64_t next_token_ = 1;
  Histogram* invoke_latency_us_ = nullptr;  // owned by the registry
};

}  // namespace lo::cluster
