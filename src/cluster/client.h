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

#include "cluster/retry.h"
#include "cluster/routing.h"
#include "coord/coordinator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/replicator.h"
#include "sim/rpc.h"

namespace lo::cluster {

/// Retries follow cluster::RetryPolicy (backoff, budget, throttle
/// pauses) on the sim clock, with jitter from the seeded sim RNG.
struct ClientOptions {
  sim::Duration request_timeout = sim::Millis(100);
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
  /// publish the directory update. If the install or the publish fails,
  /// the object is installed back at its source, which serves it again,
  /// and the failure is returned.
  sim::Task<Status> MigrateObject(const std::string& oid, coord::ShardId shard);

  /// Retry counters (retries, budget_exhausted, throttled) come from
  /// the policy; `redirects` stays 0, since sim nodes never answer
  /// kWrongShard.
  struct Metrics : RetryPolicy::Counters {
    uint64_t requests = 0;
    uint64_t config_refreshes = 0;
    /// InvokeRead requests answered by a backup replica.
    uint64_t follower_reads = 0;
    /// InvokeRead requests a backup bounced (kEpochBehind) and the
    /// client re-issued at the primary.
    uint64_t read_bounces = 0;
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

  /// Unwraps a token-wrapped response, folds its token into the shard's
  /// entry of `tokens_`, returns the body.
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
