// Client library for a real (multi-process) LambdaStore deployment —
// the TCP counterpart of cluster::Client, speaking the same services
// ("lambda.invoke", "lambda.create") with the same payload encoding,
// idempotency tokens, and retry policy (exponential backoff + jitter
// under a total retry budget, paper §4.2.1).
//
// Routing: by default object → shard by hash (cluster::ShardMap's hash,
// so the sim and real deployments agree on placement), shard i served by
// `nodes[i]`. clusterd::Client replaces that with the coordinator's
// directory through SetRouter, and answers kWrongShard bounces with a
// directory refresh and an immediate re-send (SetOnMisroute).
// WrongNode/NotPrimary retries re-send to the current route after
// backoff.
//
// One RemoteClient per thread (it owns a jitter RNG and a token
// counter); many RemoteClients share one RpcClient, whose loop thread
// multiplexes all of their calls over pooled connections.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/rpc_client.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lo::net {

struct RemoteClientOptions {
  int64_t request_timeout_us = 1'000'000;
  /// Initial retry pause; doubles per attempt (±25% jitter) up to
  /// `retry_backoff_max_us` — the policy of cluster::ClientOptions.
  int64_t retry_backoff_us = 10'000;
  int64_t retry_backoff_max_us = 160'000;
  /// Total budget for one request including retries.
  int64_t retry_budget_us = 2'000'000;
  int max_attempts = 8;
  /// Misroute (kWrongShard) redirects per request. Redirects are a fast
  /// path — refresh the directory via the misroute hook and re-send
  /// immediately — so they are budgeted separately from `max_attempts`
  /// and skip the exponential backoff.
  int max_redirects = 4;
  uint64_t seed = 7;
  /// Observability (nullptr = off). NOTE: the tracer is touched from
  /// this client's calling thread — give concurrent RemoteClients
  /// separate tracers or none.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics_registry = nullptr;
  uint32_t node_label = 0;
  /// Staleness contract InvokeRead requests, as the wire value of
  /// replication::ReadMode (0 off/primary, 1 strict, 2 bounded,
  /// 3 eventual, 4 tail) — kept numeric so lo_net stays independent of
  /// the replication library. On the real path every read lands at the
  /// shard's owner; the token enforces monotonic reads (LO_FOLLOWER_READS).
  uint32_t read_mode = 0;
  /// Apply-epoch slack a bounded (mode 2) read tolerates
  /// (LO_STALENESS_EPOCHS).
  uint64_t staleness_epochs = 0;
  /// Tenant id stamped on every request (0 = untenanted legacy traffic).
  /// Servers running with --tenants gate admission and fuel on it
  /// (docs/tenancy.md). bench/harness reads LO_TENANT_ID into it.
  uint32_t tenant_id = 0;
  /// kTenantThrottled is admission pushback, not a fault: pause this
  /// long and re-send without consuming a failure attempt, bounded by
  /// `max_throttle_retries` and the wall-clock retry budget.
  int64_t throttle_backoff_us = 5'000;
  int max_throttle_retries = 16;
};

class RemoteClient {
 public:
  /// `rpc` is shared and must outlive this client. `nodes` lists
  /// "ip:port" per shard, in shard order.
  RemoteClient(RpcClient* rpc, std::vector<std::string> nodes,
               RemoteClientOptions options = {});

  /// Overrides the static hash placement with a directory-backed route:
  /// oid -> "ip:port", empty when the object's owner is unknown (treated
  /// like a kWrongShard reply). Used by clusterd::Client.
  using Router = std::function<std::string(const std::string& oid)>;
  void SetRouter(Router router) { router_ = std::move(router); }

  /// Called when a request bounced with kWrongShard (or the router had
  /// no entry): refresh the directory; return true to re-send
  /// immediately (no backoff), false to give up and surface the typed
  /// status. Without a hook the kWrongShard surfaces to the caller at
  /// once instead of burning the retry budget on a stale route.
  using MisrouteHook = std::function<bool()>;
  void SetOnMisroute(MisrouteHook hook) { on_misroute_ = std::move(hook); }

  /// Blocking. Retries per the backoff policy; every attempt carries the
  /// same idempotency token, so a retry after a lost ack never
  /// double-applies.
  Result<std::string> Invoke(const std::string& oid, const std::string& method,
                             const std::string& argument);
  Result<std::string> Create(const std::string& oid, const std::string& type_name);

  /// Epoch-gated read ("lambda.read"): carries this client's last
  /// observed apply-epoch token so the server bounces (kEpochBehind)
  /// rather than serve state older than the client has already seen —
  /// monotonic reads under options.read_mode. The token advances on
  /// every successful InvokeRead reply.
  Result<std::string> InvokeRead(const std::string& oid,
                                 const std::string& method,
                                 const std::string& argument);

  /// Last (epoch, seq) token observed from read replies.
  std::pair<uint64_t, uint64_t> last_read_token() const {
    return {last_epoch_, last_seq_};
  }

  /// One round-trip to every node ("ping" echo); OK iff all answer.
  Status Ping();

  /// Asks every node to shut down cleanly (admin.shutdown). Best-effort.
  void Shutdown();

  struct Metrics {
    uint64_t requests = 0;
    uint64_t retries = 0;
    uint64_t budget_exhausted = 0;
    /// kWrongShard bounces answered by a directory refresh + re-send.
    uint64_t redirects = 0;
    /// Requests the server shed with kTenantThrottled (each re-send
    /// after the throttle pause counts again).
    uint64_t throttled = 0;
  };
  const Metrics& metrics() const { return metrics_; }

 private:
  Result<std::string> CallWithRetry(const std::string& oid, std::string service,
                                    std::string payload);
  const std::string& NodeFor(const std::string& oid) const;
  std::string NextInvocationToken();

  RpcClient* rpc_;
  std::vector<std::string> nodes_;
  RemoteClientOptions options_;
  Router router_;
  MisrouteHook on_misroute_;
  Rng rng_;
  Metrics metrics_;
  uint64_t client_id_ = 0;  // process-unique, for token minting
  uint64_t next_token_ = 1;
  /// Monotonic read token (this client is single-threaded by contract).
  uint64_t last_epoch_ = 0;
  uint64_t last_seq_ = 0;
  Histogram* invoke_latency_us_ = nullptr;  // owned by the registry
};

}  // namespace lo::net
