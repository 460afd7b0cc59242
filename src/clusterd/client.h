// clusterd::Client — the client library of a real (multi-process)
// LambdaStore deployment, the TCP counterpart of cluster::Client: the
// same services, payloads and idempotency tokens, and the same retry
// policy (cluster::RetryPolicy), slept on the wall clock.
//
// Routing: a directory-routed client caches the coordinator's versioned
// ClusterView and resolves every request oid -> shard (directory entry
// wins, hash otherwise) -> primary node -> "ip:port". A kWrongShard
// bounce — the object migrated, or the cache predates the object's
// placement — refreshes the view and re-sends at once, without a pause
// or a retry attempt. A standalone client sends every request to one
// server and surfaces kWrongShard to the caller. Faults (timeouts,
// connection loss) back off and re-send with the same token.
//
// One Client per thread (it owns a jitter RNG and a token counter); many
// share one RpcClient, whose loop thread multiplexes their calls over
// pooled connections.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cluster/retry.h"
#include "clusterd/wire.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "net/rpc_client.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lo::clusterd {

struct ClientOptions {
  int64_t request_timeout_us = 1'000'000;
  /// Total budget of one request, retries included.
  int64_t retry_budget_us = 2'000'000;
  /// Seeds the backoff jitter.
  uint64_t seed = 7;
  /// Observability (nullptr = off). The tracer is touched from this
  /// client's calling thread — give concurrent Clients separate tracers
  /// or none.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics_registry = nullptr;
};

class Client {
 public:
  /// Routes by the directory the coordinator at `coordinator` serves
  /// (clusterd.get_config), fetched on first use and on kWrongShard.
  /// `rpc` is shared and must outlive this client.
  Client(net::RpcClient* rpc, std::string coordinator,
         ClientOptions options = {});
  /// Sends every request to the server at `address`.
  static Client Standalone(net::RpcClient* rpc, std::string address,
                           ClientOptions options = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Blocking. Every attempt carries the same idempotency token, so a
  /// retry after a lost ack never double-applies.
  Result<std::string> Invoke(const std::string& oid, const std::string& method,
                             const std::string& argument);
  Result<std::string> Create(const std::string& oid,
                             const std::string& type_name);

  /// Read-only invocation ("lambda.read"), served by the object's owner,
  /// which committed every acknowledged write before acking it.
  Result<std::string> InvokeRead(const std::string& oid,
                                 const std::string& method,
                                 const std::string& argument);

  struct Metrics : cluster::RetryPolicy::Counters {
    uint64_t requests = 0;
    uint64_t directory_refreshes = 0;
  };
  const Metrics& metrics() const { return metrics_; }

 private:
  Client(net::RpcClient* rpc, std::string coordinator, std::string server,
         ClientOptions options);

  Result<std::string> Call(const std::string& oid, const char* service,
                           const std::string& payload);
  /// "ip:port" of the object's owner, empty when the view has no route.
  std::string AddressFor(const std::string& oid) const;
  Status RefreshDirectory();
  std::string NextInvocationToken();

  net::RpcClient* rpc_;
  std::string coordinator_;  // empty for a standalone client
  std::string server_;       // a standalone client's one server
  ClientOptions options_;
  std::optional<ClusterView> view_;
  Rng rng_;
  Metrics metrics_;
  uint64_t client_id_ = 0;  // process-unique, for token minting
  uint64_t next_token_ = 1;
  Histogram* invoke_latency_us_ = nullptr;  // owned by the registry
};

}  // namespace lo::clusterd
