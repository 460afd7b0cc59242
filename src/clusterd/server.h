// clusterd::ServerNode — one LambdaStore storage/execution server as a
// real process member of a coordinator-driven cluster (paper §4.2).
//
// This is the serving core of tools/lambdastore_server.cpp, factored
// into a library so tests and the elasticity bench can embed it. It
// hosts a runtime::ParallelNode (one execution lane, see kLanes in
// server.cc, + WAL group commit) behind net::RpcServer and, in cluster
// mode (options.coordinator set):
//
//   * registers with the coordinator on Start() and caches the
//     versioned ClusterView (microshard directory + node addresses);
//   * rejects invocations for objects it does not own with the typed
//     kWrongShard status, which clients answer with a directory refresh;
//   * forwards *nested* invocations (ctx.Invoke from a method) to the
//     owning peer over RPC — the lane helps with its own queue while it
//     waits, so a cycle of calls between servers keeps making progress;
//   * serves live migration: "shard.migrate" extracts the object on its
//     own lane (so every in-flight invocation of that object has
//     executed and committed first), streams it to the target server
//     ("shard.install"), publishes the directory update through the
//     coordinator ("coord.place"), and rolls back — keeps serving the
//     object — if install or publish fail. Requests that arrive during
//     the copy bounce with kWrongShard and get redirected; nothing is
//     paused.
//   * reports per-window load (total requests + hottest objects) to the
//     coordinator, which doubles as the heartbeat and piggybacks config
//     version checks so a stale directory refreshes within one window.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "clusterd/wire.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "storage/db.h"
#include "tenant/tenant.h"

namespace lo::clusterd {

struct ServerNodeOptions {
  /// RpcServer bind config; port 0 = ephemeral.
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  /// Transport reactor threads; see net::RpcServerOptions.
  int net_threads = 1;
  /// Host peers and clients dial this server on (advertised to the
  /// coordinator as "<advertise_host>:<port>").
  std::string advertise_host = "127.0.0.1";
  /// Coordinator "ip:port". Empty = standalone single-node mode: no
  /// registration, no directory, every object is local.
  std::string coordinator;
  storage::GroupCommitterOptions group_commit;
  /// Load-report (= heartbeat) cadence.
  int64_t report_interval_ms = 200;
  obs::MetricsRegistry* metrics_registry = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Optional multi-tenant QoS (not owned; must outlive the node).
  /// Requests carrying a tenant id pass token-bucket/in-flight/fuel
  /// admission before touching a lane (over-budget → kTenantThrottled),
  /// queue DRR-fairly per lane, and debit their tenant's fuel window as
  /// the VM runs. See docs/tenancy.md.
  tenant::TenantRegistry* tenants = nullptr;
};

class ServerNode {
 public:
  /// `db` must be opened with Options::serialize_access and outlive the
  /// node; `types` likewise.
  ServerNode(storage::DB* db, const runtime::TypeRegistry* types,
             ServerNodeOptions options = {});
  ~ServerNode();

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  /// Binds + serves; in cluster mode also registers with the
  /// coordinator and starts the report loop.
  Status Start();

  /// Graceful drain: stop accepting, finish every in-flight lane job,
  /// flush the memtable so on-disk state is complete, stop the loops.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  uint16_t port() const { return server_.port(); }
  sim::NodeId node_id() const { return node_id_; }
  /// True once an admin.shutdown RPC arrived.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  runtime::ParallelNode& node() { return *node_; }
  net::RpcServer& rpc_server() { return server_; }
  std::shared_ptr<const ClusterView> view() const;

  struct Metrics {
    uint64_t invokes = 0;
    uint64_t wrong_shard_rejects = 0;
    uint64_t peer_forwards = 0;
    uint64_t migrations_out = 0;
    uint64_t migrations_in = 0;
    uint64_t migration_failures = 0;
    uint64_t directory_refreshes = 0;
    uint64_t reports_sent = 0;
  };
  Metrics metrics_snapshot() const;

  /// admin.stats body: counters plus the per-shard request rollup.
  std::string StatsText();

 private:
  void InstallHandlers();
  using LaneCall = std::function<Result<std::string>(runtime::Runtime&,
                                                     runtime::ObjectId)>;
  /// The serving path of lambda.invoke, lambda.create and lambda.read:
  /// counts the request, bounces an object not served here, admits the
  /// tenant and queues `call` on the object's lane. There a request past
  /// its deadline is shed and ownership is checked again (a migration may
  /// have extracted the object meanwhile); `call` computes the reply.
  void ServeOnLane(std::string_view oid, const net::RpcServer::Request& request,
                   net::RpcServer::Responder respond, LaneCall call);
  /// Counts a kWrongShard reject and answers it.
  void RejectWrongShard(const net::RpcServer::Responder& respond,
                        const char* why);
  void CountRequest(const std::string& oid);
  /// Cluster-mode ownership check; standalone always owns.
  bool OwnsForExecution(const std::string& oid) const;
  void InstallView(ClusterView fresh);
  /// Async directory refresh; `done` runs on the RPC client loop thread.
  void RefreshViewAsync(std::function<void()> done);
  /// Nested invocation leaving this process; retries through directory
  /// refreshes up to `redirects_left` times on kWrongShard.
  void ForwardInvoke(runtime::ObjectId oid, std::string method,
                     std::string argument, int redirects_left,
                     runtime::ParallelNode::Callback done);
  /// Publish the directory update, retrying; rolls the migration back
  /// on final failure. Runs on the RPC client loop thread.
  void PlaceAsync(std::string oid, coord::ShardId shard, int attempts_left,
                  net::RpcServer::Responder respond);
  Status RegisterWithCoordinator();
  void ReportLoop();

  storage::DB* db_;
  ServerNodeOptions options_;
  std::string coordinator_;  // empty = standalone
  sim::NodeId node_id_ = 0;
  coord::ShardId home_shard_ = 0;

  net::RpcServer server_;
  net::RpcClient rpc_;  // peer + coordinator calls
  std::unique_ptr<runtime::ParallelNode> node_;

  mutable std::mutex view_mu_;
  std::shared_ptr<const ClusterView> view_;
  std::set<runtime::ObjectId> migrated_away_;

  mutable std::mutex stats_mu_;
  Metrics metrics_;
  std::map<coord::ShardId, uint64_t> shard_requests_;      // cumulative
  std::map<std::string, uint64_t> window_object_requests_;  // per window
  uint64_t window_requests_ = 0;

  std::thread reporter_;
  std::mutex reporter_mu_;
  std::condition_variable reporter_cv_;
  bool stop_reporter_ = false;
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace lo::clusterd
