// clusterd::CoordinatorServer — the cluster coordinator as a real
// process (paper §4.2.1), driving the same replicated ClusterState
// command log the sim coordinator replicates through Paxos.
//
// Storage servers register on startup ("clusterd.register"): the first
// `hash_servers` registrations receive the shards that carry the hash
// placement space; servers joining later (elastic scale-out) get
// directory-only shards, reachable exclusively through migration — so
// adding a node never remaps unrelated objects. Servers then report
// per-window load ("clusterd.report", doubling as the heartbeat), and
// clients/servers pull the versioned view ("clusterd.get_config").
//
// The rebalancer thread is the Akkio-style policy loop: each round it
// compares per-node load from the freshest reports, and when the
// hottest node's load exceeds `rebalance_skew` x the cluster mean it
// orders the source server (via "shard.migrate") to move its hottest
// objects to the least-loaded node's shard, up to
// `migrations_per_round` per round. Placement publishes through
// "coord.place" exactly like the sim path, bumping the view version
// that redirected clients refresh against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clusterd/wire.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "obs/metrics.h"

namespace lo::clusterd {

struct CoordinatorServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  /// Number of registering servers that carry the hash placement space
  /// (pinned via ClusterState::hash_shards at startup).
  uint32_t hash_servers = 1;
  bool rebalance_enabled = true;
  int64_t rebalance_interval_ms = 500;
  /// Trigger threshold: hottest node load >= skew * mean node load.
  double rebalance_skew = 2.0;
  /// Ignore windows with fewer total requests than this (idle clusters
  /// have meaningless skew).
  uint64_t rebalance_min_requests = 50;
  int migrations_per_round = 4;
  obs::MetricsRegistry* metrics_registry = nullptr;
};

class CoordinatorServer {
 public:
  explicit CoordinatorServer(CoordinatorServerOptions options = {});
  ~CoordinatorServer();

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  Status Start();
  /// Idempotent; the destructor calls it.
  void Shutdown();

  uint16_t port() const { return server_.port(); }
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  /// Snapshot of the current view (tests, tools).
  ClusterView View() const;

  struct Metrics {
    uint64_t registrations = 0;
    uint64_t reports = 0;
    uint64_t placements = 0;
    uint64_t rebalance_rounds = 0;
    uint64_t migrations_started = 0;
    uint64_t migrations_done = 0;
    uint64_t migrations_failed = 0;
  };
  Metrics metrics_snapshot() const;
  std::string StatsText() const;

 private:
  void InstallHandlers();
  /// Applies one ClusterState command and bumps the view version.
  /// Caller holds mu_.
  void ApplyLocked(const std::string& command);
  /// One policy round; returns the number of migrations issued.
  int RebalanceRound();
  void RebalanceLoop();

  CoordinatorServerOptions options_;
  net::RpcServer server_;
  net::RpcClient rpc_;  // shard.migrate orders to source servers

  mutable std::mutex mu_;
  ClusterView view_;
  sim::NodeId next_node_id_ = 1;
  coord::ShardId next_shard_id_ = 0;
  std::map<sim::NodeId, coord::ShardId> shard_of_node_;
  struct NodeLoad {
    uint64_t requests = 0;
    std::vector<std::pair<std::string, uint64_t>> hot_objects;
    int64_t reported_at_us = 0;
  };
  std::map<sim::NodeId, NodeLoad> loads_;
  Metrics metrics_;

  std::thread rebalancer_;
  std::mutex rebalancer_mu_;
  std::condition_variable rebalancer_cv_;
  bool stop_rebalancer_ = false;
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace lo::clusterd
