// Turn-key deployments for tests, examples and benchmarks.
//
// AggregatedDeployment reproduces the paper's evaluation topology: a
// Paxos-replicated group of three coordinators plus one storage replica
// set whose nodes *are* the execution environment (the "aggregated"
// variant). Node ids: coordinators 1..3, storage nodes 10..,  clients 100+.
#pragma once

#include <memory>
#include <vector>

#include "cluster/client.h"
#include "cluster/storage_node.h"
#include "coord/coordinator.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace lo::cluster {

struct DeploymentOptions {
  int num_storage_nodes = 3;  // one replica set (paper: 3 machines)
  int num_shards = 1;         // shards are striped across the nodes
  sim::NetworkConfig network;
  StorageNodeOptions node;
  ClientOptions client;
  /// Observability (nullptr = off): forwarded to every storage node,
  /// coordinator and client created by this deployment; the registry
  /// additionally gets cluster-wide network counters under node 0.
  obs::MetricsRegistry* metrics_registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

class AggregatedDeployment {
 public:
  AggregatedDeployment(sim::Simulator& sim, const runtime::TypeRegistry* types,
                       DeploymentOptions options = {});

  /// Drives the simulator until the bootstrap config is agreed + pushed.
  void WaitUntilReady();

  sim::Simulator& sim() { return sim_; }
  sim::Network& network() { return net_; }
  StorageNode& node(int index) { return *storage_nodes_[index]; }
  int num_nodes() const { return static_cast<int>(storage_nodes_.size()); }
  coord::CoordinatorNode& coordinator(int index) { return *coordinators_[index]; }
  std::vector<sim::NodeId> coordinator_ids() const { return coordinator_ids_; }

  /// Creates a client (each gets a fresh NodeId).
  Client& NewClient();

  /// The bootstrap cluster state (for SeedConfig in benchmarks).
  const coord::ClusterState& bootstrap_state() const { return bootstrap_; }

  /// Crashes / revives a storage node at the network level.
  void KillStorageNode(int index);
  void ReviveStorageNode(int index);

 private:
  sim::Simulator& sim_;
  sim::Network net_;
  DeploymentOptions options_;
  std::vector<sim::NodeId> coordinator_ids_;
  std::vector<std::unique_ptr<coord::CoordinatorNode>> coordinators_;
  std::vector<std::unique_ptr<sim::RpcEndpoint>> coordinator_rpcs_;
  std::vector<std::unique_ptr<StorageNode>> storage_nodes_;
  std::vector<std::unique_ptr<Client>> clients_;
  coord::ClusterState bootstrap_;
  sim::NodeId next_client_id_ = 100;
};

}  // namespace lo::cluster
