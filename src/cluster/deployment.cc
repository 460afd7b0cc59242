#include "cluster/deployment.h"

#include "common/log.h"

namespace lo::cluster {
namespace {

/// Size of the Paxos-replicated coordinator group.
constexpr int kCoordinators = 3;

}  // namespace

AggregatedDeployment::AggregatedDeployment(sim::Simulator& sim,
                                           const runtime::TypeRegistry* types,
                                           DeploymentOptions options)
    : sim_(sim), net_(sim, options.network), options_(options) {
  options_.node.metrics_registry = options_.metrics_registry;
  options_.node.tracer = options_.tracer;
  options_.client.metrics_registry = options_.metrics_registry;
  options_.client.tracer = options_.tracer;
  if (options_.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options_.metrics_registry;
    reg->RegisterCallback("net.messages_sent", 0, [this] {
      return static_cast<double>(net_.messages_sent());
    });
    reg->RegisterCallback("net.messages_dropped", 0, [this] {
      return static_cast<double>(net_.messages_dropped());
    });
    reg->RegisterCallback("net.bytes_sent", 0, [this] {
      return static_cast<double>(net_.bytes_sent());
    });
    reg->RegisterCallback("net.fault_drops", 0, [this] {
      return static_cast<double>(net_.fault_drops());
    });
    reg->RegisterCallback("net.delay_spikes", 0, [this] {
      return static_cast<double>(net_.delay_spikes());
    });
  }
  for (int i = 0; i < kCoordinators; i++) {
    coordinator_ids_.push_back(static_cast<sim::NodeId>(1 + i));
  }
  for (sim::NodeId id : coordinator_ids_) {
    coordinator_rpcs_.push_back(std::make_unique<sim::RpcEndpoint>(net_, id));
    coordinators_.push_back(std::make_unique<coord::CoordinatorNode>(
        coordinator_rpcs_.back().get(), coordinator_ids_));
    if (options_.metrics_registry != nullptr) {
      coordinators_.back()->RegisterMetrics(options_.metrics_registry, id);
    }
  }

  std::vector<sim::NodeId> storage_ids;
  for (int i = 0; i < options.num_storage_nodes; i++) {
    storage_ids.push_back(static_cast<sim::NodeId>(10 + i));
  }
  for (sim::NodeId id : storage_ids) {
    storage_nodes_.push_back(std::make_unique<StorageNode>(
        net_, id, types, coordinator_ids_, options_.node));
  }

  // Bootstrap config: `num_shards` shards striped over the nodes; each
  // shard gets every node as a replica, rotated so primaries differ.
  for (int shard = 0; shard < options.num_shards; shard++) {
    coord::ShardConfig config;
    config.epoch = 1;
    int n = options.num_storage_nodes;
    config.primary = storage_ids[static_cast<size_t>(shard % n)];
    for (int j = 1; j < n; j++) {
      config.backups.push_back(storage_ids[static_cast<size_t>((shard + j) % n)]);
    }
    bootstrap_.shards[static_cast<coord::ShardId>(shard)] = std::move(config);
  }

  bool bootstrapped = false;
  sim::Detach([](coord::CoordinatorNode* leader, coord::ClusterState state,
                 bool* done) -> sim::Task<void> {
    Status s = co_await leader->Bootstrap(std::move(state));
    LO_CHECK_MSG(s.ok(), "bootstrap failed: " + s.ToString());
    *done = true;
  }(coordinators_.front().get(), bootstrap_, &bootstrapped));
  sim_.RunFor(sim::Millis(50));
  LO_CHECK_MSG(bootstrapped, "coordinator bootstrap did not converge");

  // Push initial config into every storage node and start heartbeats
  // and failure detection.
  for (auto& node : storage_nodes_) {
    node->ApplyConfig(bootstrap_);
    node->Start();
  }
  for (auto& coordinator : coordinators_) coordinator->Start();
}

void AggregatedDeployment::WaitUntilReady() { sim_.RunFor(sim::Millis(50)); }

Client& AggregatedDeployment::NewClient() {
  clients_.push_back(std::make_unique<Client>(net_, next_client_id_++,
                                              coordinator_ids_, options_.client));
  clients_.back()->SeedConfig(bootstrap_);
  return *clients_.back();
}

void AggregatedDeployment::KillStorageNode(int index) {
  net_.SetNodeUp(storage_nodes_[static_cast<size_t>(index)]->id(), false);
}

void AggregatedDeployment::ReviveStorageNode(int index) {
  net_.SetNodeUp(storage_nodes_[static_cast<size_t>(index)]->id(), true);
}

}  // namespace lo::cluster
