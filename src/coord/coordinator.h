// Cluster coordination service (paper §4.2.1): a Paxos-replicated
// configuration state machine plus heartbeat failure detection.
//
// The coordinator is only on the critical path during reconfiguration:
// storage nodes heartbeat it and cache the shard map; when a node dies,
// the leader proposes a config change (promoting a backup to primary,
// bumping the shard epoch) through the replicated log and pushes the new
// config to the affected nodes. Clients that were waiting on the dead
// node time out and retry against the new primary.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coord/paxos.h"
#include "obs/metrics.h"
#include "sim/cpu.h"
#include "sim/rpc.h"

namespace lo::coord {

using ShardId = uint32_t;

struct ShardConfig {
  uint64_t epoch = 0;
  sim::NodeId primary = 0;
  std::vector<sim::NodeId> backups;

  bool Contains(sim::NodeId node) const;
};

struct ClusterState {
  std::map<ShardId, ShardConfig> shards;
  std::set<sim::NodeId> dead;
  /// Microshard directory: explicit object placements; objects not
  /// listed here hash onto a shard (cluster layer policy).
  std::map<std::string, ShardId> directory;
  /// Size of the hash placement space. 0 (the default) means "hash over
  /// shards.size()", the original policy. A nonzero value pins the hash
  /// space so shards added later (elastic scale-out) receive objects
  /// only through directory entries — adding a node never remaps
  /// unrelated objects, it only gives migration somewhere to go.
  uint32_t hash_shards = 0;

  std::string Encode() const;
  static Result<ClusterState> Decode(std::string_view bytes);
  /// Applies one replicated command; unknown commands are errors.
  Status Apply(std::string_view command);
};

// Replicated commands (string-encoded, see coordinator.cc):
std::string CmdSetShard(ShardId shard, const ShardConfig& config);
std::string CmdNodeDead(sim::NodeId node);
std::string CmdNodeAlive(sim::NodeId node);
std::string CmdPlaceObject(std::string_view oid, ShardId shard);
std::string CmdSetHashShards(uint32_t hash_shards);

/// coord.place request, to the sim and the real coordinator alike:
/// lp oid | varint32 shard.
std::string EncodePlace(std::string_view oid, ShardId shard);
bool DecodePlace(std::string_view payload, std::string_view* oid,
                 ShardId* shard);

/// One member of the coordinator replica group. All members host
/// acceptors; the active leader (lowest live id) runs failure detection
/// and serves config queries/mutations.
class CoordinatorNode {
 public:
  CoordinatorNode(sim::RpcEndpoint* rpc, std::vector<sim::NodeId> group);

  /// Installs the bootstrap configuration (leader only; proposes it).
  sim::Task<Status> Bootstrap(ClusterState initial);

  /// Starts heartbeat monitoring + leadership probing loops.
  void Start();

  bool is_leader() const { return is_leader_; }
  const ClusterState& state() const { return state_; }
  uint64_t applied_slots() const { return next_slot_; }

  /// Proposes a command through Paxos and applies everything up to it.
  /// Leader-only; returns the slot it landed in.
  sim::Task<Result<uint64_t>> ProposeCommand(std::string command);

  struct Metrics {
    uint64_t reconfigurations = 0;
    uint64_t heartbeats_received = 0;
    uint64_t leadership_takeovers = 0;
  };
  const Metrics& metrics() const { return metrics_; }

  /// Publishes this coordinator's counters on `registry` under `node`.
  void RegisterMetrics(obs::MetricsRegistry* registry, uint32_t node) {
    registry->RegisterExternal("coord.reconfigurations", node,
                               &metrics_.reconfigurations);
    registry->RegisterExternal("coord.heartbeats_received", node,
                               &metrics_.heartbeats_received);
    registry->RegisterExternal("coord.leadership_takeovers", node,
                               &metrics_.leadership_takeovers);
  }

 private:
  sim::Task<Result<std::string>> HandleHeartbeat(sim::NodeId from, std::string payload);
  sim::Task<Result<std::string>> HandleGetConfig(sim::NodeId from, std::string payload);
  sim::Task<Result<std::string>> HandlePlace(sim::NodeId from, std::string payload);
  sim::Task<Result<std::string>> HandleLeaderPing(sim::NodeId from, std::string payload);
  sim::Task<void> FailureDetectionLoop();
  sim::Task<void> LeaderProbeLoop();
  sim::Task<void> HandleNodeFailure(sim::NodeId node);
  sim::Task<Status> RecoverLog();
  void PushConfigTo(sim::NodeId node);
  sim::NodeId ExpectedLeader() const;

  sim::RpcEndpoint* rpc_;
  std::vector<sim::NodeId> group_;  // coordinator replica group, sorted
  AcceptorHost acceptors_;
  Proposer proposer_;
  bool is_leader_ = false;
  bool started_ = false;
  uint64_t next_slot_ = 0;  // next unused log slot (leader view)
  ClusterState state_;
  std::map<sim::NodeId, sim::Time> last_heartbeat_;
  std::set<sim::NodeId> coord_suspected_;
  Metrics metrics_;
};

/// Runs on every storage node: periodic heartbeats to the coordinator
/// group and a callback for pushed config updates.
class CoordClient {
 public:
  using ConfigCallback = std::function<void(const ClusterState&)>;

  CoordClient(sim::RpcEndpoint* rpc, std::vector<sim::NodeId> coordinators,
              ConfigCallback on_config);

  /// Starts heartbeating every kHeartbeatInterval (coordinator.cc).
  void Start();

  /// Pulls the current config from whichever coordinator answers.
  sim::Task<Result<ClusterState>> FetchConfig();

 private:
  sim::Task<Result<std::string>> HandleConfigPush(sim::NodeId from, std::string payload);
  sim::Task<void> HeartbeatLoop();

  sim::RpcEndpoint* rpc_;
  std::vector<sim::NodeId> coordinators_;
  ConfigCallback on_config_;
  bool started_ = false;
};

}  // namespace lo::coord
