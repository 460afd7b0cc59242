#include "coord/coordinator.h"

#include <algorithm>

#include "common/coding.h"
#include "common/log.h"

namespace lo::coord {
namespace {

// Command tags.
constexpr char kTagSetShard = 'S';
constexpr char kTagNodeDead = 'D';
constexpr char kTagNodeAlive = 'A';
constexpr char kTagPlace = 'P';
constexpr char kTagNoop = 'N';
constexpr char kTagHashShards = 'H';

/// Storage nodes heartbeat, and the leader checks for expired nodes, at
/// this cadence; a node silent for kNodeTimeout is declared dead.
constexpr sim::Duration kHeartbeatInterval = sim::Millis(10);
constexpr sim::Duration kNodeTimeout = sim::Millis(60);
/// Each coordinator probes its lower-id peers at this cadence and takes
/// over leadership once every one of them missed this many probes.
constexpr sim::Duration kLeaderProbeInterval = sim::Millis(25);
constexpr int kLeaderProbeFailures = 4;

}  // namespace

bool ShardConfig::Contains(sim::NodeId node) const {
  if (primary == node) return true;
  return std::find(backups.begin(), backups.end(), node) != backups.end();
}

std::string CmdSetShard(ShardId shard, const ShardConfig& config) {
  std::string out(1, kTagSetShard);
  PutVarint32(&out, shard);
  PutVarint64(&out, config.epoch);
  PutVarint32(&out, config.primary);
  PutVarint32(&out, static_cast<uint32_t>(config.backups.size()));
  for (sim::NodeId backup : config.backups) PutVarint32(&out, backup);
  return out;
}

std::string CmdNodeDead(sim::NodeId node) {
  std::string out(1, kTagNodeDead);
  PutVarint32(&out, node);
  return out;
}

std::string CmdNodeAlive(sim::NodeId node) {
  std::string out(1, kTagNodeAlive);
  PutVarint32(&out, node);
  return out;
}

std::string CmdPlaceObject(std::string_view oid, ShardId shard) {
  return std::string(1, kTagPlace) + EncodePlace(oid, shard);
}

std::string CmdSetHashShards(uint32_t hash_shards) {
  std::string out(1, kTagHashShards);
  PutVarint32(&out, hash_shards);
  return out;
}

std::string EncodePlace(std::string_view oid, ShardId shard) {
  std::string out;
  PutLengthPrefixed(&out, oid);
  PutVarint32(&out, shard);
  return out;
}

bool DecodePlace(std::string_view payload, std::string_view* oid,
                 ShardId* shard) {
  Reader reader{payload};
  return reader.GetLengthPrefixed(oid) && reader.GetVarint32(shard);
}

Status ClusterState::Apply(std::string_view command) {
  if (command.empty()) return Status::Corruption("empty command");
  Reader reader{command.substr(1)};
  switch (command[0]) {
    case kTagSetShard: {
      uint32_t shard = 0, primary = 0, num_backups = 0;
      ShardConfig config;
      if (!reader.GetVarint32(&shard) || !reader.GetVarint64(&config.epoch) ||
          !reader.GetVarint32(&primary) || !reader.GetVarint32(&num_backups)) {
        return Status::Corruption("bad SetShard");
      }
      config.primary = primary;
      for (uint32_t i = 0; i < num_backups; i++) {
        uint32_t backup = 0;
        if (!reader.GetVarint32(&backup)) return Status::Corruption("bad SetShard");
        config.backups.push_back(backup);
      }
      shards[shard] = std::move(config);
      return Status::OK();
    }
    case kTagNodeDead: {
      uint32_t node = 0;
      if (!reader.GetVarint32(&node)) return Status::Corruption("bad NodeDead");
      dead.insert(node);
      return Status::OK();
    }
    case kTagNodeAlive: {
      uint32_t node = 0;
      if (!reader.GetVarint32(&node)) return Status::Corruption("bad NodeAlive");
      dead.erase(node);
      return Status::OK();
    }
    case kTagPlace: {
      std::string_view oid;
      ShardId shard = 0;
      if (!DecodePlace(reader.rest(), &oid, &shard)) {
        return Status::Corruption("bad Place");
      }
      directory[std::string(oid)] = shard;
      return Status::OK();
    }
    case kTagHashShards: {
      uint32_t n = 0;
      if (!reader.GetVarint32(&n)) return Status::Corruption("bad HashShards");
      hash_shards = n;
      return Status::OK();
    }
    case kTagNoop:
      return Status::OK();
    default:
      return Status::Corruption("unknown command tag");
  }
}

std::string ClusterState::Encode() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(shards.size()));
  for (const auto& [shard, config] : shards) {
    PutVarint32(&out, shard);
    PutVarint64(&out, config.epoch);
    PutVarint32(&out, config.primary);
    PutVarint32(&out, static_cast<uint32_t>(config.backups.size()));
    for (sim::NodeId backup : config.backups) PutVarint32(&out, backup);
  }
  PutVarint32(&out, static_cast<uint32_t>(dead.size()));
  for (sim::NodeId node : dead) PutVarint32(&out, node);
  PutVarint32(&out, static_cast<uint32_t>(directory.size()));
  for (const auto& [oid, shard] : directory) {
    PutLengthPrefixed(&out, oid);
    PutVarint32(&out, shard);
  }
  PutVarint32(&out, hash_shards);
  return out;
}

Result<ClusterState> ClusterState::Decode(std::string_view bytes) {
  ClusterState state;
  Reader reader{bytes};
  uint32_t num_shards = 0;
  if (!reader.GetVarint32(&num_shards)) return Status::Corruption("bad state");
  for (uint32_t i = 0; i < num_shards; i++) {
    uint32_t shard = 0, primary = 0, num_backups = 0;
    ShardConfig config;
    if (!reader.GetVarint32(&shard) || !reader.GetVarint64(&config.epoch) ||
        !reader.GetVarint32(&primary) || !reader.GetVarint32(&num_backups)) {
      return Status::Corruption("bad state shard");
    }
    config.primary = primary;
    for (uint32_t j = 0; j < num_backups; j++) {
      uint32_t backup = 0;
      if (!reader.GetVarint32(&backup)) return Status::Corruption("bad state backup");
      config.backups.push_back(backup);
    }
    state.shards[shard] = std::move(config);
  }
  uint32_t num_dead = 0;
  if (!reader.GetVarint32(&num_dead)) return Status::Corruption("bad state dead");
  for (uint32_t i = 0; i < num_dead; i++) {
    uint32_t node = 0;
    if (!reader.GetVarint32(&node)) return Status::Corruption("bad state dead");
    state.dead.insert(node);
  }
  uint32_t num_placed = 0;
  if (!reader.GetVarint32(&num_placed)) return Status::Corruption("bad directory");
  for (uint32_t i = 0; i < num_placed; i++) {
    std::string_view oid;
    uint32_t shard = 0;
    if (!reader.GetLengthPrefixed(&oid) || !reader.GetVarint32(&shard)) {
      return Status::Corruption("bad directory entry");
    }
    state.directory[std::string(oid)] = shard;
  }
  // hash_shards was appended after the fact; decode it when present so
  // encodings from before the field round-trip as hash_shards == 0.
  if (!reader.rest().empty() && !reader.GetVarint32(&state.hash_shards)) {
    return Status::Corruption("bad hash_shards");
  }
  return state;
}

// ---------------------------------------------------------- CoordinatorNode

CoordinatorNode::CoordinatorNode(sim::RpcEndpoint* rpc,
                                 std::vector<sim::NodeId> group)
    : rpc_(rpc),
      group_(std::move(group)),
      acceptors_(rpc),
      proposer_(rpc, group_) {
  std::sort(group_.begin(), group_.end());
  is_leader_ = (rpc_->node() == group_.front());
  rpc_->Handle("coord.heartbeat", [this](sim::NodeId from, std::string payload) {
    return HandleHeartbeat(from, std::move(payload));
  });
  rpc_->Handle("coord.get_config", [this](sim::NodeId from, std::string payload) {
    return HandleGetConfig(from, std::move(payload));
  });
  rpc_->Handle("coord.place", [this](sim::NodeId from, std::string payload) {
    return HandlePlace(from, std::move(payload));
  });
  rpc_->Handle("coord.ping", [this](sim::NodeId from, std::string payload) {
    return HandleLeaderPing(from, std::move(payload));
  });
}

sim::NodeId CoordinatorNode::ExpectedLeader() const {
  for (sim::NodeId node : group_) {
    if (!coord_suspected_.contains(node)) return node;
  }
  return group_.front();
}

sim::Task<Status> CoordinatorNode::Bootstrap(ClusterState initial) {
  LO_CHECK_MSG(is_leader_, "bootstrap on non-leader");
  for (const auto& [shard, config] : initial.shards) {
    auto slot = co_await ProposeCommand(CmdSetShard(shard, config));
    if (!slot.ok()) co_return slot.status();
  }
  for (const auto& [oid, shard] : initial.directory) {
    auto slot = co_await ProposeCommand(CmdPlaceObject(oid, shard));
    if (!slot.ok()) co_return slot.status();
  }
  co_return Status::OK();
}

void CoordinatorNode::Start() {
  if (started_) return;
  started_ = true;
  sim::Detach(FailureDetectionLoop());
  sim::Detach(LeaderProbeLoop());
}

sim::Task<Result<uint64_t>> CoordinatorNode::ProposeCommand(std::string command) {
  if (!is_leader_) co_return Status::NotPrimary("not coordinator leader");
  // Propose into successive slots until our command is the chosen value
  // (an older leader's command may own an earlier slot — apply it).
  for (int tries = 0; tries < 64; tries++) {
    uint64_t slot = next_slot_;
    auto chosen = co_await proposer_.Propose(slot, command);
    if (!chosen.ok()) co_return chosen.status();
    next_slot_ = slot + 1;
    Status applied = state_.Apply(*chosen);
    if (!applied.ok()) co_return applied;
    if (*chosen == command) co_return slot;
  }
  co_return Status::Unavailable("could not claim a log slot");
}

sim::Task<Status> CoordinatorNode::RecoverLog() {
  // Drive slots forward until we claim a fresh one with a no-op; every
  // previously chosen command gets applied along the way.
  std::string noop(1, kTagNoop);
  for (int tries = 0; tries < 1024; tries++) {
    auto chosen = co_await proposer_.Propose(next_slot_, noop);
    if (!chosen.ok()) co_return chosen.status();
    next_slot_++;
    LO_CO_RETURN_IF_ERROR(state_.Apply(*chosen));
    if (*chosen == noop) co_return Status::OK();
  }
  co_return Status::Unavailable("log recovery did not converge");
}

sim::Task<Result<std::string>> CoordinatorNode::HandleHeartbeat(sim::NodeId from,
                                                                std::string) {
  metrics_.heartbeats_received++;
  last_heartbeat_[from] = rpc_->sim().Now();
  // Reply carries the config version (applied log length) so nodes can
  // refetch when it moved — the coordinator stays off the critical path.
  std::string reply;
  PutVarint64(&reply, next_slot_);
  co_return reply;
}

sim::Task<Result<std::string>> CoordinatorNode::HandleGetConfig(sim::NodeId,
                                                                std::string) {
  if (!is_leader_) co_return Status::NotPrimary("ask the leader");
  co_return state_.Encode();
}

sim::Task<Result<std::string>> CoordinatorNode::HandlePlace(sim::NodeId,
                                                            std::string payload) {
  if (!is_leader_) co_return Status::NotPrimary("ask the leader");
  std::string_view oid;
  ShardId shard = 0;
  if (!DecodePlace(payload, &oid, &shard)) {
    co_return Status::Corruption("bad place request");
  }
  auto slot = co_await ProposeCommand(CmdPlaceObject(oid, shard));
  if (!slot.ok()) co_return slot.status();
  co_return std::string("ok");
}

sim::Task<Result<std::string>> CoordinatorNode::HandleLeaderPing(sim::NodeId,
                                                                 std::string) {
  co_return std::string(is_leader_ ? "leader" : "follower");
}

sim::Task<void> CoordinatorNode::LeaderProbeLoop() {
  // Followers probe every coordinator ahead of them; if all of them are
  // unreachable repeatedly, the next-lowest id takes over leadership.
  std::map<sim::NodeId, int> failures;
  for (;;) {
    co_await rpc_->sim().Sleep(kLeaderProbeInterval);
    if (is_leader_) continue;
    for (sim::NodeId node : group_) {
      if (node >= rpc_->node()) break;
      auto reply = co_await rpc_->Call(node, "coord.ping", "",
                                       kLeaderProbeInterval);
      if (reply.ok()) {
        failures[node] = 0;
        coord_suspected_.erase(node);
      } else if (++failures[node] >= kLeaderProbeFailures) {
        coord_suspected_.insert(node);
      }
    }
    if (ExpectedLeader() == rpc_->node() && !is_leader_) {
      // Take over: recover the replicated log, then start acting.
      Status recovered = co_await RecoverLog();
      if (recovered.ok()) {
        is_leader_ = true;
        metrics_.leadership_takeovers++;
        LO_INFO << "coordinator " << rpc_->node() << " took over leadership";
      }
    }
  }
}

sim::Task<void> CoordinatorNode::FailureDetectionLoop() {
  for (;;) {
    co_await rpc_->sim().Sleep(kHeartbeatInterval);
    if (!is_leader_) continue;
    sim::Time now = rpc_->sim().Now();
    std::vector<sim::NodeId> expired;
    for (const auto& [node, last_seen] : last_heartbeat_) {
      if (state_.dead.contains(node)) continue;
      if (now - last_seen > kNodeTimeout) expired.push_back(node);
    }
    for (sim::NodeId node : expired) {
      co_await HandleNodeFailure(node);
    }
  }
}

sim::Task<void> CoordinatorNode::HandleNodeFailure(sim::NodeId node) {
  LO_INFO << "coordinator: node " << node << " missed heartbeats, reconfiguring";
  auto slot = co_await ProposeCommand(CmdNodeDead(node));
  if (!slot.ok()) co_return;

  // Reconfigure every shard the dead node participated in.
  std::vector<std::pair<ShardId, ShardConfig>> updates;
  for (const auto& [shard, config] : state_.shards) {
    if (!config.Contains(node)) continue;
    ShardConfig updated = config;
    updated.epoch++;
    updated.backups.erase(
        std::remove(updated.backups.begin(), updated.backups.end(), node),
        updated.backups.end());
    if (updated.primary == node) {
      if (updated.backups.empty()) {
        LO_WARN << "shard " << shard << " lost its last replica";
        continue;
      }
      updated.primary = updated.backups.front();
      updated.backups.erase(updated.backups.begin());
    }
    updates.emplace_back(shard, std::move(updated));
  }
  for (auto& [shard, config] : updates) {
    auto update_slot = co_await ProposeCommand(CmdSetShard(shard, config));
    if (!update_slot.ok()) co_return;
    metrics_.reconfigurations++;
    // Notify the survivors so they switch roles immediately.
    PushConfigTo(config.primary);
    for (sim::NodeId backup : config.backups) PushConfigTo(backup);
  }
}

void CoordinatorNode::PushConfigTo(sim::NodeId node) {
  sim::Detach([](CoordinatorNode* self, sim::NodeId node) -> sim::Task<void> {
    auto reply = co_await self->rpc_->Call(node, "config.update",
                                           self->state_.Encode(), sim::Millis(20));
    (void)reply;  // best effort: nodes also poll via CoordClient
  }(this, node));
}

// -------------------------------------------------------------- CoordClient

CoordClient::CoordClient(sim::RpcEndpoint* rpc, std::vector<sim::NodeId> coordinators,
                         ConfigCallback on_config)
    : rpc_(rpc), coordinators_(std::move(coordinators)), on_config_(std::move(on_config)) {
  rpc_->Handle("config.update", [this](sim::NodeId from, std::string payload) {
    return HandleConfigPush(from, std::move(payload));
  });
}

void CoordClient::Start() {
  if (started_) return;
  started_ = true;
  sim::Detach(HeartbeatLoop());
}

sim::Task<void> CoordClient::HeartbeatLoop() {
  uint64_t seen_version = 0;
  for (;;) {
    uint64_t latest = seen_version;
    for (sim::NodeId coordinator : coordinators_) {
      auto reply = co_await rpc_->Call(coordinator, "coord.heartbeat", "",
                                       kHeartbeatInterval);
      if (!reply.ok()) continue;
      Reader reader{*reply};
      uint64_t version = 0;
      if (reader.GetVarint64(&version)) latest = std::max(latest, version);
    }
    if (latest > seen_version) {
      seen_version = latest;
      auto state = co_await FetchConfig();
      if (state.ok() && on_config_) on_config_(*state);
    }
    co_await rpc_->sim().Sleep(kHeartbeatInterval);
  }
}

sim::Task<Result<ClusterState>> CoordClient::FetchConfig() {
  for (sim::NodeId coordinator : coordinators_) {
    auto reply = co_await rpc_->Call(coordinator, "coord.get_config", "",
                                     sim::Millis(20));
    if (!reply.ok()) continue;
    auto state = ClusterState::Decode(*reply);
    if (state.ok()) co_return state;
  }
  co_return Status::Unavailable("no coordinator answered");
}

sim::Task<Result<std::string>> CoordClient::HandleConfigPush(sim::NodeId,
                                                             std::string payload) {
  auto state = ClusterState::Decode(payload);
  if (!state.ok()) co_return state.status();
  if (on_config_) on_config_(*state);
  co_return std::string("ok");
}

}  // namespace lo::coord
