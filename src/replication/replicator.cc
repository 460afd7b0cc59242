#include "replication/replicator.h"

#include <algorithm>

#include "common/coding.h"
#include "common/log.h"

namespace lo::replication {
namespace {

/// Ack timeout for one peer before the batch is considered failed (the
/// coordinator will reconfigure; callers retry).
constexpr sim::Duration kAckTimeout = sim::Millis(50);

std::string EncodeShipment(ShardId shard, uint64_t epoch, uint64_t seq,
                           const std::string& rep) {
  std::string out;
  PutVarint32(&out, shard);
  PutVarint64(&out, epoch);
  PutVarint64(&out, seq);
  PutLengthPrefixed(&out, rep);
  return out;
}

Status DecodeShipment(std::string_view payload, ShardId* shard, uint64_t* epoch,
                      uint64_t* seq, storage::WriteBatch* batch) {
  Reader reader{payload};
  std::string_view rep;
  if (!reader.GetVarint32(shard) || !reader.GetVarint64(epoch) ||
      !reader.GetVarint64(seq) || !reader.GetLengthPrefixed(&rep)) {
    return Status::Corruption("bad replication shipment");
  }
  LO_ASSIGN_OR_RETURN(*batch, storage::WriteBatch::FromRep(std::string(rep)));
  return Status::OK();
}

// Backups ack a shipment with their applied sequence (varint64); the
// primary records it per peer so callers (checkers, obs) can see how far
// each backup trails. Chain acks aggregate the minimum down-chain.
std::string EncodeAck(uint64_t applied_seq) {
  std::string out;
  PutVarint64(&out, applied_seq);
  return out;
}

uint64_t DecodeAck(std::string_view payload) {
  Reader reader{payload};
  uint64_t applied = 0;
  reader.GetVarint64(&applied);
  return applied;
}

}  // namespace

ReadMode ParseReadMode(std::string_view name, ReadMode fallback) {
  if (name == "off" || name == "primary") return ReadMode::kPrimaryOnly;
  if (name == "strict") return ReadMode::kStrict;
  if (name == "bounded") return ReadMode::kBounded;
  if (name == "eventual") return ReadMode::kEventual;
  if (name == "tail") return ReadMode::kTail;
  return fallback;
}

std::string_view ReadModeName(ReadMode mode) {
  switch (mode) {
    case ReadMode::kPrimaryOnly: return "off";
    case ReadMode::kStrict: return "strict";
    case ReadMode::kBounded: return "bounded";
    case ReadMode::kEventual: return "eventual";
    case ReadMode::kTail: return "tail";
  }
  return "off";
}

std::string EncodeTokenWrapped(const EpochToken& token, std::string_view body) {
  std::string out;
  PutVarint64(&out, token.epoch);
  PutVarint64(&out, token.seq);
  PutLengthPrefixed(&out, body);
  return out;
}

bool DecodeTokenWrapped(std::string_view payload, EpochToken* token,
                        std::string_view* body) {
  Reader reader{payload};
  return reader.GetVarint64(&token->epoch) && reader.GetVarint64(&token->seq) &&
         reader.GetLengthPrefixed(body);
}

Result<std::string> UnwrapToken(std::string_view payload, EpochToken* held) {
  EpochToken token;
  std::string_view body;
  if (!DecodeTokenWrapped(payload, &token, &body)) {
    return Status::Corruption("bad token-wrapped response");
  }
  if (token.epoch > held->epoch) {
    *held = token;
  } else if (token.epoch == held->epoch) {
    held->seq = std::max(held->seq, token.seq);
  }
  return std::string(body);
}

std::string EncodeReadRequest(const ReadRequest& request) {
  std::string out;
  PutLengthPrefixed(&out, request.oid);
  PutLengthPrefixed(&out, request.method);
  PutLengthPrefixed(&out, request.argument);
  PutVarint32(&out, static_cast<uint32_t>(request.mode));
  PutVarint64(&out, request.token.epoch);
  PutVarint64(&out, request.token.seq);
  PutVarint64(&out, request.staleness_epochs);
  return out;
}

bool DecodeReadRequest(std::string_view payload, ReadRequest* request) {
  Reader reader{payload};
  uint32_t mode = 0;
  if (!reader.GetLengthPrefixed(&request->oid) ||
      !reader.GetLengthPrefixed(&request->method) ||
      !reader.GetLengthPrefixed(&request->argument) ||
      !reader.GetVarint32(&mode) || !reader.GetVarint64(&request->token.epoch) ||
      !reader.GetVarint64(&request->token.seq) ||
      !reader.GetVarint64(&request->staleness_epochs) ||
      mode > static_cast<uint32_t>(ReadMode::kTail)) {
    return false;
  }
  request->mode = static_cast<ReadMode>(mode);
  return true;
}

Replicator::Replicator(sim::RpcEndpoint* rpc, storage::DB* db, Mode mode)
    : rpc_(rpc), db_(db), mode_(mode) {
  rpc_->Handle("repl.apply", [this](sim::NodeId from, obs::TraceContext trace,
                                    std::string payload) {
    return HandleApply(from, trace, std::move(payload));
  });
  rpc_->Handle("repl.chain", [this](sim::NodeId from, obs::TraceContext trace,
                                    std::string payload) {
    return HandleChain(from, trace, std::move(payload));
  });
}

void Replicator::Configure(ShardId shard, uint64_t epoch, bool is_primary,
                           std::vector<sim::NodeId> peers) {
  ShardState& state = shards_[shard];
  bool promoted = is_primary && !state.is_primary && state.epoch > 0;
  if (promoted) {
    // Promotion: this backup takes over the shard. Its applied prefix is
    // exactly the acknowledged history (the old primary never acked a
    // batch before every backup applied it), so continuing from
    // applied_seq + 1 under the bumped epoch loses nothing committed.
    metrics_.promotions++;
  }
  state.epoch = epoch;
  state.is_primary = is_primary;
  state.peers = std::move(peers);
  // A new epoch continues sequencing from the successor's applied state.
  if (state.is_primary) state.next_seq = state.applied_seq + 1;
  // Buffered out-of-order batches from the dead epoch can never fill
  // their gap; the clients that sent them will retry under the new epoch.
  state.reorder_buffer.clear();
  // Ack bookkeeping from the old role is meaningless under the new one.
  state.peer_applied.clear();
  if (promoted && promotion_hook_) promotion_hook_(shard, epoch);
}

bool Replicator::is_primary(ShardId shard) const {
  auto it = shards_.find(shard);
  return it != shards_.end() && it->second.is_primary;
}

uint64_t Replicator::epoch(ShardId shard) const {
  auto it = shards_.find(shard);
  return it == shards_.end() ? 0 : it->second.epoch;
}

uint64_t Replicator::applied_seq(ShardId shard) const {
  auto it = shards_.find(shard);
  return it == shards_.end() ? 0 : it->second.applied_seq;
}

uint64_t Replicator::max_applied_seq() const {
  uint64_t max_seq = 0;
  for (const auto& [shard, state] : shards_) {
    max_seq = std::max(max_seq, state.applied_seq);
  }
  return max_seq;
}

EpochToken Replicator::ApplyToken(ShardId shard) const {
  auto it = shards_.find(shard);
  if (it == shards_.end()) return {};
  return {it->second.epoch, it->second.applied_seq};
}

uint64_t Replicator::backup_applied_seq(ShardId shard, sim::NodeId peer) const {
  auto it = shards_.find(shard);
  if (it == shards_.end()) return 0;
  auto peer_it = it->second.peer_applied.find(peer);
  return peer_it == it->second.peer_applied.end() ? 0 : peer_it->second;
}

bool Replicator::is_chain_tail(ShardId shard) const {
  if (mode_ != Mode::kChain) return false;
  auto it = shards_.find(shard);
  return it != shards_.end() && !it->second.is_primary &&
         it->second.peers.empty() && it->second.epoch > 0;
}

Status Replicator::CheckFollowerRead(ShardId shard, const EpochToken& token,
                                     ReadMode mode,
                                     uint64_t staleness_epochs) const {
  auto it = shards_.find(shard);
  const ShardState* state = it == shards_.end() ? nullptr : &it->second;
  if (state != nullptr && state->is_primary) return Status::OK();
  switch (mode) {
    case ReadMode::kPrimaryOnly:
      return Status::NotPrimary("follower reads disabled");
    case ReadMode::kEventual:
      return Status::OK();
    case ReadMode::kTail:
      // Chain commit = tail applied, so the tail serves unconditionally;
      // every other position bounces.
      if (is_chain_tail(shard)) return Status::OK();
      return Status::EpochBehind("not the chain tail");
    case ReadMode::kStrict:
    case ReadMode::kBounded: {
      if (token.epoch == 0) return Status::OK();  // client has seen nothing
      if (state == nullptr || token.epoch != state->epoch) {
        // Tokens from another configuration epoch — including one minted
        // by a primary that has since been deposed — never silently
        // serve: the sequence spaces are not comparable across epochs.
        return Status::EpochBehind("token from epoch " +
                                   std::to_string(token.epoch));
      }
      uint64_t slack = mode == ReadMode::kBounded ? staleness_epochs : 0;
      if (state->applied_seq + slack >= token.seq) return Status::OK();
      return Status::EpochBehind(
          "applied " + std::to_string(state->applied_seq) + " < token " +
          std::to_string(token.seq));
    }
  }
  return Status::EpochBehind("unknown read mode");
}

Status Replicator::ApplyLocal(const storage::WriteBatch& batch,
                              obs::TraceContext trace) {
  storage::WriteBatch copy = batch;
  LO_RETURN_IF_ERROR(db_->Write({.sync = true, .trace = trace}, &copy));
  metrics_.applied_batches++;
  if (apply_hook_) apply_hook_(batch);
  return Status::OK();
}

sim::Task<Status> Replicator::ReplicateAndApply(ShardId shard,
                                                storage::WriteBatch batch,
                                                obs::TraceContext trace) {
  auto it = shards_.find(shard);
  if (it == shards_.end() || !it->second.is_primary) {
    co_return Status::NotPrimary("replicate on non-primary");
  }
  ShardState& state = it->second;
  uint64_t seq = state.next_seq++;
  metrics_.replicated_batches++;

  // Apply locally first (synchronously, so the local apply order equals
  // the sequence order), then ship.
  LO_CO_RETURN_IF_ERROR(ApplyLocal(batch, trace));
  state.applied_seq = std::max(state.applied_seq, seq);

  if (state.peers.empty()) co_return Status::OK();
  std::string payload = EncodeShipment(shard, state.epoch, seq, batch.rep());

  if (mode_ == Mode::kChain) {
    // The write flows down the chain; the deepest ack unwinds back
    // through the nested RPCs, carrying the minimum applied seq of every
    // node below this one.
    auto ack = co_await rpc_->Call(
        state.peers.front(), "repl.chain", payload,
        kAckTimeout * static_cast<int64_t>(state.peers.size()), trace);
    if (!ack.ok()) co_return ack.status();
    uint64_t& chain_applied = state.peer_applied[state.peers.front()];
    chain_applied = std::max(chain_applied, DecodeAck(*ack));
    co_return Status::OK();
  }

  // Primary-backup: fan out in parallel, await all acks. The peer list
  // is copied: a Configure arriving while acks are in flight must not
  // shift which node an ack is attributed to.
  std::vector<sim::NodeId> peers = state.peers;
  std::vector<sim::Future<Result<std::string>>> acks;
  acks.reserve(peers.size());
  for (sim::NodeId peer : peers) {
    acks.emplace_back(rpc_->Call(peer, "repl.apply", payload, kAckTimeout, trace));
  }
  Status failure = Status::OK();
  for (size_t i = 0; i < acks.size(); i++) {
    auto reply = co_await acks[i].Wait();
    if (!reply.ok()) {
      metrics_.failed_peer_acks++;
      if (failure.ok()) failure = reply.status();
      continue;
    }
    uint64_t& peer_applied = state.peer_applied[peers[i]];
    peer_applied = std::max(peer_applied, DecodeAck(*reply));
  }
  if (!failure.ok()) {
    // A backup is unreachable: surface Unavailable so the client retries
    // after the coordinator reconfigures the replica set. The local
    // apply stands; the reconfigured epoch's primary has the data.
    co_return Status::Unavailable("backup unreachable: " + failure.ToString());
  }
  co_return Status::OK();
}

void Replicator::DrainReorderBuffer(ShardState& state) {
  auto it = state.reorder_buffer.begin();
  while (it != state.reorder_buffer.end() && it->first == state.applied_seq + 1) {
    if (!ApplyLocal(it->second).ok()) break;
    state.applied_seq = it->first;
    it = state.reorder_buffer.erase(it);
  }
}

sim::Task<Status> Replicator::AwaitInOrderApply(ShardState& state, uint64_t seq) {
  for (int spins = 0; state.applied_seq < seq; spins++) {
    DrainReorderBuffer(state);
    if (state.applied_seq >= seq) break;
    if (spins > 10'000) {
      // The gap never filled (lost predecessor); let the primary's
      // timeout machinery handle it rather than acking out of order.
      state.reorder_buffer.erase(seq);
      co_return Status::Timeout("replication gap never filled");
    }
    co_await rpc_->sim().Sleep(sim::Micros(20));
  }
  co_return Status::OK();
}

sim::Task<Result<std::string>> Replicator::HandleApply(sim::NodeId,
                                                       obs::TraceContext trace,
                                                       std::string payload) {
  ShardId shard = 0;
  uint64_t epoch = 0, seq = 0;
  storage::WriteBatch batch;
  LO_CO_RETURN_IF_ERROR(DecodeShipment(payload, &shard, &epoch, &seq, &batch));
  ShardState& state = shards_[shard];
  if (epoch < state.epoch) {
    metrics_.stale_epoch_rejections++;
    co_return Status::Aborted("stale epoch");
  }
  if (seq <= state.applied_seq) co_return EncodeAck(state.applied_seq);  // re-send
  if (seq != state.applied_seq + 1) {
    metrics_.reordered_arrivals++;
    state.reorder_buffer.emplace(seq, std::move(batch));
    LO_CO_RETURN_IF_ERROR(co_await AwaitInOrderApply(state, seq));
    co_return EncodeAck(state.applied_seq);
  }
  LO_CO_RETURN_IF_ERROR(ApplyLocal(batch, trace));
  state.applied_seq = seq;
  DrainReorderBuffer(state);
  co_return EncodeAck(state.applied_seq);
}

sim::Task<Result<std::string>> Replicator::HandleChain(sim::NodeId,
                                                       obs::TraceContext trace,
                                                       std::string payload) {
  ShardId shard = 0;
  uint64_t epoch = 0, seq = 0;
  storage::WriteBatch batch;
  LO_CO_RETURN_IF_ERROR(DecodeShipment(payload, &shard, &epoch, &seq, &batch));
  ShardState& state = shards_[shard];
  if (epoch < state.epoch) {
    metrics_.stale_epoch_rejections++;
    co_return Status::Aborted("stale epoch");
  }
  if (seq > state.applied_seq) {
    if (seq != state.applied_seq + 1) {
      metrics_.reordered_arrivals++;
      state.reorder_buffer.emplace(seq, std::move(batch));
      LO_CO_RETURN_IF_ERROR(co_await AwaitInOrderApply(state, seq));
    } else {
      LO_CO_RETURN_IF_ERROR(ApplyLocal(batch, trace));
      state.applied_seq = seq;
      DrainReorderBuffer(state);
    }
  }
  // Forward down the chain (peers holds this node's successors only).
  // The ack carries the minimum applied seq of this node and everything
  // below it, so the head learns how far the whole chain has applied.
  uint64_t chain_applied = state.applied_seq;
  if (!state.peers.empty()) {
    sim::NodeId successor = state.peers.front();
    auto ack = co_await rpc_->Call(
        successor, "repl.chain", payload,
        kAckTimeout * static_cast<int64_t>(state.peers.size()), trace);
    if (!ack.ok()) co_return ack.status();
    uint64_t downstream = DecodeAck(*ack);
    uint64_t& recorded = state.peer_applied[successor];
    recorded = std::max(recorded, downstream);
    chain_applied = std::min(chain_applied, downstream);
  }
  co_return EncodeAck(chain_applied);
}

// ------------------------------------------------------------ ReplicatedLog

ReplicatedLog::ReplicatedLog(sim::RpcEndpoint* rpc, storage::DB* db)
    : rpc_(rpc), db_(db) {
  rpc_->Handle("log.replicate", [this](sim::NodeId from, std::string payload) {
    return HandleReplicate(from, std::move(payload));
  });
}

void ReplicatedLog::Configure(bool is_leader, std::vector<sim::NodeId> followers) {
  is_leader_ = is_leader;
  followers_ = std::move(followers);
}

std::string ReplicatedLog::IndexKey(uint64_t index) {
  std::string key = "rlog/";
  for (int i = 7; i >= 0; i--) {
    key.push_back(static_cast<char>((index >> (8 * i)) & 0xff));
  }
  return key;
}

sim::Task<Result<uint64_t>> ReplicatedLog::Append(std::string record,
                                                  obs::TraceContext trace) {
  if (!is_leader_) co_return Status::NotPrimary("append on follower");
  uint64_t index = next_index_++;
  LO_CO_RETURN_IF_ERROR(
      db_->Put({.sync = true, .trace = trace}, IndexKey(index), record));
  std::string payload;
  PutVarint64(&payload, index);
  PutLengthPrefixed(&payload, record);
  std::vector<sim::Future<Result<std::string>>> acks;
  acks.reserve(followers_.size());
  for (sim::NodeId follower : followers_) {
    acks.emplace_back(
        rpc_->Call(follower, "log.replicate", payload, sim::Millis(50), trace));
  }
  for (auto& ack : acks) {
    auto reply = co_await ack.Wait();
    if (!reply.ok()) co_return reply.status();
  }
  co_return index;
}

Result<std::string> ReplicatedLog::Read(uint64_t index) const {
  return db_->Get({}, IndexKey(index));
}

sim::Task<Result<std::string>> ReplicatedLog::HandleReplicate(sim::NodeId,
                                                              std::string payload) {
  Reader reader{payload};
  uint64_t index = 0;
  std::string_view record;
  if (!reader.GetVarint64(&index) || !reader.GetLengthPrefixed(&record)) {
    co_return Status::Corruption("bad log replicate");
  }
  LO_CO_RETURN_IF_ERROR(db_->Put({.sync = true}, IndexKey(index), record));
  if (index >= next_index_) next_index_ = index + 1;
  co_return std::string("ok");
}

}  // namespace lo::replication
