#include "cluster/client.h"

#include <optional>

#include "cluster/microshard.h"
#include "common/coding.h"
#include "common/log.h"

namespace lo::cluster {

Client::Client(sim::Network& net, sim::NodeId id,
               std::vector<sim::NodeId> coordinators, ClientOptions options)
    : rpc_(net, id), options_(options), coordinators_(std::move(coordinators)) {
  rpc_.SetTracer(options.tracer);
  if (options.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options.metrics_registry;
    reg->RegisterExternal("client.requests", id, &metrics_.requests);
    reg->RegisterExternal("client.retries", id, &metrics_.retries);
    reg->RegisterExternal("client.config_refreshes", id,
                          &metrics_.config_refreshes);
    reg->RegisterExternal("client.budget_exhausted", id,
                          &metrics_.budget_exhausted);
    reg->RegisterExternal("client.follower_reads", id, &metrics_.follower_reads);
    reg->RegisterExternal("client.read_bounces", id, &metrics_.read_bounces);
    reg->RegisterExternal("rpc.throttled", id, &metrics_.throttled);
    invoke_latency_us_ = reg->GetHistogram("client.invoke_latency_us", id);
  }
}

Result<std::string> Client::UnwrapToken(coord::ShardId shard,
                                        Result<std::string> wrapped) {
  if (!wrapped.ok()) return wrapped;
  return replication::UnwrapToken(*wrapped, &tokens_[shard]);
}

replication::EpochToken Client::TokenFor(const std::string& oid) const {
  auto it = tokens_.find(shard_map_.ShardFor(oid));
  return it == tokens_.end() ? replication::EpochToken{} : it->second;
}

obs::TraceContext Client::StartRootTrace() {
  if (options_.tracer == nullptr) return {};
  return options_.tracer->StartTrace();
}

void Client::FinishRootTrace(const obs::TraceContext& trace, sim::Time started) {
  sim::Time now = rpc_.sim().Now();
  if (obs::Tracing(options_.tracer, trace)) {
    options_.tracer->Record(trace, "invoke", rpc_.node(), started, now);
  }
  if (invoke_latency_us_ != nullptr) {
    invoke_latency_us_->Record((now - started) / 1000);
  }
}

sim::Task<void> Client::RefreshConfig() {
  metrics_.config_refreshes++;
  coord::CoordClient coord_client(&rpc_, coordinators_, nullptr);
  auto state = co_await coord_client.FetchConfig();
  if (state.ok()) shard_map_.Update(std::move(*state));
}

sim::Task<Result<std::string>> Client::CallWithRouting(const std::string& oid,
                                                       std::string service,
                                                       std::string payload,
                                                       obs::TraceContext trace) {
  sim::Simulator& sim = rpc_.sim();
  // Sim nodes answer a misroute with kWrongNode, a transient failure
  // that refreshes the shard map below, never with kWrongShard.
  RetryPolicy retry([&sim] { return sim.Now(); }, &sim.rng(),
                    RetryPolicy::kDefaultBudgetNs,
                    /*follows_redirects=*/false, &metrics_);
  while (true) {
    if (shard_map_.empty() && !coordinators_.empty()) co_await RefreshConfig();
    sim::NodeId primary = shard_map_.PrimaryFor(oid);
    Status failure;
    if (primary == 0) {
      failure = Status::Unavailable("no shard map");
    } else {
      auto result = co_await rpc_.Call(primary, service, payload,
                                       options_.request_timeout, trace);
      if (result.ok()) co_return result;
      failure = result.status();
      // Stale routing or mid-failover: refresh before the pause.
      if (RetryPolicy::Classify(failure.code()) ==
              RetryPolicy::Failure::kTransient &&
          !coordinators_.empty()) {
        co_await RefreshConfig();
      }
    }
    std::optional<sim::Duration> pause = retry.Next(failure.code());
    if (!pause) co_return failure;
    if (*pause > 0) co_await sim.Sleep(*pause);
  }
}

std::string Client::NextInvocationToken() {
  return "c" + std::to_string(rpc_.node()) + "-" + std::to_string(next_token_++);
}

sim::Task<Result<std::string>> Client::Invoke(std::string oid, std::string method,
                                              std::string argument) {
  metrics_.requests++;
  std::string payload;
  PutLengthPrefixed(&payload, oid);
  PutLengthPrefixed(&payload, method);
  PutLengthPrefixed(&payload, argument);
  // The token is baked into the payload once, before the retry loop, so
  // every attempt of this request carries the same identity.
  PutLengthPrefixed(&payload, NextInvocationToken());
  obs::TraceContext trace = StartRootTrace();
  sim::Time started = rpc_.sim().Now();
  auto wrapped =
      co_await CallWithRouting(oid, "lambda.invoke2", std::move(payload), trace);
  auto result = UnwrapToken(shard_map_.ShardFor(oid), std::move(wrapped));
  FinishRootTrace(trace, started);
  co_return result;
}

sim::Task<Result<std::string>> Client::InvokeRead(std::string oid,
                                                  std::string method,
                                                  std::string argument) {
  metrics_.requests++;
  if (shard_map_.empty() && !coordinators_.empty()) co_await RefreshConfig();
  coord::ShardId shard = shard_map_.ShardFor(oid);
  const coord::ShardConfig* config = shard_map_.ConfigFor(shard);
  replication::ReadMode mode = options_.read_mode;
  std::string payload = replication::EncodeReadRequest(
      {oid, method, argument, mode, TokenFor(oid), options_.staleness_epochs});
  obs::TraceContext trace = StartRootTrace();
  sim::Time started = rpc_.sim().Now();
  // Replica choice: chain tail for kTail, otherwise uniform over the
  // whole replica set (primary included — it carries its share of reads).
  if (mode != replication::ReadMode::kPrimaryOnly && config != nullptr &&
      !config->backups.empty()) {
    sim::NodeId target = 0;
    if (mode == replication::ReadMode::kTail) {
      target = config->backups.back();
    } else {
      size_t which = rpc_.sim().rng().Uniform(config->backups.size() + 1);
      if (which < config->backups.size()) target = config->backups[which];
    }
    if (target != 0) {
      auto reply = co_await rpc_.Call(target, "lambda.read", payload,
                                      options_.request_timeout, trace);
      if (reply.ok()) {
        metrics_.follower_reads++;
        FinishRootTrace(trace, started);
        co_return UnwrapToken(shard, std::move(reply));
      }
      if (reply.status().code() == StatusCode::kEpochBehind) {
        metrics_.read_bounces++;
      }
      // Bounce / failure: fall through to the primary path below.
    }
  }
  auto wrapped =
      co_await CallWithRouting(oid, "lambda.read", std::move(payload), trace);
  auto result = UnwrapToken(shard, std::move(wrapped));
  FinishRootTrace(trace, started);
  co_return result;
}

sim::Task<Result<std::string>> Client::Create(std::string oid,
                                              std::string type_name) {
  metrics_.requests++;
  std::string payload;
  PutLengthPrefixed(&payload, oid);
  PutLengthPrefixed(&payload, type_name);
  PutLengthPrefixed(&payload, NextInvocationToken());
  auto wrapped = co_await CallWithRouting(oid, "lambda.create2", std::move(payload));
  co_return UnwrapToken(shard_map_.ShardFor(oid), std::move(wrapped));
}

sim::Task<Status> Client::MigrateObject(const std::string& oid,
                                        coord::ShardId target_shard) {
  if (shard_map_.empty() && !coordinators_.empty()) co_await RefreshConfig();
  sim::NodeId source = shard_map_.PrimaryFor(oid);
  const coord::ShardConfig* target = shard_map_.ConfigFor(target_shard);
  if (source == 0 || target == nullptr) {
    co_return Status::Unavailable("routing unknown for migration");
  }
  if (target->primary == source) co_return Status::OK();  // already there
  coord::ShardId source_shard = shard_map_.ShardFor(oid);

  // 1. Extract (source stops serving the object).
  auto extracted = co_await rpc_.Call(source, "shard.extract", oid,
                                      options_.request_timeout);
  if (!extracted.ok()) co_return extracted.status();
  // 2. Install at the target replica set.
  auto installed = co_await rpc_.Call(target->primary, "shard.install",
                                      EncodeInstall(target_shard, oid, *extracted),
                                      options_.request_timeout);
  Status moved = installed.status();
  // 3. Publish the directory update through the coordinator.
  if (moved.ok() && !coordinators_.empty()) {
    std::string place;
    PutLengthPrefixed(&place, oid);
    PutVarint32(&place, target_shard);
    for (sim::NodeId coordinator : coordinators_) {
      auto reply = co_await rpc_.Call(coordinator, "coord.place", place,
                                      options_.request_timeout);
      moved = reply.status();
      if (moved.ok()) break;
    }
    co_await RefreshConfig();
  }
  if (!moved.ok()) {
    // Roll back, as clusterd::ServerNode does: install the extracted
    // copy back at the source, whose install lifts the extract's fence,
    // so the source serves the object again. A copy that reached the
    // target is an orphan nobody routes to. The migration's own failure
    // is what the caller gets, whatever the rollback's outcome.
    (void)co_await rpc_.Call(source, "shard.install",
                             EncodeInstall(source_shard, oid, *extracted),
                             options_.request_timeout);
    co_return moved;
  }
  if (coordinators_.empty()) {
    // Coordinator-less deployments (unit tests): update locally.
    auto state = shard_map_.state();
    state.directory[oid] = target_shard;
    shard_map_.Update(std::move(state));
  }
  co_return Status::OK();
}

}  // namespace lo::cluster
