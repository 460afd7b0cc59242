#include "baseline/load_balancer.h"

#include "common/log.h"
#include "sim/calibration.h"

namespace lo::baseline {
namespace {

/// Deadline on one dispatch to a compute node before the next is tried.
constexpr sim::Duration kComputeTimeout = sim::Millis(500);

std::unique_ptr<storage::DB> OpenDb(storage::MemEnv* env, const std::string& name) {
  storage::Options options;
  options.env = env;
  return std::move(*storage::DB::Open(options, name));
}

}  // namespace

LoadBalancer::LoadBalancer(sim::Network& net, sim::NodeId id,
                           std::vector<sim::NodeId> compute_pool,
                           std::vector<sim::NodeId> log_followers,
                           LoadBalancerOptions options)
    : options_(options),
      rpc_(net, id),
      db_(OpenDb(&env_, "/lb-log")),
      log_(&rpc_, db_.get()),
      compute_pool_(std::move(compute_pool)) {
  LO_CHECK(!compute_pool_.empty());
  rpc_.SetTracer(options.tracer);
  log_.Configure(/*is_leader=*/true, std::move(log_followers));
  rpc_.Handle("lb.invoke", [this](sim::NodeId from, obs::TraceContext trace,
                                  std::string payload) {
    return HandleInvoke(from, trace, std::move(payload));
  });
  if (options.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options.metrics_registry;
    reg->RegisterExternal("lb.requests", id, &metrics_.requests);
    reg->RegisterExternal("lb.log_appends", id, &metrics_.log_appends);
    reg->RegisterExternal("lb.retries_on_compute_failure", id,
                          &metrics_.retries_on_compute_failure);
  }
}

sim::Task<Result<std::string>> LoadBalancer::HandleInvoke(sim::NodeId,
                                                          obs::TraceContext trace,
                                                          std::string payload) {
  metrics_.requests++;
  sim::Time dispatch_started = rpc_.sim().Now();
  co_await rpc_.sim().Sleep(sim::kLoadBalancerDispatchOverhead);
  if (obs::Tracing(options_.tracer, trace)) {
    options_.tracer->RecordChild(trace, "dispatch", id(), dispatch_started,
                                 rpc_.sim().Now());
  }
  // Durability first: the request is logged before any execution, so a
  // compute failure can be retried rather than lost.
  sim::Time append_started = rpc_.sim().Now();
  co_await rpc_.sim().Sleep(sim::kLogSyncLatency);
  auto index = co_await log_.Append(payload, trace);
  if (!index.ok()) co_return index.status();
  metrics_.log_appends++;
  if (obs::Tracing(options_.tracer, trace)) {
    options_.tracer->RecordChild(trace, "log.append", id(), append_started,
                                 rpc_.sim().Now());
  }

  // Round-robin dispatch; on failure, retry on the next compute node.
  for (size_t attempt = 0; attempt < compute_pool_.size(); attempt++) {
    sim::NodeId target = compute_pool_[next_compute_];
    next_compute_ = (next_compute_ + 1) % compute_pool_.size();
    auto result = co_await rpc_.Call(target, "fn.invoke", payload,
                                     kComputeTimeout, trace);
    if (result.ok() || (!result.status().IsTimeout() &&
                        !result.status().IsUnavailable())) {
      co_return result;
    }
    metrics_.retries_on_compute_failure++;
  }
  co_return Status::Unavailable("no compute node reachable");
}

LogFollower::LogFollower(sim::Network& net, sim::NodeId id)
    : rpc_(net, id), db_(OpenDb(&env_, "/lb-follower")), log_(&rpc_, db_.get()) {
  log_.Configure(/*is_leader=*/false, {});
}

}  // namespace lo::baseline
