// OpenWhisk-style load balancer (paper §4.1): client requests are logged
// durably to a replicated log (the Kafka role) *before* being dispatched
// round-robin to the compute pool, so a compute-node failure can never
// lose a request. This indirection — log append + extra hop — is part of
// the latency the aggregated design removes.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/replicator.h"
#include "sim/rpc.h"
#include "storage/db.h"
#include "storage/env.h"

namespace lo::baseline {

/// The balancer's dispatch and log sync are the simulator's calibration
/// (sim/calibration.h).
struct LoadBalancerOptions {
  /// Observability (nullptr = off).
  obs::MetricsRegistry* metrics_registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

class LoadBalancer {
 public:
  LoadBalancer(sim::Network& net, sim::NodeId id,
               std::vector<sim::NodeId> compute_pool,
               std::vector<sim::NodeId> log_followers,
               LoadBalancerOptions options = {});

  sim::NodeId id() const { return rpc_.node(); }
  replication::ReplicatedLog& log() { return log_; }

  struct Metrics {
    uint64_t requests = 0;
    uint64_t log_appends = 0;
    uint64_t retries_on_compute_failure = 0;
  };
  const Metrics& metrics() const { return metrics_; }

 private:
  sim::Task<Result<std::string>> HandleInvoke(sim::NodeId from,
                                              obs::TraceContext trace,
                                              std::string payload);

  LoadBalancerOptions options_;
  sim::RpcEndpoint rpc_;
  storage::MemEnv env_;
  std::unique_ptr<storage::DB> db_;
  replication::ReplicatedLog log_;
  std::vector<sim::NodeId> compute_pool_;
  size_t next_compute_ = 0;
  Metrics metrics_;
};

/// Follower node hosting a replica of the request log.
class LogFollower {
 public:
  LogFollower(sim::Network& net, sim::NodeId id);
  replication::ReplicatedLog& log() { return log_; }

 private:
  sim::RpcEndpoint rpc_;
  storage::MemEnv env_;
  std::unique_ptr<storage::DB> db_;
  replication::ReplicatedLog log_;
};

}  // namespace lo::baseline
