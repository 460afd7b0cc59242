// Disaggregated baseline (paper §4.1 / §5): functions execute on a
// dedicated compute node, *separate* from the storage replica set, with
// WebAssembly(-equivalent) isolation. Every storage access is a network
// round-trip to the storage primary, and there is no invocation
// atomicity/isolation — the paper's "no consistency guarantees" variant.
// The storage side is the same LambdaStore replica set (kv.* services),
// so the only difference between the two systems is the architecture.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/routing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/object.h"
#include "sim/cpu.h"
#include "sim/rpc.h"
#include "vm/interpreter.h"

namespace lo::baseline {

/// The node's costs are the simulator's calibration (sim/calibration.h),
/// the same table the aggregated system's StorageNode charges.
struct ComputeNodeOptions {
  /// Cold-start penalty paid when a function's sandbox is not warm
  /// (container spin-up). 0 disables; the Table 1 benchmark sets it.
  sim::Duration cold_start = 0;
  /// How long a warm sandbox stays warm after an invocation.
  sim::Duration keep_alive = sim::Seconds(600);
  /// Observability (nullptr = off).
  obs::MetricsRegistry* metrics_registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

class ComputeNode {
 public:
  ComputeNode(sim::Network& net, sim::NodeId id,
              const runtime::TypeRegistry* types, ComputeNodeOptions options);

  sim::NodeId id() const { return rpc_.node(); }
  void SeedConfig(coord::ClusterState state) { shard_map_.Update(std::move(state)); }
  /// When set, nested `invoke`s go through the load balancer (one more
  /// hop of indirection, §4.1); otherwise they re-enter this node.
  void SetLoadBalancer(sim::NodeId lb) { load_balancer_ = lb; }

  /// Executes one function invocation (also the nested-call entry).
  sim::Task<Result<std::string>> InvokeFunction(std::string oid, std::string method,
                                                std::string argument,
                                                obs::TraceContext trace = {});

  struct Metrics {
    uint64_t invocations = 0;
    uint64_t storage_round_trips = 0;
    uint64_t cold_starts = 0;
    uint64_t fuel_executed = 0;
  };
  const Metrics& metrics() const { return metrics_; }
  sim::CpuModel& cpu() { return cpu_; }

 private:
  friend class RemoteHostApi;
  sim::Task<Result<std::string>> HandleInvoke(sim::NodeId from,
                                              obs::TraceContext trace,
                                              std::string payload);
  sim::Task<Result<std::string>> HandleCreate(sim::NodeId from, std::string payload);
  sim::Task<Result<std::string>> TypeNameOf(const std::string& oid);
  sim::Task<void> MaybeColdStart(const std::string& type_name);

  ComputeNodeOptions options_;
  sim::RpcEndpoint rpc_;
  sim::CpuModel cpu_;
  const runtime::TypeRegistry* types_;
  cluster::ShardMap shard_map_;
  sim::NodeId load_balancer_ = 0;
  std::map<std::string, std::string> type_cache_;   // oid -> type name
  std::map<std::string, sim::Time> warm_until_;     // type -> warm deadline
  Metrics metrics_;
};

}  // namespace lo::baseline
