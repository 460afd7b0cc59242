// The simulator's calibration (DESIGN.md §5): the costs every simulated
// node charges, in one place. Figure 1 compares the aggregated design
// (cluster::StorageNode) with the disaggregated baseline
// (baseline::ComputeNode, baseline::LoadBalancer) on the same table, so
// the ratio measures the architecture and not two copies of a constant.
// The network's latencies live in sim::NetworkConfig; Table 1's
// container cold start is set by its bench.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace lo::sim {

/// Worker cores per node: two Xeon Silver 4114 = 20 physical cores.
inline constexpr int kNodeCores = 20;
/// Request demux and scheduling on a storage or compute node.
inline constexpr Duration kDispatchOverhead = Micros(15);
/// The load balancer's per-request dispatch (OpenWhisk's controller).
inline constexpr Duration kLoadBalancerDispatchOverhead = Micros(20);
/// Server-side CPU per raw kv op (parse + LSM + syscall path), paid by
/// the disaggregated baseline on every storage access.
inline constexpr Duration kKvOpCpu = Micros(40);
/// VM execution: "almost native speed".
inline constexpr uint64_t kNsPerFuel = 2;
/// Sandbox instantiation per invocation (WASM module instantiation and
/// runtime setup, wasmtime-era), the same in both architectures.
inline constexpr Duration kSandboxInstantiation = Micros(100);
/// One durable log or WAL sync (datacenter NVMe flush).
inline constexpr Duration kLogSyncLatency = Micros(80);

}  // namespace lo::sim
