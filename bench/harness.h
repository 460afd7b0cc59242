// Shared experiment harness for the figure/table benchmarks.
//
// Builds the paper's two deployments (§5): the aggregated LambdaStore
// replica set and the disaggregated compute+storage baseline — both
// seeded with byte-identical ReTwis state — and runs closed-loop
// workloads against them.
#pragma once

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"

#include "baseline/deployment.h"
#include "cluster/deployment.h"
#include "common/coding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "retwis/driver.h"
#include "retwis/retwis.h"
#include "retwis/workload.h"

namespace lo::bench {

struct ExperimentConfig {
  retwis::WorkloadConfig workload;
  int num_clients = 100;               // paper: "up to 100 concurrent"
  sim::Duration warmup = sim::Millis(200);
  sim::Duration measure = sim::Seconds(1);
  uint64_t seed = 42;
  replication::Mode replication_mode = replication::Mode::kPrimaryBackup;
  /// The consistent result cache (§4.2.2) is evaluated separately in
  /// ablation_caching; the headline figures run without it, like the
  /// paper's early prototype numbers.
  bool result_cache = false;
  bool quick = false;  // shrunk parameters for smoke runs
  /// Parallelism knobs (0 = keep the node defaults), set by ablation
  /// sweeps. See docs/tuning.md for the full table.
  size_t lanes = 0;                  // lanes per sim node (real server: 1)
  size_t gc_max_batch_bytes = 0;     // WAL group-commit size bound
};

/// Applies the parallelism knobs onto a node's options. Both system
/// constructors call this, so benches pick the knobs up automatically.
void ApplyParallelismKnobs(const ExperimentConfig& config,
                           cluster::StorageNodeOptions* node);

/// Applies LO_BENCH_QUICK=1 (env) to shrink an experiment ~20x.
ExperimentConfig MaybeQuick(ExperimentConfig config);

/// Degraded-mode fault plan for the aggregated system, parsed from env
/// (all optional; times are sim-time after the workload run starts):
///   LO_FAULT_KILL_PRIMARY_MS=<T>  kill storage node 0 — the bootstrap
///                                 primary of shard 0 — T ms in
///   LO_FAULT_REVIVE_MS=<T>        revive that node T ms in
///   LO_FAULT_DROP=<p>             extra per-message drop probability
///   LO_FAULT_SPIKE_P=<p>          per-message latency-spike probability
///   LO_FAULT_SPIKE_US=<n>         mean spike (exponential), microseconds
/// Faults draw from the deployment's seeded RNG, so one seed replays one
/// failure schedule.
struct FaultPlan {
  int64_t kill_primary_ms = -1;  // -1 = never
  int64_t revive_ms = -1;
  sim::NetworkFaults network;
  bool any() const {
    return kill_primary_ms >= 0 || revive_ms >= 0 ||
           network.drop_probability > 0 || network.spike_probability > 0;
  }
};
FaultPlan FaultPlanFromEnv();

/// Per-experiment observability: each system owns an isolated registry +
/// tracer (multiple systems reuse node ids, so the global Default() would
/// mix them up). Enabled by the LO_OBS_OUT env var naming an output
/// directory; LO_OBS_SAMPLE overrides the trace sampling rate (default
/// 16, i.e. every 16th invocation). Dump() writes
///   <dir>/BENCH_<label>_metrics.json   registry snapshot
///   <dir>/BENCH_<label>_trace.json     Chrome-trace-event spans
/// readable by ui.perfetto.dev and tools/trace_report.
class ObsHooks {
 public:
  ObsHooks();

  bool enabled() const { return enabled_; }
  obs::MetricsRegistry* registry() { return enabled_ ? &registry_ : nullptr; }
  obs::Tracer* tracer() { return enabled_ ? &tracer_ : nullptr; }
  void Dump(const std::string& label);

 private:
  bool enabled_ = false;
  std::string out_dir_;
  obs::MetricsRegistry registry_;
  obs::Tracer tracer_;
};

/// The aggregated system under test (paper topology: 3 storage nodes,
/// coordinators, 1 shard).
class AggregatedSystem {
 public:
  AggregatedSystem(const ExperimentConfig& config, const retwis::Workload& workload);

  retwis::DriverResult Run(retwis::OpType op, const ExperimentConfig& config,
                           const retwis::Workload& workload);
  cluster::AggregatedDeployment& deployment() { return *deployment_; }
  sim::Simulator& sim() { return sim_; }
  ObsHooks& obs() { return obs_; }

 private:
  sim::Simulator sim_;
  runtime::TypeRegistry types_;
  ObsHooks obs_;  // must outlive the deployment (registry holds pointers)
  std::unique_ptr<cluster::AggregatedDeployment> deployment_;
};

/// The disaggregated baseline (paper topology: 1 compute + 3 storage).
class DisaggregatedSystem {
 public:
  DisaggregatedSystem(const ExperimentConfig& config,
                      const retwis::Workload& workload);

  retwis::DriverResult Run(retwis::OpType op, const ExperimentConfig& config,
                           const retwis::Workload& workload);
  baseline::DisaggregatedDeployment& deployment() { return *deployment_; }
  sim::Simulator& sim() { return sim_; }
  ObsHooks& obs() { return obs_; }

 private:
  sim::Simulator sim_;
  runtime::TypeRegistry types_;
  ObsHooks obs_;  // must outlive the deployment (registry holds pointers)
  std::unique_ptr<baseline::DisaggregatedDeployment> deployment_;
};

/// Runs one (system, op) experiment on a fresh deployment and returns
/// the result. `aggregated` selects the system.
retwis::DriverResult RunExperiment(bool aggregated, retwis::OpType op,
                                   const ExperimentConfig& config);

// --- A13: small-RPC transport saturation (bench/realnet_saturation) ----

/// One arm of the A13 sweep: spawns a lambdastore-server with the given
/// transport config (LO_NET_PORT pins its port, LO_NET_SERVER_BIN
/// overrides the binary) and saturates it with a raw-socket pipelining
/// loadgen — `connections` blocking sockets, each keeping a window of
/// `window` "ping" echo requests on the wire (whole windows written
/// with one syscall, responses matched FIFO). Tiny payloads make
/// syscall and copy costs dominate, which is what the sharded/coalesced
/// transport exists to shrink.
struct SaturationConfig {
  int net_threads = 1;
  int connections = 4;
  int window = 64;                // pipelined requests per connection
  size_t payload_bytes = 16;
  double warmup_s = 0.3;
  double measure_s = 2.0;
};

struct SaturationResult {
  double rpcs_per_sec = 0;
  /// Round-trip of one full pipelined window (write W → last response).
  double p50_us = 0;
  double p99_us = 0;
  /// Server-side (data syscalls + poll waits) / responses, diffed from
  /// admin.stats snapshots around the measure window.
  double syscalls_per_rpc = 0;
  int reactors = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
};

SaturationResult RunRealNetSaturation(const SaturationConfig& config);

// --- open-loop (Poisson arrival) workload helpers ----------------------
//
// The closed-loop driver above measures capacity: N clients, each
// waiting for its reply before sending again, so an overloaded server
// just slows the clients down. Contention experiments (bench/tenancy)
// need the opposite: an arrival process that does NOT slow down when the
// server does, so queueing delay shows up in the latencies instead of
// silently thinning the load (coordinated omission).

/// Poisson arrival schedule: exponential inter-arrivals at
/// `rate_per_sec`, yielding absolute scheduled times in microseconds
/// from 0. Deterministic per seed. Not thread-safe — one schedule per
/// arrival generator.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_sec, uint64_t seed);

  /// Absolute scheduled time of the next arrival (µs since the schedule
  /// epoch). Monotone nondecreasing.
  int64_t NextArrivalUs();

  /// Replaces the rate going forward (aggressor ramps). The current
  /// position in time is kept.
  void SetRate(double rate_per_sec);

 private:
  double mean_interval_us_;
  double next_us_ = 0;
  Rng rng_;
};

/// Coordinated-omission-correct latency recording for open-loop runs:
/// every latency is measured from the *scheduled* arrival time, not the
/// send time, so an arrival that waited behind a backlog is charged its
/// full queueing delay and no arrival is ever skipped. Thread-safe.
class OpenLoopRecorder {
 public:
  /// One arrival answered OK.
  void RecordOk(int64_t scheduled_us, int64_t completed_us);
  /// One arrival shed by admission control (kTenantThrottled).
  void RecordShed();
  /// One arrival failed for any other reason.
  void RecordError();

  struct Summary {
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t errors = 0;
    int64_t p50_us = 0;
    int64_t p99_us = 0;
    int64_t max_us = 0;
  };
  Summary Snapshot() const;
  /// Snapshot, then reset — one measurement window's worth.
  Summary Drain();

 private:
  mutable std::mutex mu_;
  Histogram latency_us_;
  uint64_t shed_ = 0;
  uint64_t errors_ = 0;
};

// --- output helpers ----------------------------------------------------

void PrintHeader(const std::string& title);
void PrintRow(const char* fmt, ...);

}  // namespace lo::bench
