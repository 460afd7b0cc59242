#include "bench/harness.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "cluster/microshard.h"
#include "common/log.h"
#include "obs/export.h"

namespace lo::bench {

namespace {

obs::TracerOptions TracerOptionsFromEnv() {
  obs::TracerOptions options;
  options.sample_every = 16;
  const char* sample = std::getenv("LO_OBS_SAMPLE");
  if (sample != nullptr && sample[0] != '\0') {
    options.sample_every = std::strtoull(sample, nullptr, 10);
  }
  return options;
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  LO_CHECK_MSG(f != nullptr, path.c_str());
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
}

// Root-span wrapper for the disaggregated invokers: the aggregated
// system's Client mints "invoke" spans itself, but here clients are raw
// RpcEndpoints, so the harness plays that role.
sim::Task<Result<std::string>> TracedEntryCall(sim::RpcEndpoint* rpc,
                                               obs::Tracer* tracer,
                                               sim::NodeId entry,
                                               std::string service,
                                               std::string payload) {
  obs::TraceContext trace =
      tracer != nullptr ? tracer->StartTrace() : obs::TraceContext{};
  sim::Time started = rpc->sim().Now();
  Result<std::string> result = co_await rpc->Call(
      entry, std::move(service), std::move(payload), sim::Seconds(5), trace);
  if (obs::Tracing(tracer, trace)) {
    tracer->Record(trace, "invoke", rpc->node(), started, rpc->sim().Now());
  }
  co_return result;
}

}  // namespace

ObsHooks::ObsHooks() : tracer_(TracerOptionsFromEnv()) {
  const char* dir = std::getenv("LO_OBS_OUT");
  if (dir != nullptr && dir[0] != '\0') {
    enabled_ = true;
    out_dir_ = dir;
  }
}

void ObsHooks::Dump(const std::string& label) {
  if (!enabled_) return;
  WriteFileOrDie(out_dir_ + "/BENCH_" + label + "_metrics.json",
                 registry_.SnapshotJson());
  WriteFileOrDie(out_dir_ + "/BENCH_" + label + "_trace.json",
                 obs::ExportChromeTrace(tracer_.Spans()));
}

void ApplyParallelismKnobs(const ExperimentConfig& config,
                           cluster::StorageNodeOptions* node) {
  if (config.lanes > 0) node->runtime.lanes = config.lanes;
  if (config.gc_max_batch_bytes > 0) {
    node->gc_max_batch_bytes = config.gc_max_batch_bytes;
  }
}

FaultPlan FaultPlanFromEnv() {
  auto int_env = [](const char* name, int64_t fallback) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' ? std::strtoll(v, nullptr, 10) : fallback;
  };
  auto double_env = [](const char* name, double fallback) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' ? std::strtod(v, nullptr) : fallback;
  };
  FaultPlan plan;
  plan.kill_primary_ms = int_env("LO_FAULT_KILL_PRIMARY_MS", -1);
  plan.revive_ms = int_env("LO_FAULT_REVIVE_MS", -1);
  plan.network.drop_probability = double_env("LO_FAULT_DROP", 0.0);
  plan.network.spike_probability = double_env("LO_FAULT_SPIKE_P", 0.0);
  plan.network.spike_mean = sim::Micros(int_env("LO_FAULT_SPIKE_US", 2000));
  return plan;
}

ExperimentConfig MaybeQuick(ExperimentConfig config) {
  const char* quick = std::getenv("LO_BENCH_QUICK");
  if (quick != nullptr && quick[0] == '1') {
    config.quick = true;
    config.workload.num_users = 500;
    config.num_clients = 20;
    config.measure = sim::Millis(300);
    config.warmup = sim::Millis(50);
  }
  return config;
}

AggregatedSystem::AggregatedSystem(const ExperimentConfig& config,
                                   const retwis::Workload& workload)
    : sim_(config.seed) {
  LO_CHECK(retwis::RegisterUserType(&types_, /*use_vm=*/true).ok());
  cluster::DeploymentOptions options;
  options.node.replication_mode = config.replication_mode;
  options.node.runtime.enable_result_cache = config.result_cache;
  ApplyParallelismKnobs(config, &options.node);
  // Closed-loop measurement clients must out-wait celebrity-post fan-outs.
  options.client.request_timeout = sim::Seconds(5);
  options.metrics_registry = obs_.registry();
  options.tracer = obs_.tracer();
  deployment_ =
      std::make_unique<cluster::AggregatedDeployment>(sim_, &types_, options);
  deployment_->WaitUntilReady();
  for (int i = 0; i < deployment_->num_nodes(); i++) {
    LO_CHECK(workload.SeedDb(&deployment_->node(i).db()).ok());
  }
}

retwis::DriverResult AggregatedSystem::Run(retwis::OpType op,
                                           const ExperimentConfig& config,
                                           const retwis::Workload& workload) {
  FaultPlan faults = FaultPlanFromEnv();
  if (faults.any()) {
    deployment_->network().SetFaults(faults.network);
    if (faults.kill_primary_ms >= 0) {
      sim::Detach([](sim::Simulator* sim, cluster::AggregatedDeployment* dep,
                     FaultPlan plan) -> sim::Task<void> {
        co_await sim->Sleep(sim::Millis(plan.kill_primary_ms));
        dep->KillStorageNode(0);
        if (plan.revive_ms > plan.kill_primary_ms) {
          co_await sim->Sleep(sim::Millis(plan.revive_ms - plan.kill_primary_ms));
          dep->ReviveStorageNode(0);
        }
      }(&sim_, deployment_.get(), faults));
    }
  }
  std::vector<retwis::Invoker> invokers;
  for (int i = 0; i < config.num_clients; i++) {
    cluster::Client* client = &deployment_->NewClient();
    invokers.push_back([client](const retwis::Request& request) {
      return client->Invoke(request.oid, request.method, request.argument);
    });
  }
  retwis::DriverConfig driver;
  driver.warmup = config.warmup;
  driver.measure = config.measure;
  driver.seed = config.seed;
  return retwis::RunClosedLoop(sim_, workload, op, std::move(invokers), driver);
}

DisaggregatedSystem::DisaggregatedSystem(const ExperimentConfig& config,
                                         const retwis::Workload& workload)
    : sim_(config.seed) {
  LO_CHECK(retwis::RegisterUserType(&types_, /*use_vm=*/true).ok());
  baseline::BaselineOptions options;
  options.storage.replication_mode = config.replication_mode;
  ApplyParallelismKnobs(config, &options.storage);
  options.metrics_registry = obs_.registry();
  options.tracer = obs_.tracer();
  deployment_ = std::make_unique<baseline::DisaggregatedDeployment>(sim_, &types_,
                                                                    options);
  for (int i = 0; i < 3; i++) {
    LO_CHECK(workload.SeedDb(&deployment_->storage(i).db()).ok());
  }
}

retwis::DriverResult DisaggregatedSystem::Run(retwis::OpType op,
                                              const ExperimentConfig& config,
                                              const retwis::Workload& workload) {
  std::vector<retwis::Invoker> invokers;
  sim::NodeId entry = deployment_->entry_node();
  std::string service = deployment_->entry_service();
  obs::Tracer* tracer = obs_.tracer();
  for (int i = 0; i < config.num_clients; i++) {
    sim::RpcEndpoint* rpc = &deployment_->NewClientEndpoint();
    invokers.push_back(
        [rpc, entry, service, tracer](const retwis::Request& request) {
          return TracedEntryCall(
              rpc, tracer, entry, service,
              cluster::EncodeInvoke(request.oid, request.method,
                                    request.argument));
        });
  }
  retwis::DriverConfig driver;
  driver.warmup = config.warmup;
  driver.measure = config.measure;
  driver.seed = config.seed;
  return retwis::RunClosedLoop(sim_, workload, op, std::move(invokers), driver);
}

retwis::DriverResult RunExperiment(bool aggregated, retwis::OpType op,
                                   const ExperimentConfig& config) {
  retwis::Workload workload(config.workload);
  if (aggregated) {
    AggregatedSystem system(config, workload);
    retwis::DriverResult result = system.Run(op, config, workload);
    system.obs().Dump(std::string(retwis::OpName(op)) + "_agg");
    return result;
  }
  DisaggregatedSystem system(config, workload);
  retwis::DriverResult result = system.Run(op, config, workload);
  system.obs().Dump(std::string(retwis::OpName(op)) + "_disagg");
  return result;
}

PoissonSchedule::PoissonSchedule(double rate_per_sec, uint64_t seed)
    : mean_interval_us_(1e6 / (rate_per_sec > 0 ? rate_per_sec : 1.0)),
      rng_(seed) {}

int64_t PoissonSchedule::NextArrivalUs() {
  next_us_ += rng_.Exponential(mean_interval_us_);
  return static_cast<int64_t>(next_us_);
}

void PoissonSchedule::SetRate(double rate_per_sec) {
  mean_interval_us_ = 1e6 / (rate_per_sec > 0 ? rate_per_sec : 1.0);
}

void OpenLoopRecorder::RecordOk(int64_t scheduled_us, int64_t completed_us) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_us_.Record(completed_us - scheduled_us);
}

void OpenLoopRecorder::RecordShed() {
  std::lock_guard<std::mutex> lock(mu_);
  shed_++;
}

void OpenLoopRecorder::RecordError() {
  std::lock_guard<std::mutex> lock(mu_);
  errors_++;
}

OpenLoopRecorder::Summary OpenLoopRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary s;
  s.completed = latency_us_.count();
  s.shed = shed_;
  s.errors = errors_;
  s.p50_us = latency_us_.Percentile(0.5);
  s.p99_us = latency_us_.Percentile(0.99);
  s.max_us = latency_us_.Max();
  return s;
}

OpenLoopRecorder::Summary OpenLoopRecorder::Drain() {
  Summary s = Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  latency_us_.Clear();
  shed_ = 0;
  errors_ = 0;
  return s;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRow(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

}  // namespace lo::bench
