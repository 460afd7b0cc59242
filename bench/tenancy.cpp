// Experiment A12: multi-tenant noisy neighbor under open-loop load.
//
// Two tenants share one ParallelNode (4 execution lanes, VM-metered spin
// methods on disjoint object sets): a well-behaved victim sending a
// steady Poisson stream at ~15% of measured node capacity, and an
// aggressor whose arrival rate ramps from 1x to 10x its contracted rate
// budget (10x budget ~ 1.5x node capacity — strictly overloaded). Both
// streams are open loop (bench/harness.h PoissonSchedule +
// OpenLoopRecorder): arrivals do not slow down when the node does, so
// queueing delay lands in the recorded latencies instead of silently
// thinning the load (coordinated omission).
//
// Two arms, fresh node each:
//   off  no TenantRegistry — plain FIFO lanes, nothing is shed; the
//        aggressor's backlog grows without bound and the victim's p99
//        rides it up
//   on   TenantRegistry with the aggressor capped at its rate budget
//        (token bucket -> kTenantThrottled) and the victim at 4x DRR
//        weight; over-budget aggressor arrivals shed at admission and
//        the victim's p99 stays near its uncontended value
//
// Output: one JSON line per measurement window per arm
//   {"experiment":"A12","arm":"on","window":3,"ramp":4.9,
//    "victim":{"completed":..,"shed":..,"p50_us":..,"p99_us":..},
//    "aggressor":{...}}
// then a summary line with the acceptance verdict. Acceptance (--smoke
// fails the process otherwise): over the fully-ramped tail of the run,
//   victim_p99(on) * 2 < victim_p99(off)   and   aggressor sheds > 0.
//
// LO_BENCH_QUICK=1 shrinks the windows; LO_OBS_OUT dumps the registry's
// per-tenant tenant.* metrics for tools/trace-report.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "runtime/executor.h"
#include "storage/env.h"
#include "tenant/tenant.h"
#include "vm/assembler.h"

namespace {

using namespace lo;

constexpr tenant::TenantId kVictim = 1;
constexpr tenant::TenantId kAggressor = 2;
constexpr size_t kLanes = 4;
constexpr size_t kObjectsPerTenant = 64;
constexpr uint64_t kSpinIterations = 20'000;
constexpr double kRampMax = 10.0;  // aggressor peak, in multiples of budget

struct BenchConfig {
  int windows = 10;
  int64_t window_ms = 400;
  bool smoke = false;
};

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Pure-CPU fuel burner: counts down `kSpinIterations` inside the VM, so
// lane occupancy is genuine metered execution (and tenant.fuel_used
// accrues), with no storage writes to batch away.
std::shared_ptr<vm::Module> SpinModule() {
  char src[256];
  std::snprintf(src, sizeof(src), R"(
func spin export locals n
  push %llu
  local.set n
loop:
  local.get n
  push 1
  sub
  local.tee n
  br_if loop
  push 0
  push 0
  ret
end
)",
                static_cast<unsigned long long>(kSpinIterations));
  auto module = vm::Assemble(src);
  LO_CHECK_MSG(module.ok(), "spin module failed to assemble");
  return std::make_shared<vm::Module>(std::move(*module));
}

void RegisterSpinType(runtime::TypeRegistry* types) {
  runtime::ObjectType type;
  type.name = "spin_t";
  type.methods["spin"] = runtime::MethodImpl{
      .kind = runtime::MethodKind::kReadWrite, .module = SpinModule()};
  LO_CHECK(types->Register(std::move(type)).ok());
}

std::string Oid(tenant::TenantId tenant, size_t i) {
  return (tenant == kVictim ? "v/" : "a/") + std::to_string(i);
}

// One node under test: DB + types + ParallelNode (+ registry in the on
// arm), with its objects pre-created.
struct Node {
  explicit Node(tenant::TenantRegistry* tenants) {
    storage::Options db_options;
    db_options.env = &env;
    db_options.serialize_access = true;
    db = std::move(*storage::DB::Open(db_options, "/db"));
    RegisterSpinType(&types);
    runtime::ParallelNodeOptions options;
    options.lanes = kLanes;
    options.tenants = tenants;
    node = std::make_unique<runtime::ParallelNode>(db.get(), &types, options);
    for (tenant::TenantId t : {kVictim, kAggressor}) {
      for (size_t i = 0; i < kObjectsPerTenant; i++) {
        LO_CHECK(node->CreateObject(Oid(t, i), "spin_t").get().ok());
      }
    }
  }

  storage::MemEnv env;
  std::unique_ptr<storage::DB> db;
  runtime::TypeRegistry types;
  std::unique_ptr<runtime::ParallelNode> node;
};

// Measured node capacity in ops/sec: batches of concurrent InvokeAsync
// spins keeping every lane busy, in ~300 ms rounds for ~2 s, best round
// wins. Measuring through the same concurrent path the experiment uses
// (not sequentially × lane count) keeps the calibration honest on
// machines where parallel scaling is poor — under TSan the sequential
// estimate is several times too high, which would overload even the
// protected arm. Taking the best round keeps it honest on hosts whose
// idle CPUs run the first second or so of a burst about 3x slower: a
// single round read there leaves the aggressor's peak under the node's
// real capacity, so the off arm never builds the backlog it measures.
double MeasureCapacity() {
  Node warm(nullptr);
  // Warm the VM path.
  LO_CHECK(warm.node->Invoke(Oid(kVictim, 0), "spin", "").get().ok());
  double best = 0;
  const int64_t calibration_started = NowUs();
  while (NowUs() - calibration_started < 2'000'000) {
    int64_t started = NowUs();
    int completed = 0;
    while (NowUs() - started < 300'000 && completed < 2000) {
      constexpr int kBatch = 32;
      std::atomic<int> batch_done{0};
      for (int i = 0; i < kBatch; i++) {
        warm.node->InvokeAsync(
            Oid(kVictim, (completed + i) % kObjectsPerTenant), "spin", "", "",
            [&batch_done](Result<std::string>) {
              batch_done.fetch_add(1, std::memory_order_release);
            });
      }
      while (batch_done.load(std::memory_order_acquire) < kBatch) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      completed += kBatch;
    }
    double elapsed_s = static_cast<double>(NowUs() - started) / 1e6;
    best = std::max(best, static_cast<double>(completed) / elapsed_s);
  }
  return best;
}

struct ArmResult {
  uint64_t victim_completed = 0;
  uint64_t aggressor_shed = 0;
  int64_t victim_tail_p99_us = 0;  // over the fully-ramped tail + drain
};

// One tenant's open-loop dispatcher: submits on schedule, never waits
// for completions. `accept_after_us` marks the fully-ramped tail whose
// latencies feed the acceptance recorder.
struct TenantStream {
  tenant::TenantId id = 0;
  double rate = 0;         // arrivals/sec (aggressor: at ramp 1x)
  bool ramped = false;     // scale rate by the ramp schedule
  bench::OpenLoopRecorder window_rec;
  bench::OpenLoopRecorder accept_rec;
  std::atomic<int64_t> outstanding{0};
};

void Dispatch(TenantStream* stream, Node* node, tenant::TenantRegistry* tenants,
              int64_t run_us, int64_t accept_after_us, int64_t ramp_span_us) {
  bench::PoissonSchedule schedule(stream->rate, /*seed=*/42 + stream->id);
  const int64_t epoch = NowUs();
  size_t next_obj = 0;
  for (;;) {
    int64_t scheduled = schedule.NextArrivalUs();
    if (scheduled >= run_us) break;
    if (stream->ramped) {
      double ramp =
          1.0 + (kRampMax - 1.0) *
                    std::min<double>(1.0, static_cast<double>(scheduled) /
                                              static_cast<double>(ramp_span_us));
      schedule.SetRate(stream->rate * ramp);
    }
    int64_t now = NowUs();
    if (epoch + scheduled > now) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(epoch + scheduled - now));
    }
    if (tenants != nullptr) {
      Status admitted = tenants->Admit(stream->id);
      if (!admitted.ok()) {
        stream->window_rec.RecordShed();
        if (scheduled >= accept_after_us) stream->accept_rec.RecordShed();
        continue;
      }
    }
    bool accept = scheduled >= accept_after_us;
    int64_t scheduled_abs = epoch + scheduled;
    stream->outstanding.fetch_add(1, std::memory_order_relaxed);
    node->node->InvokeAsync(
        Oid(stream->id, next_obj++ % kObjectsPerTenant), "spin", "", "",
        [stream, tenants, accept, scheduled_abs](Result<std::string> result) {
          int64_t done = NowUs();
          if (tenants != nullptr) tenants->Release(stream->id);
          if (result.ok()) {
            stream->window_rec.RecordOk(scheduled_abs, done);
            if (accept) stream->accept_rec.RecordOk(scheduled_abs, done);
          } else {
            stream->window_rec.RecordError();
            if (accept) stream->accept_rec.RecordError();
          }
          stream->outstanding.fetch_sub(1, std::memory_order_relaxed);
        },
        stream->id);
  }
}

void PrintWindow(const char* arm, int window, double ramp,
                 const bench::OpenLoopRecorder::Summary& victim,
                 const bench::OpenLoopRecorder::Summary& aggressor) {
  std::printf(
      "{\"experiment\":\"A12\",\"arm\":\"%s\",\"window\":%d,\"ramp\":%.1f,"
      "\"victim\":{\"completed\":%llu,\"shed\":%llu,\"p50_us\":%lld,"
      "\"p99_us\":%lld},"
      "\"aggressor\":{\"completed\":%llu,\"shed\":%llu,\"p50_us\":%lld,"
      "\"p99_us\":%lld}}\n",
      arm, window, ramp, static_cast<unsigned long long>(victim.completed),
      static_cast<unsigned long long>(victim.shed),
      static_cast<long long>(victim.p50_us),
      static_cast<long long>(victim.p99_us),
      static_cast<unsigned long long>(aggressor.completed),
      static_cast<unsigned long long>(aggressor.shed),
      static_cast<long long>(aggressor.p50_us),
      static_cast<long long>(aggressor.p99_us));
  std::fflush(stdout);
}

ArmResult RunArm(bool tenancy_on, const BenchConfig& config, double capacity) {
  const double victim_rate = 0.15 * capacity;
  const double aggressor_budget = 0.15 * capacity;  // 10x = 1.5x capacity

  tenant::TenantRegistry registry;
  tenant::TenantRegistry* tenants = nullptr;
  if (tenancy_on) {
    registry.Configure(kVictim, tenant::TenantConfig{.weight = 4});
    registry.Configure(kAggressor,
                       tenant::TenantConfig{.weight = 1,
                                            .rate_per_sec = aggressor_budget,
                                            .burst = 16});
    tenants = &registry;
  }
  Node node(tenants);

  bench::ObsHooks obs;
  if (tenancy_on && obs.enabled()) registry.RegisterMetrics(obs.registry());

  const int64_t window_us = config.window_ms * 1000;
  const int64_t run_us = window_us * config.windows;
  // The aggressor reaches full ramp at 60% of the run; the acceptance
  // tail starts at 70%, so it only sees the node fully overloaded.
  const int64_t ramp_span_us = (run_us * 6) / 10;
  const int64_t accept_after_us = (run_us * 7) / 10;

  TenantStream victim;
  victim.id = kVictim;
  victim.rate = victim_rate;
  TenantStream aggressor;
  aggressor.id = kAggressor;
  aggressor.rate = aggressor_budget;
  aggressor.ramped = true;

  std::thread victim_thread(Dispatch, &victim, &node, tenants, run_us,
                            accept_after_us, ramp_span_us);
  std::thread aggressor_thread(Dispatch, &aggressor, &node, tenants, run_us,
                               accept_after_us, ramp_span_us);

  ArmResult result;
  const char* arm = tenancy_on ? "on" : "off";
  for (int w = 0; w < config.windows; w++) {
    std::this_thread::sleep_for(std::chrono::microseconds(window_us));
    double ramp = 1.0 + (kRampMax - 1.0) *
                            std::min<double>(1.0, static_cast<double>(
                                                      (w + 1) * window_us) /
                                                      static_cast<double>(
                                                          ramp_span_us));
    auto vs = victim.window_rec.Drain();
    auto as = aggressor.window_rec.Drain();
    result.victim_completed += vs.completed;
    result.aggressor_shed += as.shed;
    PrintWindow(arm, w, ramp, vs, as);
  }
  victim_thread.join();
  aggressor_thread.join();
  // Drain the backlog so every accepted arrival's completion is charged
  // its full queueing delay (this is where the off arm's tail shows up).
  node.node->Drain();
  while (victim.outstanding.load(std::memory_order_relaxed) != 0 ||
         aggressor.outstanding.load(std::memory_order_relaxed) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto vs = victim.window_rec.Drain();
  auto as = aggressor.window_rec.Drain();
  if (vs.completed + as.completed + vs.shed + as.shed > 0) {
    PrintWindow(arm, config.windows, kRampMax, vs, as);
    result.victim_completed += vs.completed;
    result.aggressor_shed += as.shed;
  }
  auto accept = victim.accept_rec.Snapshot();
  result.victim_tail_p99_us = accept.p99_us;
  if (tenancy_on && obs.enabled()) obs.Dump("tenancy");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  const char* quick = std::getenv("LO_BENCH_QUICK");
  if (config.smoke || (quick != nullptr && quick[0] == '1')) {
    config.windows = 8;
    config.window_ms = 250;
  }

  double capacity = MeasureCapacity();
  std::printf("{\"experiment\":\"A12\",\"capacity_ops_per_sec\":%.0f}\n",
              capacity);

  ArmResult off = RunArm(/*tenancy_on=*/false, config, capacity);
  ArmResult on = RunArm(/*tenancy_on=*/true, config, capacity);

  bool bounded = on.victim_tail_p99_us * 2 < off.victim_tail_p99_us;
  bool sheds = on.aggressor_shed > 0;
  bool served = on.victim_completed > 0 && off.victim_completed > 0;
  bool ok = bounded && sheds && served;
  std::printf(
      "{\"experiment\":\"A12\",\"summary\":1,\"victim_tail_p99_on_us\":%lld,"
      "\"victim_tail_p99_off_us\":%lld,\"aggressor_shed_on\":%llu,"
      "\"acceptance\":%s}\n",
      static_cast<long long>(on.victim_tail_p99_us),
      static_cast<long long>(off.victim_tail_p99_us),
      static_cast<unsigned long long>(on.aggressor_shed), ok ? "true" : "false");
  if (config.smoke && !ok) {
    std::fprintf(stderr,
                 "tenancy smoke FAILED: bounded=%d sheds=%d served=%d\n",
                 bounded, sheds, served);
    return 1;
  }
  return 0;
}
