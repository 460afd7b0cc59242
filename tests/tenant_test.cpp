// Tests for the multi-tenant QoS subsystem (src/tenant):
//
//   * spec parsing (LO_TENANTS / --tenants grammar),
//   * token-bucket + in-flight + fuel-window admission with an injected
//     clock,
//   * FairQueue deficit-round-robin pop order (and its exact-FIFO
//     degenerate case with a single tenant),
//   * AsyncMutex DRR grant order across tenant groups,
//   * the end-to-end fairness property on a real-threaded ParallelNode:
//     with weights 3:1 the observed execution shares stay within 10%,
//   * VM fuel budgets: an invocation is trapped mid-flight with
//     kTenantThrottled once its tenant's fuel window runs dry,
//   * a concurrent Admit/Release/ChargeFuel hammer (for TSan).
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/async_mutex.h"
#include "runtime/executor.h"
#include "storage/env.h"
#include "tenant/tenant.h"
#include "vm/assembler.h"

namespace lo::tenant {
namespace {

// --- spec parsing ------------------------------------------------------

TEST(TenantSpec, ParsesFullSpec) {
  auto parsed = ParseTenantSpec(
      "1:weight=4,rate=2000,burst=200,fuel=5000000,inflight=64;2:weight=1");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  const TenantConfig& a = parsed->at(1);
  EXPECT_EQ(a.weight, 4u);
  EXPECT_DOUBLE_EQ(a.rate_per_sec, 2000);
  EXPECT_DOUBLE_EQ(a.burst, 200);
  EXPECT_EQ(a.fuel_per_window, 5000000u);
  EXPECT_EQ(a.max_inflight, 64u);
  const TenantConfig& b = parsed->at(2);
  EXPECT_EQ(b.weight, 1u);
  EXPECT_DOUBLE_EQ(b.rate_per_sec, 0);  // unset limits stay unlimited
}

TEST(TenantSpec, TrailingSeparatorIsFine) {
  auto parsed = ParseTenantSpec("3:weight=2;");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at(3).weight, 2u);
}

TEST(TenantSpec, RejectsMalformedEntries) {
  EXPECT_FALSE(ParseTenantSpec("weight=4").ok());          // missing "<id>:"
  EXPECT_FALSE(ParseTenantSpec("0:weight=4").ok());        // id 0 reserved
  EXPECT_FALSE(ParseTenantSpec("1:color=red").ok());       // unknown key
  EXPECT_FALSE(ParseTenantSpec("1:weight").ok());          // missing '='
  EXPECT_FALSE(ParseTenantSpec("1:rate=abc").ok());        // bad number
  EXPECT_FALSE(ParseTenantSpec("1:rate=-5").ok());         // negative
}

// --- admission control (injected clock) --------------------------------

TEST(TenantRegistry, TokenBucketShedsOverRate) {
  int64_t now_us = 0;
  TenantRegistry::Options options;
  options.clock = [&now_us] { return now_us; };
  TenantRegistry registry(options);
  registry.Configure(1, TenantConfig{.rate_per_sec = 10, .burst = 2});

  // A fresh config starts with a full bucket (= burst).
  EXPECT_TRUE(registry.Admit(1).ok());
  EXPECT_TRUE(registry.Admit(1).ok());
  Status third = registry.Admit(1);
  EXPECT_TRUE(third.IsTenantThrottled()) << third.ToString();
  EXPECT_EQ(registry.admitted(1), 2u);
  EXPECT_EQ(registry.shed(1), 1u);
  registry.Release(1);
  registry.Release(1);

  // 100ms at 10/s refills exactly one token.
  now_us += 100'000;
  EXPECT_TRUE(registry.Admit(1).ok());
  EXPECT_TRUE(registry.Admit(1).IsTenantThrottled());
  registry.Release(1);
}

TEST(TenantRegistry, UnconfiguredTenantsAlwaysAdmit) {
  TenantRegistry registry;
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(registry.Admit(0).ok());
    EXPECT_TRUE(registry.Admit(99).ok());
  }
  EXPECT_EQ(registry.admitted(0), 100u);
  EXPECT_EQ(registry.admitted(99), 100u);
  EXPECT_EQ(registry.shed(99), 0u);
}

TEST(TenantRegistry, InflightCap) {
  TenantRegistry registry;
  registry.Configure(2, TenantConfig{.max_inflight = 2});
  EXPECT_TRUE(registry.Admit(2).ok());
  EXPECT_TRUE(registry.Admit(2).ok());
  EXPECT_EQ(registry.inflight(2), 2u);
  EXPECT_TRUE(registry.Admit(2).IsTenantThrottled());
  registry.Release(2);
  EXPECT_TRUE(registry.Admit(2).ok());
  registry.Release(2);
  registry.Release(2);
  EXPECT_EQ(registry.inflight(2), 0u);
}

TEST(TenantRegistry, FuelWindowExhaustsAndRolls) {
  int64_t now_us = 0;
  TenantRegistry::Options options;
  options.window_ms = 1000;
  options.clock = [&now_us] { return now_us; };
  TenantRegistry registry(options);
  registry.Configure(3, TenantConfig{.fuel_per_window = 1000});

  EXPECT_TRUE(registry.ChargeFuel(3, 600).ok());
  Status over = registry.ChargeFuel(3, 600);  // 1200 > 1000: dry
  EXPECT_TRUE(over.IsTenantThrottled()) << over.ToString();
  // The spend is still recorded — metering is truthful even when over.
  EXPECT_EQ(registry.fuel_used(3), 1200u);
  // Admission now sheds too: the window has no fuel left.
  EXPECT_TRUE(registry.Admit(3).IsTenantThrottled());
  EXPECT_GE(registry.shed(3), 1u);

  // The next window grants a fresh budget.
  now_us += 1'000'000;
  EXPECT_TRUE(registry.Admit(3).ok());
  registry.Release(3);
  EXPECT_TRUE(registry.ChargeFuel(3, 600).ok());
}

// Unattributed fuel (tenant 0) is counted but never limited.
TEST(TenantRegistry, Tenant0FuelIsUnlimited) {
  TenantRegistry registry;
  EXPECT_TRUE(registry.ChargeFuel(0, 1'000'000'000).ok());
  EXPECT_EQ(registry.fuel_used(0), 1'000'000'000u);
}

TEST(TenantRegistry, ConcurrentAdmitReleaseChargeFuel) {
  TenantRegistry registry;
  registry.Configure(1, TenantConfig{.rate_per_sec = 1e9});  // never sheds
  registry.Configure(2, TenantConfig{.rate_per_sec = 1e-9, .burst = 1});
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIters; i++) {
        TenantId id = (i % 2 == 0) ? 1 : 2;
        if (registry.Admit(id).ok()) {
          (void)registry.ChargeFuel(id, 10);
          registry.Release(id);
        }
        (void)registry.WeightFor(id);
        registry.RecordQueueWait(id, i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.inflight(1), 0u);
  EXPECT_EQ(registry.inflight(2), 0u);
  // Every attempt either admitted or shed — none lost.
  EXPECT_EQ(registry.admitted(1) + registry.shed(1), kThreads * kIters / 2);
  EXPECT_EQ(registry.admitted(2) + registry.shed(2), kThreads * kIters / 2);
  // Tenant 2's bucket held a single token; nearly everything sheds.
  EXPECT_GT(registry.shed(2), 0u);
}

// --- FairQueue DRR -----------------------------------------------------

TEST(FairQueue, DeficitRoundRobinHonorsWeights) {
  FairQueue<std::function<void()>> queue;
  std::vector<std::string> ran;
  auto push = [&](const std::string& label, TenantId tenant, uint32_t weight) {
    queue.Push([&ran, label] { ran.push_back(label); }, tenant, weight);
  };
  // Interleaved arrival, weights 2:1.
  for (int i = 0; i < 4; i++) {
    push("a" + std::to_string(i), 1, 2);
    push("b" + std::to_string(i), 2, 1);
  }
  EXPECT_EQ(queue.size(), 8u);
  std::function<void()> job;
  while (queue.Pop(&job)) job();
  // Tenant 1 runs 2 jobs per turn, tenant 2 one; once tenant 1 drains,
  // tenant 2 gets every turn.
  EXPECT_EQ(ran, (std::vector<std::string>{"a0", "a1", "b0", "a2", "a3", "b1",
                                           "b2", "b3"}));
  EXPECT_TRUE(queue.empty());
}

TEST(FairQueue, SingleTenantIsExactFifo) {
  FairQueue<std::function<void()>> queue;
  std::vector<int> ran;
  for (int i = 0; i < 5; i++) {
    queue.Push([&ran, i] { ran.push_back(i); }, 0, 1);
  }
  std::function<void()> job;
  while (queue.Pop(&job)) job();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- AsyncMutex DRR ----------------------------------------------------

// Parks interleaved waiters from two tenant groups behind a held lock,
// then releases it: every waiter unlocks into the next, so the single
// Unlock below cascades through the whole queue in DRR grant order.
TEST(AsyncMutexDrr, GrantOrderFollowsWeights) {
  runtime::AsyncMutex mu;
  sim::Detach(
      [](runtime::AsyncMutex* mu) -> sim::Task<void> { co_await mu->Lock(); }(
          &mu));
  ASSERT_TRUE(mu.locked());

  std::vector<uint32_t> order;
  auto wait = [&mu, &order](uint32_t tenant, uint32_t weight) {
    sim::Detach([](runtime::AsyncMutex* mu, std::vector<uint32_t>* order,
                   uint32_t tenant, uint32_t weight) -> sim::Task<void> {
      co_await mu->Lock(tenant, weight);
      order->push_back(tenant);
      mu->Unlock();
    }(&mu, &order, tenant, weight));
  };
  for (int i = 0; i < 6; i++) {
    wait(1, 3);
    wait(2, 1);
  }
  EXPECT_EQ(mu.queue_length(), 12u);
  mu.Unlock();
  EXPECT_FALSE(mu.locked());
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 1, 1, 2, 1, 1, 1, 2, 2, 2, 2, 2}));
}

TEST(AsyncMutexDrr, SingleTenantIsExactFifo) {
  runtime::AsyncMutex mu;
  sim::Detach(
      [](runtime::AsyncMutex* mu) -> sim::Task<void> { co_await mu->Lock(); }(
          &mu));
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    sim::Detach([](runtime::AsyncMutex* mu, std::vector<int>* order,
                   int id) -> sim::Task<void> {
      co_await mu->Lock();
      order->push_back(id);
      mu->Unlock();
    }(&mu, &order, i));
  }
  mu.Unlock();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- end-to-end: ParallelNode fairness + VM fuel budgets ---------------

// Pure-CPU λasm spin: counts `iters` down to zero, returns empty. Burns
// ~5 fuel per iteration, no storage traffic.
std::shared_ptr<vm::Module> SpinModule(int iters) {
  char text[512];
  std::snprintf(text, sizeof(text), R"(
func spin export locals n
  push %d
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
                iters);
  auto module = vm::Assemble(text);
  LO_CHECK_MSG(module.ok(), "λasm spin failed to assemble");
  return std::make_shared<vm::Module>(std::move(*module));
}

void RegisterSpinType(runtime::TypeRegistry* types, int iters) {
  runtime::ObjectType type;
  type.name = "spin_t";
  type.methods["spin"] = runtime::MethodImpl{
      .kind = runtime::MethodKind::kReadWrite, .module = SpinModule(iters)};
  LO_CHECK(types->Register(std::move(type)).ok());
}

struct NodeFixture {
  explicit NodeFixture(TenantRegistry* tenants, size_t lanes, int spin_iters) {
    db_options.env = &env;
    db_options.serialize_access = true;
    db = std::move(*storage::DB::Open(db_options, "/db"));
    RegisterSpinType(&types, spin_iters);
    runtime::ParallelNodeOptions node_options;
    node_options.lanes = lanes;
    node_options.tenants = tenants;
    node = std::make_unique<runtime::ParallelNode>(db.get(), &types,
                                                   node_options);
  }

  storage::MemEnv env;
  storage::Options db_options;
  std::unique_ptr<storage::DB> db;
  runtime::TypeRegistry types;
  std::unique_ptr<runtime::ParallelNode> node;
};

// The fairness property the DRR lanes exist for: two tenants with
// weights 3:1 flood one lane from 8 threads; while both have backlog the
// executed shares must match the weights within 10%.
TEST(ParallelNodeFairness, WeightedSharesWithinTenPercent) {
  TenantRegistry registry;
  registry.Configure(1, TenantConfig{.weight = 3});
  registry.Configure(2, TenantConfig{.weight = 1});
  NodeFixture fix(&registry, /*lanes=*/1, /*spin_iters=*/1);

  constexpr size_t kJobsPerTenant = 1200;
  constexpr size_t kThreadsPerTenant = 4;
  static_assert(kJobsPerTenant % kThreadsPerTenant == 0);

  // Hold the single lane behind a gate while the submitters race, so the
  // DRR queue sees the full backlog before anything executes.
  std::promise<void> gate_entered;
  std::promise<void> gate_release;
  std::future<void> release = gate_release.get_future();
  fix.node->RunOnLane("gate", [&](runtime::Runtime&) {
    gate_entered.set_value();
    release.wait();
  });
  gate_entered.get_future().wait();

  std::mutex order_mu;
  std::vector<TenantId> order;
  std::vector<std::thread> threads;
  for (TenantId tenant : {TenantId{1}, TenantId{2}}) {
    for (size_t t = 0; t < kThreadsPerTenant; t++) {
      threads.emplace_back([&, tenant] {
        for (size_t i = 0; i < kJobsPerTenant / kThreadsPerTenant; i++) {
          fix.node->RunOnLane(
              "gate",
              [&order_mu, &order, tenant](runtime::Runtime&) {
                std::lock_guard<std::mutex> lock(order_mu);
                order.push_back(tenant);
              },
              tenant);
        }
      });
    }
  }
  for (auto& thread : threads) thread.join();
  gate_release.set_value();
  fix.node->Drain();

  ASSERT_EQ(order.size(), 2 * kJobsPerTenant);
  // Walk the execution order until one tenant drains; inside that prefix
  // both tenants always had backlog, so DRR should give 3:1.
  size_t a = 0, b = 0;
  for (TenantId tenant : order) {
    (tenant == 1 ? a : b)++;
    if (a == kJobsPerTenant || b == kJobsPerTenant) break;
  }
  ASSERT_GT(b, 0u);
  double ratio = static_cast<double>(a) / static_cast<double>(b);
  EXPECT_NEAR(ratio, 3.0, 0.3) << "a=" << a << " b=" << b;
  // Queue waits were recorded against both tenants.
  EXPECT_GT(registry.QueuePercentile(1, 0.5), 0);
  EXPECT_GT(registry.QueuePercentile(2, 0.5), 0);
}

// Without a registry the lanes are the plain FIFO the off arm of the
// noisy-neighbor bench relies on: a tenant-1 job queued behind three
// tenant-2 jobs runs last, not second as DRR would order it.
TEST(ParallelNodeFairness, NoRegistryLanesAreFifoAcrossTenants) {
  NodeFixture fix(/*tenants=*/nullptr, /*lanes=*/1, /*spin_iters=*/1);

  std::promise<void> gate_entered;
  std::promise<void> gate_release;
  std::future<void> release = gate_release.get_future();
  fix.node->RunOnLane("gate", [&](runtime::Runtime&) {
    gate_entered.set_value();
    release.wait();
  });
  gate_entered.get_future().wait();

  std::vector<int> order;  // only the lane thread appends
  const std::vector<std::pair<int, TenantId>> jobs = {
      {0, 2}, {1, 2}, {2, 2}, {3, 1}};
  for (auto [job, tenant] : jobs) {
    fix.node->RunOnLane(
        "gate", [&order, job](runtime::Runtime&) { order.push_back(job); },
        tenant);
  }
  gate_release.set_value();
  fix.node->Drain();

  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// A long-running invocation is trapped mid-flight once its tenant's fuel
// window is dry — the VM's fuel tap surfaces kTenantThrottled as the
// invocation's status.
TEST(ParallelNodeFuel, VmInvocationTrappedWhenWindowDry) {
  TenantRegistry registry;
  // ~500k fuel per spin; the budget covers ~4% of one invocation.
  registry.Configure(7, TenantConfig{.fuel_per_window = 20'000});
  registry.Configure(8, TenantConfig{.fuel_per_window = 50'000'000});
  NodeFixture fix(&registry, /*lanes=*/2, /*spin_iters=*/100'000);
  ASSERT_TRUE(fix.node->CreateObject("o/1", "spin_t").get().ok());

  // The rich tenant completes and its fuel is metered.
  auto rich = fix.node->Invoke("o/1", "spin", "", {}, 8).get();
  EXPECT_TRUE(rich.ok()) << rich.status().ToString();
  EXPECT_GT(registry.fuel_used(8), 100'000u);

  // The capped tenant is cut off mid-invocation.
  auto poor = fix.node->Invoke("o/1", "spin", "", {}, 7).get();
  ASSERT_FALSE(poor.ok());
  EXPECT_TRUE(poor.status().IsTenantThrottled()) << poor.status().ToString();
  // It burned (at least) its window before the tap fired — and far less
  // than a full run: the trap really was mid-flight.
  EXPECT_GE(registry.fuel_used(7), 20'000u);
  EXPECT_LT(registry.fuel_used(7), 400'000u);

  // Unattributed traffic on the same node is never fuel-limited.
  auto legacy = fix.node->Invoke("o/1", "spin", "").get();
  EXPECT_TRUE(legacy.ok()) << legacy.status().ToString();
}

}  // namespace
}  // namespace lo::tenant
