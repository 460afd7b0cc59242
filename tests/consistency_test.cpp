// Cross-architecture consistency tests:
//  - the aggregated system upholds invocation linearizability end-to-end
//    (no lost updates through the full cluster stack);
//  - the disaggregated baseline, by design, does NOT (paper §5: "the
//    disaggregated variant provides no consistency guarantees") — we
//    demonstrate the anomaly it permits;
//  - whole-cluster determinism: identical seeds replay identical runs.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/deployment.h"
#include "cluster/deployment.h"
#include "common/coding.h"
#include "retwis/retwis.h"
#include "runtime/executor.h"
#include "storage/env.h"

namespace lo {
namespace {

using sim::Detach;
using sim::Task;

// Runs `concurrent` follow("user/x") invocations against one account and
// returns the final follower count the storage layer holds.
uint64_t AggregatedFollowCount(int concurrent) {
  sim::Simulator sim(5);
  runtime::TypeRegistry types;
  EXPECT_TRUE(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
  cluster::AggregatedDeployment deployment(sim, &types);
  deployment.WaitUntilReady();

  cluster::Client& setup = deployment.NewClient();
  bool ready = false;
  Detach([](cluster::Client* client, bool* ready) -> Task<void> {
    (void)co_await client->Create("user/target", "user");
    *ready = true;
  }(&setup, &ready));
  while (!ready) EXPECT_TRUE(sim.Step());

  int done = 0;
  for (int i = 0; i < concurrent; i++) {
    cluster::Client& client = deployment.NewClient();
    Detach([](cluster::Client* client, int i, int* done) -> Task<void> {
      auto r = co_await client->Invoke("user/target", "follow",
                                       "user/f" + std::to_string(i));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      (*done)++;
    }(&client, i, &done));
  }
  while (done < concurrent) EXPECT_TRUE(sim.Step());

  auto raw = deployment.node(0).db().Get(
      {}, runtime::FieldKey("user/target", retwis::kFollowerCountKey));
  EXPECT_TRUE(raw.ok());
  return DecodeFixed64(raw->data());
}

uint64_t BaselineFollowCount(int concurrent, uint64_t seed) {
  sim::Simulator sim(seed);
  runtime::TypeRegistry types;
  EXPECT_TRUE(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
  baseline::DisaggregatedDeployment deployment(sim, &types);

  auto& setup = deployment.NewClientEndpoint();
  {
    std::string payload;
    PutLengthPrefixed(&payload, "user/target");
    PutLengthPrefixed(&payload, "user");
    bool ready = false;
    Detach([](sim::RpcEndpoint* rpc, sim::NodeId compute, std::string payload,
              bool* ready) -> Task<void> {
      auto r = co_await rpc->Call(compute, "fn.create", std::move(payload),
                                  sim::Seconds(1));
      EXPECT_TRUE(r.ok());
      *ready = true;
    }(&setup, deployment.compute(0).id(), std::move(payload), &ready));
    while (!ready) EXPECT_TRUE(sim.Step());
  }

  int done = 0;
  for (int i = 0; i < concurrent; i++) {
    auto& client = deployment.NewClientEndpoint();
    std::string payload;
    PutLengthPrefixed(&payload, "user/target");
    PutLengthPrefixed(&payload, "follow");
    PutLengthPrefixed(&payload, "user/f" + std::to_string(i));
    Detach([](sim::RpcEndpoint* rpc, sim::NodeId compute, std::string payload,
              int* done) -> Task<void> {
      auto r = co_await rpc->Call(compute, "fn.invoke", std::move(payload),
                                  sim::Seconds(2));
      EXPECT_TRUE(r.ok());
      (*done)++;
    }(&client, deployment.compute(0).id(), std::move(payload), &done));
  }
  while (done < concurrent) EXPECT_TRUE(sim.Step());

  auto raw = deployment.storage(0).db().Get(
      {}, runtime::FieldKey("user/target", retwis::kFollowerCountKey));
  EXPECT_TRUE(raw.ok());
  return DecodeFixed64(raw->data());
}

TEST(ConsistencyComparison, AggregatedNeverLosesUpdates) {
  // Invocation linearizability: every one of 40 concurrent follows lands.
  EXPECT_EQ(AggregatedFollowCount(40), 40u);
}

TEST(ConsistencyComparison, BaselinePermitsLostUpdates) {
  // The baseline's follow() is read-modify-write over the network with
  // no isolation: concurrent invocations read the same counter and
  // overwrite each other. With 40 racing follows, some seeds lose
  // updates — which is exactly the anomaly class the paper motivates
  // LambdaObjects with. (Deterministic per seed; we scan a few.)
  bool lost_somewhere = false;
  for (uint64_t seed : {5ull, 6ull, 7ull}) {
    uint64_t count = BaselineFollowCount(40, seed);
    EXPECT_LE(count, 40u);
    if (count < 40) lost_somewhere = true;
  }
  EXPECT_TRUE(lost_somewhere)
      << "expected at least one seed to exhibit the lost-update anomaly";
}

TEST(Determinism, IdenticalSeedsReplayIdenticalClusterRuns) {
  auto run = [](uint64_t seed) {
    sim::Simulator sim(seed);
    runtime::TypeRegistry types;
    EXPECT_TRUE(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
    cluster::AggregatedDeployment deployment(sim, &types);
    deployment.WaitUntilReady();
    cluster::Client& client = deployment.NewClient();
    int done = 0;
    for (int i = 0; i < 10; i++) {
      Detach([](cluster::Client* client, int i, int* done) -> Task<void> {
        std::string oid = "user/u" + std::to_string(i % 3);
        if (i < 3) (void)co_await client->Create(oid, "user");
        (void)co_await client->Invoke(oid, "create_post", "p" + std::to_string(i));
        (*done)++;
      }(&client, i, &done));
    }
    while (done < 10) EXPECT_TRUE(sim.Step());
    // Fingerprint: final virtual time + executed events + node metrics.
    auto metrics = deployment.node(0).runtime().metrics();
    return std::tuple(sim.Now(), sim.executed_events(), metrics.invocations,
                      metrics.commits);
  };
  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(std::get<0>(run(1234)), std::get<0>(run(999)));
}

// Registers a "counter" type whose add() is a read-modify-write over the
// "value" field — the returned post-state doubles as a read-your-writes
// probe (a stale read would repeat or skip a count).
void RegisterCounterType(runtime::TypeRegistry* types) {
  runtime::ObjectType type;
  type.name = "counter";
  type.methods["add"] = runtime::MethodImpl{
      .kind = runtime::MethodKind::kReadWrite,
      .native = [](runtime::InvocationContext& ctx,
                   std::string) -> Task<Result<std::string>> {
        auto current = co_await ctx.Get("value");
        uint64_t value = current.ok() ? std::stoull(*current) : 0;
        value += 1;
        LO_CO_RETURN_IF_ERROR(co_await ctx.Set("value", std::to_string(value)));
        co_return std::to_string(value);
      }};
  ASSERT_TRUE(types->Register(std::move(type)).ok());
}

// Lane-affinity invariant of the real-threaded sharded executor: two
// invocations on the SAME object submitted from DIFFERENT client threads
// are never reordered — both hash to one lane, whose queue is FIFO in
// submission order. The two threads hand the submission baton back and
// forth, so thread B's op is always enqueued strictly after thread A's;
// the counter's returned post-states must reflect that order, no matter
// how much unrelated traffic churns the other lanes.
TEST(LaneAffinity, SameObjectCrossThreadSubmissionsExecuteInOrder) {
  storage::MemEnv env;
  storage::Options db_options;
  db_options.env = &env;
  db_options.serialize_access = true;
  auto db = std::move(*storage::DB::Open(db_options, "/db"));
  runtime::TypeRegistry types;
  RegisterCounterType(&types);

  runtime::ParallelNodeOptions node_options;
  node_options.lanes = 8;
  runtime::ParallelNode node(db.get(), &types, node_options);
  ASSERT_TRUE(node.CreateObject("shared", "counter").get().ok());
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(
        node.CreateObject("noise/" + std::to_string(i), "counter").get().ok());
  }

  constexpr int kRounds = 300;
  // Baton protocol: A submits (baton -> 1), B submits (baton -> 2), A
  // collects both results and starts the next round (baton -> 0).
  std::atomic<int> baton{0};
  std::atomic<bool> stop_noise{false};
  std::vector<std::pair<uint64_t, uint64_t>> observed(kRounds);

  std::thread noise([&node, &stop_noise] {
    int i = 0;
    while (!stop_noise.load(std::memory_order_relaxed)) {
      (void)node.Invoke("noise/" + std::to_string(i % 4), "add", "").get();
      i++;
    }
  });
  std::thread b([&node, &baton, &observed] {
    for (int round = 0; round < kRounds; round++) {
      while (baton.load(std::memory_order_acquire) != 1) std::this_thread::yield();
      auto future = node.Invoke("shared", "add", "");
      baton.store(2, std::memory_order_release);
      uint64_t result = std::stoull(*future.get());
      // Only B's own result is written here; A pairs them up per round.
      observed[round].second = result;
    }
  });
  std::thread a([&node, &baton, &observed] {
    for (int round = 0; round < kRounds; round++) {
      auto future = node.Invoke("shared", "add", "");
      baton.store(1, std::memory_order_release);
      uint64_t result = std::stoull(*future.get());
      observed[round].first = result;
      while (baton.load(std::memory_order_acquire) != 2) std::this_thread::yield();
      baton.store(0, std::memory_order_release);
    }
  });
  a.join();
  b.join();
  stop_noise.store(true, std::memory_order_relaxed);
  noise.join();
  node.Drain();

  for (int round = 0; round < kRounds; round++) {
    EXPECT_LT(observed[round].first, observed[round].second)
        << "round " << round
        << ": thread B's later submission executed before thread A's";
  }
  // Nothing lost either: 2 ops per round on a fresh counter.
  auto final_value = db->Get({}, runtime::FieldKey("shared", "value"));
  ASSERT_TRUE(final_value.ok());
  EXPECT_EQ(std::stoull(*final_value), static_cast<uint64_t>(2 * kRounds));
}

// Read-your-writes through the full runtime stack: on an 8-lane
// ParallelNode, every counter add() must observe the previous add()'s
// Set. Each returned post-state equals the op's ordinal, so a single
// stale read would skip or repeat a count. Four client threads drive
// disjoint objects (spread over the lanes), then a flush + compaction
// moves everything to SSTables and one more add() per object proves the
// post-flush read path agrees.
TEST(ShardedStorage, ReadYourWritesAcrossShardsUnderParallelNode) {
  storage::MemEnv env;
  storage::Options db_options;
  db_options.env = &env;
  db_options.serialize_access = true;
  auto db = std::move(*storage::DB::Open(db_options, "/db"));
  runtime::TypeRegistry types;
  RegisterCounterType(&types);

  runtime::ParallelNodeOptions node_options;
  node_options.lanes = 8;
  runtime::ParallelNode node(db.get(), &types, node_options);

  constexpr int kThreads = 4;
  constexpr int kObjectsPerThread = 4;
  constexpr int kAddsPerObject = 50;
  for (int t = 0; t < kThreads; t++) {
    for (int o = 0; o < kObjectsPerThread; o++) {
      std::string oid = "obj/" + std::to_string(t) + "/" + std::to_string(o);
      ASSERT_TRUE(node.CreateObject(oid, "counter").get().ok());
    }
  }

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; t++) {
    clients.emplace_back([&node, t] {
      for (int o = 0; o < kObjectsPerThread; o++) {
        std::string oid = "obj/" + std::to_string(t) + "/" + std::to_string(o);
        for (int i = 1; i <= kAddsPerObject; i++) {
          auto result = node.Invoke(oid, "add", "").get();
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (result.ok()) {
            // The post-state IS the read-your-writes check.
            EXPECT_EQ(std::stoull(*result), static_cast<uint64_t>(i)) << oid;
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  node.Drain();

  // Push everything through flush + compaction, then make sure the
  // SSTable read path tells the same story.
  ASSERT_TRUE(db->CompactAll().ok());
  for (int t = 0; t < kThreads; t++) {
    for (int o = 0; o < kObjectsPerThread; o++) {
      std::string oid = "obj/" + std::to_string(t) + "/" + std::to_string(o);
      auto value = db->Get({}, runtime::FieldKey(oid, "value"));
      ASSERT_TRUE(value.ok()) << oid;
      EXPECT_EQ(std::stoull(*value), static_cast<uint64_t>(kAddsPerObject));
      auto bumped = node.Invoke(oid, "add", "").get();
      ASSERT_TRUE(bumped.ok());
      EXPECT_EQ(std::stoull(*bumped),
                static_cast<uint64_t>(kAddsPerObject) + 1);
    }
  }
  node.Drain();
}

}  // namespace
}  // namespace lo
