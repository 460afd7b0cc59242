// Integration tests: the full aggregated LambdaStore deployment and the
// disaggregated baseline running the ReTwis application end-to-end,
// including primary failover under load and microshard migration.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "baseline/deployment.h"
#include "cluster/deployment.h"
#include "cluster/retry.h"
#include "cluster/wal_group_commit.h"
#include "common/coding.h"
#include "common/rng.h"
#include "retwis/driver.h"
#include "retwis/retwis.h"
#include "retwis/workload.h"

namespace lo::cluster {
namespace {

using sim::Detach;
using sim::Task;

class AggregatedRetwisTest : public ::testing::Test {
 public:
  AggregatedRetwisTest() {
    EXPECT_TRUE(retwis::RegisterUserType(&types_, /*use_vm=*/true).ok());
    DeploymentOptions options;
    deployment_ = std::make_unique<AggregatedDeployment>(sim_, &types_, options);
    deployment_->WaitUntilReady();
    client_ = &deployment_->NewClient();
  }

  Result<std::string> Invoke(const std::string& oid, const std::string& method,
                             const std::string& arg = "") {
    Result<std::string> out = Status::Unavailable("not run");
    bool done = false;
    Detach([](Client* client, std::string oid, std::string method,
              std::string arg, Result<std::string>* out, bool* done) -> Task<void> {
      *out = co_await client->Invoke(std::move(oid), std::move(method),
                                     std::move(arg));
      *done = true;
    }(client_, oid, method, arg, &out, &done));
    while (!done) EXPECT_TRUE(sim_.Step());
    return out;
  }

  Result<std::string> Create(const std::string& oid) {
    Result<std::string> out = Status::Unavailable("not run");
    bool done = false;
    Detach([](Client* client, std::string oid, Result<std::string>* out,
              bool* done) -> Task<void> {
      *out = co_await client->Create(std::move(oid), "user");
      *done = true;
    }(client_, oid, &out, &done));
    while (!done) EXPECT_TRUE(sim_.Step());
    return out;
  }

  sim::Simulator sim_{23};
  runtime::TypeRegistry types_;
  std::unique_ptr<AggregatedDeployment> deployment_;
  Client* client_ = nullptr;
};

TEST_F(AggregatedRetwisTest, EndToEndPostAndTimeline) {
  ASSERT_TRUE(Create("user/alice").ok());
  ASSERT_TRUE(Create("user/bob").ok());
  ASSERT_TRUE(Invoke("user/alice", "init", "alice").ok());
  ASSERT_TRUE(Invoke("user/bob", "init", "bob").ok());
  // bob follows alice.
  ASSERT_TRUE(Invoke("user/alice", "follow", "user/bob").ok());
  // alice posts; the post must land on bob's timeline too.
  auto posted = Invoke("user/alice", "create_post", "hello world");
  ASSERT_TRUE(posted.ok()) << posted.status().ToString();

  auto timeline = Invoke("user/bob", "get_timeline", retwis::EncodeU64(10));
  ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
  auto posts = retwis::DecodeTimeline(*timeline);
  ASSERT_TRUE(posts.ok());
  ASSERT_EQ(posts->size(), 1u);
  EXPECT_EQ((*posts)[0].author, "alice");
  EXPECT_EQ((*posts)[0].message, "hello world");

  // alice sees her own post as well.
  auto own = Invoke("user/alice", "get_timeline", retwis::EncodeU64(10));
  ASSERT_TRUE(own.ok());
  auto own_posts = retwis::DecodeTimeline(*own);
  ASSERT_TRUE(own_posts.ok());
  ASSERT_EQ(own_posts->size(), 1u);
}

TEST_F(AggregatedRetwisTest, TimelineOrderNewestFirst) {
  ASSERT_TRUE(Create("user/u").ok());
  ASSERT_TRUE(Invoke("user/u", "init", "u").ok());
  for (int i = 0; i < 15; i++) {
    ASSERT_TRUE(Invoke("user/u", "create_post", "msg" + std::to_string(i)).ok());
  }
  auto timeline = Invoke("user/u", "get_timeline", retwis::EncodeU64(10));
  ASSERT_TRUE(timeline.ok());
  auto posts = retwis::DecodeTimeline(*timeline);
  ASSERT_TRUE(posts.ok());
  ASSERT_EQ(posts->size(), 10u);  // limited
  EXPECT_EQ((*posts)[0].message, "msg14");
  EXPECT_EQ((*posts)[9].message, "msg5");
}

TEST_F(AggregatedRetwisTest, WritesReplicateToBackups) {
  ASSERT_TRUE(Create("user/x").ok());
  ASSERT_TRUE(Invoke("user/x", "init", "x").ok());
  sim_.RunFor(sim::Millis(10));
  // Every storage node holds the object (replica set of 3).
  for (int i = 0; i < deployment_->num_nodes(); i++) {
    auto got = deployment_->node(i).db().Get({}, runtime::ObjectExistsKey("user/x"));
    EXPECT_TRUE(got.ok()) << "node " << i;
  }
}

TEST_F(AggregatedRetwisTest, FailoverPromotesBackupAndClientRetries) {
  ASSERT_TRUE(Create("user/f").ok());
  ASSERT_TRUE(Invoke("user/f", "init", "f").ok());

  deployment_->KillStorageNode(0);  // primary dies
  sim_.RunFor(sim::Millis(300));    // coordinator detects + reconfigures

  // The client's next request must succeed after refresh+retry against
  // the promoted backup.
  auto after = Invoke("user/f", "create_post", "post after failover");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto timeline = Invoke("user/f", "get_timeline", retwis::EncodeU64(5));
  ASSERT_TRUE(timeline.ok());
  auto posts = retwis::DecodeTimeline(*timeline);
  ASSERT_TRUE(posts.ok());
  ASSERT_EQ(posts->size(), 1u);
  EXPECT_EQ((*posts)[0].message, "post after failover");
  EXPECT_GT(client_->metrics().retries, 0u);
}

TEST_F(AggregatedRetwisTest, PrimaryReadCountsOneRequest) {
  ASSERT_TRUE(Create("user/r").ok());
  ASSERT_TRUE(Invoke("user/r", "init", "r").ok());
  const uint64_t before = client_->metrics().requests;
  Result<std::string> out = Status::Unavailable("not run");
  bool done = false;
  Detach([](Client* client, Result<std::string>* out, bool* done) -> Task<void> {
    *out = co_await client->InvokeRead("user/r", "get_timeline",
                                       retwis::EncodeU64(5));
    *done = true;
  }(client_, &out, &done));
  while (!done) ASSERT_TRUE(sim_.Step());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // kPrimaryOnly (the default) sends the read straight to the primary.
  EXPECT_EQ(client_->metrics().requests - before, 1u);
}

TEST_F(AggregatedRetwisTest, ResultCacheServesRepeatedTimelines) {
  ASSERT_TRUE(Create("user/c").ok());
  ASSERT_TRUE(Invoke("user/c", "init", "c").ok());
  ASSERT_TRUE(Invoke("user/c", "create_post", "cached?").ok());
  ASSERT_TRUE(Invoke("user/c", "get_timeline", retwis::EncodeU64(10)).ok());
  auto& primary_runtime = deployment_->node(0).runtime();
  auto before = primary_runtime.cache_stats();
  ASSERT_TRUE(Invoke("user/c", "get_timeline", retwis::EncodeU64(10)).ok());
  auto after = primary_runtime.cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  // A new post invalidates; next read recomputes and sees it.
  ASSERT_TRUE(Invoke("user/c", "create_post", "newer").ok());
  auto timeline = Invoke("user/c", "get_timeline", retwis::EncodeU64(10));
  ASSERT_TRUE(timeline.ok());
  auto posts = retwis::DecodeTimeline(*timeline);
  ASSERT_TRUE(posts.ok());
  EXPECT_EQ((*posts)[0].message, "newer");
}

// Kills the primary mid-way through a sequential post stream and checks
// the linearizability contract end to end: every acknowledged post
// appears in the final timeline exactly once, no post (acked or not)
// appears twice — client retries carry idempotency tokens, so a retry
// that races a successful-but-unacked commit must not double-apply —
// and the whole failure schedule replays identically under one seed.
TEST(FailoverLinearizability, AckedPostsSurvivePrimaryKillExactlyOnce) {
  struct Outcome {
    std::vector<std::string> acked;
    std::vector<std::string> timeline;  // newest first
    uint64_t retries = 0;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [](uint64_t seed) {
    sim::Simulator sim(seed);
    runtime::TypeRegistry types;
    EXPECT_TRUE(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
    AggregatedDeployment deployment(sim, &types, DeploymentOptions{});
    deployment.WaitUntilReady();
    Client& client = deployment.NewClient();

    bool ready = false;
    Detach([](Client* c, bool* done) -> Task<void> {
      auto created = co_await c->Create("user/lin", "user");
      EXPECT_TRUE(created.ok());
      auto inited = co_await c->Invoke("user/lin", "init", "lin");
      EXPECT_TRUE(inited.ok());
      *done = true;
    }(&client, &ready));
    while (!ready) EXPECT_TRUE(sim.Step());

    // The bootstrap primary of the (single) shard dies mid-stream.
    Detach([](sim::Simulator* s, AggregatedDeployment* d) -> Task<void> {
      co_await s->Sleep(sim::Millis(2));
      d->KillStorageNode(0);
    }(&sim, &deployment));

    Outcome out;
    bool done = false;
    Detach([](Client* c, Outcome* out, bool* done) -> Task<void> {
      for (int i = 0; i < 40; i++) {
        std::string msg = "post-" + std::to_string(i);
        auto reply = co_await c->Invoke("user/lin", "create_post", msg);
        if (reply.ok()) out->acked.push_back(msg);
      }
      *done = true;
    }(&client, &out, &done));
    while (!done) EXPECT_TRUE(sim.Step());
    sim.RunFor(sim::Millis(500));  // failover fully settles

    bool read = false;
    Detach([](Client* c, Outcome* out, bool* done) -> Task<void> {
      auto timeline = co_await c->Invoke("user/lin", "get_timeline",
                                         retwis::EncodeU64(100));
      EXPECT_TRUE(timeline.ok()) << timeline.status().ToString();
      if (timeline.ok()) {
        auto posts = retwis::DecodeTimeline(*timeline);
        EXPECT_TRUE(posts.ok());
        if (posts.ok()) {
          for (const auto& post : *posts) out->timeline.push_back(post.message);
        }
      }
      *done = true;
    }(&client, &out, &read));
    while (!read) EXPECT_TRUE(sim.Step());
    out.retries = client.metrics().retries;
    return out;
  };

  Outcome first = run(101);
  // The kill genuinely interrupted the stream.
  EXPECT_GT(first.retries, 0u);
  EXPECT_FALSE(first.acked.empty());
  std::map<std::string, int> seen;
  for (const auto& msg : first.timeline) seen[msg]++;
  for (const auto& msg : first.acked) {
    EXPECT_EQ(seen[msg], 1) << "acked post lost or duplicated: " << msg;
  }
  for (const auto& [msg, count] : seen) {
    EXPECT_LE(count, 1) << "double-applied post: " << msg;
  }
  // Same seed, same failure schedule, same outcome — bit for bit.
  EXPECT_TRUE(first == run(101)) << "fault schedule is not replayable";
}

// The commit-side half of the guarantee, deterministically: replaying an
// invocation with the same idempotency token must hit the applied-marker
// and skip the second commit.
TEST(IdempotentCommit, SameTokenCommitsOnce) {
  sim::Simulator sim(53);
  runtime::TypeRegistry types;
  ASSERT_TRUE(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
  AggregatedDeployment deployment(sim, &types, DeploymentOptions{});
  deployment.WaitUntilReady();
  Client& client = deployment.NewClient();

  auto run = [&](auto&& coroutine) {
    bool done = false;
    Detach([](std::decay_t<decltype(coroutine)> body, bool* done) -> Task<void> {
      co_await body();
      *done = true;
    }(std::move(coroutine), &done));
    while (!done) ASSERT_TRUE(sim.Step());
  };

  run([&]() -> Task<void> {
    EXPECT_TRUE((co_await client.Create("user/idem", "user")).ok());
    EXPECT_TRUE((co_await client.Invoke("user/idem", "init", "idem")).ok());
  });

  auto& primary = deployment.node(0);
  uint64_t skips_before = primary.runtime().metrics().dedup_commit_skips;
  run([&]() -> Task<void> {
    // A lost reply makes the client resend; both executions reach commit.
    auto first = co_await primary.InvokeLocal("user/idem", "create_post",
                                              "only once", {}, "tok-1");
    EXPECT_TRUE(first.ok()) << first.status().ToString();
    auto retry = co_await primary.InvokeLocal("user/idem", "create_post",
                                              "only once", {}, "tok-1");
    EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  });
  EXPECT_EQ(primary.runtime().metrics().dedup_commit_skips, skips_before + 1);

  run([&]() -> Task<void> {
    auto timeline = co_await client.Invoke("user/idem", "get_timeline",
                                           retwis::EncodeU64(10));
    EXPECT_TRUE(timeline.ok());
    if (!timeline.ok()) co_return;
    auto posts = retwis::DecodeTimeline(*timeline);
    EXPECT_TRUE(posts.ok());
    if (posts.ok()) {
      EXPECT_EQ(posts->size(), 1u);  // the retried commit was deduplicated
    }
  });
}

// A 3-node, 3-shard deployment (one primary per node) holding one user
// with one post.
class MigrationTest : public ::testing::Test {
 public:
  MigrationTest() : sim_(29) {
    EXPECT_TRUE(retwis::RegisterUserType(&types_, /*use_vm=*/true).ok());
    DeploymentOptions options;
    options.num_storage_nodes = 3;
    options.num_shards = 3;  // one primary per node
    deployment_ = std::make_unique<AggregatedDeployment>(sim_, &types_, options);
    deployment_->WaitUntilReady();
    client_ = &deployment_->NewClient();
    Run([&]() -> Task<void> {
      auto created = co_await client_->Create(oid_, "user");
      EXPECT_TRUE(created.ok()) << created.status().ToString();
      auto inited = co_await client_->Invoke(oid_, "init", "mig");
      EXPECT_TRUE(inited.ok());
      auto posted = co_await client_->Invoke(oid_, "create_post", "pre-migration");
      EXPECT_TRUE(posted.ok());
    });
  }

  template <typename Coroutine>
  void Run(Coroutine coroutine) {
    bool done = false;
    Detach([](Coroutine body, bool* done) -> Task<void> {
      co_await body();
      *done = true;
    }(std::move(coroutine), &done));
    while (!done) ASSERT_TRUE(sim_.Step());
  }

  coord::ShardId HomeShard() { return deployment_->node(0).shard_map().ShardFor(oid_); }

  /// The object's timeline holds exactly `posts` posts.
  void ExpectTimelineSize(size_t posts) {
    Run([&]() -> Task<void> {
      auto timeline = co_await client_->Invoke(oid_, "get_timeline",
                                               retwis::EncodeU64(10));
      EXPECT_TRUE(timeline.ok()) << timeline.status().ToString();
      if (timeline.ok()) {
        auto decoded = retwis::DecodeTimeline(*timeline);
        EXPECT_TRUE(decoded.ok());
        if (decoded.ok()) {
          EXPECT_EQ(decoded->size(), posts);
        }
      }
    });
  }

 protected:
  sim::Simulator sim_;
  runtime::TypeRegistry types_;
  std::unique_ptr<AggregatedDeployment> deployment_;
  Client* client_ = nullptr;
  std::string oid_ = "user/mig";
};

TEST_F(MigrationTest, ObjectMovesBetweenShards) {
  coord::ShardId target = (HomeShard() + 1) % 3;
  Run([&]() -> Task<void> {
    Status s = co_await client_->MigrateObject(oid_, target);
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  sim_.RunFor(sim::Millis(100));  // config propagation to nodes

  // Data survived the move and the object serves from its new home.
  ExpectTimelineSize(1);
  Run([&]() -> Task<void> {
    auto posted = co_await client_->Invoke(oid_, "create_post", "post-migration");
    EXPECT_TRUE(posted.ok());
  });
}

TEST_F(MigrationTest, FailedInstallLeavesTheObjectServedAtItsSource) {
  // The target shard's primary is down, so the install times out after
  // the source has fenced the object. The migration must fail and hand
  // the object back to its source instead of leaving it fenced there.
  coord::ShardId home = HomeShard();
  coord::ShardId target = (home + 1) % 3;
  sim::NodeId target_primary =
      deployment_->node(0).shard_map().ConfigFor(target)->primary;
  for (int i = 0; i < deployment_->num_nodes(); i++) {
    if (deployment_->node(i).id() == target_primary) deployment_->KillStorageNode(i);
  }
  Run([&]() -> Task<void> {
    Status s = co_await client_->MigrateObject(oid_, target);
    EXPECT_FALSE(s.ok());
  });
  EXPECT_EQ(HomeShard(), home);

  ExpectTimelineSize(1);
  Run([&]() -> Task<void> {
    auto posted = co_await client_->Invoke(oid_, "create_post", "after-rollback");
    EXPECT_TRUE(posted.ok()) << posted.status().ToString();
  });
  ExpectTimelineSize(2);
}

// ------------------------------------------------------- disaggregated

class BaselineRetwisTest : public ::testing::Test {
 public:
  BaselineRetwisTest() {
    EXPECT_TRUE(retwis::RegisterUserType(&types_, /*use_vm=*/true).ok());
    baseline::BaselineOptions options;
    deployment_ =
        std::make_unique<baseline::DisaggregatedDeployment>(sim_, &types_, options);
    client_ = &deployment_->NewClientEndpoint();
  }

  Result<std::string> Invoke(const std::string& oid, const std::string& method,
                             const std::string& arg = "") {
    std::string payload;
    PutLengthPrefixed(&payload, oid);
    PutLengthPrefixed(&payload, method);
    PutLengthPrefixed(&payload, arg);
    Result<std::string> out = Status::Unavailable("not run");
    bool done = false;
    Detach([](sim::RpcEndpoint* rpc, sim::NodeId entry, const char* service,
              std::string payload, Result<std::string>* out,
              bool* done) -> Task<void> {
      *out = co_await rpc->Call(entry, service, std::move(payload), sim::Seconds(2));
      *done = true;
    }(client_, deployment_->entry_node(), deployment_->entry_service(),
      std::move(payload), &out, &done));
    while (!done) EXPECT_TRUE(sim_.Step());
    return out;
  }

  Result<std::string> Create(const std::string& oid) {
    std::string payload;
    PutLengthPrefixed(&payload, oid);
    PutLengthPrefixed(&payload, "user");
    Result<std::string> out = Status::Unavailable("not run");
    bool done = false;
    Detach([](sim::RpcEndpoint* rpc, sim::NodeId compute, std::string payload,
              Result<std::string>* out, bool* done) -> Task<void> {
      *out = co_await rpc->Call(compute, "fn.create", std::move(payload),
                                sim::Seconds(1));
      *done = true;
    }(client_, deployment_->compute(0).id(), std::move(payload), &out, &done));
    while (!done) EXPECT_TRUE(sim_.Step());
    return out;
  }

  sim::Simulator sim_{31};
  runtime::TypeRegistry types_;
  std::unique_ptr<baseline::DisaggregatedDeployment> deployment_;
  sim::RpcEndpoint* client_ = nullptr;
};

TEST_F(BaselineRetwisTest, EndToEndPostAndTimeline) {
  ASSERT_TRUE(Create("user/alice").ok());
  ASSERT_TRUE(Create("user/bob").ok());
  ASSERT_TRUE(Invoke("user/alice", "init", "alice").ok());
  ASSERT_TRUE(Invoke("user/bob", "init", "bob").ok());
  ASSERT_TRUE(Invoke("user/alice", "follow", "user/bob").ok());
  auto posted = Invoke("user/alice", "create_post", "hello from baseline");
  ASSERT_TRUE(posted.ok()) << posted.status().ToString();
  auto timeline = Invoke("user/bob", "get_timeline", retwis::EncodeU64(10));
  ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
  auto posts = retwis::DecodeTimeline(*timeline);
  ASSERT_TRUE(posts.ok());
  ASSERT_EQ(posts->size(), 1u);
  EXPECT_EQ((*posts)[0].author, "alice");
  EXPECT_EQ((*posts)[0].message, "hello from baseline");
  // Disaggregation tax: many storage round-trips for this tiny workload.
  EXPECT_GT(deployment_->compute(0).metrics().storage_round_trips, 10u);
}

TEST_F(BaselineRetwisTest, DataIsOnStorageNodesNotCompute) {
  ASSERT_TRUE(Create("user/z").ok());
  ASSERT_TRUE(Invoke("user/z", "init", "z").ok());
  sim_.RunFor(sim::Millis(10));
  auto on_storage =
      deployment_->storage(0).db().Get({}, runtime::ObjectExistsKey("user/z"));
  EXPECT_TRUE(on_storage.ok());
  // And replicated within the storage replica set.
  auto on_backup =
      deployment_->storage(1).db().Get({}, runtime::ObjectExistsKey("user/z"));
  EXPECT_TRUE(on_backup.ok());
}

TEST(BaselineLoadBalancer, RoutesAndLogsRequests) {
  sim::Simulator sim(37);
  runtime::TypeRegistry types;
  ASSERT_TRUE(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
  baseline::BaselineOptions options;
  options.with_load_balancer = true;
  options.num_compute_nodes = 2;
  baseline::DisaggregatedDeployment deployment(sim, &types, options);
  auto& client = deployment.NewClientEndpoint();

  auto invoke = [&](const std::string& oid, const std::string& method,
                    const std::string& arg) {
    std::string payload;
    PutLengthPrefixed(&payload, oid);
    PutLengthPrefixed(&payload, method);
    PutLengthPrefixed(&payload, arg);
    Result<std::string> out = Status::Unavailable("not run");
    bool done = false;
    Detach([](sim::RpcEndpoint* rpc, sim::NodeId lb, std::string payload,
              Result<std::string>* out, bool* done) -> Task<void> {
      *out = co_await rpc->Call(lb, "lb.invoke", std::move(payload), sim::Seconds(2));
      *done = true;
    }(&client, deployment.entry_node(), std::move(payload), &out, &done));
    while (!done) EXPECT_TRUE(sim.Step());
    return out;
  };

  // Create through compute 0 directly, then invoke through the LB.
  {
    std::string payload;
    PutLengthPrefixed(&payload, "user/lb");
    PutLengthPrefixed(&payload, "user");
    bool done = false;
    Result<std::string> out = Status::Unavailable("");
    Detach([](sim::RpcEndpoint* rpc, sim::NodeId compute, std::string payload,
              Result<std::string>* out, bool* done) -> Task<void> {
      *out = co_await rpc->Call(compute, "fn.create", std::move(payload),
                                sim::Seconds(1));
      *done = true;
    }(&client, deployment.compute(0).id(), std::move(payload), &out, &done));
    while (!done) ASSERT_TRUE(sim.Step());
    ASSERT_TRUE(out.ok());
  }
  ASSERT_TRUE(invoke("user/lb", "init", "lb").ok());
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(invoke("user/lb", "create_post", "p" + std::to_string(i)).ok());
  }
  auto& lb = *deployment.load_balancer();
  EXPECT_EQ(lb.metrics().requests, 7u);
  EXPECT_EQ(lb.metrics().log_appends, 7u);
  EXPECT_EQ(lb.log().size(), 7u);
  // Both compute nodes served work (round-robin).
  EXPECT_GT(deployment.compute(0).metrics().invocations, 0u);
  EXPECT_GT(deployment.compute(1).metrics().invocations, 0u);
}


TEST(BaselineLoadBalancer, RetriesOnComputeNodeFailure) {
  sim::Simulator sim(41);
  runtime::TypeRegistry types;
  ASSERT_TRUE(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
  baseline::BaselineOptions options;
  options.with_load_balancer = true;
  options.num_compute_nodes = 2;
  baseline::DisaggregatedDeployment deployment(sim, &types, options);
  auto& client = deployment.NewClientEndpoint();

  // Create the object via the surviving compute node (id 31).
  {
    std::string payload;
    PutLengthPrefixed(&payload, "user/ha");
    PutLengthPrefixed(&payload, "user");
    bool done = false;
    Result<std::string> out = Status::Unavailable("");
    Detach([](sim::RpcEndpoint* rpc, sim::NodeId compute, std::string payload,
              Result<std::string>* out, bool* done) -> Task<void> {
      *out = co_await rpc->Call(compute, "fn.create", std::move(payload),
                                sim::Seconds(1));
      *done = true;
    }(&client, deployment.compute(1).id(), std::move(payload), &out, &done));
    while (!done) ASSERT_TRUE(sim.Step());
    ASSERT_TRUE(out.ok());
  }

  // Kill compute 0; the LB's round-robin will hit it and must fail over.
  deployment.network().SetNodeUp(deployment.compute(0).id(), false);
  int ok_count = 0;
  for (int i = 0; i < 4; i++) {
    std::string payload;
    PutLengthPrefixed(&payload, "user/ha");
    PutLengthPrefixed(&payload, "init");
    PutLengthPrefixed(&payload, "ha");
    bool done = false;
    Result<std::string> out = Status::Unavailable("");
    Detach([](sim::RpcEndpoint* rpc, sim::NodeId lb, std::string payload,
              Result<std::string>* out, bool* done) -> Task<void> {
      *out = co_await rpc->Call(lb, "lb.invoke", std::move(payload),
                                sim::Seconds(5));
      *done = true;
    }(&client, deployment.entry_node(), std::move(payload), &out, &done));
    while (!done) ASSERT_TRUE(sim.Step());
    if (out.ok()) ok_count++;
  }
  EXPECT_EQ(ok_count, 4);  // every request served despite the dead node
  EXPECT_GT(deployment.load_balancer()->metrics().retries_on_compute_failure, 0u);
  // The durable request log captured everything (no request lost).
  EXPECT_EQ(deployment.load_balancer()->log().size(), 4u);
}


TEST(ReplicaReads, BackupsServeReadOnlyInvocations) {
  sim::Simulator sim(47);
  runtime::TypeRegistry types;
  ASSERT_TRUE(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
  DeploymentOptions options;
  options.client.read_mode = replication::ReadMode::kEventual;
  AggregatedDeployment deployment(sim, &types, options);
  deployment.WaitUntilReady();
  Client& client = deployment.NewClient();

  auto run = [&](auto&& coroutine) {
    bool done = false;
    Detach([](std::decay_t<decltype(coroutine)> body, bool* done) -> Task<void> {
      co_await body();
      *done = true;
    }(std::move(coroutine), &done));
    while (!done) ASSERT_TRUE(sim.Step());
  };

  run([&]() -> Task<void> {
    (void)co_await client.Create("user/r", "user");
    (void)co_await client.Invoke("user/r", "init", "r");
    (void)co_await client.Invoke("user/r", "create_post", "replicated post");
  });
  sim.RunFor(sim::Millis(5));  // replication settles

  // Spread timeline reads across replicas; all must return the post.
  run([&]() -> Task<void> {
    for (int i = 0; i < 30; i++) {
      auto timeline = co_await client.InvokeRead("user/r", "get_timeline",
                                                 retwis::EncodeU64(5));
      EXPECT_TRUE(timeline.ok()) << timeline.status().ToString();
      if (timeline.ok()) {
        auto posts = retwis::DecodeTimeline(*timeline);
        EXPECT_TRUE(posts.ok());
        if (posts.ok()) {
          EXPECT_EQ(posts->size(), 1u);
        }
      }
    }
  });
  // Both backups actually served reads.
  EXPECT_GT(deployment.node(1).metrics().follower_reads, 0u);
  EXPECT_GT(deployment.node(2).metrics().follower_reads, 0u);

  // A mutation sent down the read path is refused by every replica:
  // nothing is applied, on a backup or on the primary.
  uint64_t applied_before = deployment.node(0).replicator().applied_seq(0);
  run([&]() -> Task<void> {
    auto reply = co_await client.InvokeRead("user/r", "create_post", "nope");
    EXPECT_FALSE(reply.ok());
  });
  sim.RunFor(sim::Millis(5));
  EXPECT_EQ(deployment.node(0).replicator().applied_seq(0), applied_before);
  for (int node = 1; node <= 2; node++) {
    EXPECT_EQ(deployment.node(node).replicator().applied_seq(0), applied_before);
  }
}

// --- ShardMap routing ---------------------------------------------------

TEST(ShardMapTest, DirectoryOverrideWinsOverHash) {
  coord::ClusterState state;
  for (coord::ShardId shard = 0; shard < 4; shard++) {
    coord::ShardConfig config;
    config.epoch = 1;
    config.primary = static_cast<sim::NodeId>(10 + shard);
    state.shards[shard] = config;
  }
  ShardMap hashed(state);
  const std::string oid = "user/alice";
  coord::ShardId hash_shard = hashed.ShardFor(oid);
  // Pin the object somewhere the hash would NOT put it.
  coord::ShardId pinned = (hash_shard + 1) % 4;
  state.directory[oid] = pinned;
  ShardMap map(state);
  EXPECT_EQ(map.ShardFor(oid), pinned);
  EXPECT_EQ(map.PrimaryFor(oid), static_cast<sim::NodeId>(10 + pinned));
  // Objects without a directory entry still hash.
  EXPECT_EQ(map.ShardFor("user/bob"), hashed.ShardFor("user/bob"));
}

TEST(ShardMapTest, EmptyMapRoutesToZero) {
  ShardMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.ShardFor("user/anyone"), 0u);
  EXPECT_EQ(map.PrimaryFor("user/anyone"), 0u);  // "unknown" sentinel
  // A directory entry pointing at a missing shard must not crash either.
  coord::ClusterState state;
  state.directory["user/ghost"] = 9;
  ShardMap dangling(state);
  EXPECT_EQ(dangling.ShardFor("user/ghost"), 9u);
  EXPECT_EQ(dangling.PrimaryFor("user/ghost"), 0u);
}

// --- RetryPolicy ---------------------------------------------------------

// The policy with no transport: an injected nanosecond clock that a
// scripted client advances by every pause, as its sleep would.
class RetryPolicyTest : public ::testing::Test {
 public:
  RetryPolicy Make(int64_t budget_ns = RetryPolicy::kDefaultBudgetNs,
                   bool follows_redirects = true) {
    return RetryPolicy([this] { return now_; }, &rng_, budget_ns,
                       follows_redirects, &counters_);
  }

  /// Plays a client whose attempts fail with `failures` in turn; returns
  /// the status it surfaces, or OK if it would still re-send.
  Status Drive(RetryPolicy& retry, const std::vector<Status>& failures) {
    for (const Status& failure : failures) {
      std::optional<int64_t> pause = retry.Next(failure.code());
      if (!pause) return failure;
      now_ += *pause;
    }
    return Status::OK();
  }

  int64_t now_ = 0;
  Rng rng_{7};
  RetryPolicy::Counters counters_;
};

TEST_F(RetryPolicyTest, ThrottlePausesUseNoAttemptAndEndAfterTheSixteenth) {
  RetryPolicy retry = Make();
  for (int i = 0; i < RetryPolicy::kMaxThrottles; i++) {
    EXPECT_EQ(retry.Next(StatusCode::kTenantThrottled),
              RetryPolicy::kThrottlePauseNs);
    now_ += RetryPolicy::kThrottlePauseNs;
  }
  // The sixteen pauses left all eight attempts: seven back off, the
  // eighth failure surfaces.
  for (int i = 1; i < RetryPolicy::kMaxAttempts; i++) {
    std::optional<int64_t> pause = retry.Next(StatusCode::kUnavailable);
    ASSERT_TRUE(pause.has_value()) << "attempt " << i;
    now_ += *pause;
  }
  EXPECT_FALSE(retry.Next(StatusCode::kUnavailable).has_value());
  EXPECT_EQ(counters_.retries, 7u);
  EXPECT_EQ(counters_.throttled, 16u);

  // The seventeenth throttle of one request surfaces.
  RetryPolicy throttled = Make();
  std::vector<Status> failures(RetryPolicy::kMaxThrottles + 1,
                               Status::TenantThrottled("over share"));
  EXPECT_EQ(Drive(throttled, failures).code(), StatusCode::kTenantThrottled);
  EXPECT_EQ(counters_.throttled, 33u);
  EXPECT_EQ(counters_.budget_exhausted, 0u);
}

TEST_F(RetryPolicyTest, BudgetExhaustionSurfacesLastStatus) {
  // 50 ms holds the first two backoffs (at most 12.5 + 25 ms) but not
  // the third (at least 30 ms).
  RetryPolicy retry = Make(/*budget_ns=*/50'000'000);
  Status surfaced = Drive(retry, {Status::Unavailable("down"),
                                  Status::Timeout("slow"),
                                  Status::NotPrimary("moved"),
                                  Status::Unavailable("never reached")});
  EXPECT_EQ(surfaced.code(), StatusCode::kNotPrimary);
  EXPECT_EQ(counters_.retries, 2u);
  EXPECT_EQ(counters_.budget_exhausted, 1u);

  // A throttle pause that would cross the deadline surfaces as well.
  RetryPolicy tight = Make(/*budget_ns=*/RetryPolicy::kThrottlePauseNs);
  EXPECT_EQ(Drive(tight, {Status::TenantThrottled("over share")}).code(),
            StatusCode::kTenantThrottled);
  EXPECT_EQ(counters_.budget_exhausted, 2u);

  // Application errors surface at once, with no pause and no count.
  RetryPolicy fatal = Make();
  EXPECT_FALSE(fatal.Next(StatusCode::kInvalidArgument).has_value());
  EXPECT_EQ(counters_.retries, 2u);
}

TEST_F(RetryPolicyTest, RedirectsStopAfterFourThenBackOff) {
  RetryPolicy retry = Make();
  for (int i = 0; i < RetryPolicy::kMaxRedirects; i++) {
    EXPECT_EQ(retry.Next(StatusCode::kWrongShard, /*rerouted=*/true), 0);
  }
  std::optional<int64_t> pause =
      retry.Next(StatusCode::kWrongShard, /*rerouted=*/true);
  ASSERT_TRUE(pause.has_value());
  EXPECT_GE(*pause, RetryPolicy::kBackoffNs * 3 / 4);
  EXPECT_LE(*pause, RetryPolicy::kBackoffNs * 5 / 4);
  EXPECT_EQ(counters_.redirects, 4u);
  EXPECT_EQ(counters_.retries, 1u);

  // A bounce the client could not re-route (its refresh failed) backs
  // off too; a client with no directory surfaces it at once.
  RetryPolicy stale = Make();
  EXPECT_TRUE(stale.Next(StatusCode::kWrongShard).has_value());
  EXPECT_EQ(counters_.retries, 2u);
  RetryPolicy standalone = Make(RetryPolicy::kDefaultBudgetNs,
                                /*follows_redirects=*/false);
  EXPECT_FALSE(standalone.Next(StatusCode::kWrongShard, true).has_value());
  EXPECT_EQ(counters_.redirects, 4u);
  EXPECT_EQ(counters_.retries, 2u);
}

TEST_F(RetryPolicyTest, PausesFollowJitteredDoublingScheduleCapped) {
  for (uint64_t seed = 1; seed <= 20; seed++) {
    rng_ = Rng(seed);
    RetryPolicy retry = Make(/*budget_ns=*/int64_t{60'000'000'000});
    int64_t base = RetryPolicy::kBackoffNs;
    for (int i = 1; i < RetryPolicy::kMaxAttempts; i++) {
      std::optional<int64_t> pause = retry.Next(StatusCode::kTimeout);
      ASSERT_TRUE(pause.has_value()) << "seed " << seed << " attempt " << i;
      EXPECT_GE(*pause, base * 3 / 4) << "seed " << seed << " attempt " << i;
      EXPECT_LE(*pause, base * 5 / 4) << "seed " << seed << " attempt " << i;
      now_ += *pause;
      base = std::min(base * 2, RetryPolicy::kMaxBackoffNs);
    }
    EXPECT_EQ(base, int64_t{160'000'000});
    EXPECT_FALSE(retry.Next(StatusCode::kTimeout).has_value());
  }
  EXPECT_EQ(counters_.retries, 20u * 7u);
  EXPECT_EQ(counters_.budget_exhausted, 0u);
}

// --- WalGroupCommitter ---------------------------------------------------

// The sim's modeled WAL device over a stub sink: one sync in flight per
// shard, so commits submitted while it syncs form the next group.
TEST(WalGroupCommitterTest, BusyDeviceGroupsCommitsAndFailsOnlyTheFailedGroup) {
  sim::Simulator sim;
  std::vector<uint32_t> group_records;  // per sink call, in order
  WalGroupCommitter committer(
      &sim,
      [&group_records](coord::ShardId, storage::WriteBatch batch,
                       obs::TraceContext) -> Task<Status> {
        group_records.push_back(batch.Count());
        // The second group's sync fails.
        co_return group_records.size() == 2 ? Status::IOError("sync failed")
                                            : Status::OK();
      },
      /*max_batch_bytes=*/1 << 20);

  std::map<std::string, Status> results;
  auto submit = [&](std::string key, sim::Duration at) {
    Detach([](sim::Simulator* sim, WalGroupCommitter* committer,
              std::string key, sim::Duration at,
              std::map<std::string, Status>* results) -> Task<void> {
      co_await sim->Sleep(at);
      storage::WriteBatch batch;
      batch.Put(key, "v");
      (*results)[key] = co_await committer->Commit(0, std::move(batch), {});
    }(&sim, &committer, std::move(key), at, &results));
  };
  const sim::Duration sync = WalGroupCommitter::kSyncLatency;
  submit("a", 0);              // group 1: the device is idle
  submit("b", sync / 4);       // b, c, d arrive during group 1's sync
  submit("c", sync / 2);
  submit("d", sync * 3 / 4);
  submit("e", sync + sync / 2);  // arrives during group 2's sync
  sim.Run();

  EXPECT_EQ(group_records, (std::vector<uint32_t>{1, 3, 1}));
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results["a"].ok());
  for (const char* key : {"b", "c", "d"}) {
    EXPECT_EQ(results[key].code(), StatusCode::kIOError) << key;
  }
  EXPECT_TRUE(results["e"].ok());

  const storage::GroupCommitStats& stats = committer.stats();
  EXPECT_EQ(stats.commits, 5u);
  EXPECT_EQ(stats.groups, 3u);
  EXPECT_LT(stats.groups, stats.commits);
  EXPECT_EQ(stats.max_group_commits, 3u);
  EXPECT_EQ(stats.sync_failures, 1u);
}

}  // namespace
}  // namespace lo::cluster
