// Multi-process cluster tests: coordinator + lambdastore-server
// processes over loopback TCP, driven through clusterd::Client. Covers
// directory routing across nodes, kWrongShard redirects, live object
// migration under concurrent writers (no acked commit lost or
// duplicated), the kill-a-server-during-migration fault path, the
// server's read path, result-cache invalidation by nested writes, tenant
// admission, and the SIGTERM graceful-drain contract of the server
// binary.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "clusterd/client.h"
#include "clusterd/wire.h"
#include "common/coding.h"
#include "common/hash.h"
#include "net/rpc_client.h"
#include "replication/replicator.h"
#include "retwis/retwis.h"

extern char** environ;

namespace lo::clusterd {
namespace {

std::string ServerBinary() {
  if (const char* env = std::getenv("LO_SERVER_BIN")) return env;
#ifdef LO_SERVER_BIN_DEFAULT
  return LO_SERVER_BIN_DEFAULT;
#else
  return "";
#endif
}

std::string CoordinatorBinary() {
  if (const char* env = std::getenv("LO_COORD_BIN")) return env;
#ifdef LO_COORD_BIN_DEFAULT
  return LO_COORD_BIN_DEFAULT;
#else
  return "";
#endif
}

// A spawned cluster process. SIGKILLed + reaped on destruction unless
// already waited for.
struct Proc {
  pid_t pid = -1;
  int out_fd = -1;
  uint16_t port = 0;

  Proc() = default;
  Proc(Proc&& other) noexcept { *this = std::move(other); }
  Proc& operator=(Proc&& other) noexcept {
    std::swap(pid, other.pid);
    std::swap(out_fd, other.out_fd);
    std::swap(port, other.port);
    return *this;
  }
  ~Proc() { Kill(); }

  void Kill() {
    if (out_fd >= 0) {
      close(out_fd);
      out_fd = -1;
    }
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }
  /// Waits for exit (up to ~10s) and returns the raw waitpid status.
  int Wait() {
    int status = -1;
    for (int i = 0; i < 200; i++) {
      if (waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return -1;
  }
  std::string address() const { return "127.0.0.1:" + std::to_string(port); }
};

Proc SpawnDaemon(const std::string& binary, std::vector<std::string> args) {
  args.insert(args.begin(), binary);
  int out_pipe[2];
  EXPECT_EQ(pipe(out_pipe), 0);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
  posix_spawn_file_actions_addclose(&actions, out_pipe[1]);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  Proc proc;
  int rc = posix_spawn(&proc.pid, args[0].c_str(), &actions, nullptr,
                       argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out_pipe[1]);
  EXPECT_EQ(rc, 0) << "posix_spawn " << args[0] << ": " << strerror(rc);
  proc.out_fd = out_pipe[0];

  std::string out;
  while (true) {
    size_t pos = out.find("READY port=");
    if (pos != std::string::npos && out.find('\n', pos) != std::string::npos) {
      proc.port = static_cast<uint16_t>(
          std::atoi(out.c_str() + pos + strlen("READY port=")));
      return proc;
    }
    struct pollfd pfd = {proc.out_fd, POLLIN, 0};
    EXPECT_GT(poll(&pfd, 1, 30'000), 0) << "no READY within 30s";
    char buf[256];
    ssize_t n = read(proc.out_fd, buf, sizeof(buf));
    EXPECT_GT(n, 0) << "process exited before READY";
    if (n <= 0) return proc;
    out.append(buf, static_cast<size_t>(n));
  }
}

// A running cluster: one coordinator + N servers, fresh (unseeded) DBs.
struct Cluster {
  Proc coordinator;
  std::vector<Proc> servers;

  static Cluster Start(int num_servers,
                       std::vector<std::string> coord_args = {}) {
    Cluster cluster;
    std::vector<std::string> args = {
        "--hash-servers=" + std::to_string(num_servers), "--no-rebalance"};
    for (std::string& extra : coord_args) args.push_back(std::move(extra));
    cluster.coordinator = SpawnDaemon(CoordinatorBinary(), std::move(args));
    for (int i = 0; i < num_servers; i++) cluster.AddServer();
    return cluster;
  }

  void AddServer() {
    servers.push_back(SpawnDaemon(
        ServerBinary(), {"--coordinator=" + coordinator.address(),
                         "--report-interval-ms=50"}));
  }

  std::string StatsOf(net::RpcClient* rpc, const Proc& proc) {
    auto reply = rpc->CallSync(proc.address(), "admin.stats", "", 2'000'000);
    return reply.ok() ? *reply : std::string("<error: ") +
                                     reply.status().ToString() + ">";
  }

  /// Orders a migration through the coordinator and waits for the ack.
  Status Migrate(net::RpcClient* rpc, const std::string& oid,
                 coord::ShardId target_shard) {
    auto reply = rpc->CallSync(coordinator.address(), kSvcMigrate,
                               EncodePlace(oid, target_shard), 10'000'000);
    return reply.ok() ? Status::OK() : reply.status();
  }
};

uint64_t StatsField(const std::string& stats, const std::string& key) {
  std::string needle = key + "=";
  size_t pos = 0;
  while (pos < stats.size()) {
    size_t eol = stats.find('\n', pos);
    if (eol == std::string::npos) eol = stats.size();
    if (stats.compare(pos, needle.size(), needle) == 0) {
      return std::strtoull(stats.c_str() + pos + needle.size(), nullptr, 10);
    }
    pos = eol + 1;
  }
  return 0;
}

std::string PostBlob(const std::string& author, uint64_t time_ms,
                     const std::string& message) {
  retwis::Post post;
  post.author = author;
  post.time_ms = time_ms;
  post.message = message;
  return post.Encode();
}

std::multiset<std::string> TimelineMessages(const std::string& payload) {
  auto posts = retwis::DecodeTimeline(payload);
  EXPECT_TRUE(posts.ok()) << posts.status().ToString();
  std::multiset<std::string> messages;
  if (posts.ok()) {
    for (const retwis::Post& post : *posts) messages.insert(post.message);
  }
  return messages;
}

TEST(ClusterdWire, ClusterViewRoundTrip) {
  ClusterView view;
  view.version = 42;
  view.state.hash_shards = 3;
  coord::ShardConfig shard;
  shard.epoch = 1;
  shard.primary = 2;
  view.state.shards[0] = shard;
  view.state.directory["user/7"] = 0;
  view.addresses[1] = "127.0.0.1:4000";
  view.addresses[2] = "127.0.0.1:4001";

  auto decoded = ClusterView::Decode(view.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, 42u);
  EXPECT_EQ(decoded->state.hash_shards, 3u);
  EXPECT_EQ(decoded->addresses.at(2), "127.0.0.1:4001");
  EXPECT_EQ(decoded->state.directory.at("user/7"), 0u);
  // Directory entry wins; non-directory objects hash over hash_shards.
  EXPECT_EQ(decoded->ShardFor("user/7"), 0u);
}

TEST(ClusterdCluster, RoutesAcrossNodesAndRedirects) {
  net::RpcClient rpc;
  Cluster cluster = Cluster::Start(3);

  Client client(&rpc, cluster.coordinator.address());
  // Spread objects over every node; each create+invoke must land on the
  // hash owner (the others would bounce it with kWrongShard).
  const int kObjects = 24;
  for (int i = 0; i < kObjects; i++) {
    std::string oid = "user/" + std::to_string(i);
    auto created = client.Create(oid, "user");
    ASSERT_TRUE(created.ok()) << oid << ": " << created.status().ToString();
    auto invoked = client.Invoke(oid, "store_post", PostBlob("a", 1, "hello"));
    ASSERT_TRUE(invoked.ok()) << oid << ": " << invoked.status().ToString();
  }
  // Every server saw some of the traffic (24 objects over 3 hash shards).
  uint64_t total_invokes = 0;
  for (Proc& server : cluster.servers) {
    uint64_t invokes = StatsField(cluster.StatsOf(&rpc, server), "invokes");
    EXPECT_GT(invokes, 0u);
    total_invokes += invokes;
  }
  EXPECT_GE(total_invokes, static_cast<uint64_t>(2 * kObjects));
}

TEST(ClusterdCluster, ReadYourWritesOnEveryServer) {
  net::RpcClient rpc;
  Cluster cluster = Cluster::Start(2);

  // One client reads objects on both servers; each server's apply-epoch
  // counts only its own commits, and no read may bounce for that.
  Client client(&rpc, cluster.coordinator.address());
  const int kObjects = 8;
  for (int i = 0; i < kObjects; i++) {
    std::string oid = "user/rr" + std::to_string(i);
    ASSERT_TRUE(client.Create(oid, "user").ok()) << oid;
  }
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < kObjects; i++) {
      std::string oid = "user/rr" + std::to_string(i);
      std::string message = "m" + std::to_string(round) + "-" + std::to_string(i);
      auto stored = client.Invoke(oid, "store_post", PostBlob("a", 1, message));
      ASSERT_TRUE(stored.ok()) << oid << ": " << stored.status().ToString();
      // "lambda.read" lands at the object's owner, which committed the
      // write before acking it: read-your-writes.
      auto timeline =
          client.InvokeRead(oid, "get_timeline", retwis::EncodeU64(10));
      ASSERT_TRUE(timeline.ok()) << oid << ": " << timeline.status().ToString();
      EXPECT_EQ(TimelineMessages(*timeline).count(message), 1u) << oid;
    }
  }
  // The objects spread over both servers, so both served reads.
  for (Proc& server : cluster.servers) {
    EXPECT_GT(StatsField(cluster.StatsOf(&rpc, server), "invokes"), 0u);
  }
}

TEST(ClusterdCluster, MigrationMovesObjectAndClientFollows) {
  net::RpcClient rpc;
  Cluster cluster = Cluster::Start(2);

  Client client(&rpc, cluster.coordinator.address());
  const std::string oid = "user/42";
  ASSERT_TRUE(client.Create(oid, "user").ok());
  ASSERT_TRUE(client.Invoke(oid, "store_post", PostBlob("a", 1, "one")).ok());

  // A third server joins: directory-only shard, reachable exclusively
  // through migration.
  cluster.AddServer();
  ASSERT_TRUE(cluster.Migrate(&rpc, oid, 2).ok());

  // The stale client bounces at the old owner, refreshes, and lands on
  // the new one; the object's state moved with it.
  auto after = client.Invoke(oid, "get_timeline", retwis::EncodeU64(10));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(TimelineMessages(*after).count("one"), 1u);
  auto appended = client.Invoke(oid, "store_post", PostBlob("a", 2, "two"));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();

  uint64_t in =
      StatsField(cluster.StatsOf(&rpc, cluster.servers[2]), "migrations_in");
  EXPECT_EQ(in, 1u);
  uint64_t served =
      StatsField(cluster.StatsOf(&rpc, cluster.servers[2]), "invokes");
  EXPECT_GE(served, 2u);
}

TEST(ClusterdCluster, MigrationUnderConcurrentWritesLosesNothing) {
  net::RpcClient rpc;
  Cluster cluster = Cluster::Start(2);

  Client setup_client(&rpc, cluster.coordinator.address());
  const std::string oid = "user/7";
  ASSERT_TRUE(setup_client.Create(oid, "user").ok());

  // 4 writer threads append unique posts while the object migrates back
  // and forth between the two shards. Every acked append must survive,
  // exactly once, wherever the object ends up.
  const int kWriters = 4;
  const int kPostsPerWriter = 50;
  std::vector<std::vector<std::string>> acked(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      ClientOptions options;
      options.seed = 1000 + static_cast<uint64_t>(w);
      Client client(&rpc, cluster.coordinator.address(), options);
      for (int i = 0; i < kPostsPerWriter; i++) {
        std::string message =
            "w" + std::to_string(w) + "-" + std::to_string(i);
        auto result = client.Invoke(
            oid, "store_post",
            PostBlob("w" + std::to_string(w),
                     static_cast<uint64_t>(w * 1000 + i), message));
        if (result.ok()) acked[w].push_back(message);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread migrator([&] {
    coord::ShardId target = 1;
    while (!stop.load(std::memory_order_acquire)) {
      (void)cluster.Migrate(&rpc, oid, target);
      target = target == 1 ? 0 : 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  migrator.join();

  auto timeline = setup_client.Invoke(oid, "get_timeline",
                                      retwis::EncodeU64(100'000));
  ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
  std::multiset<std::string> messages = TimelineMessages(*timeline);
  size_t total_acked = 0;
  for (int w = 0; w < kWriters; w++) {
    total_acked += acked[w].size();
    for (const std::string& message : acked[w]) {
      EXPECT_EQ(messages.count(message), 1u)
          << "acked post lost or duplicated: " << message;
    }
  }
  // The writers must have made real progress for the test to mean much.
  EXPECT_GT(total_acked, static_cast<size_t>(kWriters * kPostsPerWriter / 2));
}

TEST(ClusterdFaults, KillTargetDuringMigrationRollsBack) {
  net::RpcClient rpc;
  Cluster cluster = Cluster::Start(2);

  Client client(&rpc, cluster.coordinator.address());
  // An object that hash-places on servers[0], so the kill below hits the
  // migration *target*, not the object's home.
  std::string oid;
  for (int i = 0;; i++) {
    oid = "user/" + std::to_string(i);
    if (Fnv1a64(oid) % 2 == 0) break;
  }
  ASSERT_TRUE(client.Create(oid, "user").ok());
  ASSERT_TRUE(client.Invoke(oid, "store_post", PostBlob("a", 1, "keep")).ok());

  // Kill the migration target, then order the move: install cannot
  // succeed, the source rolls back and keeps serving the object.
  cluster.servers[1].Kill();
  Status migrated = cluster.Migrate(&rpc, oid, 1);
  EXPECT_FALSE(migrated.ok());

  auto after = client.Invoke(oid, "get_timeline", retwis::EncodeU64(10));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(TimelineMessages(*after).count("keep"), 1u);
  auto appended = client.Invoke(oid, "store_post", PostBlob("a", 2, "more"));
  EXPECT_TRUE(appended.ok()) << appended.status().ToString();

  uint64_t failures = StatsField(cluster.StatsOf(&rpc, cluster.servers[0]),
                                 "migration_failures");
  EXPECT_GE(failures, 1u);
}

TEST(ClusterdServer, ReadRejectsModeAboveTail) {
  Proc server = SpawnDaemon(ServerBinary(), {});
  net::RpcClient rpc;
  auto client = Client::Standalone(&rpc, server.address());
  ASSERT_TRUE(client.Create("user/1", "user").ok());
  // The same payload with a known mode is served; mode 9 is no mode.
  const std::string limit = retwis::EncodeU64(10);
  replication::ReadRequest read;
  read.oid = "user/1";
  read.method = "get_timeline";
  read.argument = limit;
  read.mode = replication::ReadMode::kEventual;
  auto served = rpc.CallSync(server.address(), "lambda.read",
                             replication::EncodeReadRequest(read), 1'000'000);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  read.mode = static_cast<replication::ReadMode>(9);
  auto rejected = rpc.CallSync(server.address(), "lambda.read",
                               replication::EncodeReadRequest(read), 1'000'000);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
}

TEST(ClusterdServer, StrictReadIsServedWhateverTheToken) {
  // A token from a busier server, or from before a restart, names an
  // apply-epoch this fresh server never reached. The object's only copy
  // is here and committed its writes before acking them, so the read is
  // served, not bounced with kEpochBehind.
  Proc server = SpawnDaemon(ServerBinary(), {});
  net::RpcClient rpc;
  auto client = Client::Standalone(&rpc, server.address());
  ASSERT_TRUE(client.Create("user/1", "user").ok());
  const std::string limit = retwis::EncodeU64(10);
  replication::ReadRequest read;
  read.oid = "user/1";
  read.method = "get_timeline";
  read.argument = limit;
  read.mode = replication::ReadMode::kStrict;
  read.token = {0, 1'000'000};
  auto served = rpc.CallSync(server.address(), "lambda.read",
                             replication::EncodeReadRequest(read), 1'000'000);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  replication::EpochToken token;
  auto timeline = replication::UnwrapToken(*served, &token);
  ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
  EXPECT_TRUE(TimelineMessages(*timeline).empty());
}

TEST(ClusterdServer, NestedWriteInvalidatesCachedTimeline) {
  // A nested invocation's commit must reach every cached result that
  // read what it wrote: a read after the write returns the write, however
  // the write arrived (here as a store_post fanned out by create_post).
  Proc server = SpawnDaemon(ServerBinary(), {});
  net::RpcClient rpc;
  auto client = Client::Standalone(&rpc, server.address());
  ASSERT_TRUE(client.Create("user/reader", "user").ok());
  ASSERT_TRUE(client.Create("user/author", "user").ok());
  ASSERT_TRUE(client.Invoke("user/author", "follow", "user/reader").ok());
  const std::string limit = retwis::EncodeU64(10);
  auto before = client.Invoke("user/reader", "get_timeline", limit);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(TimelineMessages(*before).empty());
  ASSERT_TRUE(client.Invoke("user/author", "create_post", "fresh").ok());
  auto after = client.Invoke("user/reader", "get_timeline", limit);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(TimelineMessages(*after).count("fresh"), 1u);
}

TEST(ClusterdServer, TenantAdmissionShedsAndReleasesEachSlotOnce) {
  // Tenant 7 gets a burst of two requests and then one per second;
  // tenant 8 may have one request in flight. The server admits every
  // lane-served request and must release the slot when its response
  // leaves, or tenant 8's second request is shed as "at max in-flight".
  Proc server = SpawnDaemon(ServerBinary(),
                            {"--tenants=7:rate=1,burst=2;8:inflight=1"});
  net::RpcClient rpc;
  auto client = Client::Standalone(&rpc, server.address());
  ASSERT_TRUE(client.Create("user/1", "user").ok());
  const std::string payload =
      EncodeInvoke("user/1", "get_timeline", retwis::EncodeU64(10), "");
  auto invoke = [&](uint32_t tenant) {
    return rpc.CallSync(server.address(), "lambda.invoke", payload, 1'000'000,
                        {}, tenant);
  };

  int calls = 0;
  Status shed;
  while (shed.ok() && calls < 3) {  // burst + 1
    auto result = invoke(7);
    calls++;
    if (!result.ok()) shed = result.status();
  }
  EXPECT_EQ(shed.code(), StatusCode::kTenantThrottled)
      << "tenant 7 never shed in " << calls << " calls: " << shed.ToString();
  // Unattributed traffic is never shed.
  for (int i = 0; i < 5; i++) {
    auto result = invoke(0);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  for (int i = 0; i < 20; i++) {
    auto result = invoke(8);
    ASSERT_TRUE(result.ok()) << "tenant 8 call " << i << ": "
                             << result.status().ToString();
  }
}

TEST(ClusterdServer, StatsReportDbMaintenance) {
  // admin.stats carries MiniLSM's maintenance counters. Posts that fill
  // the 1 MiB memtable make the DB's maintenance thread flush it.
  Proc server = SpawnDaemon(ServerBinary(), {});
  net::RpcClient rpc;
  auto stats = [&] {
    auto reply = rpc.CallSync(server.address(), "admin.stats", "", 2'000'000);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? *reply : std::string();
  };
  const std::string before = stats();
  for (const char* key : {"db_flushes", "db_compactions", "db_compaction_bytes",
                          "db_stall_us", "db_stall_soft", "db_stall_hard"}) {
    EXPECT_NE(before.find(std::string("\n") + key + "="), std::string::npos)
        << key << " missing from:\n" << before;
  }
  auto client = Client::Standalone(&rpc, server.address());
  ASSERT_TRUE(client.Create("user/1", "user").ok());
  const std::string message(3 << 10, 'm');  // store_post takes <= 4 KiB
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        client.Invoke("user/1", "store_post", PostBlob("a", i, message)).ok());
  }
  // The flush lands on the maintenance thread, after the commit that
  // filled the memtable returned.
  uint64_t flushes = 0;
  for (int i = 0; i < 100 && flushes <= StatsField(before, "db_flushes"); i++) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    flushes = StatsField(stats(), "db_flushes");
  }
  EXPECT_GT(flushes, StatsField(before, "db_flushes"));
}

TEST(ClusterdServer, SigtermDrainsAndExitsCleanly) {
  char db_template[] = "/tmp/clusterd_drain_XXXXXX";
  ASSERT_NE(mkdtemp(db_template), nullptr);
  std::string db_path = std::string(db_template) + "/db";

  Proc server = SpawnDaemon(ServerBinary(), {"--db=" + db_path});
  {
    net::RpcClient rpc;
    auto client = Client::Standalone(&rpc, server.address());
    ASSERT_TRUE(client.Create("user/1", "user").ok());
    ASSERT_TRUE(
        client.Invoke("user/1", "store_post", PostBlob("a", 1, "durable")).ok());
  }
  ASSERT_EQ(kill(server.pid, SIGTERM), 0);
  int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status)) << "status=" << status;
  EXPECT_EQ(WEXITSTATUS(status), 0) << "graceful drain must exit 0";

  // A restart from the same path sees every acked commit.
  Proc restarted = SpawnDaemon(ServerBinary(), {"--db=" + db_path});
  net::RpcClient rpc;
  auto client = Client::Standalone(&rpc, restarted.address());
  auto timeline = client.Invoke("user/1", "get_timeline", retwis::EncodeU64(10));
  ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
  EXPECT_EQ(TimelineMessages(*timeline).count("durable"), 1u);
}

}  // namespace
}  // namespace lo::clusterd
