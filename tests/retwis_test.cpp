// ReTwis application tests: post/timeline codecs, the Zipf social graph
// generator, direct DB seeding, the closed-loop driver, and a
// differential test that the native and LambdaVM implementations of the
// user type produce byte-identical storage state and results.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "retwis/driver.h"
#include "vm/assembler.h"
#include "vm/disassembler.h"
#include "retwis/retwis.h"
#include "retwis/workload.h"
#include "runtime/runtime.h"
#include "storage/env.h"

namespace lo::retwis {
namespace {

using sim::Detach;
using sim::Task;

TEST(UserModule, DisassemblerRoundTripsTheRealApp) {
  // The application module exercises every addressing mode the
  // disassembler has to handle.
  auto module = vm::Assemble(UserAsmSource());
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  auto again = vm::Assemble(vm::Disassemble(*module));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->Serialize(), module->Serialize());
}

TEST(PostCodec, RoundTrip) {
  Post post{.author = "ada", .time_ms = 123456, .message = "hello world"};
  auto decoded = Post::Decode(post.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->author, "ada");
  EXPECT_EQ(decoded->time_ms, 123456u);
  EXPECT_EQ(decoded->message, "hello world");
}

TEST(PostCodec, EmptyAuthorAndMessage) {
  Post post;
  auto decoded = Post::Decode(post.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->author, "");
  EXPECT_EQ(decoded->message, "");
}

TEST(PostCodec, RejectsTruncated) {
  EXPECT_FALSE(Post::Decode("").ok());
  std::string blob(1, '\x20');  // claims 32-char author, provides none
  EXPECT_FALSE(Post::Decode(blob).ok());
}

TEST(TimelineCodec, RoundTripMultiple) {
  std::string payload;
  for (int i = 0; i < 5; i++) {
    Post post{.author = "u", .time_ms = static_cast<uint64_t>(i),
              .message = "m" + std::to_string(i)};
    std::string blob = post.Encode();
    payload.push_back(static_cast<char>(blob.size() & 0xff));
    payload.push_back(static_cast<char>((blob.size() >> 8) & 0xff));
    payload += blob;
  }
  auto posts = DecodeTimeline(payload);
  ASSERT_TRUE(posts.ok());
  ASSERT_EQ(posts->size(), 5u);
  EXPECT_EQ((*posts)[4].message, "m4");
}

TEST(TimelineCodec, RejectsTornPayload) {
  std::string payload("\x08\x00", 2);  // length prefix claims 8 bytes...
  payload += "abc";                     // ...but only 3 follow
  EXPECT_FALSE(DecodeTimeline(payload).ok());
}

TEST(WorkloadGen, GraphIsZipfSkewed) {
  WorkloadConfig config;
  config.num_users = 2000;
  config.avg_follows_per_user = 10;
  config.zipf_alpha = 1.0;
  Workload workload(config);
  EXPECT_NEAR(workload.MeanFollowerCount(), 10.0, 1.5);
  // Rank-0 user dominates (they are the most-followed account).
  EXPECT_GT(workload.FollowerCount(0), workload.MeanFollowerCount() * 20);
  EXPECT_EQ(workload.MaxFollowerCount(), workload.FollowerCount(0));
}

TEST(WorkloadGen, CommunityIsClosed) {
  WorkloadConfig config;
  config.num_users = 1000;
  config.community_size = 100;
  Workload workload(config);
  // Community members' followers all come from within the community;
  // verify through the seeded DB.
  storage::MemEnv env;
  storage::Options options;
  options.env = &env;
  auto db = std::move(*storage::DB::Open(options, "/w"));
  ASSERT_TRUE(workload.SeedDb(db.get()).ok());
  for (uint64_t user : {0ull, 13ull, 99ull}) {
    std::string oid = workload.UserId(user);
    uint64_t n = workload.FollowerCount(user);
    for (uint64_t j = 0; j < n; j++) {
      auto follower = db->Get({}, runtime::FieldKey(oid, FollowerEntryKey(j)));
      ASSERT_TRUE(follower.ok());
      uint64_t id = std::stoull(follower->substr(5));  // strip "user/"
      EXPECT_LT(id, config.community_size);
    }
  }
}

TEST(WorkloadGen, SeedDbLayoutMatchesRuntimeExpectations) {
  WorkloadConfig config;
  config.num_users = 50;
  config.initial_posts_per_user = 3;
  Workload workload(config);
  storage::MemEnv env;
  storage::Options options;
  options.env = &env;
  auto db = std::move(*storage::DB::Open(options, "/w"));
  ASSERT_TRUE(workload.SeedDb(db.get()).ok());

  std::string oid = workload.UserId(7);
  EXPECT_EQ(*db->Get({}, runtime::ObjectExistsKey(oid)), "user");
  EXPECT_EQ(*db->Get({}, runtime::FieldKey(oid, kNameKey)), "account-7");
  auto count = db->Get({}, runtime::FieldKey(oid, kTimelineCountKey));
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->size(), 8u);
  auto entry = db->Get({}, runtime::FieldKey(oid, TimelineEntryKey(2)));
  ASSERT_TRUE(entry.ok());
  auto post = Post::Decode(*entry);
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->author, "account-7");
}

TEST(WorkloadGen, RequestsAreWellFormed) {
  Workload workload(WorkloadConfig{.num_users = 100});
  Rng rng(3);
  for (int i = 0; i < 100; i++) {
    auto post = workload.Next(OpType::kPost, rng);
    EXPECT_EQ(post.method, "create_post");
    EXPECT_GE(post.argument.size(), workload.config().message_length);
    auto timeline = workload.Next(OpType::kGetTimeline, rng);
    EXPECT_EQ(timeline.method, "get_timeline");
    EXPECT_EQ(timeline.argument.size(), 8u);
    auto follow = workload.Next(OpType::kFollow, rng);
    EXPECT_EQ(follow.method, "follow");
    EXPECT_EQ(follow.argument.substr(0, 5), "user/");
  }
}

TEST(WorkloadGen, ZipfReadsSkewOnlyTimelineTargets) {
  WorkloadConfig config;
  config.num_users = 1000;
  config.zipf_reads = true;
  config.zipf_alpha = 1.2;
  Workload workload(config);
  Rng rng(5);
  std::map<std::string, int> read_counts;
  for (int i = 0; i < 5000; i++) {
    read_counts[workload.Next(OpType::kGetTimeline, rng).oid]++;
  }
  // Hot skew: the most popular read target dominates.
  int max_count = 0;
  for (const auto& [oid, count] : read_counts) max_count = std::max(max_count, count);
  EXPECT_GT(max_count, 300);  // >6% of reads on one of 1000 users

  std::map<std::string, int> write_counts;
  for (int i = 0; i < 5000; i++) {
    write_counts[workload.Next(OpType::kPost, rng).oid]++;
  }
  int max_write = 0;
  for (const auto& [oid, count] : write_counts) max_write = std::max(max_write, count);
  EXPECT_LT(max_write, 30);  // uniform writes stay flat
}

// Differential test: native and VM user types must behave identically —
// same method results, byte-identical storage state.
class EquivalenceTest : public ::testing::Test {
 public:
  struct System {
    System(bool use_vm) {
      storage::Options options;
      options.env = &env;
      db = std::move(*storage::DB::Open(options, "/eq"));
      EXPECT_TRUE(RegisterUserType(&types, use_vm).ok());
      runtime = std::make_unique<runtime::Runtime>(
          [this] { return sim.Now(); }, db.get(), &types);
    }

    Result<std::string> Invoke(const std::string& oid, const std::string& method,
                               const std::string& arg) {
      Result<std::string> out = Status::Unavailable("not run");
      bool done = false;
      Detach([](runtime::Runtime* rt, std::string oid, std::string method,
                std::string arg, Result<std::string>* out,
                bool* done) -> Task<void> {
        *out = co_await rt->Invoke(std::move(oid), std::move(method),
                                   std::move(arg));
        *done = true;
      }(runtime.get(), oid, method, arg, &out, &done));
      sim.Run();
      EXPECT_TRUE(done);
      return out;
    }

    void Create(const std::string& oid) {
      bool done = false;
      Detach([](runtime::Runtime* rt, std::string oid, bool* done) -> Task<void> {
        auto r = co_await rt->CreateObject(std::move(oid), "user");
        EXPECT_TRUE(r.ok());
        *done = true;
      }(runtime.get(), oid, &done));
      sim.Run();
    }

    std::map<std::string, std::string> DumpState() {
      std::map<std::string, std::string> state;
      auto iter = db->NewIterator({});
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        state[std::string(iter->key())] = std::string(iter->value());
      }
      return state;
    }

    sim::Simulator sim{99};  // same seed -> same virtual timestamps
    storage::MemEnv env;
    std::unique_ptr<storage::DB> db;
    runtime::TypeRegistry types;
    std::unique_ptr<runtime::Runtime> runtime;
  };
};

TEST_F(EquivalenceTest, NativeAndVmProduceIdenticalStateAndResults) {
  System native(false), vm(true);
  auto both = [&](const std::string& oid, const std::string& method,
                  const std::string& arg) {
    auto a = native.Invoke(oid, method, arg);
    auto b = vm.Invoke(oid, method, arg);
    ASSERT_EQ(a.ok(), b.ok()) << method << ": " << a.status().ToString() << " vs "
                              << b.status().ToString();
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << method;
    }
  };
  for (auto* system : {&native, &vm}) {
    system->Create("user/x");
    system->Create("user/y");
    system->Create("user/z");
  }
  both("user/x", "init", "xavier");
  both("user/y", "init", "yvonne");
  both("user/z", "init", "zed");
  both("user/x", "follow", "user/y");
  both("user/x", "follow", "user/z");
  both("user/x", "create_post", "first post");
  both("user/x", "create_post", "second post");
  both("user/y", "get_timeline", EncodeU64(10));
  both("user/z", "get_timeline", EncodeU64(1));
  both("user/y", "store_post", Post{.author = "raw", .time_ms = 5,
                                    .message = "direct"}.Encode());
  both("user/y", "get_timeline", EncodeU64(10));

  EXPECT_EQ(native.DumpState(), vm.DumpState())
      << "native and bytecode implementations diverged in storage layout";
}

TEST(Driver, ClosedLoopCountsAndLatencies) {
  // A stub invoker with a fixed 1ms latency: with 4 clients over 100ms
  // of measure window, throughput must be ~4000/s and p50 ~1ms.
  sim::Simulator sim(1);
  Workload workload(WorkloadConfig{.num_users = 10});
  std::vector<Invoker> invokers;
  for (int i = 0; i < 4; i++) {
    invokers.push_back([&sim](const Request&) -> Task<Result<std::string>> {
      co_await sim.Sleep(sim::Millis(1));
      co_return std::string("ok");
    });
  }
  DriverConfig config;
  config.warmup = sim::Millis(10);
  config.measure = sim::Millis(100);
  auto result = RunClosedLoop(sim, workload, OpType::kFollow,
                              std::move(invokers), config);
  EXPECT_NEAR(result.Throughput(), 4000, 200);
  EXPECT_NEAR(static_cast<double>(result.latency_us.Percentile(0.5)), 1000, 100);
  EXPECT_EQ(result.errors, 0u);
}

TEST(Driver, ErrorsAreCountedNotRecorded) {
  sim::Simulator sim(1);
  Workload workload(WorkloadConfig{.num_users = 10});
  std::vector<Invoker> invokers;
  invokers.push_back([&sim](const Request&) -> Task<Result<std::string>> {
    co_await sim.Sleep(sim::Millis(1));
    co_return Status::Unavailable("down");
  });
  DriverConfig config;
  config.warmup = 0;
  config.measure = sim::Millis(20);
  auto result = RunClosedLoop(sim, workload, OpType::kFollow,
                              std::move(invokers), config);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_GT(result.errors, 0u);
  EXPECT_EQ(result.latency_us.count(), 0u);
}

TEST(Driver, MixedWorkloadUsesAllOps) {
  sim::Simulator sim(2);
  Workload workload(WorkloadConfig{.num_users = 10});
  std::map<std::string, int> methods;
  std::vector<Invoker> invokers;
  invokers.push_back(
      [&sim, &methods](const Request& request) -> Task<Result<std::string>> {
        methods[request.method]++;
        co_await sim.Sleep(sim::Micros(100));
        co_return std::string("ok");
      });
  DriverConfig config;
  config.warmup = 0;
  config.measure = sim::Millis(50);
  config.mix = {{OpType::kPost, 0.3},
                {OpType::kGetTimeline, 0.5},
                {OpType::kFollow, 0.2}};
  (void)RunClosedLoop(sim, workload, std::move(invokers), config);
  EXPECT_GT(methods["create_post"], 0);
  EXPECT_GT(methods["get_timeline"], 0);
  EXPECT_GT(methods["follow"], 0);
  EXPECT_GT(methods["get_timeline"], methods["follow"]);
}

}  // namespace
}  // namespace lo::retwis
