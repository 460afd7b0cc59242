// Staleness-aware model checking for epoch-gated follower reads.
//
// A primary ParallelNode's group-commit stream is shipped — in commit
// order, on one apply thread, with a seeded artificial lag — to two
// backup ParallelNodes (runtime/executor.h ApplyReplicated), the
// real-threaded stand-in for the replicator's ordered "repl.apply"
// stream. Seeded writer threads increment their own objects at the
// primary and read them back at random backups through the epoch gate
// (InvokeRead), holding the token a real client would: the primary's
// apply-epoch observed right after each write ack.
//
// Each staleness contract is replayed against the sequential model of
// the writer's own history:
//   strict   an admitted read returns exactly the writer's last acked
//            post-state (read-your-writes; lagging backups must bounce
//            with kEpochBehind, never serve stale state)
//   bounded  an admitted read may trail, but never below the value the
//            writer had acked by apply-epoch (token - staleness_epochs)
//   eventual every replica serves unconditionally; values never exceed
//            the acked history, and all replicas converge once the
//            stream drains
// Any violation fails with the seed printed for deterministic replay.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "runtime/executor.h"
#include "slow_wal_sync_env.h"

namespace lo::runtime {
namespace {

constexpr size_t kWriters = 4;
constexpr size_t kOpsPerWriter = 150;
constexpr uint64_t kSeeds[] = {101, 202, 303, 404, 505};

std::string Oid(size_t i) { return "obj/" + std::to_string(i); }

// A monotone counter: "add" returns the post-state, "read" is the
// deterministic read-only method the result cache and the epoch gate
// serve.
void RegisterCounterType(TypeRegistry* types) {
  ObjectType type;
  type.name = "counter";
  type.methods["add"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .native = [](InvocationContext& ctx,
                   std::string arg) -> sim::Task<Result<std::string>> {
        uint64_t delta = arg.empty() ? 1 : std::stoull(arg);
        auto current = co_await ctx.Get("value");
        uint64_t value = current.ok() ? std::stoull(*current) : 0;
        value += delta;
        LO_CO_RETURN_IF_ERROR(co_await ctx.Set("value", std::to_string(value)));
        co_return std::to_string(value);
      }};
  type.methods["read"] = MethodImpl{
      .kind = MethodKind::kReadOnly,
      .deterministic = true,
      .native = [](InvocationContext& ctx,
                   std::string) -> sim::Task<Result<std::string>> {
        auto value = co_await ctx.Get("value");
        co_return value.ok() ? *value : std::string("0");
      }};
  LO_CHECK(types->Register(std::move(type)).ok());
}

// One replica: its own MemEnv-backed DB plus a ParallelNode over it.
// `wal_sync_us` > 0 makes every WAL sync take that long, as a device's
// would.
struct Replica {
  explicit Replica(const TypeRegistry* types, ParallelNodeOptions options = {},
                   int64_t wal_sync_us = 0)
      : env(wal_sync_us) {
    storage::Options db_options;
    db_options.env = &env;
    db_options.serialize_access = true;
    db = std::move(*storage::DB::Open(db_options, "/db"));
    node = std::make_unique<ParallelNode>(db.get(), types, options);
  }
  storage::SlowWalSyncEnv env;
  std::unique_ptr<storage::DB> db;
  std::unique_ptr<ParallelNode> node;
};

// Ships the primary's commit stream to every backup in order, on one
// apply thread. A seeded per-batch delay leaves the backups lagging the
// primary, so strict tokens actually have something to bounce off.
class Shipper {
 public:
  Shipper(std::vector<ParallelNode*> backups, uint64_t seed,
          int64_t max_delay_us)
      : backups_(std::move(backups)),
        rng_(seed),
        max_delay_us_(max_delay_us),
        thread_([this] { Loop(); }) {}

  ~Shipper() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  // Called from the primary committer's on_commit hook, so batches
  // arrive here already in commit order.
  void Push(uint64_t seq, const storage::WriteBatch& batch) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back(seq, batch);
    }
    cv_.notify_all();
  }

  // Blocks until every batch up to `seq` has been applied on all backups.
  void WaitUntilShipped(uint64_t seq) {
    std::unique_lock<std::mutex> lock(mu_);
    shipped_cv_.wait(lock, [&] { return shipped_ >= seq; });
  }

 private:
  void Loop() {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and fully drained
      auto [seq, batch] = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      if (max_delay_us_ > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            rng_.Uniform(static_cast<uint64_t>(max_delay_us_))));
      }
      for (ParallelNode* backup : backups_) {
        LO_CHECK(backup->ApplyReplicated(batch, seq).ok());
      }
      lock.lock();
      shipped_ = seq;
      shipped_cv_.notify_all();
    }
  }

  std::vector<ParallelNode*> backups_;
  Rng rng_;
  int64_t max_delay_us_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable shipped_cv_;
  std::deque<std::pair<uint64_t, storage::WriteBatch>> queue_;
  uint64_t shipped_ = 0;
  bool stop_ = false;
  std::thread thread_;  // last: started after the fields it reads
};

// Primary + 2 backups + shipper, with the writers' objects pre-created
// and fully replicated before any thread starts.
struct ReplicaSet {
  ReplicaSet(uint64_t seed, int64_t ship_delay_us) {
    RegisterCounterType(&types);
    backups.push_back(std::make_unique<Replica>(&types));
    backups.push_back(std::make_unique<Replica>(&types));
    shipper = std::make_unique<Shipper>(
        std::vector<ParallelNode*>{backups[0]->node.get(),
                                   backups[1]->node.get()},
        seed * 31, ship_delay_us);
    ParallelNodeOptions options;
    options.lanes = 4;
    options.group_commit.on_commit = [s = shipper.get()](
                                         uint64_t seq,
                                         const storage::WriteBatch& batch) {
      s->Push(seq, batch);
    };
    // The primary's WAL sync takes longer than the shipper's mean lag, as
    // a device's would, so the backups trail it by a few commit groups
    // rather than falling ever further behind.
    primary = std::make_unique<Replica>(&types, options, /*wal_sync_us=*/500);
    for (size_t i = 0; i < kWriters; i++) {
      LO_CHECK(primary->node->CreateObject(Oid(i), "counter").get().ok());
    }
    shipper->WaitUntilShipped(primary->node->apply_epoch());
  }

  ParallelNode& backup(size_t i) { return *backups[i]->node; }

  TypeRegistry types;
  std::vector<std::unique_ptr<Replica>> backups;
  std::unique_ptr<Shipper> shipper;  // before primary: outlives its hook
  std::unique_ptr<Replica> primary;
};

struct WriterLog {
  std::vector<std::string> errors;  // gtest is not thread-safe; collect
  uint64_t writes = 0;
  uint64_t follower_served = 0;
  uint64_t bounces = 0;
};

uint64_t ParseValue(const std::string& s) { return std::stoull(s); }

// After the run: the shipped stream drained, every replica must agree
// with the sequential model (each writer's final acked value).
void VerifyConvergence(ReplicaSet& set, const std::vector<uint64_t>& finals) {
  uint64_t final_epoch = set.primary->node->apply_epoch();
  set.shipper->WaitUntilShipped(final_epoch);
  for (size_t t = 0; t < kWriters; t++) {
    auto at_primary = set.primary->node->InvokeRead(Oid(t), "read", "", 0).get();
    ASSERT_TRUE(at_primary.ok()) << at_primary.status().ToString();
    EXPECT_EQ(ParseValue(*at_primary), finals[t]) << Oid(t);
    for (size_t b = 0; b < 2; b++) {
      // Gating on the primary's final epoch proves the backup caught up.
      auto at_backup =
          set.backup(b).InvokeRead(Oid(t), "read", "", final_epoch).get();
      ASSERT_TRUE(at_backup.ok())
          << "backup " << b << ": " << at_backup.status().ToString();
      EXPECT_EQ(ParseValue(*at_backup), finals[t])
          << Oid(t) << " diverged on backup " << b;
    }
  }
}

TEST(FollowerReadModel, StrictReadYourWritesHolds) {
  uint64_t served_all_seeds = 0;
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("replay with seed=" + std::to_string(seed));
    ReplicaSet set(seed, /*ship_delay_us=*/300);
    std::vector<WriterLog> logs(kWriters);
    std::vector<uint64_t> finals(kWriters, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kWriters; t++) {
      threads.emplace_back([&set, &log = logs[t], &final = finals[t], seed, t] {
        Rng rng(seed * 7919 + t);
        const std::string oid = Oid(t);
        uint64_t acked = 0;   // last post-state this writer saw acked
        uint64_t token = 0;   // primary apply-epoch at that ack
        for (size_t i = 0; i < kOpsPerWriter; i++) {
          if (rng.Uniform(100) < 60) {
            auto r = set.primary->node->Invoke(oid, "add", "1").get();
            if (!r.ok()) {
              log.errors.push_back("add: " + r.status().ToString());
              continue;
            }
            if (ParseValue(*r) != acked + 1) {
              log.errors.push_back("lost update: acked " + *r + " after " +
                                   std::to_string(acked));
            }
            acked = ParseValue(*r);
            token = set.primary->node->apply_epoch();
            log.writes++;
          } else {
            auto r = set.backup(rng.Uniform(2))
                         .InvokeRead(oid, "read", "", token)
                         .get();
            if (!r.ok() && r.status().code() == StatusCode::kEpochBehind) {
              // The backup lags the token — the only legal refusal; the
              // client falls back to the primary, which always covers
              // its own commit stream.
              log.bounces++;
              r = set.primary->node->InvokeRead(oid, "read", "", token).get();
            } else if (r.ok()) {
              log.follower_served++;
            }
            if (!r.ok()) {
              log.errors.push_back("read: " + r.status().ToString());
              continue;
            }
            if (ParseValue(*r) != acked) {
              log.errors.push_back("RYW violated: read " + *r +
                                   ", last acked " + std::to_string(acked));
            }
          }
        }
        final = acked;
      });
    }
    for (auto& thread : threads) thread.join();
    uint64_t served = 0, bounced = 0;
    for (size_t t = 0; t < kWriters; t++) {
      for (const auto& error : logs[t].errors) {
        ADD_FAILURE() << "writer " << t << ": " << error;
      }
      served += logs[t].follower_served;
      bounced += logs[t].bounces;
    }
    // How much the gate admits per seed is schedule-dependent (a slow
    // shipper can legally bounce every read of one run — bounces are the
    // legal refusal), so liveness is asserted across the whole seed set.
    (void)bounced;
    served_all_seeds += served;
    VerifyConvergence(set, finals);
  }
  // The gate must have admitted real follower traffic somewhere in the
  // matrix, otherwise the strict contract was never exercised.
  EXPECT_GT(served_all_seeds, 0u) << "no strict read was ever follower-served";
}

TEST(FollowerReadModel, BoundedStalenessNeverExceedsSlack) {
  constexpr uint64_t kSlack = 4;  // staleness_epochs
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("replay with seed=" + std::to_string(seed));
    ReplicaSet set(seed, /*ship_delay_us=*/300);
    std::vector<WriterLog> logs(kWriters);
    std::vector<uint64_t> finals(kWriters, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kWriters; t++) {
      threads.emplace_back([&set, &log = logs[t], &final = finals[t], seed, t] {
        Rng rng(seed * 104729 + t);
        const std::string oid = Oid(t);
        // (token, value) per ack, tokens nondecreasing: the sequential
        // model a bounded read is replayed against.
        std::vector<std::pair<uint64_t, uint64_t>> history;
        uint64_t acked = 0;
        for (size_t i = 0; i < kOpsPerWriter; i++) {
          if (rng.Uniform(100) < 60) {
            auto r = set.primary->node->Invoke(oid, "add", "1").get();
            if (!r.ok()) {
              log.errors.push_back("add: " + r.status().ToString());
              continue;
            }
            acked = ParseValue(*r);
            history.emplace_back(set.primary->node->apply_epoch(), acked);
            log.writes++;
          } else {
            uint64_t token = history.empty() ? 0 : history.back().first;
            uint64_t min_epoch = token > kSlack ? token - kSlack : 0;
            auto r = set.backup(rng.Uniform(2))
                         .InvokeRead(oid, "read", "", min_epoch)
                         .get();
            if (!r.ok() && r.status().code() == StatusCode::kEpochBehind) {
              log.bounces++;
              r = set.primary->node
                      ->InvokeRead(oid, "read", "", min_epoch)
                      .get();
            } else if (r.ok()) {
              log.follower_served++;
            }
            if (!r.ok()) {
              log.errors.push_back("read: " + r.status().ToString());
              continue;
            }
            uint64_t seen = ParseValue(*r);
            // Floor: everything this writer had acked by apply-epoch
            // `min_epoch` must be visible; ceiling: no value from the
            // future of its own history.
            uint64_t floor = 0;
            for (const auto& [tok, value] : history) {
              if (tok <= min_epoch) floor = value;
            }
            if (seen < floor || seen > acked) {
              log.errors.push_back(
                  "bounded staleness violated: read " + *r + ", floor " +
                  std::to_string(floor) + ", acked " + std::to_string(acked));
            }
          }
        }
        final = acked;
      });
    }
    for (auto& thread : threads) thread.join();
    uint64_t served = 0;
    for (size_t t = 0; t < kWriters; t++) {
      for (const auto& error : logs[t].errors) {
        ADD_FAILURE() << "writer " << t << ": " << error;
      }
      served += logs[t].follower_served;
    }
    EXPECT_GT(served, 0u) << "no bounded read was ever follower-served";
    VerifyConvergence(set, finals);
  }
}

TEST(FollowerReadModel, EventualServesUnconditionallyAndConverges) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("replay with seed=" + std::to_string(seed));
    ReplicaSet set(seed, /*ship_delay_us=*/300);
    std::vector<WriterLog> logs(kWriters);
    std::vector<uint64_t> finals(kWriters, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kWriters; t++) {
      threads.emplace_back([&set, &log = logs[t], &final = finals[t], seed, t] {
        Rng rng(seed * 1299709 + t);
        const std::string oid = Oid(t);
        uint64_t acked = 0;
        for (size_t i = 0; i < kOpsPerWriter; i++) {
          if (rng.Uniform(100) < 60) {
            auto r = set.primary->node->Invoke(oid, "add", "1").get();
            if (!r.ok()) {
              log.errors.push_back("add: " + r.status().ToString());
              continue;
            }
            acked = ParseValue(*r);
            log.writes++;
          } else {
            // min_epoch 0 = eventual: the backup must serve, never bounce.
            auto r = set.backup(rng.Uniform(2))
                         .InvokeRead(oid, "read", "", 0)
                         .get();
            if (!r.ok()) {
              log.errors.push_back("eventual read refused: " +
                                   r.status().ToString());
              continue;
            }
            log.follower_served++;
            // Stale is fine; time travel into the writer's own future is
            // not (no one else writes this object).
            if (ParseValue(*r) > acked) {
              log.errors.push_back("read from the future: " + *r +
                                   " > acked " + std::to_string(acked));
            }
          }
        }
        final = acked;
      });
    }
    for (auto& thread : threads) thread.join();
    uint64_t served = 0;
    for (size_t t = 0; t < kWriters; t++) {
      for (const auto& error : logs[t].errors) {
        ADD_FAILURE() << "writer " << t << ": " << error;
      }
      served += logs[t].follower_served;
    }
    EXPECT_GT(served, 0u);
    VerifyConvergence(set, finals);
  }
}

// Deterministic single-threaded walk of the gate + invalidation
// ordering: a backup bounces tokens it has not applied, serves exactly
// the shipped prefix otherwise, hits its result cache on repeats, and
// drops cached entries when a shipped batch overwrites their read set
// (counted as remote invalidations) *before* the epoch admits the next
// gated read.
TEST(FollowerReadModel, EpochGateAndCacheInvalidationOrdering) {
  TypeRegistry types;
  RegisterCounterType(&types);
  Replica backup(&types);

  std::mutex mu;
  std::vector<std::pair<uint64_t, storage::WriteBatch>> pending;
  ParallelNodeOptions options;
  options.lanes = 2;
  options.group_commit.on_commit = [&](uint64_t seq,
                                       const storage::WriteBatch& batch) {
    std::lock_guard<std::mutex> lock(mu);
    pending.emplace_back(seq, batch);
  };
  Replica primary(&types, options);
  auto ship = [&] {
    std::vector<std::pair<uint64_t, storage::WriteBatch>> batches;
    {
      std::lock_guard<std::mutex> lock(mu);
      batches.swap(pending);
    }
    for (auto& [seq, batch] : batches) {
      ASSERT_TRUE(backup.node->ApplyReplicated(std::move(batch), seq).ok());
    }
  };

  const std::string oid = Oid(0);
  ASSERT_TRUE(primary.node->CreateObject(oid, "counter").get().ok());
  ship();

  ASSERT_EQ(*primary.node->Invoke(oid, "add", "1").get(), "1");
  uint64_t token1 = primary.node->apply_epoch();
  ASSERT_GT(token1, 0u);

  // Not shipped yet: the token bounces, an ungated read serves stale.
  auto gated = backup.node->InvokeRead(oid, "read", "", token1).get();
  ASSERT_FALSE(gated.ok());
  EXPECT_EQ(gated.status().code(), StatusCode::kEpochBehind);
  EXPECT_EQ(*backup.node->InvokeRead(oid, "read", "", 0).get(), "0");

  ship();
  EXPECT_EQ(backup.node->apply_epoch(), token1);
  EXPECT_EQ(*backup.node->InvokeRead(oid, "read", "", token1).get(), "1");

  // Repeat is a backup-local cache hit.
  size_t lane = backup.node->LaneFor(oid);
  auto before = backup.node->lane_runtime(lane).cache_stats();
  EXPECT_EQ(*backup.node->InvokeRead(oid, "read", "", token1).get(), "1");
  auto after = backup.node->lane_runtime(lane).cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);

  // The next write bounces its own token until shipped; the *old* token
  // may still be served (legal: it only promises state >= token1).
  ASSERT_EQ(*primary.node->Invoke(oid, "add", "1").get(), "2");
  uint64_t token2 = primary.node->apply_epoch();
  ASSERT_GT(token2, token1);
  gated = backup.node->InvokeRead(oid, "read", "", token2).get();
  ASSERT_FALSE(gated.ok());
  EXPECT_EQ(gated.status().code(), StatusCode::kEpochBehind);
  EXPECT_EQ(*backup.node->InvokeRead(oid, "read", "", token1).get(), "1");

  // Shipping the overwrite must invalidate the cached "1" before the
  // epoch admits the gated read — never a stale cache hit at token2.
  ship();
  EXPECT_EQ(*backup.node->InvokeRead(oid, "read", "", token2).get(), "2");
  auto stats = backup.node->lane_runtime(lane).cache_stats();
  EXPECT_GE(stats.remote_invalidations, 1u)
      << "shipped write-set never invalidated the backup cache";

  // The gated path refuses mutating methods outright.
  auto mutate = backup.node->InvokeRead(oid, "add", "1", 0).get();
  ASSERT_FALSE(mutate.ok());
  EXPECT_EQ(mutate.status().code(), StatusCode::kNotPrimary);
  EXPECT_EQ(*backup.node->InvokeRead(oid, "read", "", token2).get(), "2");
}

}  // namespace
}  // namespace lo::runtime
