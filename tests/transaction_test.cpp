// Tests for the cross-object transaction extension (paper §7 future
// work): atomicity across objects, OCC validation/abort, lock-ordered
// commit (no deadlocks), interaction with the result cache.
#include <gtest/gtest.h>

#include <memory>

#include "runtime/runtime.h"
#include "runtime/transaction.h"
#include "sim/simulator.h"
#include "storage/env.h"

namespace lo::runtime {
namespace {

using sim::Detach;
using sim::Task;

class TransactionTest : public ::testing::Test {
 public:
  TransactionTest() {
    storage::Options options;
    options.env = &env_;
    db_ = std::move(*storage::DB::Open(options, "/db"));
    ObjectType type;
    type.name = "cell";
    type.methods["get"] = MethodImpl{
        .kind = MethodKind::kReadOnly,
        .deterministic = true,
        .native = [](InvocationContext& ctx, std::string)
            -> Task<Result<std::string>> { co_return co_await ctx.Get("v"); }};
    type.methods["set"] = MethodImpl{
        .kind = MethodKind::kReadWrite,
        .native = [](InvocationContext& ctx, std::string arg)
            -> Task<Result<std::string>> {
          LO_CO_RETURN_IF_ERROR(co_await ctx.Set("v", arg));
          co_return arg;
        }};
    EXPECT_TRUE(types_.Register(std::move(type)).ok());
    runtime_ = std::make_unique<Runtime>([this] { return sim_.Now(); },
                                         db_.get(), &types_);
    // Async commits so concurrent transactions interleave.
    runtime_->SetCommitSink([this](const ObjectId&, storage::WriteBatch batch,
                                   obs::TraceContext) -> Task<Status> {
      co_await sim_.Sleep(sim::Micros(80));
      co_return db_->Write({.sync = true}, &batch);
    });
    for (const char* oid : {"cell/a", "cell/b", "cell/c"}) {
      bool done = false;
      Detach([](Runtime* rt, std::string oid, bool* done) -> Task<void> {
        (void)co_await rt->CreateObject(std::move(oid), "cell");
        *done = true;
      }(runtime_.get(), oid, &done));
      sim_.Run();
      EXPECT_TRUE(done);
    }
  }

  template <typename Fn>
  void RunSim(Fn&& body) {
    bool done = false;
    Detach([](Fn body, bool* done) -> Task<void> {
      co_await body();
      *done = true;
    }(std::forward<Fn>(body), &done));
    sim_.Run();
    ASSERT_TRUE(done);
  }

  std::string Read(const std::string& oid) {
    auto value = runtime_->StorageRead(FieldKey(oid, "v"), nullptr);
    return value.ok() ? *value : "(" + value.status().ToString() + ")";
  }

  sim::Simulator sim_{51};
  storage::MemEnv env_;
  std::unique_ptr<storage::DB> db_;
  TypeRegistry types_;
  std::unique_ptr<Runtime> runtime_;
};

TEST_F(TransactionTest, AtomicMultiObjectCommit) {
  RunSim([&]() -> Task<void> {
    Transaction txn(runtime_.get());
    txn.Set("cell/a", "v", "1");
    txn.Set("cell/b", "v", "2");
    txn.Set("cell/c", "v", "3");
    Status s = co_await txn.Commit();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(txn.committed());
  });
  EXPECT_EQ(Read("cell/a"), "1");
  EXPECT_EQ(Read("cell/b"), "2");
  EXPECT_EQ(Read("cell/c"), "3");
}

TEST_F(TransactionTest, AbortDiscardsEverything) {
  RunSim([&]() -> Task<void> {
    Transaction txn(runtime_.get());
    txn.Set("cell/a", "v", "doomed");
    txn.Abort();
    co_return;
  });
  EXPECT_EQ(Read("cell/a"), "(NotFound)");
}

TEST_F(TransactionTest, ReadsSeeOwnWritesAndRecordReadSet) {
  RunSim([&]() -> Task<void> {
    Transaction txn(runtime_.get());
    auto before = co_await txn.Get("cell/a", "v");
    EXPECT_TRUE(before.status().IsNotFound());
    txn.Set("cell/a", "v", "mine");
    auto after = co_await txn.Get("cell/a", "v");
    EXPECT_TRUE(after.ok());
    if (after.ok()) {
      EXPECT_EQ(*after, "mine");
    }
    Status s = co_await txn.Commit();
    EXPECT_TRUE(s.ok());
  });
}

TEST_F(TransactionTest, StaleReadSetAborts) {
  RunSim([&]() -> Task<void> {
    Transaction txn(runtime_.get());
    auto observed = co_await txn.Get("cell/a", "v");  // observes "absent"
    EXPECT_TRUE(observed.status().IsNotFound());
    // A foreign write sneaks in between read and commit.
    auto foreign = co_await runtime_->Invoke("cell/a", "set", "sniped");
    EXPECT_TRUE(foreign.ok());
    txn.Set("cell/b", "v", "derived-from-a");
    Status s = co_await txn.Commit();
    EXPECT_EQ(s.code(), StatusCode::kAborted);
    EXPECT_FALSE(txn.committed());
  });
  // The aborted transaction wrote nothing.
  EXPECT_EQ(Read("cell/b"), "(NotFound)");
  EXPECT_EQ(Read("cell/a"), "sniped");
}

TEST_F(TransactionTest, ConcurrentOpposingTransfersDoNotDeadlock) {
  // txn1 writes a then b; txn2 writes b then a. Lock-ordered commit
  // guarantees progress; OCC guarantees one of them aborts if they
  // actually conflicted on reads.
  RunSim([&]() -> Task<void> {
    auto r1 = co_await runtime_->Invoke("cell/a", "set", "100");
    auto r2 = co_await runtime_->Invoke("cell/b", "set", "100");
    EXPECT_TRUE(r1.ok());
    EXPECT_TRUE(r2.ok());
  });
  int committed = 0, aborted = 0, done = 0;
  auto transfer = [](Runtime* rt, std::string from, std::string to,
                     int* committed, int* aborted, int* done) -> Task<void> {
    Transaction txn(rt);
    auto from_v = co_await txn.Get(from, "v");
    auto to_v = co_await txn.Get(to, "v");
    EXPECT_TRUE(from_v.ok());
    EXPECT_TRUE(to_v.ok());
    txn.Set(from, "v", std::to_string(std::stoi(*from_v) - 10));
    txn.Set(to, "v", std::to_string(std::stoi(*to_v) + 10));
    Status s = co_await txn.Commit();
    if (s.ok()) {
      (*committed)++;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kAborted);
      (*aborted)++;
    }
    (*done)++;
  };
  Detach(transfer(runtime_.get(), "cell/a", "cell/b", &committed, &aborted, &done));
  Detach(transfer(runtime_.get(), "cell/b", "cell/a", &committed, &aborted, &done));
  sim_.Run();
  ASSERT_EQ(done, 2);
  EXPECT_EQ(committed + aborted, 2);
  EXPECT_GE(committed, 1);  // at least one made progress
  // Money conserved regardless of which committed.
  EXPECT_EQ(std::stoi(Read("cell/a")) + std::stoi(Read("cell/b")), 200);
}

TEST_F(TransactionTest, ManyConcurrentIncrementsConserveTotal) {
  RunSim([&]() -> Task<void> {
    auto r = co_await runtime_->Invoke("cell/a", "set", "0");
    EXPECT_TRUE(r.ok());
  });
  // 20 transactional increments with retry-on-abort: the final value
  // must be exactly 20 (OCC serializes them).
  int done = 0;
  uint64_t total_aborts = 0;
  for (int i = 0; i < 20; i++) {
    Detach([](Runtime* rt, sim::Simulator* sim, int* done,
              uint64_t* total_aborts) -> Task<void> {
      for (int attempt = 0; attempt < 100; attempt++) {
        Transaction txn(rt);
        auto v = co_await txn.Get("cell/a", "v");
        if (!v.ok()) {
          txn.Abort();
          co_await sim->Sleep(sim::Micros(50));
          continue;
        }
        txn.Set("cell/a", "v", std::to_string(std::stoi(*v) + 1));
        Status s = co_await txn.Commit();
        if (s.ok()) break;
        (*total_aborts)++;
        co_await sim->Sleep(static_cast<sim::Duration>(
            sim->rng().Uniform(static_cast<uint64_t>(sim::Micros(200)))));
      }
      (*done)++;
    }(runtime_.get(), &sim_, &done, &total_aborts));
  }
  sim_.Run();
  ASSERT_EQ(done, 20);
  EXPECT_EQ(Read("cell/a"), "20");
  // Contention on one cell must have caused OCC conflicts.
  EXPECT_GT(total_aborts, 0u);
}

TEST_F(TransactionTest, CommitInvalidatesResultCache) {
  RunSim([&]() -> Task<void> {
    auto r = co_await runtime_->Invoke("cell/a", "set", "old");
    EXPECT_TRUE(r.ok());
    auto cached = co_await runtime_->Invoke("cell/a", "get", "");
    EXPECT_TRUE(cached.ok());  // populates the cache
    Transaction txn(runtime_.get());
    txn.Set("cell/a", "v", "new");
    Status s = co_await txn.Commit();
    EXPECT_TRUE(s.ok());
    auto after = co_await runtime_->Invoke("cell/a", "get", "");
    EXPECT_TRUE(after.ok());
    if (after.ok()) {
      EXPECT_EQ(*after, "new");  // not the stale cached "old"
    }
  });
}

}  // namespace
}  // namespace lo::runtime
