// Runtime tests: the LambdaObjects model itself — object lifecycle,
// field APIs, invocation linearizability (atomicity / isolation /
// real-time), nested-call commit semantics, VM-backed methods, and the
// consistent result cache.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/rng.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "storage/env.h"
#include "vm/assembler.h"

namespace lo::runtime {
namespace {

using sim::Detach;
using sim::Task;

class RuntimeTest : public ::testing::Test {
 public:
  RuntimeTest() {
    storage::Options options;
    options.env = &env_;
    db_ = std::move(*storage::DB::Open(options, "/db"));
    RegisterCounterType();
    runtime_ = std::make_unique<Runtime>([this] { return sim_.Now(); },
                                         db_.get(), &types_);
    // Model WAL-sync latency on commit; this creates the suspension
    // points that let concurrent invocations actually interleave.
    runtime_->SetCommitSink([this](const ObjectId&, storage::WriteBatch batch,
                                   obs::TraceContext) -> Task<Status> {
      co_await sim_.Sleep(sim::Micros(80));
      co_return db_->Write({.sync = true}, &batch);
    });
  }

  // A "counter" type with rw increment, ro read, and a failing method.
  void RegisterCounterType() {
    ObjectType type;
    type.name = "counter";
    type.fields = {{"value", FieldKind::kValue}, {"log", FieldKind::kList}};
    type.methods["incr"] = MethodImpl{
        .kind = MethodKind::kReadWrite,
        .native = [](InvocationContext& ctx, std::string arg)
            -> Task<Result<std::string>> {
          uint64_t delta = arg.empty() ? 1 : std::stoull(arg);
          auto current = co_await ctx.Get("value");
          uint64_t value = 0;
          if (current.ok()) value = std::stoull(*current);
          value += delta;
          LO_CO_RETURN_IF_ERROR(co_await ctx.Set("value", std::to_string(value)));
          LO_CO_RETURN_IF_ERROR(co_await ctx.ListPush("log", arg));
          co_return std::to_string(value);
        }};
    type.methods["read"] = MethodImpl{
        .kind = MethodKind::kReadOnly,
        .deterministic = true,
        .native = [](InvocationContext& ctx, std::string)
            -> Task<Result<std::string>> {
          auto value = co_await ctx.Get("value");
          co_return value.ok() ? *value : std::string("0");
        }};
    type.methods["fail_after_write"] = MethodImpl{
        .kind = MethodKind::kReadWrite,
        .native = [](InvocationContext& ctx, std::string)
            -> Task<Result<std::string>> {
          LO_CO_RETURN_IF_ERROR(co_await ctx.Set("value", "999"));
          co_return Status::Aborted("intentional failure");
        }};
    type.methods["write_from_ro"] = MethodImpl{
        .kind = MethodKind::kReadOnly,
        .native = [](InvocationContext& ctx, std::string)
            -> Task<Result<std::string>> {
          Status s = co_await ctx.Set("value", "1");
          co_return s;  // expected to fail
        }};
    ASSERT_TRUE(types_.Register(std::move(type)).ok());
  }

  // Runs a coroutine to completion inside the simulator.
  template <typename Fn>
  void RunSim(Fn&& body) {
    bool finished = false;
    Detach([](Fn body, bool* finished) -> Task<void> {
      co_await body();
      *finished = true;
    }(std::forward<Fn>(body), &finished));
    sim_.Run();
    ASSERT_TRUE(finished) << "simulation deadlocked";
  }

  Result<std::string> Invoke(const ObjectId& oid, const std::string& method,
                             const std::string& arg = "") {
    Result<std::string> out = Status::Unavailable("not run");
    RunSim([&]() -> Task<void> {
      out = co_await runtime_->Invoke(oid, method, arg);
    });
    return out;
  }

  void Create(const ObjectId& oid, const std::string& type = "counter") {
    RunSim([&]() -> Task<void> {
      auto r = co_await runtime_->CreateObject(oid, type);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    });
  }

  sim::Simulator sim_{17};
  storage::MemEnv env_;
  std::unique_ptr<storage::DB> db_;
  TypeRegistry types_;
  std::unique_ptr<Runtime> runtime_;
};

TEST_F(RuntimeTest, TypeRegistryRejectsBadTypes) {
  ObjectType no_impl;
  no_impl.name = "broken";
  no_impl.methods["m"] = MethodImpl{};
  EXPECT_FALSE(types_.Register(std::move(no_impl)).ok());

  ObjectType deterministic_rw;
  deterministic_rw.name = "broken2";
  deterministic_rw.methods["m"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .deterministic = true,
      .native = [](InvocationContext&, std::string) -> Task<Result<std::string>> {
        co_return std::string();
      }};
  EXPECT_FALSE(types_.Register(std::move(deterministic_rw)).ok());

  ObjectType dup;
  dup.name = "counter";  // already registered by the fixture
  EXPECT_FALSE(types_.Register(std::move(dup)).ok());
}

TEST_F(RuntimeTest, CreateInvokeLifecycle) {
  Create("counter/a");
  EXPECT_EQ(*runtime_->TypeOf("counter/a"), "counter");
  auto r = Invoke("counter/a", "incr", "5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "5");
  r = Invoke("counter/a", "read");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "5");
}

TEST_F(RuntimeTest, CreateDuplicateFails) {
  Create("counter/a");
  RunSim([&]() -> Task<void> {
    auto r = co_await runtime_->CreateObject("counter/a", "counter");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  });
}

TEST_F(RuntimeTest, CreateUnknownTypeFails) {
  RunSim([&]() -> Task<void> {
    auto r = co_await runtime_->CreateObject("x/1", "nonsense");
    EXPECT_FALSE(r.ok());
  });
}

TEST_F(RuntimeTest, InvokeOnMissingObjectFails) {
  auto r = Invoke("counter/ghost", "incr");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(RuntimeTest, InvokeUnknownMethodFails) {
  Create("counter/a");
  auto r = Invoke("counter/a", "explode");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(RuntimeTest, AtomicityFailedInvocationLeavesNoTrace) {
  Create("counter/a");
  ASSERT_TRUE(Invoke("counter/a", "incr", "7").ok());
  auto r = Invoke("counter/a", "fail_after_write");
  ASSERT_FALSE(r.ok());
  // The buffered Set("value", "999") must have been discarded.
  EXPECT_EQ(*Invoke("counter/a", "read"), "7");
  EXPECT_GE(runtime_->metrics().aborts, 1u);
}

TEST_F(RuntimeTest, ReadOnlyCannotWrite) {
  Create("counter/a");
  auto r = Invoke("counter/a", "write_from_ro");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(*Invoke("counter/a", "read"), "0");
}

TEST_F(RuntimeTest, PerObjectMutualExclusionFifo) {
  Create("counter/a");
  // 50 concurrent increments of the same object must all apply: the
  // read-modify-write races would lose updates without the object lock.
  constexpr int kConcurrent = 50;
  int done = 0;
  for (int i = 0; i < kConcurrent; i++) {
    Detach([](Runtime* rt, int* done) -> Task<void> {
      auto r = co_await rt->Invoke("counter/a", "incr", "1");
      EXPECT_TRUE(r.ok());
      if (r.ok()) (*done)++;
    }(runtime_.get(), &done));
  }
  sim_.Run();
  ASSERT_EQ(done, kConcurrent);
  EXPECT_EQ(*Invoke("counter/a", "read"), std::to_string(kConcurrent));
  EXPECT_GT(runtime_->metrics().lock_waits, 0u);
}

TEST_F(RuntimeTest, DifferentObjectsDoNotSerialize) {
  Create("counter/a");
  Create("counter/b");
  RunSim([&]() -> Task<void> {
    // Interleave without awaiting: both proceed independently.
    auto ta = runtime_->Invoke("counter/a", "incr", "1");
    auto tb = runtime_->Invoke("counter/b", "incr", "1");
    auto ra = co_await std::move(ta);
    auto rb = co_await std::move(tb);
    EXPECT_TRUE(ra.ok());
    EXPECT_TRUE(rb.ok());
  });
  EXPECT_EQ(*Invoke("counter/a", "read"), "1");
  EXPECT_EQ(*Invoke("counter/b", "read"), "1");
}

TEST_F(RuntimeTest, ListSemantics) {
  Create("counter/a");
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(Invoke("counter/a", "incr", std::to_string(i)).ok());
  }
  // Read the log list newest-first through a read-only method.
  ObjectType type;
  type.name = "logreader";
  EXPECT_FALSE(types_.Register(std::move(type)).ok() &&
               false);  // placeholder no-op; list read tested below
  RunSim([&]() -> Task<void> {
    InvocationContext ctx(runtime_.get(), "counter/a", MethodKind::kReadOnly,
                          nullptr);
    auto newest = co_await ctx.ListNewest("log", 3);
    EXPECT_TRUE(newest.ok());
    if (newest.ok() && newest->size() == 3) {
      EXPECT_EQ((*newest)[0], "4");
      EXPECT_EQ((*newest)[1], "3");
      EXPECT_EQ((*newest)[2], "2");
    } else if (newest.ok()) {
      ADD_FAILURE() << "expected 3 entries, got " << newest->size();
    }
    auto len = co_await ctx.ListLen("log");
    EXPECT_TRUE(len.ok());
    if (len.ok()) {
      EXPECT_EQ(*len, 5u);
    }
  });
}

TEST_F(RuntimeTest, MapSemantics) {
  ObjectType type;
  type.name = "kvobj";
  type.methods["set"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .native = [](InvocationContext& ctx, std::string arg)
          -> Task<Result<std::string>> {
        auto eq = arg.find('=');
        LO_CO_RETURN_IF_ERROR(co_await ctx.MapSet("m", arg.substr(0, eq),
                                                  arg.substr(eq + 1)));
        co_return std::string("ok");
      }};
  type.methods["del"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .native = [](InvocationContext& ctx, std::string arg)
          -> Task<Result<std::string>> {
        LO_CO_RETURN_IF_ERROR(co_await ctx.MapDelete("m", arg));
        co_return std::string("ok");
      }};
  type.methods["get"] = MethodImpl{
      .kind = MethodKind::kReadOnly,
      .native = [](InvocationContext& ctx, std::string arg)
          -> Task<Result<std::string>> { co_return co_await ctx.MapGet("m", arg); }};
  ASSERT_TRUE(types_.Register(std::move(type)).ok());
  Create("kv/1", "kvobj");
  ASSERT_TRUE(Invoke("kv/1", "set", "color=red").ok());
  ASSERT_TRUE(Invoke("kv/1", "set", "shape=round").ok());
  EXPECT_EQ(*Invoke("kv/1", "get", "color"), "red");
  ASSERT_TRUE(Invoke("kv/1", "del", "color").ok());
  EXPECT_TRUE(Invoke("kv/1", "get", "color").status().IsNotFound());
  EXPECT_EQ(*Invoke("kv/1", "get", "shape"), "round");
}

TEST_F(RuntimeTest, NestedInvokeCommitsCallerWritesFirst) {
  // Type whose method writes a field, then invokes another object whose
  // method *reads the first object's state* through a third call — the
  // paper's commit-before-nested-call rule makes the write visible.
  ObjectType type;
  type.name = "chainer";
  type.methods["write_then_call"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .native = [](InvocationContext& ctx, std::string peer)
          -> Task<Result<std::string>> {
        LO_CO_RETURN_IF_ERROR(co_await ctx.Set("state", "committed-early"));
        co_return co_await ctx.InvokeObject(peer, "observe", ctx.oid());
      }};
  type.methods["observe"] = MethodImpl{
      .kind = MethodKind::kReadOnly,
      .native = [](InvocationContext& ctx, std::string target)
          -> Task<Result<std::string>> {
        // Reads the *other* object's field via a nested read-only call.
        co_return co_await ctx.InvokeObject(target, "read_state", "");
      }};
  type.methods["read_state"] = MethodImpl{
      .kind = MethodKind::kReadOnly,
      .native = [](InvocationContext& ctx, std::string)
          -> Task<Result<std::string>> { co_return co_await ctx.Get("state"); }};
  ASSERT_TRUE(types_.Register(std::move(type)).ok());
  Create("c/1", "chainer");
  Create("c/2", "chainer");
  auto r = Invoke("c/1", "write_then_call", "c/2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "committed-early");
  EXPECT_GE(runtime_->metrics().nested_invocations, 2u);
}

TEST_F(RuntimeTest, SelfInvocationRunsAsSeparateInvocation) {
  // §3.1: the nested call is a *separate* invocation; the caller's lock
  // is released around it, so even self-invocation cannot deadlock.
  ObjectType type;
  type.name = "selfie";
  type.methods["outer"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .native = [](InvocationContext& ctx, std::string)
          -> Task<Result<std::string>> {
        LO_CO_RETURN_IF_ERROR(co_await ctx.Set("a", "1"));
        auto inner = co_await ctx.InvokeObject(ctx.oid(), "inner", "");
        if (!inner.ok()) co_return inner.status();
        LO_CO_RETURN_IF_ERROR(co_await ctx.Set("b", "2"));
        co_return std::string("done");
      }};
  type.methods["inner"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .native = [](InvocationContext& ctx, std::string)
          -> Task<Result<std::string>> {
        // Sees the outer call's first write: it committed before us.
        auto a = co_await ctx.Get("a");
        if (!a.ok()) co_return Status::Aborted("outer write not visible");
        LO_CO_RETURN_IF_ERROR(co_await ctx.Set("inner_saw", *a));
        co_return std::string("inner-ok");
      }};
  ASSERT_TRUE(types_.Register(std::move(type)).ok());
  Create("s/1", "selfie");
  auto r = Invoke("s/1", "outer");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "done");
}

TEST_F(RuntimeTest, CyclicCrossObjectInvocationsDoNotDeadlock) {
  // A posts to B while B posts to A, repeatedly and concurrently.
  ObjectType type;
  type.name = "pinger";
  type.methods["ping_peer"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .native = [](InvocationContext& ctx, std::string peer)
          -> Task<Result<std::string>> {
        LO_CO_RETURN_IF_ERROR(co_await ctx.Set("last_sent", peer));
        co_return co_await ctx.InvokeObject(peer, "receive", ctx.oid());
      }};
  type.methods["receive"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .native = [](InvocationContext& ctx, std::string from)
          -> Task<Result<std::string>> {
        LO_CO_RETURN_IF_ERROR(co_await ctx.Set("last_from", from));
        co_return std::string("ack");
      }};
  ASSERT_TRUE(types_.Register(std::move(type)).ok());
  Create("p/a", "pinger");
  Create("p/b", "pinger");
  int done = 0;
  for (int i = 0; i < 20; i++) {
    const char* self = (i % 2 == 0) ? "p/a" : "p/b";
    const char* peer = (i % 2 == 0) ? "p/b" : "p/a";
    Detach([](Runtime* rt, std::string self, std::string peer,
              int* done) -> Task<void> {
      auto r = co_await rt->Invoke(self, "ping_peer", peer);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      (*done)++;
    }(runtime_.get(), self, peer, &done));
  }
  sim_.Run();
  EXPECT_EQ(done, 20);
}

TEST_F(RuntimeTest, VmBackedMethodEndToEnd) {
  // Counter in λasm: increments an 8-byte value field and returns it.
  auto module = vm::Assemble(R"(
data key 0 "n"
func incr export locals rc v
  push @key
  push #key
  push 64
  push 8
  kv.get
  local.set rc
  local.get rc
  push 0xffffffffffffffff
  eq
  br_if fresh
  push 64
  load64
  local.set v
fresh:
  local.get v
  push 1
  add
  local.set v
  push 64
  local.get v
  store64
  push @key
  push #key
  push 64
  push 8
  kv.put
  push 64
  push 8
  ret
end
)");
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  ObjectType type;
  type.name = "vmcounter";
  auto shared = std::make_shared<vm::Module>(std::move(*module));
  type.methods["incr"] = MethodImpl{.kind = MethodKind::kReadWrite,
                                    .module = shared};
  ASSERT_TRUE(types_.Register(std::move(type)).ok());
  Create("vm/1", "vmcounter");
  for (uint64_t expected = 1; expected <= 3; expected++) {
    auto r = Invoke("vm/1", "incr");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->size(), 8u);
    uint64_t v = 0;
    memcpy(&v, r->data(), 8);
    EXPECT_EQ(v, expected);
  }
  EXPECT_GT(runtime_->metrics().fuel_executed, 0u);
}

TEST_F(RuntimeTest, VmTrapAbortsAtomically) {
  auto module = vm::Assemble(R"(
data key 0 "x"
func boom export
  push @key
  push #key
  push @key
  push #key
  kv.put
  push 99999999
  load64
  drop
end
)");
  ASSERT_TRUE(module.ok());
  ObjectType type;
  type.name = "trapper";
  type.methods["boom"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .module = std::make_shared<vm::Module>(std::move(*module))};
  ASSERT_TRUE(types_.Register(std::move(type)).ok());
  Create("t/1", "trapper");
  auto r = Invoke("t/1", "boom");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTrap());
  // The kv.put before the trap must not be visible.
  EXPECT_TRUE(runtime_->StorageRead(FieldKey("t/1", "x"), nullptr)
                  .status()
                  .IsNotFound());
}

// ------------------------------------------------------------ result cache

TEST_F(RuntimeTest, CacheHitsRepeatedDeterministicReads) {
  Create("counter/a");
  ASSERT_TRUE(Invoke("counter/a", "incr", "3").ok());
  EXPECT_EQ(*Invoke("counter/a", "read"), "3");
  auto before = runtime_->cache_stats();
  EXPECT_EQ(*Invoke("counter/a", "read"), "3");
  EXPECT_EQ(*Invoke("counter/a", "read"), "3");
  auto after = runtime_->cache_stats();
  EXPECT_EQ(after.hits, before.hits + 2);
}

TEST_F(RuntimeTest, CacheInvalidatedByOverlappingWrite) {
  Create("counter/a");
  ASSERT_TRUE(Invoke("counter/a", "incr", "1").ok());
  EXPECT_EQ(*Invoke("counter/a", "read"), "1");   // populates cache
  ASSERT_TRUE(Invoke("counter/a", "incr", "1").ok());  // invalidates
  EXPECT_EQ(*Invoke("counter/a", "read"), "2");   // must re-execute
  auto stats = runtime_->cache_stats();
  EXPECT_GE(stats.invalidations, 1u);
}

// A write that commits while a read-only invocation is still being
// charged its CPU time must not leave the read's older result cached.
TEST_F(RuntimeTest, WriteDuringReadChargeLeavesNoStaleCachedResult) {
  Create("counter/a");
  runtime_->SetCpuCharger([this](uint64_t) -> Task<void> {
    co_await sim_.Sleep(sim::Micros(500));
  });
  Result<std::string> first = Status::Unavailable("not run");
  Result<std::string> incr = Status::Unavailable("not run");
  Detach([](Runtime* rt, Result<std::string>* out) -> Task<void> {
    *out = co_await rt->Invoke("counter/a", "read", "");
  }(runtime_.get(), &first));
  Detach([](sim::Simulator* sim, Runtime* rt,
            Result<std::string>* out) -> Task<void> {
    co_await sim->Sleep(sim::Micros(100));
    *out = co_await rt->Invoke("counter/a", "incr", "1");
  }(&sim_, runtime_.get(), &incr));
  sim_.Run();
  ASSERT_TRUE(first.ok() && incr.ok());
  EXPECT_EQ(*first, "0");
  EXPECT_EQ(*incr, "1");
  EXPECT_EQ(*Invoke("counter/a", "read"), "1");
}

TEST_F(RuntimeTest, CacheIsolatedPerObjectAndArgument) {
  Create("counter/a");
  Create("counter/b");
  ASSERT_TRUE(Invoke("counter/a", "incr", "1").ok());
  ASSERT_TRUE(Invoke("counter/b", "incr", "2").ok());
  EXPECT_EQ(*Invoke("counter/a", "read"), "1");
  EXPECT_EQ(*Invoke("counter/b", "read"), "2");
  // Writing a must not invalidate b's cached read.
  auto before = runtime_->cache_stats();
  ASSERT_TRUE(Invoke("counter/a", "incr", "1").ok());
  EXPECT_EQ(*Invoke("counter/b", "read"), "2");
  auto after = runtime_->cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(ResultCacheUnit, CapacityEviction) {
  ResultCache cache(2);
  cache.Insert(cache.BeginFill(), "k1", "v1", {"r1"});
  cache.Insert(cache.BeginFill(), "k2", "v2", {"r2"});
  cache.Insert(cache.BeginFill(), "k3", "v3", {"r3"});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup("k1").has_value());  // LRU evicted
  EXPECT_TRUE(cache.Lookup("k3").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheUnit, InvalidateOnlyAffectedEntries) {
  ResultCache cache(16);
  cache.Insert(cache.BeginFill(), "a", "1", {"shared", "only-a"});
  cache.Insert(cache.BeginFill(), "b", "2", {"shared"});
  cache.Insert(cache.BeginFill(), "c", "3", {"only-c"});
  std::vector<std::string> written = {"shared"};
  cache.InvalidateWrites(written);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_EQ(cache.stats().invalidations, 2u);
  // Local invalidations never count toward the replication-stream stat.
  EXPECT_EQ(cache.stats().remote_invalidations, 0u);
}

TEST(ResultCacheUnit, RemoteInvalidationsCountedSeparately) {
  ResultCache cache(16);
  cache.Insert(cache.BeginFill(), "a", "1", {"shared"});
  cache.Insert(cache.BeginFill(), "b", "2", {"only-b"});
  std::vector<std::string> written = {"shared"};
  cache.InvalidateWrites(written, /*remote=*/true);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("b").has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().remote_invalidations, 1u);
  // A remote batch touching nothing cached drops nothing and counts nothing.
  std::vector<std::string> unrelated = {"missing"};
  cache.InvalidateWrites(unrelated, /*remote=*/true);
  EXPECT_EQ(cache.stats().remote_invalidations, 1u);
}

// A fill is refused only when a key it read was written while it was
// open (or the cache was cleared): fills that overlap unrelated writes
// still cache, so a steady write stream does not empty the cache.
TEST(ResultCacheUnit, FillRefusedOnlyWhenItsReadKeysChangedMidFill) {
  ResultCache cache(16);
  uint64_t stale = cache.BeginFill();
  uint64_t unrelated = cache.BeginFill();
  std::vector<std::string> written = {"x"};
  cache.InvalidateWrites(written);
  cache.Insert(stale, "stale", "old", {"x", "y"});
  cache.Insert(unrelated, "unrelated", "ok", {"y"});
  EXPECT_FALSE(cache.Lookup("stale").has_value());
  EXPECT_TRUE(cache.Lookup("unrelated").has_value());
  // A fill that began after the write caches normally.
  cache.Insert(cache.BeginFill(), "later", "new", {"x"});
  EXPECT_TRUE(cache.Lookup("later").has_value());

  uint64_t across_clear = cache.BeginFill();
  cache.Clear();
  cache.Insert(across_clear, "cleared", "old", {"z"});
  EXPECT_FALSE(cache.Lookup("cleared").has_value());
}

// A replicated batch shipped from a primary (OnExternalCommit) must
// invalidate exactly the cached reads whose read set it overwrote —
// counted as remote invalidations — and the next read re-executes
// against the applied state.
TEST_F(RuntimeTest, ExternalCommitInvalidatesOverlappingCachedReads) {
  Create("counter/a");
  Create("counter/b");
  ASSERT_TRUE(Invoke("counter/a", "incr", "1").ok());
  ASSERT_TRUE(Invoke("counter/b", "incr", "2").ok());
  EXPECT_EQ(*Invoke("counter/a", "read"), "1");  // populate the cache
  EXPECT_EQ(*Invoke("counter/b", "read"), "2");

  // The primary's shipped batch overwrites a's value field.
  storage::WriteBatch batch;
  batch.Put(FieldKey("counter/a", "value"), "41");
  ASSERT_TRUE(db_->Write({.sync = true}, &batch).ok());
  auto before = runtime_->cache_stats();
  runtime_->OnExternalCommit(batch);
  auto after = runtime_->cache_stats();
  EXPECT_EQ(after.remote_invalidations, before.remote_invalidations + 1);

  // a re-executes and observes the replicated write; b's entry survived
  // and still serves from cache.
  EXPECT_EQ(*Invoke("counter/a", "read"), "41");
  auto hits_before = runtime_->cache_stats().hits;
  EXPECT_EQ(*Invoke("counter/b", "read"), "2");
  EXPECT_EQ(runtime_->cache_stats().hits, hits_before + 1);
}

// ClearResultCache (the promotion hook) drops every entry at once: no
// result cached while this node was a backup survives into its term as
// primary.
TEST_F(RuntimeTest, ClearResultCacheDropsAllEntries) {
  Create("counter/a");
  Create("counter/b");
  ASSERT_TRUE(Invoke("counter/a", "incr", "1").ok());
  ASSERT_TRUE(Invoke("counter/b", "incr", "2").ok());
  EXPECT_EQ(*Invoke("counter/a", "read"), "1");
  EXPECT_EQ(*Invoke("counter/b", "read"), "2");
  EXPECT_GT(runtime_->result_cache_size(), 0u);
  runtime_->ClearResultCache();
  EXPECT_EQ(runtime_->result_cache_size(), 0u);
  // Reads still work (re-executed, not served from the dropped entries).
  auto hits_before = runtime_->cache_stats().hits;
  EXPECT_EQ(*Invoke("counter/a", "read"), "1");
  EXPECT_EQ(runtime_->cache_stats().hits, hits_before);
}

// Property test: concurrent mixed workload on several objects — final
// counter values must equal the number of applied increments (lost
// updates are impossible under invocation linearizability), and every
// read must return a value that was current at some point (monotonic
// per object since increments only grow).
class LinearizabilityTest : public RuntimeTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(LinearizabilityTest, NoLostUpdatesNoTimeTravel) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31);
  constexpr int kObjects = 4;
  for (int i = 0; i < kObjects; i++) Create("counter/" + std::to_string(i));

  int increments[kObjects] = {};
  int pending = 0;
  std::vector<std::pair<int, uint64_t>> reads;  // (object, observed)

  for (int step = 0; step < 200; step++) {
    int obj = static_cast<int>(rng.Uniform(kObjects));
    std::string oid = "counter/" + std::to_string(obj);
    if (rng.Bernoulli(0.6)) {
      increments[obj]++;
      pending++;
      Detach([](Runtime* rt, std::string oid, int* pending) -> Task<void> {
        auto r = co_await rt->Invoke(oid, "incr", "1");
        EXPECT_TRUE(r.ok());
        (*pending)--;
      }(runtime_.get(), oid, &pending));
    } else {
      pending++;
      Detach([](Runtime* rt, std::string oid, int obj,
                std::vector<std::pair<int, uint64_t>>* reads,
                int* pending) -> Task<void> {
        auto r = co_await rt->Invoke(oid, "read", "");
        EXPECT_TRUE(r.ok());
        if (r.ok()) reads->emplace_back(obj, std::stoull(*r));
        (*pending)--;
      }(runtime_.get(), oid, obj, &reads, &pending));
    }
    // Occasionally let the simulator drain a little to interleave.
    if (rng.Bernoulli(0.3)) sim_.RunFor(sim::Micros(rng.Uniform(50)));
  }
  sim_.Run();
  ASSERT_EQ(pending, 0);

  for (int i = 0; i < kObjects; i++) {
    EXPECT_EQ(*Invoke("counter/" + std::to_string(i), "read"),
              std::to_string(increments[i]))
        << "lost update on object " << i;
  }
  for (const auto& [obj, observed] : reads) {
    EXPECT_LE(observed, static_cast<uint64_t>(increments[obj]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearizabilityTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace lo::runtime
