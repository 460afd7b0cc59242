// Model-checked random-operation tests for the real-threaded sharded
// executor (runtime/executor.h) over WAL group commit
// (storage/group_commit.h).
//
// A seeded generator drives N OS threads of mixed invocations — λasm
// VM-metered increments, native read-modify-write adds, read-only reads —
// against a ParallelNode. Every committed read-modify-write returns the
// post-state it produced, so the observed per-object history can be
// replayed offline against a single-threaded in-memory model: order the
// ops by their returned post-state and re-apply them sequentially; any
// divergence (a lost update, a torn batch, a reordered same-object pair)
// breaks the replay and fails with the seed printed for deterministic
// re-generation of the op stream.
//
// The FaultyEnv variant crashes the storage stack mid-run and proves
// group commit never acknowledges a lost write: everything acked before
// the crash must still be in the store after power-loss + recovery, even
// though acked commits shared fsyncs with other lanes' commits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/executor.h"
#include "storage/env.h"
#include "storage/faulty_env.h"
#include "vm/assembler.h"

namespace lo::runtime {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kOpsPerThread = 1250;  // x 8 threads = 10k ops per seed
constexpr size_t kObjects = 16;
constexpr uint64_t kSeeds[] = {101, 202, 303, 404, 505};

// The λasm VM counter from the runtime tests: read 8-byte field "n",
// increment, write back, return the new value. Runs fuel-metered inside
// its own vm::Instance per invocation.
std::shared_ptr<vm::Module> VmIncrModule() {
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
  LO_CHECK_MSG(module.ok(), "λasm counter failed to assemble");
  return std::make_shared<vm::Module>(std::move(*module));
}

// "mixed": VM incr on field "n", native add on field "value", read-only
// readers for both. VM and native methods interleave on the same object.
void RegisterMixedType(TypeRegistry* types) {
  ObjectType type;
  type.name = "mixed";
  type.methods["incr"] =
      MethodImpl{.kind = MethodKind::kReadWrite, .module = VmIncrModule()};
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
  type.methods["read_n"] = MethodImpl{
      .kind = MethodKind::kReadOnly,
      .deterministic = true,
      .native = [](InvocationContext& ctx,
                   std::string) -> sim::Task<Result<std::string>> {
        auto n = co_await ctx.Get("n");
        uint64_t v = 0;
        if (n.ok() && n->size() == 8) std::memcpy(&v, n->data(), 8);
        co_return std::to_string(v);
      }};
  LO_CHECK(types->Register(std::move(type)).ok());
}

std::string Oid(size_t i) { return "obj/" + std::to_string(i); }

uint64_t DecodeLe64(const std::string& bytes) {
  uint64_t v = 0;
  if (bytes.size() == 8) std::memcpy(&v, bytes.data(), 8);
  return v;
}

// One completed read-modify-write: which object, which mechanism, and the
// post-state the executor reported for it.
struct OpRecord {
  size_t obj;
  bool vm;         // true = λasm incr (delta 1 on "n"), false = native add
  uint64_t delta;  // native add's increment
  uint64_t result; // returned post-state
};

struct ThreadLog {
  std::vector<OpRecord> ops;       // in this thread's submission order
  std::vector<std::string> errors; // gtest is not thread-safe; collect
};

TEST(ConcurrencyModel, RandomOpsMatchSequentialModel) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("replay with seed=" + std::to_string(seed));
    storage::MemEnv env;
    storage::Options db_options;
    db_options.env = &env;
    db_options.serialize_access = true;  // lanes + committer share the DB
    auto db = std::move(*storage::DB::Open(db_options, "/db"));
    TypeRegistry types;
    RegisterMixedType(&types);

    ParallelNodeOptions node_options;
    node_options.lanes = kThreads;
    ParallelNode node(db.get(), &types, node_options);
    for (size_t i = 0; i < kObjects; i++) {
      ASSERT_TRUE(node.CreateObject(Oid(i), "mixed").get().ok());
    }

    std::vector<ThreadLog> logs(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; t++) {
      threads.emplace_back([&node, &log = logs[t], seed, t] {
        Rng rng(seed * 7919 + t);
        for (size_t i = 0; i < kOpsPerThread; i++) {
          size_t obj = rng.Uniform(kObjects);
          uint64_t dice = rng.Uniform(100);
          if (dice < 40) {
            auto r = node.Invoke(Oid(obj), "incr", "").get();
            if (!r.ok()) {
              log.errors.push_back("incr: " + r.status().ToString());
              continue;
            }
            log.ops.push_back({obj, true, 1, DecodeLe64(*r)});
          } else if (dice < 80) {
            uint64_t delta = 1 + rng.Uniform(4);
            auto r = node.Invoke(Oid(obj), "add", std::to_string(delta)).get();
            if (!r.ok()) {
              log.errors.push_back("add: " + r.status().ToString());
              continue;
            }
            log.ops.push_back({obj, false, delta, std::stoull(*r)});
          } else {
            auto r = node.Invoke(Oid(obj), "read", "").get();
            if (!r.ok()) log.errors.push_back("read: " + r.status().ToString());
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    node.Drain();
    for (size_t t = 0; t < kThreads; t++) {
      for (const auto& error : logs[t].errors) {
        ADD_FAILURE() << "thread " << t << ": " << error;
      }
    }

    // Same-object FIFO from one submitter: a thread's later op on an
    // object must observe a later post-state (lane queues are FIFO, so
    // program order within a thread is execution order per object).
    for (size_t t = 0; t < kThreads; t++) {
      std::map<std::pair<size_t, bool>, uint64_t> last;
      for (const OpRecord& op : logs[t].ops) {
        auto key = std::make_pair(op.obj, op.vm);
        auto it = last.find(key);
        if (it != last.end()) {
          EXPECT_GT(op.result, it->second)
              << "thread " << t << " saw object " << Oid(op.obj)
              << " go backwards (same-object reordering)";
        }
        last[key] = op.result;
      }
    }

    // Replay against the single-threaded model: per object, order the
    // observed ops by returned post-state and re-apply sequentially. A
    // lost or duplicated update cannot produce a replayable history.
    for (size_t obj = 0; obj < kObjects; obj++) {
      std::vector<OpRecord> vm_ops, native_ops;
      for (const auto& log : logs) {
        for (const OpRecord& op : log.ops) {
          if (op.obj != obj) continue;
          (op.vm ? vm_ops : native_ops).push_back(op);
        }
      }
      auto by_result = [](const OpRecord& a, const OpRecord& b) {
        return a.result < b.result;
      };
      std::sort(vm_ops.begin(), vm_ops.end(), by_result);
      std::sort(native_ops.begin(), native_ops.end(), by_result);
      uint64_t model_n = 0;
      for (const OpRecord& op : vm_ops) {
        model_n += 1;
        ASSERT_EQ(op.result, model_n)
            << "VM history of " << Oid(obj) << " does not replay";
      }
      uint64_t model_value = 0;
      for (const OpRecord& op : native_ops) {
        model_value += op.delta;
        ASSERT_EQ(op.result, model_value)
            << "native history of " << Oid(obj) << " does not replay";
      }
      // The drained store agrees with the model's final state.
      auto n = node.Invoke(Oid(obj), "read_n", "").get();
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(std::stoull(*n), model_n) << Oid(obj);
      auto value = node.Invoke(Oid(obj), "read", "").get();
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(std::stoull(*value), model_value) << Oid(obj);
    }

    // Sanity on the machinery itself: work actually spread across lanes,
    // commits actually shared fsyncs, and the VM actually metered fuel.
    size_t active_lanes = 0;
    uint64_t fuel = 0;
    for (size_t lane = 0; lane < node.lanes(); lane++) {
      active_lanes += node.lane_executed(lane) > 0 ? 1 : 0;
      fuel += node.lane_runtime(lane).metrics().fuel_executed;
    }
    EXPECT_GT(active_lanes, 1u) << "everything serialized onto one lane";
    EXPECT_GT(fuel, 0u) << "VM invocations never ran fuel-metered";
    const auto& gc = node.committer().stats();
    EXPECT_GT(gc.commits, 0u);
    EXPECT_LE(gc.groups, gc.commits);
  }
}

TEST(ConcurrencyModel, GroupCommitNeverAcksALostWrite) {
  // Crash the env at several points mid-run. Every invocation whose
  // future resolved OK before the crash rode some group's successful
  // fsync; after power loss (unsynced bytes dropped) and recovery, its
  // effect must still be there.
  for (uint64_t seed : {11ull, 23ull, 37ull}) {
    for (uint64_t crash_after : {25ull, 100ull, 400ull}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " crash_after=" + std::to_string(crash_after));
      storage::MemEnv base;
      storage::FaultyEnv faulty(&base, seed);
      storage::Options db_options;
      db_options.env = &faulty;
      db_options.serialize_access = true;
      auto db = std::move(*storage::DB::Open(db_options, "/db"));
      TypeRegistry types;
      RegisterMixedType(&types);

      constexpr size_t kCrashObjects = 8;
      std::vector<uint64_t> max_acked(kCrashObjects, 0);
      {
        ParallelNodeOptions node_options;
        node_options.lanes = kThreads;
        ParallelNode node(db.get(), &types, node_options);
        for (size_t i = 0; i < kCrashObjects; i++) {
          ASSERT_TRUE(node.CreateObject(Oid(i), "mixed").get().ok());
        }
        // Arm after the creates so object setup is always durable.
        faulty.CrashAfterWriteOps(crash_after);

        std::vector<std::vector<uint64_t>> acked(kThreads);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kThreads; t++) {
          threads.emplace_back([&node, &acked, t, seed] {
            Rng rng(seed * 131 + t);
            std::vector<uint64_t> local(kCrashObjects, 0);
            for (size_t i = 0; i < 200; i++) {
              size_t obj = rng.Uniform(kCrashObjects);
              auto r = node.Invoke(Oid(obj), "add", "1").get();
              if (!r.ok()) continue;  // post-crash failures are expected
              local[obj] = std::max<uint64_t>(local[obj], std::stoull(*r));
            }
            acked[t] = std::move(local);
          });
        }
        for (auto& thread : threads) thread.join();
        node.Drain();
        for (size_t obj = 0; obj < kCrashObjects; obj++) {
          for (size_t t = 0; t < kThreads; t++) {
            max_acked[obj] = std::max(max_acked[obj], acked[t][obj]);
          }
        }
        ASSERT_TRUE(faulty.crashed()) << "crash point never fired";
      }

      // Power loss, reboot, recover.
      db.reset();
      base.DropUnsyncedData();
      faulty.Revive();
      auto reopened = storage::DB::Open(db_options, "/db");
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      db = std::move(*reopened);
      for (size_t obj = 0; obj < kCrashObjects; obj++) {
        auto durable = db->Get({}, FieldKey(Oid(obj), "value"));
        uint64_t durable_value =
            durable.ok() ? std::stoull(*durable) : 0;
        EXPECT_GE(durable_value, max_acked[obj])
            << Oid(obj) << ": an acked write was lost";
      }
    }
  }
}

// "fanout": a read-write method that nested-invokes "add" on every
// target named in its comma-separated argument — the ReTwis post
// fan-out shape, with targets pinned to arbitrary lanes.
void RegisterFanoutType(TypeRegistry* types) {
  ObjectType type;
  type.name = "fanout";
  type.methods["spray"] = MethodImpl{
      .kind = MethodKind::kReadWrite,
      .native = [](InvocationContext& ctx,
                   std::string arg) -> sim::Task<Result<std::string>> {
        uint64_t acked = 0;
        size_t start = 0;
        while (start < arg.size()) {
          size_t comma = arg.find(',', start);
          if (comma == std::string::npos) comma = arg.size();
          std::string target = arg.substr(start, comma - start);
          start = comma + 1;
          if (target.empty()) continue;
          auto added = co_await ctx.InvokeObject(target, "add", "1");
          if (!added.ok()) co_return added.status();
          acked++;
        }
        LO_CO_RETURN_IF_ERROR(co_await ctx.Set("sprays", std::to_string(acked)));
        co_return std::to_string(acked);
      }};
  LO_CHECK(types->Register(std::move(type)).ok());
}

// Cross-lane nested invocation: sprayers on every lane fan out to
// targets on every lane, so workers constantly block on each other's
// lanes; the help-while-waiting handoff must keep them all progressing
// (no lane-to-lane deadlock) and every nested increment must land
// exactly once.
TEST(ConcurrencyModel, CrossLaneNestedFanoutLosesNothing) {
  storage::MemEnv env;
  storage::Options db_options;
  db_options.env = &env;
  db_options.serialize_access = true;
  auto db = std::move(*storage::DB::Open(db_options, "/db"));
  TypeRegistry types;
  RegisterMixedType(&types);
  RegisterFanoutType(&types);

  ParallelNodeOptions node_options;
  node_options.lanes = 4;
  ParallelNode node(db.get(), &types, node_options);

  constexpr size_t kTargets = 12;
  constexpr size_t kSprayers = 8;
  constexpr size_t kRounds = 15;
  std::string all_targets;
  for (size_t i = 0; i < kTargets; i++) {
    ASSERT_TRUE(node.CreateObject(Oid(i), "mixed").get().ok());
    if (!all_targets.empty()) all_targets += ',';
    all_targets += Oid(i);
  }
  for (size_t s = 0; s < kSprayers; s++) {
    ASSERT_TRUE(
        node.CreateObject("fan/" + std::to_string(s), "fanout").get().ok());
  }

  std::vector<std::string> errors(kSprayers);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSprayers; s++) {
    threads.emplace_back([&node, &all_targets, &error = errors[s], s] {
      for (size_t round = 0; round < kRounds; round++) {
        auto result =
            node.Invoke("fan/" + std::to_string(s), "spray", all_targets).get();
        if (!result.ok()) {
          error = result.status().ToString();
          return;
        }
        if (*result != std::to_string(kTargets)) {
          error = "short fan-out: " + *result;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  node.Drain();
  for (const std::string& error : errors) EXPECT_EQ(error, "");

  for (size_t i = 0; i < kTargets; i++) {
    auto value = node.Invoke(Oid(i), "read", "").get();
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, std::to_string(kSprayers * kRounds)) << Oid(i);
  }
}

}  // namespace
}  // namespace lo::runtime
