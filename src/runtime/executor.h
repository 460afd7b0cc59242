// Real-threaded sharded executor: the OS-thread counterpart of the
// simulated execution lanes in runtime.h. The real server
// (clusterd::ServerNode, tools/lambdastore_server.cpp) runs it with one
// lane: there every DB call takes the DB's one serialize_access mutex, so
// more lanes bought no throughput, only a result cache per lane and two
// thread hops per cross-lane nested call. N lanes remain for the A12
// noisy-neighbor bench (bench/tenancy.cpp) and the model-checked
// concurrency tests.
//
// A ParallelNode owns `lanes` worker threads. Every invocation is pinned
// to lane `hash(object_id) % lanes`: distinct objects run concurrently on
// distinct threads, same-object invocations land in one lane's FIFO queue
// and can never reorder — per-object linearizability by construction.
// Each lane holds its own runtime::Runtime (method dispatch, VM
// instances, result cache); lane-affinity is what keeps the per-lane
// caches consistent, since every commit touching an object passes through
// that object's lane. All lanes share one MiniLSM DB (opened with
// Options::serialize_access) and one storage::GroupCommitter, so commits
// issued concurrently from several lanes coalesce into shared fsyncs.
//
// The runtime is coroutine-based but none of its awaits suspends on an
// external event when driven this way (the lane's internal AsyncMutex is
// always free — the worker thread is the only entrant — and the commit
// sink blocks the worker thread inside GroupCommitter::Commit instead of
// suspending). RunSync exploits that: it starts the coroutine and
// requires it to finish in one go.
//
// Nested invocations (`ctx.Invoke`) of a same-lane object recurse on
// the calling thread. Cross-lane ones are enqueued on the target
// object's lane and the calling worker blocks for the result. While
// blocked, the caller *helps*: it runs jobs from its own lane's queue,
// in FIFO order, whenever its runtime's lane lock is free. The lock is
// free at every nesting point: a read-write caller commits and releases
// it before nesting (Runtime::NestedInvoke), and Runtime::Invoke's
// read-only path never takes it. So a cycle of lanes waiting on each
// other always makes progress: some blocked worker runs the nested call
// parked in its queue, after whatever was queued ahead of it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/status.h"
#include "runtime/object.h"
#include "runtime/runtime.h"
#include "sim/task.h"
#include "storage/db.h"
#include "storage/group_commit.h"
#include "tenant/tenant.h"

namespace lo::runtime {

/// Runs a coroutine that never suspends on an external event and returns
/// its value. Aborts if the task parks (that would mean an await with no
/// one left to resume it — a bug in how the runtime was wired).
template <typename T>
T RunSync(sim::Task<T> task) {
  std::optional<T> out;
  sim::Detach([](sim::Task<T> t, std::optional<T>* out) -> sim::Task<void> {
    *out = co_await std::move(t);
  }(std::move(task), &out));
  LO_CHECK_MSG(out.has_value(), "coroutine suspended under RunSync");
  return std::move(*out);
}

struct ParallelNodeOptions {
  /// Worker threads; objects are pinned by hash(object_id) % lanes.
  size_t lanes = 8;
  storage::GroupCommitterOptions group_commit;
  /// Optional multi-tenant QoS (not owned; must outlive the node). When
  /// set, each lane's queue becomes a deficit-round-robin FairQueue over
  /// the tenant ids submitted with each job, queue waits are recorded
  /// per tenant, and the per-lane runtimes charge VM fuel to it. Unset,
  /// or with only tenant 0 traffic, the lanes behave exactly like the
  /// old FIFO, whatever tenant ids the jobs carry.
  tenant::TenantRegistry* tenants = nullptr;
};

class ParallelNode {
 public:
  /// `db` must be opened with Options::serialize_access and outlive this
  /// node (not owned — tests close/reopen it across crashes). `types`
  /// must also outlive the node.
  ParallelNode(storage::DB* db, const TypeRegistry* types,
               ParallelNodeOptions options = {});
  /// Drains every queued invocation and pending group commit, then joins.
  ~ParallelNode();

  ParallelNode(const ParallelNode&) = delete;
  ParallelNode& operator=(const ParallelNode&) = delete;

  /// Thread-safe. Enqueues on the object's lane; the future resolves when
  /// the invocation has executed and its writes (if any) are durable.
  /// Submission order from one thread = execution order on the lane.
  /// `tenant` attributes the work for QoS (DRR share, queue-wait metric,
  /// VM fuel); 0 = unattributed, always plain FIFO behavior.
  std::future<Result<std::string>> Invoke(ObjectId oid, std::string method,
                                          std::string argument,
                                          std::string token = {},
                                          tenant::TenantId tenant = 0);
  std::future<Result<std::string>> CreateObject(ObjectId oid,
                                                std::string type_name,
                                                std::string token = {},
                                                tenant::TenantId tenant = 0);

  using Callback = std::function<void(Result<std::string>)>;
  /// Callback-style Invoke: `done` runs on the lane thread once the
  /// invocation is durable, so the caller's thread never blocks on a
  /// future.
  void InvokeAsync(ObjectId oid, std::string method, std::string argument,
                   std::string token, Callback done,
                   tenant::TenantId tenant = 0);

  /// True if this node should execute `oid` itself; false routes the
  /// nested invocation to `invoke` (an async peer call, e.g. RPC to the
  /// owning server). Install before serving traffic. While a worker
  /// waits on a peer call it helps with its own lane's queue, exactly as
  /// for cross-lane nesting, so cross-node call cycles keep making
  /// progress as long as the remote side eventually answers.
  using PeerLocalFn = std::function<bool(const ObjectId&)>;
  using PeerInvokeFn = std::function<void(ObjectId oid, std::string method,
                                          std::string argument, Callback done)>;
  void SetPeerInvoker(PeerLocalFn is_local, PeerInvokeFn invoke);

  /// Thread-safe. Runs `job` on the object's lane thread, serialized
  /// behind every invocation of that object already queued — the hook
  /// microshard migration uses to extract an object only after its
  /// in-flight work drained. Returns immediately.
  void RunOnLane(const ObjectId& oid, std::function<void(Runtime&)> job,
                 tenant::TenantId tenant = 0);

  /// Applies a replicated batch (shipped from a primary's group-commit
  /// stream) and stamps this node's apply-epoch to `epoch` — the
  /// shipping primary's commit sequence. Writes the batch to the DB,
  /// then invalidates every lane's result cache (blocking until each
  /// lane ran its invalidation job) *before* advancing the epoch, so a
  /// read admitted by the epoch gate can never hit an entry cached
  /// against pre-batch state. Call from the (single, ordered)
  /// replication-apply thread — never from a lane worker.
  Status ApplyReplicated(storage::WriteBatch batch, uint64_t epoch);

  /// This node's apply-epoch: the last group-commit sequence it has
  /// locally committed (primary) or applied via ApplyReplicated (backup).
  /// Advances before any waiter of that commit unblocks, so a client
  /// that saw a write ack reads apply_epoch() >= that write's sequence.
  uint64_t apply_epoch() const {
    return apply_epoch_.load(std::memory_order_acquire);
  }

  /// Epoch-gated follower read: runs `method` (which must be registered
  /// read-only) on the object's lane iff apply_epoch() >= min_epoch at
  /// execution time; resolves with kEpochBehind otherwise. The gate is
  /// checked on the lane thread, after any invalidation job already
  /// barriered through the lane, so an admitted read observes
  /// post-invalidation cache state.
  std::future<Result<std::string>> InvokeRead(ObjectId oid, std::string method,
                                              std::string argument,
                                              uint64_t min_epoch,
                                              tenant::TenantId tenant = 0);

  /// Blocks until all lanes are idle and all group commits resolved.
  void Drain();

  size_t lanes() const { return lanes_.size(); }
  size_t LaneFor(const ObjectId& oid) const;
  /// Invocations executed by `lane` so far.
  uint64_t lane_executed(size_t lane) const;
  const storage::GroupCommitter& committer() const { return *committer_; }
  storage::GroupCommitter& committer() { return *committer_; }
  /// The lane's runtime — only safe to inspect while the node is idle.
  const Runtime& lane_runtime(size_t lane) const { return *lanes_[lane]->runtime; }

 private:
  struct Job {
    std::function<void()> run;
    tenant::TenantId tenant = 0;
    int64_t enqueued_us = 0;
  };

  struct Lane {
    std::unique_ptr<Runtime> runtime;
    std::mutex mu;
    std::condition_variable work_cv;
    std::condition_variable idle_cv;
    /// DRR multi-queue guarded by mu; pure FIFO when only tenant 0 is
    /// active, so single-tenant ordering is byte-identical to the old
    /// std::deque.
    tenant::FairQueue<Job> queue;
    bool busy = false;
    bool stop = false;
    uint64_t executed = 0;
    std::thread worker;  // last: started after the fields it reads
  };

  void WorkerLoop(Lane* lane);
  void Enqueue(size_t lane_index, std::function<void()> job,
               tenant::TenantId tenant = 0);
  /// Pops per DRR under the caller's lock and records the job's queue
  /// wait against its tenant.
  bool PopJob(Lane* lane, std::function<void()>* job);
  /// Runs a nested invocation pinned to another lane. Blocks the calling
  /// worker thread, helping with its own lane's queued jobs while it
  /// waits (see the header's deadlock note). Runs on lane worker threads
  /// only.
  Result<std::string> CrossLaneNestedInvoke(size_t caller_lane,
                                            size_t target_lane, ObjectId oid,
                                            std::string method,
                                            std::string argument,
                                            obs::TraceContext trace);
  /// Starts an async operation via `start` and blocks the calling worker
  /// until its completion callback fires, helping with the caller's own
  /// lane queue while waiting (the shared engine behind cross-lane and
  /// cross-node nested invocations).
  Result<std::string> HelpingWait(size_t caller_lane,
                                  std::function<void(Callback)> start);

  storage::DB* db_;
  ParallelNodeOptions options_;
  /// Last commit sequence locally durable / applied (see apply_epoch()).
  std::atomic<uint64_t> apply_epoch_{0};
  /// Constructed in the ctor body: its on_commit hook (which advances
  /// apply_epoch_ and chains any user hook) captures `this`.
  std::unique_ptr<storage::GroupCommitter> committer_;
  PeerLocalFn peer_is_local_;
  PeerInvokeFn peer_invoke_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace lo::runtime
