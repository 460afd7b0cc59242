#include "runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/hash.h"

namespace lo::runtime {
namespace {

/// CLOCK_MONOTONIC in nanoseconds: the lane runtimes' clock, in the same
/// domain as the transport's span timestamps (net::EventLoop::NowUs).
int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ParallelNode::ParallelNode(storage::DB* db, const TypeRegistry* types,
                           ParallelNodeOptions options)
    : db_(db), options_(options) {
  // Wrap the group-commit hook: advance this node's apply-epoch to the
  // group's sequence first (so it is visible before any waiter of that
  // group unblocks — the committer calls on_commit before releasing
  // waiters), then chain whatever hook the embedder installed (the
  // replication shipper).
  storage::GroupCommitterOptions gc = options_.group_commit;
  gc.on_commit = [this, user_hook = gc.on_commit](
                     uint64_t seq, const storage::WriteBatch& batch) {
    uint64_t cur = apply_epoch_.load(std::memory_order_relaxed);
    while (seq > cur && !apply_epoch_.compare_exchange_weak(
                            cur, seq, std::memory_order_release,
                            std::memory_order_relaxed)) {
    }
    if (user_hook) user_hook(seq, batch);
  };
  committer_ = std::make_unique<storage::GroupCommitter>(db, gc);
  size_t lane_count = std::max<size_t>(1, options_.lanes);
  lanes_.reserve(lane_count);
  for (size_t i = 0; i < lane_count; ++i) {
    auto lane = std::make_unique<Lane>();
    // Default runtime options, except that threading is this executor's
    // job: one worker thread == one internal lane.
    RuntimeOptions rt_options;
    rt_options.lanes = 1;
    rt_options.tenants = options_.tenants;  // per-tenant VM fuel accounting
    lane->runtime = std::make_unique<Runtime>(SteadyNowNs, db_, types, rt_options);
    // All lanes commit through the shared group committer: the worker
    // thread blocks inside Commit() until its batch's shared fsync lands.
    lane->runtime->SetCommitSink(
        [this](const ObjectId&, storage::WriteBatch batch,
               obs::TraceContext) -> sim::Task<Status> {
          co_return committer_->Commit(std::move(batch));
        });
    // Same-lane nested targets recurse directly (the runtime released
    // its lane lock first, so the recursive Invoke acquires it without
    // suspending); cross-lane targets hand off to the target lane's
    // worker while this one helps with its own queue (see header).
    Runtime* rt = lane->runtime.get();
    lane->runtime->SetRemoteInvoker(
        [this, i, rt](ObjectId oid, std::string method, std::string argument,
                      obs::TraceContext trace) -> sim::Task<Result<std::string>> {
          // Objects owned by a peer node leave the process entirely;
          // peer_is_local_/peer_invoke_ are installed before serving
          // starts (SetPeerInvoker), so reading them unlocked is safe.
          if (peer_is_local_ && !peer_is_local_(oid)) {
            co_return HelpingWait(
                i, [this, oid = std::move(oid), method = std::move(method),
                    argument = std::move(argument)](Callback done) mutable {
                  peer_invoke_(std::move(oid), std::move(method),
                               std::move(argument), std::move(done));
                });
          }
          size_t target = LaneFor(oid);
          if (target != i) {
            co_return CrossLaneNestedInvoke(i, target, std::move(oid),
                                            std::move(method),
                                            std::move(argument), trace);
          }
          co_return co_await rt->Invoke(std::move(oid), std::move(method),
                                        std::move(argument), trace);
        });
    lane->worker = std::thread([this, raw = lane.get()] { WorkerLoop(raw); });
    lanes_.push_back(std::move(lane));
  }
}

ParallelNode::~ParallelNode() {
  for (auto& lane : lanes_) {
    {
      std::unique_lock<std::mutex> lock(lane->mu);
      lane->stop = true;
    }
    lane->work_cv.notify_all();
  }
  for (auto& lane : lanes_) lane->worker.join();
  // committer_ destructor drains whatever the lanes submitted last.
}

size_t ParallelNode::LaneFor(const ObjectId& oid) const {
  return static_cast<size_t>(Fnv1a64(oid) % lanes_.size());
}

uint64_t ParallelNode::lane_executed(size_t lane) const {
  std::unique_lock<std::mutex> lock(lanes_[lane]->mu);
  return lanes_[lane]->executed;
}

Result<std::string> ParallelNode::CrossLaneNestedInvoke(
    size_t caller_lane, size_t target_lane, ObjectId oid, std::string method,
    std::string argument, obs::TraceContext trace) {
  Runtime* target_rt = lanes_[target_lane]->runtime.get();
  return HelpingWait(
      caller_lane,
      [this, target_lane, target_rt, oid = std::move(oid),
       method = std::move(method), argument = std::move(argument),
       trace](Callback done) mutable {
        Enqueue(target_lane, [target_rt, oid = std::move(oid),
                              method = std::move(method),
                              argument = std::move(argument), trace,
                              done = std::move(done)]() mutable {
          done(RunSync(target_rt->Invoke(std::move(oid), std::move(method),
                                         std::move(argument), trace)));
        });
      });
}

Result<std::string> ParallelNode::HelpingWait(
    size_t caller_lane, std::function<void(Callback)> start) {
  struct CallState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<std::string> result{Status::Aborted("nested call never ran")};
  };
  auto call = std::make_shared<CallState>();
  start([call](Result<std::string> result) {
    {
      std::lock_guard<std::mutex> lock(call->mu);
      call->result = std::move(result);
      call->done = true;
    }
    call->cv.notify_all();
  });
  // Wait, helping: whenever this lane's lock is free (read-write callers
  // committed + unlocked before nesting), run jobs from our own queue so
  // a nested call another blocked lane parked here still executes. The
  // 1ms poll only bounds how long a *helpable* job waits; the common
  // case wakes on cv immediately.
  Lane& self = *lanes_[caller_lane];
  while (true) {
    {
      std::unique_lock<std::mutex> lock(call->mu);
      if (call->cv.wait_for(lock, std::chrono::milliseconds(1),
                            [&] { return call->done; })) {
        return std::move(call->result);
      }
    }
    if (self.runtime->LaneLock(0).locked()) continue;  // helping would re-enter
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(self.mu);
      PopJob(&self, &job);
    }
    if (job) {
      job();
      std::unique_lock<std::mutex> lock(self.mu);
      self.executed++;
    }
  }
}

void ParallelNode::SetPeerInvoker(PeerLocalFn is_local, PeerInvokeFn invoke) {
  peer_is_local_ = std::move(is_local);
  peer_invoke_ = std::move(invoke);
}

void ParallelNode::RunOnLane(const ObjectId& oid,
                             std::function<void(Runtime&)> job,
                             tenant::TenantId tenant) {
  size_t lane_index = LaneFor(oid);
  Runtime* rt = lanes_[lane_index]->runtime.get();
  Enqueue(lane_index, [rt, job = std::move(job)] { job(*rt); }, tenant);
}

void ParallelNode::Enqueue(size_t lane_index, std::function<void()> job,
                           tenant::TenantId tenant) {
  Lane& lane = *lanes_[lane_index];
  // Without a registry the lane is plain FIFO: every job joins tenant 0's
  // sub-queue, whatever tenant it is attributed to.
  if (options_.tenants == nullptr) tenant = 0;
  uint32_t weight =
      options_.tenants != nullptr ? options_.tenants->WeightFor(tenant) : 1;
  {
    std::unique_lock<std::mutex> lock(lane.mu);
    lane.queue.Push(Job{std::move(job), tenant, SteadyNowNs() / 1000}, tenant, weight);
  }
  lane.work_cv.notify_one();
}

bool ParallelNode::PopJob(Lane* lane, std::function<void()>* job) {
  Job item;
  if (!lane->queue.Pop(&item)) return false;
  if (options_.tenants != nullptr) {
    int64_t now_us = SteadyNowNs() / 1000;
    options_.tenants->RecordQueueWait(item.tenant,
                                      std::max<int64_t>(0, now_us - item.enqueued_us));
  }
  *job = std::move(item.run);
  return true;
}

void ParallelNode::InvokeAsync(ObjectId oid, std::string method,
                               std::string argument, std::string token,
                               Callback done, tenant::TenantId tenant) {
  size_t lane_index = LaneFor(oid);
  Runtime* rt = lanes_[lane_index]->runtime.get();
  Enqueue(lane_index,
          [rt, oid = std::move(oid), method = std::move(method),
           argument = std::move(argument), token = std::move(token),
           done = std::move(done), tenant]() mutable {
            done(RunSync(rt->Invoke(std::move(oid), std::move(method),
                                    std::move(argument), {}, std::move(token),
                                    tenant)));
          },
          tenant);
}

std::future<Result<std::string>> ParallelNode::Invoke(ObjectId oid,
                                                      std::string method,
                                                      std::string argument,
                                                      std::string token,
                                                      tenant::TenantId tenant) {
  auto promise = std::make_shared<std::promise<Result<std::string>>>();
  auto future = promise->get_future();
  InvokeAsync(std::move(oid), std::move(method), std::move(argument),
              std::move(token),
              [promise](Result<std::string> result) {
                promise->set_value(std::move(result));
              },
              tenant);
  return future;
}

std::future<Result<std::string>> ParallelNode::CreateObject(
    ObjectId oid, std::string type_name, std::string token,
    tenant::TenantId tenant) {
  auto promise = std::make_shared<std::promise<Result<std::string>>>();
  auto future = promise->get_future();
  size_t lane_index = LaneFor(oid);
  Runtime* rt = lanes_[lane_index]->runtime.get();
  Enqueue(lane_index,
          [rt, promise, oid = std::move(oid), type_name = std::move(type_name),
           token = std::move(token)]() mutable {
            promise->set_value(RunSync(rt->CreateObject(
                std::move(oid), std::move(type_name), std::move(token))));
          },
          tenant);
  return future;
}

Status ParallelNode::ApplyReplicated(storage::WriteBatch batch, uint64_t epoch) {
  storage::WriteOptions write_opts;
  write_opts.sync = true;
  Status status = db_->Write(write_opts, &batch);
  if (!status.ok()) return status;
  // Invalidation barrier: every lane must drop result-cache entries whose
  // read set the batch wrote before the epoch advances — once it does,
  // the gate admits reads that rely on those entries being gone. The
  // batch lives on this frame; the barrier keeps it alive past the jobs.
  struct Barrier {
    std::mutex mu{};
    std::condition_variable cv{};
    size_t pending;
  } barrier{.pending = lanes_.size()};
  for (size_t i = 0; i < lanes_.size(); ++i) {
    Runtime* rt = lanes_[i]->runtime.get();
    Enqueue(i, [rt, &batch, &barrier] {
      rt->OnExternalCommit(batch);
      std::lock_guard<std::mutex> lock(barrier.mu);
      if (--barrier.pending == 0) barrier.cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(barrier.mu);
    barrier.cv.wait(lock, [&] { return barrier.pending == 0; });
  }
  uint64_t cur = apply_epoch_.load(std::memory_order_relaxed);
  while (epoch > cur && !apply_epoch_.compare_exchange_weak(
                            cur, epoch, std::memory_order_release,
                            std::memory_order_relaxed)) {
  }
  return Status::OK();
}

std::future<Result<std::string>> ParallelNode::InvokeRead(
    ObjectId oid, std::string method, std::string argument, uint64_t min_epoch,
    tenant::TenantId tenant) {
  auto promise = std::make_shared<std::promise<Result<std::string>>>();
  auto future = promise->get_future();
  size_t lane_index = LaneFor(oid);
  Runtime* rt = lanes_[lane_index]->runtime.get();
  Enqueue(lane_index, [this, rt, oid = std::move(oid),
                       method = std::move(method),
                       argument = std::move(argument), min_epoch, tenant,
                       promise]() mutable {
    uint64_t applied = apply_epoch_.load(std::memory_order_acquire);
    if (applied < min_epoch) {
      promise->set_value(Status::EpochBehind(
          "applied " + std::to_string(applied) + " < required " +
          std::to_string(min_epoch)));
      return;
    }
    if (Status read_only = rt->CheckReadOnly(oid, method); !read_only.ok()) {
      promise->set_value(std::move(read_only));
      return;
    }
    promise->set_value(RunSync(rt->Invoke(std::move(oid), std::move(method),
                                          std::move(argument), {}, {},
                                          tenant)));
  });
  return future;
}

void ParallelNode::Drain() {
  for (auto& lane : lanes_) {
    std::unique_lock<std::mutex> lock(lane->mu);
    lane->idle_cv.wait(lock, [&] { return lane->queue.empty() && !lane->busy; });
  }
  committer_->Drain();
}

void ParallelNode::WorkerLoop(Lane* lane) {
  std::unique_lock<std::mutex> lock(lane->mu);
  while (true) {
    lane->work_cv.wait(lock, [&] { return lane->stop || !lane->queue.empty(); });
    if (lane->queue.empty()) {
      if (lane->stop) return;
      continue;
    }
    std::function<void()> job;
    if (!PopJob(lane, &job)) continue;
    lane->busy = true;
    lock.unlock();
    job();
    lock.lock();
    lane->executed++;
    lane->busy = false;
    lane->idle_cv.notify_all();
    if (lane->stop && lane->queue.empty()) return;  // drained
  }
}

}  // namespace lo::runtime
