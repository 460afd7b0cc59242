#include "storage/group_commit.h"

namespace lo::storage {

GroupCommitter::GroupCommitter(DB* db, GroupCommitterOptions options)
    : db_(db), options_(options), committer_([this] { CommitterLoop(); }) {}

GroupCommitter::~GroupCommitter() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  committer_.join();
  // The loop drains waiters still queued at shutdown before exiting, so
  // every Commit() caller has been released by the time join returns.
}

Status GroupCommitter::Commit(WriteBatch batch) {
  if (batch.Count() == 0) return Status();
  std::optional<Status> result;
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) return Status::Unavailable("group committer shut down");
  queue_.push_back(Pending{std::move(batch), &result});
  work_cv_.notify_one();
  done_cv_.wait(lock, [&] { return result.has_value(); });
  return *result;
}

void GroupCommitter::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

GroupCommitter::Stats GroupCommitter::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

void GroupCommitter::CommitterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    // Empty here means stop_: everything submitted before shutdown has
    // drained, and Commit() rejects new arrivals.
    if (queue_.empty()) return;
    auto group = CommitGroup<Pending>::Seal(&queue_, kMaxCommitGroupBytes);
    in_flight_ += group.members.size();

    lock.unlock();
    Status status = db_->Write(WriteOptions(), &group.combined);  // syncs the WAL
    // Listener-before-ack: a successful group is handed to on_commit
    // before any of its waiters unblock, so an acked write has already
    // been seen by the shipping hook. commit_seq_ is committer-thread
    // private and needs no lock.
    if (status.ok() && options_.on_commit) {
      options_.on_commit(++commit_seq_, group.combined);
    }
    lock.lock();

    group.Resolve(status, &stats_);
    in_flight_ -= group.members.size();
    done_cv_.notify_all();
  }
}

}  // namespace lo::storage
