#include "traced.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>

#include "clusterd/server.h"
#include "loadgen.h"
#include "obs/export.h"
#include "retwis/retwis.h"
#include "spans.h"
#include "storage/db.h"
#include "storage/env.h"

namespace perfbench {

namespace {

constexpr auto kPingEvery = std::chrono::milliseconds(5);
constexpr auto kLaneProbeEvery = std::chrono::milliseconds(2);
constexpr size_t kSpansPerNameInFile = 20000;

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// --- bench-owned Env: times the storage layer's file calls ------------

class TracedWritableFile : public lo::storage::WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<lo::storage::WritableFile> base, bool wal,
                     SpanLog* spans)
      : base_(std::move(base)), wal_(wal), spans_(spans) {}
  lo::Status Append(std::string_view data) override {
    int64_t start = NowNs();
    lo::Status status = base_->Append(data);
    spans_->Record(wal_ ? "storage.wal_append" : "storage.file_append", 0, start,
                   NowNs(), data.size());
    return status;
  }
  lo::Status Sync() override {
    int64_t start = NowNs();
    lo::Status status = base_->Sync();
    spans_->Record(wal_ ? "storage.wal_sync" : "storage.file_sync", 0, start, NowNs());
    return status;
  }
  lo::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<lo::storage::WritableFile> base_;
  bool wal_;
  SpanLog* spans_;
};

class TracedRandomAccessFile : public lo::storage::RandomAccessFile {
 public:
  TracedRandomAccessFile(std::unique_ptr<lo::storage::RandomAccessFile> base,
                         SpanLog* spans)
      : base_(std::move(base)), spans_(spans) {}
  lo::Status Read(uint64_t offset, size_t n, std::string* out) const override {
    int64_t start = NowNs();
    lo::Status status = base_->Read(offset, n, out);
    spans_->Record("storage.sst_read", 0, start, NowNs(), n);
    return status;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<lo::storage::RandomAccessFile> base_;
  SpanLog* spans_;
};

class TracingEnv : public lo::storage::Env {
 public:
  TracingEnv(lo::storage::Env* base, SpanLog* spans) : base_(base), spans_(spans) {}

  using Env::NewWritableFile;
  lo::Result<std::unique_ptr<lo::storage::WritableFile>> NewWritableFile(
      const std::string& path) override {
    return Wrap(path, base_->NewWritableFile(path));
  }
  lo::Result<std::unique_ptr<lo::storage::WritableFile>> NewWritableFile(
      const std::string& path, const lo::storage::WritableFileOptions& opts) override {
    return Wrap(path, base_->NewWritableFile(path, opts));
  }
  lo::Result<std::unique_ptr<lo::storage::RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    auto file = base_->NewRandomAccessFile(path);
    if (!file.ok() || !EndsWith(path, ".ldb")) return file;
    return std::unique_ptr<lo::storage::RandomAccessFile>(
        new TracedRandomAccessFile(std::move(*file), spans_));
  }
  lo::Result<std::unique_ptr<lo::storage::SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    return base_->NewSequentialFile(path);
  }
  bool FileExists(const std::string& path) override { return base_->FileExists(path); }
  lo::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  lo::Status DeleteFile(const std::string& path) override { return base_->DeleteFile(path); }
  lo::Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  lo::Status CreateDir(const std::string& path) override { return base_->CreateDir(path); }
  lo::Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }

 private:
  lo::Result<std::unique_ptr<lo::storage::WritableFile>> Wrap(
      const std::string& path,
      lo::Result<std::unique_ptr<lo::storage::WritableFile>> file) {
    if (!file.ok()) return file;
    return std::unique_ptr<lo::storage::WritableFile>(
        new TracedWritableFile(std::move(*file), EndsWith(path, ".log"), spans_));
  }

  lo::storage::Env* base_;
  SpanLog* spans_;
};

// --- counters read from outside the layers, between the phases --------

struct Snapshot {
  int64_t at_ns = 0;
  std::vector<uint64_t> lane_executed;
  lo::runtime::Runtime::Metrics runtime;  // summed over lanes
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  lo::storage::DB::Stats db;
  lo::storage::GroupCommitter::Stats commits;
};

/// Call only while the node is drained: lane runtimes are lane-owned.
Snapshot TakeSnapshot(lo::clusterd::ServerNode& server, lo::storage::DB* db) {
  Snapshot s;
  lo::runtime::ParallelNode& node = server.node();
  for (size_t i = 0; i < node.lanes(); i++) {
    s.lane_executed.push_back(node.lane_executed(i));
    const lo::runtime::Runtime& rt = node.lane_runtime(i);
    s.runtime.aborts += rt.metrics().aborts;
    s.runtime.fuel_executed += rt.metrics().fuel_executed;
    s.cache_hits += rt.cache_stats().hits;
    s.cache_misses += rt.cache_stats().misses;
  }
  s.db = db->GetStats();
  s.commits = node.committer().stats();
  s.at_ns = NowNs();
  return s;
}

int64_t SortedPercentile(std::vector<int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  return Percentile(values, q);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::map<std::string, size_t> per_name;
  for (const Span& span : spans) per_name[span.name]++;
  std::map<std::string, size_t> seen;
  std::vector<lo::obs::SpanRecord> records;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  for (const Span& span : spans) {
    // At most kSpansPerNameInFile of each name, evenly strided.
    size_t stride = (per_name[span.name] + kSpansPerNameInFile - 1) / kSpansPerNameInFile;
    if (seen[span.name]++ % stride != 0) continue;
    lo::obs::SpanRecord record;
    record.trace_id = span.id;
    record.span_id = records.size() + 1;
    record.name = span.name;
    record.start_ns = span.start_ns - origin;
    record.end_ns = span.end_ns - origin;
    records.push_back(std::move(record));
  }
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::string json = lo::obs::ExportChromeTrace(records);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
}

}  // namespace

TracedResult RunTraced(const TracedConfig& config) {
  TracedResult out;
  const lo::retwis::Workload& workload = *config.workload;
  SpanLog spans;
  lo::storage::PosixEnv posix;
  TracingEnv env(&posix, &spans);
  RemoveTree(config.db_dir);

  // Every thread the serving stack starts inherits the server CPUs.
  if (!PinThisThread(config.split.server).ok()) {
    out.error = "cannot pin the embedded server";
    return out;
  }
  lo::storage::Options db_options;  // lambdastore-server's defaults
  db_options.env = &env;
  db_options.serialize_access = true;
  auto opened = lo::storage::DB::Open(db_options, config.db_dir);
  if (!opened.ok()) {
    out.error = "DB::Open: " + opened.status().ToString();
    return out;
  }
  std::unique_ptr<lo::storage::DB> db = std::move(*opened);
  lo::runtime::TypeRegistry types;
  lo::Status status = lo::retwis::RegisterUserType(&types, /*use_vm=*/true);
  if (status.ok()) status = workload.SeedDb(db.get());
  if (!status.ok()) {
    out.error = "seeding: " + status.ToString();
    return out;
  }
  lo::clusterd::ServerNodeOptions options;  // the binary's defaults
  options.group_commit.on_commit = [&spans](uint64_t seq, const lo::storage::WriteBatch& batch) {
    int64_t now = NowNs();
    spans.Record("storage.group_commit", seq, now, now, batch.ByteSize());
  };
  auto server = std::make_unique<lo::clusterd::ServerNode>(db.get(), &types, options);
  status = server->Start();
  if (!status.ok()) {
    out.error = "server start: " + status.ToString();
    return out;
  }
  const std::string address = "127.0.0.1:" + std::to_string(server->port());
  lo::runtime::ParallelNode& node = server->node();

  // The generator, its RpcClient loop threads and the probes run on the
  // generator CPU.
  (void)PinThisThread(config.split.generator);
  {
    lo::net::RpcClient rpc;
    lo::net::RpcClient ping_rpc;  // the ping probe's own connection
    ReplyChecker checker(workload, workload.config().timeline_limit);
    PhaseResult warm = RunClosedLoop(&rpc, address, config.requests->warmup, &checker);
    node.Drain();
    Snapshot before = TakeSnapshot(*server, db.get());

    std::atomic<bool> stop{false};
    std::vector<uint64_t> probes_per_lane(node.lanes(), 0);
    std::thread ping_probe([&] {
      while (!stop.load()) {
        int64_t start = NowNs();
        auto reply = ping_rpc.CallSync(address, "ping", "p", 1'000'000);
        if (reply.ok()) spans.Record("net.ping", 0, start, NowNs());
        std::this_thread::sleep_for(kPingEvery);
      }
    });
    std::thread lane_probe([&] {
      for (uint64_t k = 0; !stop.load(); k++) {
        std::string oid = workload.UserId(k % workload.config().num_users);
        probes_per_lane[node.LaneFor(oid)]++;
        int64_t submitted = NowNs();
        node.RunOnLane(oid, [&spans, submitted](lo::runtime::Runtime&) {
          spans.Record("runtime.lane_wait", 0, submitted, NowNs());
        });
        std::this_thread::sleep_for(kLaneProbeEvery);
      }
    });
    PhaseResult run = RunClosedLoop(&rpc, address, config.requests->measured,
                                    &checker, &spans);
    stop.store(true);
    ping_probe.join();
    lane_probe.join();
    node.Drain();
    Snapshot after = TakeSnapshot(*server, db.get());

    out.attempted = warm.attempted + run.attempted;
    out.failed = warm.failed + run.failed;
    if (!warm.first_error.empty()) out.error = warm.first_error;
    if (!run.first_error.empty()) out.error = run.first_error;
    double n = static_cast<double>(config.requests->measured.size());
    out.tput_ops_s = n / run.seconds();

    // Counter-based metrics now; span-based ones once every thread that
    // records has stopped.
    double max_lane = 0, sum_lane = 0;
    for (size_t i = 0; i < node.lanes(); i++) {
      double jobs = static_cast<double>(after.lane_executed[i] - before.lane_executed[i] -
                                        probes_per_lane[i]);
      out.lane_jobs.push_back(jobs);
      max_lane = std::max(max_lane, jobs);
      sum_lane += jobs;
    }
    double lanes = static_cast<double>(node.lanes());
    double hits = static_cast<double>(after.cache_hits - before.cache_hits);
    double misses = static_cast<double>(after.cache_misses - before.cache_misses);
    double commits = static_cast<double>(after.commits.commits - before.commits.commits);
    double coalesced = static_cast<double>(after.commits.coalesced_bytes -
                                           before.commits.coalesced_bytes);
    double bc_hits = static_cast<double>(after.db.block_cache_hits - before.db.block_cache_hits);
    double bc_misses =
        static_cast<double>(after.db.block_cache_misses - before.db.block_cache_misses);
    double gets = static_cast<double>(after.db.gets - before.db.gets);
    std::vector<Metric>& layers = out.layers;
    layers.push_back({"runtime.lane_skew", Ratio(max_lane, sum_lane / lanes), "ratio"});
    layers.push_back({"runtime.result_cache_hit_ratio", Ratio(hits, hits + misses), "ratio"});
    layers.push_back({"runtime.aborts_per_kop",
                      static_cast<double>(after.runtime.aborts - before.runtime.aborts) * 1000 / n,
                      "count"});
    layers.push_back({"vm.fuel_per_op",
                      static_cast<double>(after.runtime.fuel_executed -
                                          before.runtime.fuel_executed) / n,
                      "count"});
    layers.push_back({"storage.compaction_mb",
                      static_cast<double>(after.db.compaction_bytes_written -
                                          before.db.compaction_bytes_written) / (1 << 20),
                      "MiB"});
    layers.push_back({"storage.stall_us_per_op",
                      static_cast<double>(after.db.stall_us - before.db.stall_us) / n, "us"});
    layers.push_back({"storage.block_cache_hit_ratio", Ratio(bc_hits, bc_hits + bc_misses),
                      "ratio"});

    server->Shutdown();
    server.reset();
    db.reset();

    // Span-based metrics over the measured window.
    std::vector<Span> all = spans.Collect();
    std::vector<int64_t> ping_ns, lane_wait_ns, sst_read_ns;
    double wal_sync_ns = 0, wal_bytes = 0, append_bytes = 0;
    for (const Span& span : all) {
      if (span.start_ns < before.at_ns || span.start_ns > after.at_ns) continue;
      std::string_view name = span.name;
      int64_t duration = span.end_ns - span.start_ns;
      if (name == "net.ping") ping_ns.push_back(duration);
      if (name == "runtime.lane_wait") lane_wait_ns.push_back(duration);
      if (name == "storage.sst_read") sst_read_ns.push_back(duration);
      if (name == "storage.wal_sync") wal_sync_ns += static_cast<double>(duration);
      if (name == "storage.wal_append") wal_bytes += static_cast<double>(span.value);
      if (name == "storage.wal_append" || name == "storage.file_append") {
        append_bytes += static_cast<double>(span.value);
      }
    }
    layers.push_back({"net.ping_rtt_p50_us",
                      static_cast<double>(SortedPercentile(ping_ns, 0.50)) * 1e-3, "us"});
    layers.push_back({"runtime.lane_wait_p50_us",
                      static_cast<double>(SortedPercentile(lane_wait_ns, 0.50)) * 1e-3, "us"});
    layers.push_back({"runtime.lane_wait_p99_us",
                      static_cast<double>(SortedPercentile(lane_wait_ns, 0.99)) * 1e-3, "us"});
    layers.push_back({"storage.wal_sync_us_per_commit", Ratio(wal_sync_ns * 1e-3, commits), "us"});
    layers.push_back({"storage.wal_bytes_per_commit", Ratio(wal_bytes, commits), "bytes"});
    layers.push_back({"storage.write_amp", Ratio(append_bytes, coalesced), "ratio"});
    layers.push_back({"storage.sst_reads_per_get",
                      Ratio(static_cast<double>(sst_read_ns.size()), gets), "count"});
    layers.push_back({"storage.sst_read_us_p50",
                      static_cast<double>(SortedPercentile(sst_read_ns, 0.50)) * 1e-3, "us"});
    WriteSpans(all, config.trace_path);
  }
  RemoveTree(config.db_dir);
  return out;
}

}  // namespace perfbench
