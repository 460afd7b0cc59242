// perfbench-driver: one benchmark run against the real lambdastore-server.
//
//   perfbench-driver --server-bin=PATH --work-dir=DIR --out-dir=DIR
//                    --workload=timeline|post|mix --seed=N --seconds=S
//                    --trace=0|1 [--graph-seed=42]
//
// Starts the unmodified server binary on a fresh database (three times,
// to take the median set-up time), drives it over loopback TCP with the
// seeded request list from a closed loop pinned to its own CPU, checks
// every reply, SIGKILLs and restarts the server to read acknowledged
// posts back, and prints one detail line and then the result line. With
// --trace=1 it then repeats the request list against the embedded stack
// (traced.cc) and prints the per-layer metrics instead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "clusterd/wire.h"
#include "common/rng.h"
#include "loadgen.h"
#include "net/rpc_client.h"
#include "report.h"
#include "requests.h"
#include "retwis/retwis.h"
#include "server_process.h"
#include "traced.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;              // set-ups per run; the median is reported
constexpr double kReadyTimeoutS = 120;  // spawn -> READY, seeding included
constexpr size_t kReadBackSample = 100;
constexpr uint64_t kReadBackLimit = 256;  // timeline entries read back
constexpr double kSaturatedShare = 0.9;   // generator CPU busy share

// Acknowledged writes survive a process kill: each commit group is
// written with sync=true, which PosixEnv implements as fflush.
constexpr char kFlushPolicy[] =
    "group commit with sync=true per group; PosixEnv::Sync is fflush only, "
    "so acknowledged writes survive a process kill, not a power cut";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t graph_seed = 42;
  double seconds = 20;
  int trace = 0;
  std::string server_bin;
  std::string work_dir;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    std::string key = arg.substr(2, eq - 2), value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "graph-seed") {
      args->graph_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "server-bin") {
      args->server_bin = value;
    } else if (key == "work-dir") {
      args->work_dir = value;
    } else if (key == "out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->server_bin.empty() &&
         !args->work_dir.empty() && !args->out_dir.empty() && args->seconds > 0;
}

using Stats = std::map<std::string, uint64_t>;

// The admin.stats counters the per-layer metrics are computed from.
constexpr const char* kStatsKeys[] = {
    "net_syscalls",  "net_poll_waits",       "net_bytes_out", "deadline_shed",
    "frame_rejects", "wrong_shard_rejects", "invocations_executed", "gc_commits",
    "gc_groups"};

lo::Result<Stats> AdminStats(lo::net::RpcClient* rpc, const std::string& address) {
  auto reply = rpc->CallSync(address, "admin.stats", "", 5'000'000);
  if (!reply.ok()) return reply.status();
  Stats stats;
  size_t pos = 0;
  while (pos < reply->size()) {
    size_t end = reply->find('\n', pos);
    if (end == std::string::npos) end = reply->size();
    std::string line = reply->substr(pos, end - pos);
    size_t eq = line.find('=');
    if (eq != std::string::npos) {
      stats[line.substr(0, eq)] = std::strtoull(line.c_str() + eq + 1, nullptr, 10);
    }
    pos = end + 1;
  }
  return stats;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n == 0 ? 0 : n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Machine-wide CPU ticks from /proc/stat; steal is time the hypervisor
/// ran something else while this VM had work.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};

HostCpu ReadHostCpu() {
  HostCpu out;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) out.total += x;
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}

/// Latency summary of one operation class, with its sample count. The
/// p99 is reported only when at least ten samples lie beyond it.
struct LatencySummary {
  size_t samples = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  size_t beyond_p99 = 0;
  bool has_p99 = false;
};

LatencySummary Summarize(std::vector<int64_t> ns) {
  LatencySummary out;
  std::sort(ns.begin(), ns.end());
  out.samples = ns.size();
  if (ns.empty()) return out;
  out.p50_ms = static_cast<double>(Percentile(ns, 0.50)) * 1e-6;
  out.p90_ms = static_cast<double>(Percentile(ns, 0.90)) * 1e-6;
  int64_t p99 = Percentile(ns, 0.99);
  out.p99_ms = static_cast<double>(p99) * 1e-6;
  out.beyond_p99 = static_cast<size_t>(ns.end() - std::upper_bound(ns.begin(), ns.end(), p99));
  out.has_p99 = out.beyond_p99 >= 10;
  return out;
}

JsonObject SummaryJson(const LatencySummary& s) {
  JsonObject out;
  out.Int("samples", static_cast<int64_t>(s.samples))
      .Num("p50_ms", s.p50_ms)
      .Num("p90_ms", s.p90_ms);
  if (s.has_p99) {
    out.Num("p99_ms", s.p99_ms);
  } else {
    out.Null("p99_ms");
  }
  return out.Int("samples_beyond_p99", static_cast<int64_t>(s.beyond_p99));
}

std::string JsonStrings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); i++) {
    out += (i ? ", " : "") + JsonObject::Quote(items[i]);
  }
  return out + "]";
}

struct RunState {
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Absorb(const PhaseResult& phase, const char* what) {
    attempted += phase.attempted;
    failed += phase.failed;
    if (phase.failed > 0) {
      errors.push_back(std::string(what) + ": " + std::to_string(phase.failed) +
                       " failed, first: " + phase.first_error);
    }
  }
};

std::string TimelinePayload(const lo::retwis::Workload& workload, uint32_t user,
                            uint64_t limit) {
  return lo::clusterd::EncodeInvoke(workload.UserId(user), "get_timeline",
                                    lo::retwis::EncodeU64(limit), {});
}

/// After the restart: acknowledged posts must be in their followers'
/// timelines; with no posts, the seeded timelines must be intact.
void ReadBack(lo::net::RpcClient* rpc, const std::string& address,
              const lo::retwis::Workload& workload,
              const std::vector<std::vector<uint32_t>>& followers,
              const std::vector<const Request*>& acked, uint64_t seed,
              RunState* state) {
  lo::Rng rng(seed ^ 0x5eed0fbacc0ffeeULL);
  size_t checks = acked.empty() ? kReadBackSample
                                : std::min(kReadBackSample, acked.size());
  std::vector<size_t> picks(acked.size());
  for (size_t i = 0; i < picks.size(); i++) picks[i] = i;
  uint64_t failures = 0;
  std::string first;
  for (size_t c = 0; c < checks; c++) {
    std::string error;
    if (acked.empty()) {
      uint32_t user = static_cast<uint32_t>(rng.Uniform(workload.config().num_users));
      auto reply = rpc->CallSync(address, "lambda.invoke",
                                 TimelinePayload(workload, user, 10), 10'000'000);
      auto posts = reply.ok() ? lo::retwis::DecodeTimeline(*reply)
                              : lo::Result<std::vector<lo::retwis::Post>>(reply.status());
      if (!posts.ok()) {
        error = posts.status().ToString();
      } else {
        for (size_t j = 0; j < posts->size(); j++) {
          std::string want = "seed-post-" + std::to_string(posts->size() - 1 - j);
          if ((*posts)[j].message.rfind(want, 0) != 0) error = "seeded post missing";
        }
        if (posts->size() != 10) error = "seeded timeline truncated";
      }
      if (!error.empty()) error = workload.UserId(user) + ": " + error;
    } else {
      std::swap(picks[c], picks[c + rng.Uniform(picks.size() - c)]);
      const Request& post = *acked[picks[c]];
      const auto& fans = followers[post.user];
      uint32_t reader = fans.empty() ? post.user : fans[rng.Uniform(fans.size())];
      auto reply = rpc->CallSync(address, "lambda.invoke",
                                 TimelinePayload(workload, reader, kReadBackLimit),
                                 10'000'000);
      auto posts = reply.ok() ? lo::retwis::DecodeTimeline(*reply)
                              : lo::Result<std::vector<lo::retwis::Post>>(reply.status());
      if (!posts.ok()) {
        error = posts.status().ToString();
      } else if (std::none_of(posts->begin(), posts->end(), [&](const auto& p) {
                   return p.message == post.message;
                 })) {
        error = "acknowledged post by " + workload.UserId(post.user) +
                " lost from " + workload.UserId(reader) + "'s timeline";
      }
    }
    state->attempted++;
    if (!error.empty()) {
      failures++;
      state->failed++;
      if (first.empty()) first = error;
    }
  }
  if (failures > 0) {
    state->errors.push_back("read-back after restart: " + std::to_string(failures) +
                            " of " + std::to_string(checks) + " failed, first: " + first);
  }
}

struct Untraced {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;  // server counters, read from every run
  JsonObject detail;
  double tput_ops_s = 0;
};

/// The measured run against the real binary. Returns false (with
/// `fatal`) when the run could not happen at all.
bool RunUntraced(const Args& args, const WorkloadSpec& spec,
                 const lo::retwis::Workload& workload,
                 const std::vector<std::vector<uint32_t>>& followers,
                 const RequestList& requests, const CpuSplit& split,
                 RunState* state, Untraced* out, std::string* fatal) {
  std::string db = args.work_dir + "/db-" + spec.name;
  std::vector<std::string> flags = {
      args.server_bin, "--db=" + db, "--seed-users=" + std::to_string(workload.config().num_users),
      "--seed-posts=" + std::to_string(workload.config().initial_posts_per_user),
      "--seed=" + std::to_string(args.graph_seed)};
  std::vector<std::string> restart_flags = {args.server_bin, "--db=" + db};

  double started_at = NowSeconds();
  ServerProcess server;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; i++) {
    RemoveTree(db);
    auto ready = server.Start(flags, split.server, kReadyTimeoutS);
    if (!ready.ok()) {
      *fatal = "server set-up: " + ready.status().ToString();
      return false;
    }
    setups.push_back(*ready);
    if (i + 1 < kSetups) server.Kill();
  }
  lo::net::RpcClient rpc;  // its loop thread inherits the generator CPU
  ReplyChecker checker(workload, workload.config().timeline_limit);

  double warm_at = NowSeconds();
  PhaseResult warm = RunClosedLoop(&rpc, server.address(), requests.warmup, &checker);
  state->Absorb(warm, "warm-up");
  // Lane counters tick just after a reply leaves; let them settle.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto before = AdminStats(&rpc, server.address());
  HostCpu host_before = ReadHostCpu();
  auto cpu_before = server.CpuSeconds();
  double self_before = SelfCpuSeconds();
  PhaseResult run = RunClosedLoop(&rpc, server.address(), requests.measured, &checker);
  double self_after = SelfCpuSeconds();
  auto cpu_after = server.CpuSeconds();
  HostCpu host_after = ReadHostCpu();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto after = AdminStats(&rpc, server.address());
  auto rss = server.PeakRssMib();
  state->Absorb(run, "measured");
  if (!before.ok() || !after.ok() || !cpu_before.ok() || !cpu_after.ok() || !rss.ok()) {
    *fatal = "server counters unavailable";
    return false;
  }
  for (const char* key : kStatsKeys) {
    if (!before->count(key) || !after->count(key)) {
      *fatal = std::string("admin.stats has no ") + key;
      return false;
    }
  }
  double disk_mb = static_cast<double>(DirectoryBytes(db)) / (1 << 20);

  // Durability across a process crash: SIGKILL, restart on the same
  // directory without seeding, read acknowledged posts back.
  double measured_done_at = NowSeconds();
  server.Kill();
  auto recovered = server.Start(restart_flags, split.server, kReadyTimeoutS);
  if (!recovered.ok()) {
    *fatal = "restart after SIGKILL: " + recovered.status().ToString();
    return false;
  }
  std::vector<const Request*> acked;
  for (uint32_t i : warm.acked_posts) acked.push_back(&requests.warmup[i]);
  for (uint32_t i : run.acked_posts) acked.push_back(&requests.measured[i]);
  ReadBack(&rpc, server.address(), workload, followers, acked, args.seed, state);
  server.Kill();
  RemoveTree(db);
  double done_at = NowSeconds();

  // --- metrics -------------------------------------------------------
  double n = static_cast<double>(requests.measured.size());
  double seconds = run.seconds();
  std::vector<int64_t> all, per_op[kNumOps];
  for (size_t i = 0; i < requests.measured.size(); i++) {
    int64_t ns = run.latency_ns[i];
    if (ns < 0) continue;
    all.push_back(ns);
    per_op[static_cast<int>(requests.measured[i].op)].push_back(ns);
  }
  LatencySummary total = Summarize(all);
  out->tput_ops_s = n / seconds;
  double server_cpu = *cpu_after - *cpu_before;
  double self_cpu = self_after - self_before;
  out->end_to_end.push_back({"setup_s", Median(setups), "s"});
  out->end_to_end.push_back({"tput_ops_s", out->tput_ops_s, "ops/s"});
  // Tails stay in the detail line: on a shared VM the p99 follows the
  // hypervisor's steal time more than the server (see README.md).
  out->end_to_end.push_back({"p50_ms", total.p50_ms, "ms"});
  out->end_to_end.push_back({"cpu_us_per_op", server_cpu * 1e6 / n, "us"});
  out->end_to_end.push_back({"server_rss_mb", *rss, "MiB"});

  auto delta = [&](const char* key) {
    return static_cast<double>(after->at(key) - before->at(key));  // keys checked above
  };
  std::vector<Metric>& layers = out->layers;
  layers.push_back({"net.syscalls_per_op",
                    (delta("net_syscalls") + delta("net_poll_waits")) / n, "count"});
  layers.push_back({"net.bytes_out_per_op", delta("net_bytes_out") / n, "bytes"});
  layers.push_back({"clusterd.rejects_per_kop",
                    (delta("deadline_shed") + delta("frame_rejects") +
                     delta("wrong_shard_rejects")) * 1000 / n, "count"});
  layers.push_back({"runtime.invocations_per_op", delta("invocations_executed") / n, "count"});
  layers.push_back({"storage.commits_per_op", delta("gc_commits") / n, "count"});
  layers.push_back({"storage.commits_per_group",
                    Ratio(delta("gc_commits"), delta("gc_groups")), "count"});
  layers.push_back({"storage.disk_mb", disk_mb, "MiB"});
  layers.push_back({"storage.recovery_s", *recovered, "s"});
  layers.push_back({"loadgen.cpu_us_per_op", self_cpu * 1e6 / n, "us"});

  double busy = self_cpu / seconds;
  bool saturated = busy > kSaturatedShare;
  if (saturated) {
    std::fprintf(stderr, "perfbench: WARNING: the generator was busy %.0f%% of the "
                 "run; its CPU, not the server, may set the throughput\n", busy * 100);
  }
  // Ten equal time slices of the measured portion, by completion time:
  // shows whether a run was slow throughout or only for a stretch.
  constexpr int kSlices = 10;
  std::vector<std::vector<int64_t>> slice_ns(kSlices);
  for (size_t i = 0; i < requests.measured.size(); i++) {
    if (run.latency_ns[i] < 0) continue;
    int64_t done = run.sent_ns[i] + run.latency_ns[i];
    slice_ns[(done - run.start_ns) * kSlices / (run.end_ns - run.start_ns + 1)].push_back(
        run.latency_ns[i]);
  }
  std::string slices;
  for (auto& ns : slice_ns) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s[%.1f, %.4f]", slices.empty() ? "" : ", ",
                  static_cast<double>(ns.size()) / (seconds / kSlices), Summarize(ns).p50_ms);
    slices += buf;
  }
  out->detail.Raw("slices_tput_p50", "[" + slices + "]");
  JsonObject latency;
  latency.Obj("all", SummaryJson(total));
  for (int op = 0; op < kNumOps; op++) {
    if (!per_op[op].empty()) {
      latency.Obj(OpLabel(static_cast<Op>(op)), SummaryJson(Summarize(per_op[op])));
    }
  }
  JsonObject counters;
  for (const auto& [key, value] : *after) {
    if (key == "node" || key == "lanes" || key == "net_backend" || key == "net_reactors") {
      continue;  // configuration, not counters
    }
    if (before->count(key)) counters.Int(key, static_cast<int64_t>(value - before->at(key)));
  }
  std::string setup_list;
  for (double s : setups) setup_list += (setup_list.empty() ? "" : ", ") + std::to_string(s);
  out->detail.Str("flush_policy", kFlushPolicy)
      .Raw("server_flags", JsonStrings(flags))
      .Raw("restart_flags", JsonStrings(restart_flags))
      .Raw("setup_s_each", "[" + setup_list + "]")
      .Int("warmup_requests", static_cast<int64_t>(requests.warmup.size()))
      .Int("measured_requests", static_cast<int64_t>(requests.measured.size()))
      .Num("measured_s", seconds)
      .Obj("phase_s", JsonObject()
                          .Num("setups", warm_at - started_at)
                          .Num("warmup", static_cast<double>(run.start_ns - warm.start_ns) * 1e-9)
                          .Num("measured", seconds)
                          .Num("durability_check", done_at - measured_done_at))
      .Num("host_steal_share", Ratio(static_cast<double>(host_after.steal - host_before.steal),
                                     static_cast<double>(host_after.total - host_before.total)))
      .Obj("latency", latency)
      .Obj("server_counters_delta", counters)
      .Obj("loadgen", JsonObject()
                          .Int("outstanding", kOutstanding)
                          .Int("connections", 1)
                          .Num("cpu_busy_share", busy)
                          .Bool("saturated", saturated));
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: perfbench-driver --server-bin=PATH --work-dir=DIR "
                 "--out-dir=DIR --workload=NAME --seed=N --seconds=S --trace=0|1\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  lo::retwis::WorkloadConfig config;
  config.num_users = 10000;
  config.initial_posts_per_user = 10;
  config.seed = args.graph_seed;
  lo::retwis::Workload workload(config);
  auto followers = FollowerLists(workload);
  if (!followers.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", followers.status().ToString().c_str());
    return 1;
  }
  RequestList requests = BuildRequests(workload, *spec, args.seed, args.seconds);

  CpuSplit split = MakeCpuSplit();
  if (!PinThisThread(split.generator).ok()) {
    std::fprintf(stderr, "perfbench: cannot pin the generator\n");
    return 1;
  }
  RunState state;
  Untraced untraced;
  std::string fatal;
  if (!RunUntraced(args, *spec, workload, *followers, requests, split, &state,
                   &untraced, &fatal)) {
    std::fprintf(stderr, "perfbench: %s\n", fatal.c_str());
    return 1;
  }

  std::vector<Metric> metrics = untraced.end_to_end;
  if (args.trace != 0) {
    TracedConfig traced_config;
    traced_config.workload = &workload;
    traced_config.requests = &requests;
    traced_config.split = split;
    traced_config.db_dir = args.work_dir + "/db-traced-" + spec->name;
    traced_config.trace_path = args.out_dir + "/trace-" + spec->name + ".json";
    TracedResult traced = RunTraced(traced_config);
    state.attempted += traced.attempted;
    state.failed += traced.failed;
    if (!traced.error.empty()) state.errors.push_back("traced run: " + traced.error);
    metrics = untraced.layers;
    metrics.insert(metrics.end(), traced.layers.begin(), traced.layers.end());
    metrics.push_back({"trace.overhead", Ratio(untraced.tput_ops_s, traced.tput_ops_s), "ratio"});
    std::string lane_jobs;
    for (double jobs : traced.lane_jobs) {
      lane_jobs += (lane_jobs.empty() ? "" : ", ") + std::to_string(static_cast<int64_t>(jobs));
    }
    untraced.detail.Obj("traced", JsonObject()
                                      .Num("tput_ops_s", traced.tput_ops_s)
                                      .Num("untraced_tput_ops_s", untraced.tput_ops_s)
                                      .Raw("lane_jobs", "[" + lane_jobs + "]")
                                      .Str("spans", traced_config.trace_path));
  } else {
    untraced.detail.Obj("server_layers", MetricsJson(untraced.layers));
  }

  bool correct = state.errors.empty() && state.failed == 0;
  JsonObject machine;
  machine.Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("cpu_model", CpuModel())
      .Str("kernel", KernelRelease())
      .Str("cpu_split", split.Describe());
  JsonObject detail;
  detail.Str("workload", spec->name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Int("graph_seed", static_cast<int64_t>(args.graph_seed))
      .Num("seconds", args.seconds)
      .Int("trace", args.trace)
      .Obj("machine", machine)
      .Raw("errors", JsonStrings(state.errors))
      .Merge(untraced.detail);
  std::string detail_json = detail.Dump();

  std::string result_path = args.out_dir + "/" + spec->name + "-seed" +
                            std::to_string(args.seed) + "-trace" +
                            std::to_string(args.trace) + ".json";
  if (FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", detail_json.c_str());
    std::fclose(f);
  }
  for (const std::string& error : state.errors) {
    std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", error.c_str());
  }
  std::printf("%s\n", JsonObject().Raw("perfbench_detail", detail_json).Dump().c_str());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", static_cast<int64_t>(state.attempted))
                          .Int("failed", static_cast<int64_t>(state.failed))
                          .Obj("metrics", MetricsJson(metrics))
                          .Dump()
                          .c_str());
  return 0;
}
