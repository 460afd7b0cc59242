// A9 — elasticity: live microshard migration under a load hotspot, on
// the real multi-process cluster (paper §4.2.1, Akkio-style
// rebalancing).
//
// Topology: one lambdastore-coordinator + 3 lambdastore-server
// processes over loopback TCP, every server seeded with the same ReTwis
// graph (hash placement splits ownership three ways). The driver runs
// closed-loop client threads through clusterd::Client (cached directory,
// kWrongShard -> refresh-and-resend) and emits one JSON line per
// measurement window.
//
// Phases:
//   baseline  uniform GetTimeline + a trickle of posts; establishes the
//             steady-state throughput.
//   hotspot   85% of reads pinned to 8 "celebrity" users chosen so they
//             all hash-place onto server 1; simultaneously a 4th server
//             is spawned and registers (directory-only shard — hash
//             placements never remap). The coordinator's rebalancer sees
//             the skewed load reports and live-migrates the celebrities
//             off the hot node, a few per round, while the workload
//             keeps running; bounced requests redirect via directory
//             refresh. Throughput recovers as the celebrities spread.
//
// The run ends when throughput has recovered to --recover x baseline
// for two consecutive windows after at least one migration (or at
// --max-windows). --smoke (or LO_BENCH_QUICK=1) shrinks everything and
// turns on the lenient structural assertions used by ctest: at least
// one migration happened, the error rate stayed low, and the cluster
// was not left slower than a third of baseline.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clusterd/client.h"
#include "clusterd/wire.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/log.h"
#include "common/rng.h"
#include "net/rpc_client.h"
#include "retwis/retwis.h"
#include "retwis/workload.h"

extern char** environ;

namespace {

using namespace lo;

std::string SiblingBin(const char* name) {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return name;
  buf[n] = '\0';
  std::string path(buf);
  size_t slash = path.rfind('/');
  if (slash == std::string::npos) return name;
  return path.substr(0, slash) + "/../tools/" + name;
}

// Owns a spawned cluster process; SIGKILLed on scope exit unless waited.
struct Proc {
  pid_t pid = -1;
  int stdout_fd = -1;
  uint16_t port = 0;

  Proc() = default;
  Proc(Proc&& other) noexcept { *this = std::move(other); }
  Proc& operator=(Proc&& other) noexcept {
    std::swap(pid, other.pid);
    std::swap(stdout_fd, other.stdout_fd);
    std::swap(port, other.port);
    return *this;
  }
  ~Proc() {
    if (stdout_fd >= 0) close(stdout_fd);
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
};

Proc Spawn(const std::string& bin, std::vector<std::string> args) {
  args.insert(args.begin(), bin);
  int pipefd[2];
  LO_CHECK_MSG(pipe(pipefd) == 0, "pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipefd[0]);
  posix_spawn_file_actions_addclose(&actions, pipefd[1]);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  Proc proc;
  int rc = posix_spawn(&proc.pid, args[0].c_str(), &actions, nullptr,
                       argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipefd[1]);
  if (rc != 0) {
    close(pipefd[0]);
    std::fprintf(stderr, "posix_spawn %s: %s\n", args[0].c_str(), strerror(rc));
    LO_CHECK_MSG(false, "cannot spawn cluster process");
  }
  proc.stdout_fd = pipefd[0];

  std::string out;
  while (true) {
    size_t pos = out.find("READY port=");
    if (pos != std::string::npos && out.find('\n', pos) != std::string::npos) {
      proc.port = static_cast<uint16_t>(
          std::atoi(out.c_str() + pos + strlen("READY port=")));
      return proc;
    }
    struct pollfd pfd = {proc.stdout_fd, POLLIN, 0};
    LO_CHECK_MSG(poll(&pfd, 1, 30'000) > 0, "process did not print READY in 30s");
    char buf[256];
    ssize_t n = read(proc.stdout_fd, buf, sizeof(buf));
    LO_CHECK_MSG(n > 0, "process exited before READY");
    out.append(buf, static_cast<size_t>(n));
  }
}

// Pulls "<key>=<value>\n" out of an admin.stats body.
uint64_t StatsField(const std::string& stats, const std::string& key) {
  std::string needle = key + "=";
  size_t pos = 0;
  while (pos < stats.size()) {
    size_t eol = stats.find('\n', pos);
    if (eol == std::string::npos) eol = stats.size();
    if (stats.compare(pos, needle.size(), needle) == 0) {
      return std::strtoull(stats.c_str() + pos + needle.size(), nullptr, 10);
    }
    pos = eol + 1;
  }
  return 0;
}

struct BenchConfig {
  uint64_t users = 2000;
  uint64_t posts_per_user = 5;
  int clients = 16;
  int64_t window_ms = 500;
  int baseline_windows = 6;
  int max_windows = 60;
  double recover = 0.8;      // recovery target, fraction of baseline
  int64_t report_interval_ms = 100;
  int64_t rebalance_interval_ms = 200;
  double skew = 1.5;
  uint64_t min_requests = 200;
  int migrations_per_round = 2;
  uint64_t seed = 42;
  bool smoke = false;
};

struct ClientSlot {
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> directory_refreshes{0};
  std::atomic<uint64_t> redirects{0};
  std::mutex mu;
  Histogram latency_us;  // guarded by mu; swapped out per window
};

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  const char* quick_env = std::getenv("LO_BENCH_QUICK");
  if (quick_env != nullptr && quick_env[0] == '1') config.smoke = true;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  if (config.smoke) {
    config.users = 300;
    config.posts_per_user = 2;
    config.clients = 8;
    config.window_ms = 250;
    config.baseline_windows = 4;
    config.max_windows = 40;
    config.recover = 0.3;  // structural gate only; the full run uses 0.8
    config.rebalance_interval_ms = 100;
    config.skew = 1.6;  // uniform baseline at low volume is noisy
    config.min_requests = 100;
  }

  const std::string server_bin = [] {
    const char* env = std::getenv("LO_NET_SERVER_BIN");
    return env != nullptr && env[0] != '\0' ? std::string(env)
                                            : SiblingBin("lambdastore-server");
  }();
  const std::string coord_bin = [] {
    const char* env = std::getenv("LO_COORD_BIN");
    return env != nullptr && env[0] != '\0'
               ? std::string(env)
               : SiblingBin("lambdastore-coordinator");
  }();

  // --- cluster up: coordinator + 3 hash-placed servers -----------------
  const int initial_servers = 3;
  Proc coordinator = Spawn(
      coord_bin,
      {"--hash-servers=" + std::to_string(initial_servers),
       "--rebalance-interval-ms=" + std::to_string(config.rebalance_interval_ms),
       "--skew=" + std::to_string(config.skew),
       "--min-requests=" + std::to_string(config.min_requests),
       "--migrations-per-round=" + std::to_string(config.migrations_per_round)});
  const std::string coord_address =
      "127.0.0.1:" + std::to_string(coordinator.port);

  auto spawn_server = [&] {
    return Spawn(server_bin,
                 {"--coordinator=" + coord_address,
                  "--report-interval-ms=" + std::to_string(config.report_interval_ms),
                  "--seed-users=" + std::to_string(config.users),
                  "--seed-posts=" + std::to_string(config.posts_per_user),
                  "--seed=" + std::to_string(config.seed)});
  };
  std::vector<Proc> servers;
  for (int i = 0; i < initial_servers; i++) servers.push_back(spawn_server());

  // Celebrities: 8 users that all hash-place onto the first server
  // (shard 0), so the hotspot phase concentrates on one node.
  retwis::WorkloadConfig workload_config;
  workload_config.num_users = config.users;
  workload_config.initial_posts_per_user = config.posts_per_user;
  workload_config.seed = config.seed;
  retwis::Workload workload(workload_config);
  std::vector<std::string> celebrities;
  for (uint64_t i = 0; i < config.users && celebrities.size() < 8; i++) {
    std::string oid = workload.UserId(i);
    if (Fnv1a64(oid) % initial_servers == 0) celebrities.push_back(oid);
  }
  LO_CHECK_MSG(celebrities.size() == 8, "graph too small for 8 celebrities");

  // --- closed-loop clients --------------------------------------------
  net::RpcClient rpc;  // one loop thread multiplexes all client threads
  std::atomic<int> phase{0};  // 0 = baseline, 1 = hotspot, 2 = done
  std::vector<std::unique_ptr<ClientSlot>> slots;
  for (int i = 0; i < config.clients; i++) {
    slots.push_back(std::make_unique<ClientSlot>());
  }
  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  for (int i = 0; i < config.clients; i++) {
    threads.emplace_back([&, i] {
      clusterd::ClientOptions options;
      options.seed = config.seed * 1000003 + static_cast<uint64_t>(i);
      options.request_timeout_us = 5'000'000;
      options.retry_budget_us = 10'000'000;
      clusterd::Client client(&rpc, coord_address, options);
      Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1)));
      ClientSlot& slot = *slots[static_cast<size_t>(i)];
      const std::string limit = retwis::EncodeU64(workload_config.timeline_limit);
      while (true) {
        int p = phase.load(std::memory_order_acquire);
        if (p == 2) break;
        retwis::Request request;
        uint64_t dice = rng.Uniform(100);
        if (p == 1 && dice < 85) {
          request = {celebrities[rng.Uniform(celebrities.size())],
                     "get_timeline", limit};
        } else if (dice < 95) {
          request = workload.Next(retwis::OpType::kGetTimeline, rng);
        } else {
          request = workload.Next(retwis::OpType::kPost, rng);
        }
        auto started = std::chrono::steady_clock::now();
        Result<std::string> result =
            client.Invoke(request.oid, request.method, request.argument);
        int64_t elapsed_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - started)
                .count();
        if (result.ok()) {
          slot.completed.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(slot.mu);
          slot.latency_us.Record(elapsed_us);
        } else {
          slot.errors.fetch_add(1, std::memory_order_relaxed);
        }
        slot.directory_refreshes.store(client.metrics().directory_refreshes,
                                       std::memory_order_relaxed);
        slot.redirects.store(client.metrics().redirects,
                             std::memory_order_relaxed);
      }
    });
  }

  // --- window loop -----------------------------------------------------
  auto sum = [&](auto member) {
    uint64_t total = 0;
    for (auto& slot : slots) total += ((*slot).*member).load(std::memory_order_relaxed);
    return total;
  };
  auto coordinator_stats = [&] {
    auto reply = rpc.CallSync(coord_address, "admin.stats", "", 2'000'000);
    return reply.ok() ? *reply : std::string();
  };

  double baseline_throughput = 0;
  int baseline_counted = 0;
  uint64_t total_errors = 0, total_completed = 0;
  uint64_t migrations_seen = 0;
  int recovered_streak = 0;
  bool spawned_fourth = false;
  double recovered_at_fraction = 0;

  uint64_t prev_completed = 0;
  for (int window = 0; window < config.max_windows; window++) {
    bool hotspot = window >= config.baseline_windows;
    if (hotspot && !spawned_fourth) {
      // Elastic scale-out at the moment the hotspot begins: the new
      // server registers (directory-only shard) and becomes the
      // rebalancer's natural target.
      servers.push_back(spawn_server());
      spawned_fourth = true;
      phase.store(1, std::memory_order_release);
    }
    auto window_start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(config.window_ms));
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - window_start)
                         .count();

    uint64_t completed = sum(&ClientSlot::completed);
    uint64_t errors = sum(&ClientSlot::errors);
    uint64_t window_completed = completed - prev_completed;
    prev_completed = completed;
    Histogram window_latency;
    for (auto& slot : slots) {
      std::lock_guard<std::mutex> lock(slot->mu);
      window_latency.Merge(slot->latency_us);
      slot->latency_us.Clear();
    }
    std::string stats = coordinator_stats();
    migrations_seen = StatsField(stats, "migrations_done");
    double throughput = static_cast<double>(window_completed) / seconds;
    total_errors = errors;
    total_completed = completed;

    std::printf(
        "{\"experiment\":\"A9\",\"window\":%d,\"phase\":\"%s\","
        "\"seconds\":%.3f,\"throughput\":%.1f,\"p50_us\":%lld,"
        "\"p99_us\":%lld,\"errors\":%llu,\"migrations\":%llu,"
        "\"directory_refreshes\":%llu,\"redirects\":%llu,\"servers\":%zu}\n",
        window, hotspot ? "hotspot" : "baseline", seconds, throughput,
        static_cast<long long>(window_latency.Percentile(0.5)),
        static_cast<long long>(window_latency.Percentile(0.99)),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(migrations_seen),
        static_cast<unsigned long long>(sum(&ClientSlot::directory_refreshes)),
        static_cast<unsigned long long>(sum(&ClientSlot::redirects)),
        servers.size());
    std::fflush(stdout);

    if (!hotspot && window > 0) {  // window 0 is warmup
      baseline_throughput += throughput;
      baseline_counted++;
    }
    if (hotspot && baseline_counted > 0) {
      double baseline = baseline_throughput / baseline_counted;
      double fraction = baseline > 0 ? throughput / baseline : 0;
      if (migrations_seen >= 1 && fraction >= config.recover) {
        recovered_streak++;
        recovered_at_fraction = fraction;
        if (recovered_streak >= 2) break;
      } else {
        recovered_streak = 0;
      }
    }
  }
  phase.store(2, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  double baseline =
      baseline_counted > 0 ? baseline_throughput / baseline_counted : 0;
  std::printf(
      "{\"experiment\":\"A9\",\"summary\":true,\"baseline_throughput\":%.1f,"
      "\"migrations\":%llu,\"recovered\":%s,\"recovered_fraction\":%.2f,"
      "\"errors\":%llu,\"completed\":%llu}\n",
      baseline, static_cast<unsigned long long>(migrations_seen),
      recovered_streak >= 2 ? "true" : "false", recovered_at_fraction,
      static_cast<unsigned long long>(total_errors),
      static_cast<unsigned long long>(total_completed));
  std::fflush(stdout);

  // --- teardown --------------------------------------------------------
  for (Proc& server : servers) {
    (void)rpc.CallSync("127.0.0.1:" + std::to_string(server.port),
                       "admin.shutdown", "", 2'000'000);
  }
  (void)rpc.CallSync(coord_address, "admin.shutdown", "", 2'000'000);
  auto reap = [](Proc& proc) {
    for (int i = 0; i < 100; i++) {
      if (waitpid(proc.pid, nullptr, WNOHANG) == proc.pid) {
        proc.pid = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };
  for (Proc& server : servers) reap(server);
  reap(coordinator);

  if (config.smoke) {
    // Structural gates, deliberately lenient: the smoke run proves the
    // machinery (migration fired, redirects worked, cluster stayed
    // correct), not the performance claim — that is the full run's job.
    bool ok = true;
    if (migrations_seen < 1) {
      std::fprintf(stderr, "SMOKE FAIL: no load-driven migration happened\n");
      ok = false;
    }
    if (total_completed == 0 ||
        total_errors * 20 > total_completed) {  // >5% errors
      std::fprintf(stderr, "SMOKE FAIL: error rate too high (%llu/%llu)\n",
                   static_cast<unsigned long long>(total_errors),
                   static_cast<unsigned long long>(total_completed));
      ok = false;
    }
    return ok ? 0 : 1;
  }
  return 0;
}
