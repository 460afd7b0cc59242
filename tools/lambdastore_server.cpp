// lambdastore-server: one LambdaStore node as a real process.
//
// Hosts clusterd::ServerNode — runtime::ParallelNode (one execution lane
// + WAL group commit) behind net::RpcServer, speaking the shared frame
// wire format. Standalone (no --coordinator) it is the server that
// perfbench, the A13 saturation bench and the net/clusterd tests spawn;
// with --coordinator it registers with a lambdastore-coordinator
// process, serves only the microshards the directory assigns it
// (bouncing the rest with kWrongShard), reports per-window load, and
// takes part in live object migration (shard.migrate / shard.install).
//
// Invocations complete asynchronously: the RPC handler decodes the
// payload and enqueues on the lane; the lane thread re-checks ownership
// and the deadline, runs the method (nested calls recurse on the same
// thread), waits for the group commit, and fires the Responder. The
// handler itself never blocks.
//
// Flags:
//   --port=N         listen port; 0 = ephemeral (default)
//   --db=PATH        persist under PATH with PosixEnv; default in-memory
//   --net-threads=N  transport reactor threads, one SO_REUSEPORT
//                    listener each (default 1)
//   --coordinator=IP:PORT  join the cluster at this coordinator
//   --advertise=HOST host peers/clients dial (default 127.0.0.1)
//   --report-interval-ms=N  load-report/heartbeat cadence (default 200)
//   --seed-users=N   pre-seed a ReTwis social graph with N users (on a
//                    single-threaded DB, which is then reopened to serve)
//   --seed-posts=N   initial posts per user for the seeded graph
//   --seed=N         workload generator seed (default 42)
//   --tenants=SPEC   per-tenant QoS contracts, e.g.
//                    "1:weight=4,rate=2000,burst=200,fuel=5000000,inflight=64;2:weight=1"
//
// See docs/tuning.md for how these interact with the workload.
//
// Prints "READY port=<p>" on stdout once listening (the harness and the
// loopback smoke test parse it), then serves until SIGINT/SIGTERM or an
// "admin.shutdown" RPC. Shutdown is a graceful drain: stop accepting,
// finish the lane's queued work, flush the memtable. Exit code 0 = clean
// drain; 1 = forced (a second signal arrived before the drain ended).
#include <signal.h>
#include <stdio.h>
#include <string.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "clusterd/server.h"
#include "common/log.h"
#include "retwis/retwis.h"
#include "retwis/workload.h"
#include "storage/db.h"
#include "storage/env.h"
#include "tenant/tenant.h"

namespace {

struct Flags {
  uint16_t port = 0;
  std::string db_path;  // empty = MemEnv
  std::string coordinator;
  std::string advertise = "127.0.0.1";
  int64_t report_interval_ms = 200;
  uint64_t seed_users = 0;
  uint64_t seed_posts = 10;
  uint64_t seed = 42;
  std::string tenants;  // QoS spec; empty = tenancy off
  int64_t net_threads = 1;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i++) {
    std::string value;
    if (ParseFlag(argv[i], "port", &value)) {
      flags.port = static_cast<uint16_t>(std::stoi(value));
    } else if (ParseFlag(argv[i], "db", &value)) {
      flags.db_path = value;
    } else if (ParseFlag(argv[i], "coordinator", &value)) {
      flags.coordinator = value;
    } else if (ParseFlag(argv[i], "advertise", &value)) {
      flags.advertise = value;
    } else if (ParseFlag(argv[i], "report-interval-ms", &value)) {
      flags.report_interval_ms = std::stoll(value);
    } else if (ParseFlag(argv[i], "seed-users", &value)) {
      flags.seed_users = std::stoull(value);
    } else if (ParseFlag(argv[i], "seed-posts", &value)) {
      flags.seed_posts = std::stoull(value);
    } else if (ParseFlag(argv[i], "seed", &value)) {
      flags.seed = std::stoull(value);
    } else if (ParseFlag(argv[i], "tenants", &value)) {
      flags.tenants = value;
    } else if (ParseFlag(argv[i], "net-threads", &value)) {
      flags.net_threads = std::stoll(value);
    } else {
      fprintf(stderr, "unknown flag: %s\n", argv[i]);
      exit(2);
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  // Block the shutdown signals before any thread spawns, so every thread
  // inherits the mask and only the main thread (via sigtimedwait below)
  // ever observes them.
  sigset_t sigmask;
  sigemptyset(&sigmask);
  sigaddset(&sigmask, SIGINT);
  sigaddset(&sigmask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigmask, nullptr);

  lo::storage::MemEnv mem_env;
  lo::storage::PosixEnv posix_env;
  lo::storage::Options db_options;
  db_options.env = flags.db_path.empty()
                       ? static_cast<lo::storage::Env*>(&mem_env)
                       : static_cast<lo::storage::Env*>(&posix_env);
  std::string db_name = flags.db_path.empty() ? "/db" : flags.db_path;
  auto open_db = [&](bool shared) -> std::unique_ptr<lo::storage::DB> {
    db_options.serialize_access = shared;
    auto opened = lo::storage::DB::Open(db_options, db_name);
    if (!opened.ok()) {
      fprintf(stderr, "DB::Open(%s): %s\n", db_name.c_str(),
              opened.status().ToString().c_str());
      return nullptr;
    }
    return std::move(*opened);
  };

  // Seed, then serve. The seeding DB is single-threaded, so its flushes
  // and compactions run inline; seeding beside the maintenance thread
  // queues memtables behind it and leaves their heap resident for the
  // whole run.
  if (flags.seed_users > 0) {
    std::unique_ptr<lo::storage::DB> seeding = open_db(/*shared=*/false);
    if (seeding == nullptr) return 1;
    lo::retwis::WorkloadConfig config;
    config.num_users = flags.seed_users;
    config.initial_posts_per_user = flags.seed_posts;
    config.seed = flags.seed;
    lo::retwis::Workload workload(config);
    lo::Status seeded = workload.SeedDb(seeding.get());
    if (!seeded.ok()) {
      fprintf(stderr, "SeedDb: %s\n", seeded.ToString().c_str());
      return 1;
    }
  }
  // The lane and the group-commit thread share the DB, which then runs its
  // flushes and compactions on its own maintenance thread.
  std::unique_ptr<lo::storage::DB> db = open_db(/*shared=*/true);
  if (db == nullptr) return 1;

  lo::runtime::TypeRegistry types;
  LO_CHECK(lo::retwis::RegisterUserType(&types, /*use_vm=*/true).ok());

  lo::clusterd::ServerNodeOptions options;
  options.port = flags.port;
  options.coordinator = flags.coordinator;
  options.advertise_host = flags.advertise;
  options.report_interval_ms = flags.report_interval_ms;
  options.net_threads = static_cast<int>(flags.net_threads);

  // Multi-tenant QoS: outlives the node (handlers hold the pointer).
  lo::tenant::TenantRegistry tenants;
  if (!flags.tenants.empty()) {
    auto parsed = lo::tenant::ParseTenantSpec(flags.tenants);
    if (!parsed.ok()) {
      fprintf(stderr, "--tenants: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    tenants.ConfigureAll(*parsed);
    options.tenants = &tenants;
  }

  lo::clusterd::ServerNode node(db.get(), &types, options);
  lo::Status started = node.Start();
  if (!started.ok()) {
    fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    return 1;
  }
  printf("READY port=%u\n", node.port());
  fflush(stdout);

  // Wait for a signal or an admin.shutdown RPC. sigtimedwait (rather
  // than a signal handler) keeps shutdown on the main thread with no
  // async-signal-safety constraints.
  struct timespec poll_interval = {0, 50'000'000};  // 50ms
  while (!node.shutdown_requested()) {
    int sig = sigtimedwait(&sigmask, nullptr, &poll_interval);
    if (sig == SIGINT || sig == SIGTERM) break;
  }

  // Graceful drain on a helper thread so the main thread can keep
  // watching for a second signal: stop accepting, run the lane's queued
  // work to completion, flush the memtable. A second SIGINT/SIGTERM
  // before the drain finishes forces an immediate exit with code 1, so
  // process supervisors can tell a clean stop from a kill -9-adjacent
  // one.
  std::atomic<bool> drained{false};
  std::thread drain_thread([&node, &drained] {
    node.Shutdown();
    drained.store(true, std::memory_order_release);
  });
  struct timespec force_poll = {0, 20'000'000};  // 20ms
  while (!drained.load(std::memory_order_acquire)) {
    int sig = sigtimedwait(&sigmask, nullptr, &force_poll);
    if (sig == SIGINT || sig == SIGTERM) {
      fprintf(stderr, "forced shutdown before drain completed\n");
      _exit(1);
    }
  }
  drain_thread.join();
  return 0;
}
