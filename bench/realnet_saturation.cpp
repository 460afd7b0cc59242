// A13 — per-core sharded transport: small-RPC loopback saturation.
//
// Spawns one lambdastore-server per arm and floods it with tiny "ping"
// echoes from a raw-socket pipelining loadgen (see
// bench::RunRealNetSaturation), so transport costs — syscalls, frame
// copies, reactor wakeups — dominate. Every arm runs the one transport
// path (epoll, end-of-iteration writev coalescing); the arms sweep the
// reactor count:
//
//   coalesce1  1 reactor
//   coalesce4  4 reactors (SO_REUSEPORT)
//
// One JSON line per arm:
//   {"experiment":"A13","arm":"coalesce4","net_threads":4,
//    "connections":4,"window":64,
//    "rpcs_per_sec":...,"p50_us":...,"p99_us":...,
//    "syscalls_per_rpc":...,"completed":...,"errors":...}
//
// --smoke (the realnet_smoke ctest): shortened windows, runs only the
// coalesce4 arm. Every run fails if an arm spends >= 0.5 syscalls per
// RPC or sees any error. The coalesced path spends about 0.08; a server
// that writes once per response spends about 1.05, so the gate catches
// a flush path that stopped coalescing.
#include <string.h>

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace {

constexpr double kMaxSyscallsPerRpc = 0.5;

struct Arm {
  const char* name;
  int net_threads;
};

lo::bench::SaturationResult RunArm(const Arm& arm,
                                   const lo::bench::SaturationConfig& base) {
  lo::bench::SaturationConfig config = base;
  config.net_threads = arm.net_threads;
  lo::bench::SaturationResult result = lo::bench::RunRealNetSaturation(config);
  std::printf(
      "{\"experiment\":\"A13\",\"arm\":\"%s\",\"net_threads\":%d,"
      "\"connections\":%d,\"window\":%d,"
      "\"rpcs_per_sec\":%.0f,\"p50_us\":%.0f,\"p99_us\":%.0f,"
      "\"syscalls_per_rpc\":%.3f,\"completed\":%llu,\"errors\":%llu}\n",
      arm.name, result.reactors, config.connections, config.window,
      result.rpcs_per_sec, result.p50_us, result.p99_us,
      result.syscalls_per_rpc,
      static_cast<unsigned long long>(result.completed),
      static_cast<unsigned long long>(result.errors));
  std::fflush(stdout);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  lo::bench::SaturationConfig base;
  base.connections = 4;
  base.window = 64;
  if (smoke) {
    base.warmup_s = 0.2;
    base.measure_s = 0.8;
    base.connections = 2;
  }

  const Arm kCoalesce1 = {"coalesce1", 1};
  const Arm kCoalesce4 = {"coalesce4", 4};
  std::vector<Arm> arms;
  if (!smoke) arms.push_back(kCoalesce1);
  arms.push_back(kCoalesce4);

  int failures = 0;
  for (const Arm& arm : arms) {
    lo::bench::SaturationResult result = RunArm(arm, base);
    if (result.syscalls_per_rpc >= kMaxSyscallsPerRpc) {
      std::fprintf(stderr, "FAIL: %s syscalls_per_rpc %.3f >= %.1f\n",
                   arm.name, result.syscalls_per_rpc, kMaxSyscallsPerRpc);
      failures++;
    }
    if (result.completed == 0 || result.errors > 0) {
      std::fprintf(stderr, "FAIL: %s errors or no completions\n", arm.name);
      failures++;
    }
  }
  return failures == 0 ? 0 : 1;
}
