// Experiment A10: MiniLSM write-path throughput under concurrent lanes.
//
// Eight writer threads issue Post-shaped batches (3 puts, 256 B values,
// sync=true) against one DB and we climb the config ladder one mechanism
// at a time:
//   baseline   inline maintenance: a DB opened without serialize_access,
//              whose writers take a bench-owned mutex around each Write,
//              so flushes and compactions run on the writer's thread under
//              that mutex (what every binding ran before serialize_access
//              brought the maintenance thread)
//   +bg        serialize_access: the DB's own mutex and maintenance thread
//              (writers only swap memtables; what lambdastore-server runs)
//   shaped     maintenance thread + deferred L0 trigger (32) — the
//              write-amplification lever
// Every config writes one JSON line (the A8/A2b template):
//   {"experiment":"A10","config":...,"threads":8,"throughput":...,
//    "p50_us":...,"p99_us":...,"stall_us":...,"stall_soft":...,
//    "stall_hard":...,"compaction_bytes":...,"flushes":...}
// and a final summary line records the speedup of the best config over
// baseline (acceptance: >= 2x at equal durability — sync=true both).
//
// --smoke: a bounded, paced run of the +bg config; fails if it spends
// more than a tenth of its write-side wall-clock stalled (the
// stall-shaping regression guard in the default ctest).
// LO_BENCH_QUICK=1 shrinks the measured window.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/db.h"
#include "storage/env.h"

namespace {

using namespace lo;
using namespace lo::storage;

struct BenchConfig {
  const char* name;
  /// Options::serialize_access, and with it the maintenance thread. Off:
  /// maintenance runs inline and the bench serializes the writers.
  bool shared = false;
  int l0_trigger = 0;  // 0 = auto (4)
};

struct BenchResult {
  double throughput = 0;  // batches/sec
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  uint64_t elapsed_us = 0;
  DB::Stats stats;
};

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// pace_us > 0 spaces each writer's batches (open-ish loop below engine
// capacity); 0 is a closed loop at full speed.
BenchResult RunConfig(const BenchConfig& config, int threads, int duration_ms,
                      int pace_us = 0) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.serialize_access = config.shared;
  options.l0_compaction_trigger = config.l0_trigger;
  auto db = std::move(*DB::Open(options, "/bench"));

  std::mutex write_mu;  // the baseline's serialization
  std::atomic<bool> stop{false};
  std::vector<std::vector<uint64_t>> latencies(threads);
  std::vector<std::thread> writers;
  std::string value(256, 'v');
  uint64_t started = NowMicros();
  for (int t = 0; t < threads; t++) {
    writers.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      auto& lat = latencies[t];
      char key[40];
      while (!stop.load(std::memory_order_relaxed)) {
        // A Post commit: the post record, a timeline entry, a counter.
        uint64_t user = rng.Uniform(10000);
        uint64_t post = rng.Next();
        WriteBatch batch;
        std::snprintf(key, sizeof(key), "post:%012llu",
                      static_cast<unsigned long long>(post));
        batch.Put(key, value);
        std::snprintf(key, sizeof(key), "timeline:%06llu:%012llu",
                      static_cast<unsigned long long>(user),
                      static_cast<unsigned long long>(post));
        batch.Put(key, value);
        std::snprintf(key, sizeof(key), "count:%06llu",
                      static_cast<unsigned long long>(user));
        batch.Put(key, "1");
        uint64_t begin = NowMicros();
        Status s;
        if (config.shared) {
          s = db->Write({.sync = true}, &batch);
        } else {
          std::lock_guard<std::mutex> lock(write_mu);
          s = db->Write({.sync = true}, &batch);
        }
        if (!s.ok()) break;
        lat.push_back(NowMicros() - begin);
        if (pace_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  uint64_t elapsed = NowMicros() - started;

  std::vector<uint64_t> all;
  for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  BenchResult result;
  result.elapsed_us = elapsed;
  result.throughput =
      elapsed == 0 ? 0 : static_cast<double>(all.size()) * 1e6 / elapsed;
  if (!all.empty()) {
    result.p50_us = all[all.size() / 2];
    result.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  result.stats = db->GetStats();
  return result;
}

void PrintJson(const BenchConfig& config, int threads, const BenchResult& r) {
  std::printf(
      "{\"experiment\":\"A10\",\"config\":\"%s\",\"threads\":%d,"
      "\"throughput\":%.0f,\"p50_us\":%llu,\"p99_us\":%llu,"
      "\"stall_us\":%llu,\"stall_soft\":%llu,\"stall_hard\":%llu,"
      "\"compaction_bytes\":%llu,\"flushes\":%llu}\n",
      config.name, threads, r.throughput,
      static_cast<unsigned long long>(r.p50_us),
      static_cast<unsigned long long>(r.p99_us),
      static_cast<unsigned long long>(r.stats.stall_us),
      static_cast<unsigned long long>(r.stats.stall_soft),
      static_cast<unsigned long long>(r.stats.stall_hard),
      static_cast<unsigned long long>(r.stats.compaction_bytes_read +
                                      r.stats.compaction_bytes_written),
      static_cast<unsigned long long>(r.stats.flushes));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const char* quick_env = std::getenv("LO_BENCH_QUICK");
  bool quick = smoke || (quick_env != nullptr && quick_env[0] == '1');
  int threads = 8;
  int duration_ms = quick ? 400 : 2000;

  const BenchConfig kBaseline = {.name = "baseline"};
  const BenchConfig kBg = {.name = "+bg", .shared = true};
  // Stall-shaped config: the maintenance thread with a deferred L0
  // trigger (32 files before the score reaches 1.0, soft slowdown at 64,
  // stop at 96). Deferring L0->L1 merges amortizes them over more input
  // and cuts write amplification roughly 3x at this write rate; this is
  // the config that carries the >=2x acceptance (docs/tuning.md).
  const BenchConfig kShaped = {.name = "shaped-trigger32",
                               .shared = true,
                               .l0_trigger = 32};

  if (smoke) {
    // Bounded regression guard. Writers offer a paced load well below
    // engine capacity (~7k batches/sec vs ~40k at +bg's saturation); the
    // maintenance thread must absorb it without pushing
    // back. Stall time above 10% of the write-side wall-clock budget
    // means maintenance fell behind a modest load — the shape of a
    // stall-ladder or maintenance-thread regression, not noise.
    BenchResult bg = RunConfig(kBg, threads, /*duration_ms=*/1500,
                               /*pace_us=*/1000);
    PrintJson(kBg, threads, bg);
    uint64_t budget_us = bg.elapsed_us * static_cast<uint64_t>(threads);
    if (bg.stats.stall_us > budget_us / 10) {
      std::fprintf(stderr,
                   "FAIL: stalled %llu us of %llu us write-side budget\n",
                   static_cast<unsigned long long>(bg.stats.stall_us),
                   static_cast<unsigned long long>(budget_us));
      return 1;
    }
    if (bg.throughput <= 0) {
      std::fprintf(stderr, "FAIL: no batches committed\n");
      return 1;
    }
    return 0;
  }

  double baseline_tput = 0, bg_tput = 0, shaped_tput = 0;
  for (const BenchConfig* config : {&kBaseline, &kBg, &kShaped}) {
    BenchResult result = RunConfig(*config, threads, duration_ms);
    PrintJson(*config, threads, result);
    if (config == &kBaseline) baseline_tput = result.throughput;
    if (config == &kBg) bg_tput = result.throughput;
    if (config == &kShaped) shaped_tput = result.throughput;
  }
  double bg = baseline_tput > 0 ? bg_tput / baseline_tput : 0.0;
  double shaped = baseline_tput > 0 ? shaped_tput / baseline_tput : 0.0;
  std::printf(
      "{\"experiment\":\"A10\",\"summary\":\"speedup\",\"threads\":%d,"
      "\"shaped_vs_baseline\":%.2f,"
      "\"best_vs_baseline\":%.2f,\"acceptance\":\"best >= 2x\"}\n",
      threads, shaped, std::max(bg, shaped));
  return 0;
}
