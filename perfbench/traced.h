// The traced run: the serving stack embedded in the benchmark process,
// configured like lambdastore-server's defaults, with the benchmark
// timing calls into each layer from outside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "requests.h"
#include "server_process.h"

namespace perfbench {

struct TracedConfig {
  const lo::retwis::Workload* workload = nullptr;
  const RequestList* requests = nullptr;
  CpuSplit split;
  std::string db_dir;      // fresh directory for the embedded DB
  std::string trace_path;  // Chrome-trace JSON written at the end
};

struct TracedResult {
  std::string error;  // empty = every reply passed its checks
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double tput_ops_s = 0;
  /// The per-layer metrics only the traced run can see.
  std::vector<Metric> layers;
  /// Jobs each lane executed in the measured portion, probes excluded.
  std::vector<double> lane_jobs;
};

TracedResult RunTraced(const TracedConfig& config);

}  // namespace perfbench
