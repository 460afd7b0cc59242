// Figure 1 reproduction: normalized throughput of the ReTwis benchmark
// (Post / GetTimeline / Follow) for the aggregated LambdaStore design vs
// the disaggregated serverless baseline.
//
// Paper's measured values (CloudLab, jobs/sec):
//     Post:        aggregated 1309,  disaggregated   492   (2.7x)
//     GetTimeline: aggregated 30799, disaggregated  9106   (3.4x)
//     Follow:      aggregated 55600, disaggregated 11355   (4.9x)
// We reproduce the *shape*: aggregated wins every workload, Post is the
// slowest workload in both systems (one job = 1 + #followers calls).
#include <cstdio>

#include "bench/harness.h"

using namespace lo;
using namespace lo::bench;

int main() {
  ExperimentConfig config = MaybeQuick(ExperimentConfig{});

  PrintHeader("Figure 1: ReTwis throughput (jobs/sec), normalized to aggregated");
  PrintRow("%-12s %14s %14s %12s %12s", "Workload", "Aggregated", "Disaggregated",
           "Norm.Agg", "Norm.Disagg");

  for (retwis::OpType op : {retwis::OpType::kPost, retwis::OpType::kGetTimeline,
                            retwis::OpType::kFollow}) {
    auto aggregated = RunExperiment(/*aggregated=*/true, op, config);
    auto disaggregated = RunExperiment(/*aggregated=*/false, op, config);
    double agg = aggregated.Throughput();
    double dis = disaggregated.Throughput();
    PrintRow("%-12s %14.0f %14.0f %12.2f %12.2f", retwis::OpName(op), agg, dis,
             1.0, agg > 0 ? dis / agg : 0.0);
    if (aggregated.errors + disaggregated.errors > 0) {
      PrintRow("  (errors: aggregated=%llu disaggregated=%llu)",
               static_cast<unsigned long long>(aggregated.errors),
               static_cast<unsigned long long>(disaggregated.errors));
    }
  }
  PrintRow("\npaper (absolute): Post 1309/492, GetTimeline 30799/9106, "
           "Follow 55600/11355");
  PrintRow("paper (normalized disagg): Post 0.38, GetTimeline 0.30, Follow 0.20");
  return 0;
}
