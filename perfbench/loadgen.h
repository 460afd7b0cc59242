// Closed-loop load generator: keeps a fixed number of requests
// outstanding on one RpcClient connection and sends a slot's next request
// only when its previous reply arrived, like a caller waiting on a
// method's result. Every reply is checked as it arrives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/rpc_client.h"
#include "requests.h"
#include "spans.h"

namespace perfbench {

struct PhaseResult {
  int64_t start_ns = 0;  // first send
  int64_t end_ns = 0;    // last reply
  uint64_t attempted = 0;
  uint64_t failed = 0;   // errors, timeouts and replies that failed a check
  std::string first_error;
  /// Per-request send time and latency (ns), indexed like the request
  /// list; latency -1 = failed.
  std::vector<int64_t> sent_ns;
  std::vector<int64_t> latency_ns;
  /// Indices of create_post requests that were acknowledged.
  std::vector<uint32_t> acked_posts;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Requests kept in flight, as by 32 callers each waiting on a reply.
inline constexpr int kOutstanding = 32;

/// Sends every request in `requests` and returns once all are answered.
/// `spans` (optional) receives one "request.<op>" span per request.
PhaseResult RunClosedLoop(lo::net::RpcClient* rpc, const std::string& address,
                          const std::vector<Request>& requests,
                          ReplyChecker* checker, SpanLog* spans = nullptr);

/// Exact percentile (nearest rank) of `sorted`; q in (0, 1].
int64_t Percentile(const std::vector<int64_t>& sorted, double q);

}  // namespace perfbench
