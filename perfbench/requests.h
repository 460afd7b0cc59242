// Seeded ReTwis request lists for the three benchmark workloads, and the
// checks every reply must pass.
//
// The server only ever sees these generated requests: the list is built
// up front from the request seed (and the social graph from the graph
// seed), so two runs with the same seeds send byte-identical requests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "retwis/workload.h"

namespace perfbench {

enum class Op : uint8_t { kRead = 0, kFollow = 1, kPost = 2 };
inline constexpr int kNumOps = 3;
/// "read" / "follow" / "post": the prefix of the per-operation metrics.
const char* OpLabel(Op op);

struct Request {
  Op op = Op::kRead;
  uint32_t user = 0;     // the invoked account
  std::string payload;   // encoded lambda.invoke payload
  std::string message;   // create_post: the message, for the read-back
};

struct WorkloadSpec {
  std::string name;
  /// Operation shares per block of `block` requests (read, follow, post).
  uint32_t per_block[kNumOps] = {0, 0, 0};
  uint32_t block = 1;
  /// Measured requests per second of --seconds: sized so one run measures
  /// about --seconds on a 4-core machine.
  double requests_per_second = 0;
  /// Read every timeline once before measuring (fills the result cache).
  bool warm_all_timelines = false;
  /// Extra warm-up requests of the workload's own mix.
  uint32_t warmup_requests = 0;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct RequestList {
  std::vector<Request> warmup;    // answered before measuring starts
  std::vector<Request> measured;
};

/// Requests come from retwis::Workload::Next, except that posters are
/// dealt from a seeded deck of all accounts: a full deck of posts (one per
/// account) fans out to exactly the same followers in every run, half a
/// deck to nearly as many, so the run's work does not depend on how many
/// celebrities it drew.
RequestList BuildRequests(const lo::retwis::Workload& workload,
                          const WorkloadSpec& spec, uint64_t seed,
                          double seconds);

/// The seeded social graph's follower lists, rebuilt with the same draws
/// as retwis::Workload (which keeps them private). Fails when the counts
/// disagree with `workload`, i.e. the generator changed under us.
lo::Result<std::vector<std::vector<uint32_t>>> FollowerLists(
    const lo::retwis::Workload& workload);

/// Checks replies against what the graph and the requests already sent
/// allow. Follows raise follower counts, so a create_post or follow reply
/// must lie between the follows acknowledged before it was sent and the
/// follows sent before its reply arrived. Thread-safe.
class ReplyChecker {
 public:
  ReplyChecker(const lo::retwis::Workload& workload, uint64_t timeline_limit);

  /// Call just before sending; returns the token to pass to Check.
  uint32_t BeforeSend(const Request& request);
  /// Empty on success, else a description of the violation.
  std::string Check(const Request& request, uint32_t token,
                    std::string_view reply);

 private:
  const lo::retwis::Workload& workload_;
  uint64_t timeline_limit_;
  std::unique_ptr<std::atomic<uint32_t>[]> follows_sent_;
  std::unique_ptr<std::atomic<uint32_t>[]> follows_acked_;
};

/// Decodes an 8-byte little-endian count reply.
bool DecodeCount(std::string_view reply, uint64_t* out);

}  // namespace perfbench
