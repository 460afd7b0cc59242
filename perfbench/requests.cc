#include "requests.h"

#include <algorithm>
#include <cmath>

#include "clusterd/wire.h"
#include "common/coding.h"
#include "common/rng.h"
#include "retwis/retwis.h"

namespace perfbench {

namespace {

using lo::retwis::OpType;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out(3);
    // Reads only: after the warm-up pass reads every timeline once, a
    // read runs the VM only when its lane's result cache has no room.
    out[0].name = "timeline";
    out[0].per_block[0] = 1;
    out[0].requests_per_second = 20000;
    out[0].warm_all_timelines = true;
    // At --seconds 25, one deck: every account posts exactly once.
    out[1].name = "post";
    out[1].per_block[2] = 1;
    out[1].requests_per_second = 400;
    out[1].warmup_requests = 500;
    // 80% get_timeline, 15% follow, 5% create_post, in shuffled blocks of
    // 20 so every stretch of the run has the same shares; at --seconds 25,
    // half a deck of posts.
    out[2].name = "mix";
    out[2].per_block[0] = 16;
    out[2].per_block[1] = 3;
    out[2].per_block[2] = 1;
    out[2].block = 20;
    out[2].requests_per_second = 4000;
    out[2].warm_all_timelines = true;
    out[2].warmup_requests = 1000;
    return out;
  }();
  return specs;
}

/// Deals every account once per deck, reshuffling when a deck runs out.
/// A deck is dealt as two halves that split every pair of accounts next
/// to each other in follower count, so half a deck of posts fans out over
/// almost exactly half the graph: the work of a run that posts half a
/// deck hardly depends on the seed, celebrities included.
class Deck {
 public:
  Deck(const lo::retwis::Workload& workload, lo::Rng rng) : rng_(rng) {
    by_followers_.resize(workload.config().num_users);
    for (size_t i = 0; i < by_followers_.size(); i++) {
      by_followers_[i] = static_cast<uint32_t>(i);
    }
    std::stable_sort(by_followers_.begin(), by_followers_.end(),
                     [&](uint32_t a, uint32_t b) {
                       return workload.FollowerCount(a) > workload.FollowerCount(b);
                     });
  }

  uint32_t Deal() {
    if (pos_ == order_.size()) Reshuffle();
    return order_[pos_++];
  }

 private:
  void Reshuffle() {
    std::vector<uint32_t> halves[2];
    for (size_t i = 0; i < by_followers_.size(); i += 2) {
      size_t first = rng_.Uniform(2);
      halves[first].push_back(by_followers_[i]);
      if (i + 1 < by_followers_.size()) halves[1 - first].push_back(by_followers_[i + 1]);
    }
    order_.clear();
    for (auto& half : halves) {
      for (size_t i = half.size(); i > 1; i--) std::swap(half[i - 1], half[rng_.Uniform(i)]);
      order_.insert(order_.end(), half.begin(), half.end());
    }
    pos_ = 0;
  }

  lo::Rng rng_;
  std::vector<uint32_t> by_followers_;
  std::vector<uint32_t> order_;
  size_t pos_ = 0;
};

OpType ToOpType(Op op) {
  switch (op) {
    case Op::kRead: return OpType::kGetTimeline;
    case Op::kFollow: return OpType::kFollow;
    case Op::kPost: return OpType::kPost;
  }
  return OpType::kGetTimeline;
}

/// Draws requests from retwis::Workload::Next; posters come from a deck.
class Generator {
 public:
  Generator(const lo::retwis::Workload& workload, lo::Rng rng)
      : workload_(workload), args_(rng.Fork()), posters_(workload, rng.Fork()) {}

  /// Next draws the user uniformly; a dealt one replaces it for posts, so
  /// a full deck of posts fans out over the whole graph exactly once.
  Request Make(Op op, Deck* deck = nullptr) {
    lo::retwis::Request drawn = workload_.Next(ToOpType(op), args_);
    Request out;
    out.op = op;
    out.user = static_cast<uint32_t>(std::stoul(drawn.oid.substr(kUserPrefix.size())));
    if (op == Op::kPost && deck == nullptr) deck = &posters_;
    if (deck != nullptr) out.user = deck->Deal();
    if (op == Op::kPost) out.message = drawn.argument;
    out.payload = lo::clusterd::EncodeInvoke(workload_.UserId(out.user), drawn.method,
                                             drawn.argument, {});
    return out;
  }

  /// `count` requests in shuffled blocks with the spec's shares.
  void Append(const WorkloadSpec& spec, size_t count, std::vector<Request>* out) {
    std::vector<Op> block;
    for (int op = 0; op < kNumOps; op++) {
      block.insert(block.end(), spec.per_block[op], static_cast<Op>(op));
    }
    while (count > 0) {
      for (size_t i = block.size() - 1; i > 0; i--) {
        std::swap(block[i], block[args_.Uniform(i + 1)]);
      }
      for (size_t i = 0; i < block.size() && count > 0; i++, count--) {
        out->push_back(Make(block[i]));
      }
    }
  }

 private:
  static constexpr std::string_view kUserPrefix = "user/";
  const lo::retwis::Workload& workload_;
  lo::Rng args_;
  Deck posters_;
};

}  // namespace

const char* OpLabel(Op op) {
  switch (op) {
    case Op::kRead: return "read";
    case Op::kFollow: return "follow";
    case Op::kPost: return "post";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

RequestList BuildRequests(const lo::retwis::Workload& workload,
                          const WorkloadSpec& spec, uint64_t seed,
                          double seconds) {
  lo::Rng root(seed);
  RequestList list;
  // Warm-up and measured lists draw from separate streams, so the
  // measured decks start fresh whatever the warm-up dealt.
  Generator warm(workload, root.Fork());
  Generator measure(workload, root.Fork());
  if (spec.warm_all_timelines) {
    Deck everyone(workload, root.Fork());
    for (uint64_t i = 0; i < workload.config().num_users; i++) {
      list.warmup.push_back(warm.Make(Op::kRead, &everyone));
    }
  }
  warm.Append(spec, spec.warmup_requests, &list.warmup);
  measure.Append(spec,
                 static_cast<size_t>(std::max(1.0, std::round(seconds * spec.requests_per_second))),
                 &list.measured);
  return list;
}

lo::Result<std::vector<std::vector<uint32_t>>> FollowerLists(
    const lo::retwis::Workload& workload) {
  const lo::retwis::WorkloadConfig& config = workload.config();
  if (config.community_size != 0) {
    return lo::Status::InvalidArgument("community graphs are not mirrored");
  }
  // The same draws, in the same order, as retwis::Workload's constructor.
  std::vector<std::vector<uint32_t>> followers(config.num_users);
  lo::Rng rng(config.seed);
  lo::ZipfGenerator zipf(config.num_users, config.zipf_alpha);
  uint64_t edges = config.num_users * config.avg_follows_per_user;
  for (uint64_t e = 0; e < edges; e++) {
    uint64_t follower = rng.Uniform(config.num_users);
    uint64_t followee = zipf.Sample(rng);
    if (follower == followee) continue;
    followers[followee].push_back(static_cast<uint32_t>(follower));
  }
  for (uint64_t i = 0; i < config.num_users; i++) {
    if (followers[i].size() != workload.FollowerCount(i)) {
      return lo::Status::Corruption("follower graph mirror disagrees with "
                                    "retwis::Workload at user " +
                                    std::to_string(i));
    }
  }
  return followers;
}

bool DecodeCount(std::string_view reply, uint64_t* out) {
  if (reply.size() != 8) return false;
  *out = lo::DecodeFixed64(reply.data());
  return true;
}

ReplyChecker::ReplyChecker(const lo::retwis::Workload& workload,
                           uint64_t timeline_limit)
    : workload_(workload),
      timeline_limit_(timeline_limit),
      follows_sent_(new std::atomic<uint32_t>[workload.config().num_users]()),
      follows_acked_(new std::atomic<uint32_t>[workload.config().num_users]()) {}

uint32_t ReplyChecker::BeforeSend(const Request& request) {
  uint32_t acked = follows_acked_[request.user].load(std::memory_order_acquire);
  if (request.op == Op::kFollow) {
    follows_sent_[request.user].fetch_add(1, std::memory_order_acq_rel);
  }
  return acked;
}

std::string ReplyChecker::Check(const Request& request, uint32_t token,
                                std::string_view reply) {
  std::string who = workload_.UserId(request.user);
  if (request.op == Op::kRead) {
    auto timeline = lo::retwis::DecodeTimeline(reply);
    if (!timeline.ok()) {
      return "get_timeline(" + who + "): " + timeline.status().ToString();
    }
    // Every timeline was seeded with more posts than the limit.
    if (timeline->size() != timeline_limit_) {
      return "get_timeline(" + who + ") returned " +
             std::to_string(timeline->size()) + " posts";
    }
    return {};
  }
  uint64_t count = 0;
  if (!DecodeCount(reply, &count)) {
    return std::string(OpLabel(request.op)) + "(" + who + "): bad count reply";
  }
  uint64_t seeded = workload_.FollowerCount(request.user);
  uint64_t sent = follows_sent_[request.user].load(std::memory_order_acquire);
  uint64_t low = seeded + token + (request.op == Op::kFollow ? 1 : 0);
  uint64_t high = seeded + sent;
  if (request.op == Op::kFollow) {
    follows_acked_[request.user].fetch_add(1, std::memory_order_acq_rel);
  }
  if (count < low || count > high) {
    return std::string(OpLabel(request.op)) + "(" + who + ") returned " +
           std::to_string(count) + " followers, expected " +
           std::to_string(low) + ".." + std::to_string(high);
  }
  return {};
}

}  // namespace perfbench
