#include "cluster/retry.h"

#include <algorithm>
#include <utility>

namespace lo::cluster {

RetryPolicy::Failure RetryPolicy::Classify(StatusCode code) {
  switch (code) {
    case StatusCode::kWrongShard:
      return Failure::kMisroute;
    case StatusCode::kTenantThrottled:
      return Failure::kThrottled;
    case StatusCode::kWrongNode:
    case StatusCode::kNotPrimary:
    case StatusCode::kTimeout:
    case StatusCode::kUnavailable:
      return Failure::kTransient;
    default:
      return Failure::kFatal;
  }
}

RetryPolicy::RetryPolicy(Clock clock, Rng* rng, int64_t budget_ns,
                         bool follows_redirects, Counters* counters)
    : clock_(std::move(clock)),
      rng_(rng),
      counters_(counters),
      deadline_ns_(clock_() + budget_ns),
      follows_redirects_(follows_redirects) {}

std::optional<int64_t> RetryPolicy::Next(StatusCode code, bool rerouted) {
  switch (Classify(code)) {
    case Failure::kFatal:
      return std::nullopt;
    case Failure::kMisroute:
      if (!follows_redirects_) return std::nullopt;
      if (rerouted && redirects_ < kMaxRedirects) {
        redirects_++;
        counters_->redirects++;
        return 0;
      }
      return Backoff();
    case Failure::kThrottled:
      counters_->throttled++;
      if (++throttles_ > kMaxThrottles) return std::nullopt;
      return WithinBudget(kThrottlePauseNs);
    case Failure::kTransient:
      return Backoff();
  }
  return std::nullopt;
}

std::optional<int64_t> RetryPolicy::Backoff() {
  if (++attempts_ >= kMaxAttempts) return std::nullopt;
  double jitter = 0.75 + 0.5 * rng_->NextDouble();
  auto pause = static_cast<int64_t>(static_cast<double>(backoff_ns_) * jitter);
  std::optional<int64_t> allowed = WithinBudget(pause);
  if (allowed) {
    counters_->retries++;
    backoff_ns_ = std::min(backoff_ns_ * 2, kMaxBackoffNs);
  }
  return allowed;
}

std::optional<int64_t> RetryPolicy::WithinBudget(int64_t pause_ns) {
  if (clock_() + pause_ns < deadline_ns_) return pause_ns;
  counters_->budget_exhausted++;
  return std::nullopt;
}

}  // namespace lo::cluster
