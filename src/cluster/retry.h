// The client retry policy (paper §4.2.1: "clients ... will reissue their
// request if needed"), written once for both clients: cluster::Client
// awaits its pauses on the sim clock, clusterd::Client sleeps them on
// the wall clock. It knows no transport — a client sends, hands the
// failed attempt's status to Next, and pauses for as long as it says.
// Every re-send of one logical request carries the same idempotency
// token, which is what makes retrying anything but an application error
// safe (exactly-once).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/rng.h"
#include "common/status.h"

namespace lo::cluster {

class RetryPolicy {
 public:
  /// Exponential backoff: the first pause is kBackoffNs, each later one
  /// doubles up to kMaxBackoffNs, and each is scaled by a ±25% jitter.
  /// Jitter keeps a client herd from re-converging on a recovering
  /// primary; drawing it from a seeded Rng makes a replayed fault
  /// schedule reproduce the same retry timeline.
  static constexpr int64_t kBackoffNs = 10'000'000;
  static constexpr int64_t kMaxBackoffNs = 160'000'000;
  /// Attempts per request; redirects and throttle pauses use none.
  static constexpr int kMaxAttempts = 8;
  /// kWrongShard redirects per request. A redirect is a fast path, not
  /// a fault: the client refreshed its directory, so it re-sends at
  /// once without using an attempt. Past the cap the object is most
  /// likely mid-migration (the directory still names the source), so
  /// the client backs off until the new placement publishes.
  static constexpr int kMaxRedirects = 4;
  /// kTenantThrottled is admission pushback, not a fault: a short fixed
  /// pause that uses no attempt, bounded by its own cap.
  static constexpr int64_t kThrottlePauseNs = 5'000'000;
  static constexpr int kMaxThrottles = 16;
  /// Total budget of one request, retries included, unless the client
  /// is configured with another. A pause past it surfaces the last
  /// failure instead of sleeping past the deadline (a failover longer
  /// than this is an outage, not a blip).
  static constexpr int64_t kDefaultBudgetNs = 2'000'000'000;

  /// What a failed attempt's status means to the policy.
  enum class Failure {
    kFatal,      // an application error: surfaces at once
    kMisroute,   // kWrongShard: the object's microshard moved
    kThrottled,  // kTenantThrottled
    kTransient,  // stale routing or mid-failover: back off and re-send
  };
  static Failure Classify(StatusCode code);

  /// Counters the policy bumps; each client registers them under its
  /// own metric names.
  struct Counters {
    uint64_t retries = 0;           // backoff pauses taken
    uint64_t budget_exhausted = 0;  // requests the budget ended
    uint64_t throttled = 0;         // kTenantThrottled replies
    uint64_t redirects = 0;         // kWrongShard bounces re-sent at once
  };

  /// Nanoseconds: sim virtual time or CLOCK_MONOTONIC.
  using Clock = std::function<int64_t()>;

  /// The retry state of one request, whose budget starts now.
  /// `follows_redirects` is false for a client with no directory to
  /// refresh: a kWrongShard then surfaces at once, so the caller can act
  /// on the typed status instead of burning the budget on a stale route.
  RetryPolicy(Clock clock, Rng* rng, int64_t budget_ns, bool follows_redirects,
              Counters* counters);

  /// Decides what follows an attempt that failed with `code`: the pause
  /// before the re-send (0 = re-send at once), or nullopt to surface the
  /// failure. `rerouted` says the client refreshed its directory after a
  /// kMisroute, which is what makes an immediate re-send worthwhile.
  std::optional<int64_t> Next(StatusCode code, bool rerouted = false);

 private:
  std::optional<int64_t> Backoff();
  /// The pause, if the budget has room for it.
  std::optional<int64_t> WithinBudget(int64_t pause_ns);

  Clock clock_;
  Rng* rng_;
  Counters* counters_;
  int64_t deadline_ns_;
  bool follows_redirects_;
  int64_t backoff_ns_ = kBackoffNs;
  int attempts_ = 0;
  int redirects_ = 0;
  int throttles_ = 0;
};

}  // namespace lo::cluster
