#include "tenant/tenant.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "obs/metrics.h"

namespace lo::tenant {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Splits `s` on `sep`, skipping empty pieces (trailing ';' is fine).
std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

Result<std::map<TenantId, TenantConfig>> ParseTenantSpec(
    const std::string& spec) {
  std::map<TenantId, TenantConfig> configs;
  for (const std::string& entry : Split(spec, ';')) {
    size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("tenant spec entry missing '<id>:': " +
                                     entry);
    }
    char* end = nullptr;
    unsigned long id = std::strtoul(entry.c_str(), &end, 10);
    if (end != entry.c_str() + colon) {
      return Status::InvalidArgument("bad tenant id in spec: " + entry);
    }
    if (id == 0) {
      return Status::InvalidArgument(
          "tenant id 0 is reserved for unattributed traffic: " + entry);
    }
    TenantConfig config;
    for (const std::string& kv : Split(entry.substr(colon + 1), ',')) {
      size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("tenant spec key missing '=': " + kv);
      }
      std::string key = kv.substr(0, eq);
      std::string value = kv.substr(eq + 1);
      char* vend = nullptr;
      double num = std::strtod(value.c_str(), &vend);
      if (vend != value.c_str() + value.size() || value.empty() || num < 0) {
        return Status::InvalidArgument("bad tenant spec value: " + kv);
      }
      if (key == "weight") {
        config.weight = std::max<uint32_t>(1, static_cast<uint32_t>(num));
      } else if (key == "rate") {
        config.rate_per_sec = num;
      } else if (key == "burst") {
        config.burst = num;
      } else if (key == "fuel") {
        config.fuel_per_window = static_cast<uint64_t>(num);
      } else if (key == "inflight") {
        config.max_inflight = static_cast<uint32_t>(num);
      } else {
        return Status::InvalidArgument("unknown tenant spec key: " + key);
      }
    }
    configs[static_cast<TenantId>(id)] = config;
  }
  return configs;
}

TenantRegistry::TenantRegistry() : TenantRegistry(Options()) {}

TenantRegistry::TenantRegistry(Options options) : options_(std::move(options)) {
  if (!options_.clock) options_.clock = SteadyNowUs;
  if (options_.window_ms <= 0) options_.window_ms = 1000;
}

TenantRegistry::State* TenantRegistry::StateFor(TenantId id) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    it = tenants_.emplace(id, std::make_unique<State>()).first;
    it->second->last_refill_us = options_.clock();
    it->second->window_start_us = it->second->last_refill_us;
  }
  return it->second.get();
}

void TenantRegistry::Configure(TenantId id, TenantConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = StateFor(id);
  s->config = config;
  s->configured = true;
  // Start with a full bucket so a freshly configured tenant gets its burst.
  double burst = config.burst > 0 ? config.burst
                                  : std::max(config.rate_per_sec, 1.0);
  s->tokens = burst;
  s->last_refill_us = options_.clock();
}

void TenantRegistry::ConfigureAll(
    const std::map<TenantId, TenantConfig>& configs) {
  for (const auto& [id, config] : configs) Configure(id, config);
}

void TenantRegistry::RollWindow(State* s, int64_t now) {
  int64_t window_us = options_.window_ms * 1000;
  if (now - s->window_start_us >= window_us) {
    // Snap to the current window boundary so idle gaps don't accumulate
    // budget: each window grants exactly fuel_per_window.
    s->window_start_us = now - (now - s->window_start_us) % window_us;
    s->window_fuel = 0;
  }
}

Status TenantRegistry::Admit(TenantId id) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = StateFor(id);
  if (!s->configured) {  // tenant 0 / unknown tenants: count, never shed
    s->admitted.fetch_add(1, std::memory_order_relaxed);
    s->inflight++;
    return Status::OK();
  }
  int64_t now = options_.clock();
  const TenantConfig& c = s->config;
  if (c.max_inflight > 0 && s->inflight >= c.max_inflight) {
    s->shed.fetch_add(1, std::memory_order_relaxed);
    return Status::TenantThrottled("tenant " + std::to_string(id) +
                                   " at max in-flight");
  }
  if (c.rate_per_sec > 0) {
    double burst = c.burst > 0 ? c.burst : std::max(c.rate_per_sec, 1.0);
    double elapsed_s = static_cast<double>(now - s->last_refill_us) / 1e6;
    if (elapsed_s > 0) {
      s->tokens = std::min(burst, s->tokens + elapsed_s * c.rate_per_sec);
      s->last_refill_us = now;
    }
    if (s->tokens < 1.0) {
      s->shed.fetch_add(1, std::memory_order_relaxed);
      return Status::TenantThrottled("tenant " + std::to_string(id) +
                                     " over rate budget");
    }
    s->tokens -= 1.0;
  }
  if (c.fuel_per_window > 0) {
    RollWindow(s, now);
    if (s->window_fuel >= c.fuel_per_window) {
      s->shed.fetch_add(1, std::memory_order_relaxed);
      return Status::TenantThrottled("tenant " + std::to_string(id) +
                                     " fuel window exhausted");
    }
  }
  s->admitted.fetch_add(1, std::memory_order_relaxed);
  s->inflight++;
  return Status::OK();
}

void TenantRegistry::Release(TenantId id) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = StateFor(id);
  if (s->inflight > 0) s->inflight--;
}

Status TenantRegistry::ChargeFuel(TenantId id, uint64_t amount) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = StateFor(id);
  s->fuel_used.fetch_add(amount, std::memory_order_relaxed);
  if (!s->configured || s->config.fuel_per_window == 0) return Status::OK();
  RollWindow(s, options_.clock());
  s->window_fuel += amount;
  if (s->window_fuel > s->config.fuel_per_window) {
    return Status::TenantThrottled("tenant " + std::to_string(id) +
                                   " fuel window exhausted mid-invocation");
  }
  return Status::OK();
}

uint32_t TenantRegistry::WeightFor(TenantId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end() || !it->second->configured) return 1;
  return std::max<uint32_t>(1, it->second->config.weight);
}

void TenantRegistry::RecordQueueWait(TenantId id, int64_t wait_us) {
  std::lock_guard<std::mutex> lock(mu_);
  StateFor(id)->queue_us.Record(wait_us);
}

void TenantRegistry::RegisterMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  // Snapshot the stable State pointers first: registering while holding
  // mu_ could deadlock against a concurrent Snapshot whose callbacks
  // take mu_ under the registry's own lock.
  std::vector<std::pair<TenantId, State*>> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, state] : tenants_) states.emplace_back(id, state.get());
  }
  for (auto& [id, s] : states) {
    registry->RegisterCallback("tenant.admitted", id, [s] {
      return static_cast<double>(s->admitted.load(std::memory_order_relaxed));
    });
    registry->RegisterCallback("tenant.shed", id, [s] {
      return static_cast<double>(s->shed.load(std::memory_order_relaxed));
    });
    registry->RegisterCallback("tenant.fuel_used", id, [s] {
      return static_cast<double>(s->fuel_used.load(std::memory_order_relaxed));
    });
    registry->RegisterCallback("tenant.queue_us_p50", id, [this, s] {
      std::lock_guard<std::mutex> l(mu_);
      return static_cast<double>(s->queue_us.Percentile(0.5));
    });
    registry->RegisterCallback("tenant.queue_us_p99", id, [this, s] {
      std::lock_guard<std::mutex> l(mu_);
      return static_cast<double>(s->queue_us.Percentile(0.99));
    });
  }
}

uint64_t TenantRegistry::admitted(TenantId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end()
             ? 0
             : it->second->admitted.load(std::memory_order_relaxed);
}

uint64_t TenantRegistry::shed(TenantId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end()
             ? 0
             : it->second->shed.load(std::memory_order_relaxed);
}

uint64_t TenantRegistry::fuel_used(TenantId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end()
             ? 0
             : it->second->fuel_used.load(std::memory_order_relaxed);
}

uint32_t TenantRegistry::inflight(TenantId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? 0 : it->second->inflight;
}

int64_t TenantRegistry::QueuePercentile(TenantId id, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? 0 : it->second->queue_us.Percentile(q);
}

std::vector<TenantId> TenantRegistry::KnownTenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantId> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, _] : tenants_) ids.push_back(id);
  return ids;
}

}  // namespace lo::tenant
