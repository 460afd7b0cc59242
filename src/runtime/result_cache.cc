#include "runtime/result_cache.h"

#include <algorithm>

#include "common/log.h"
#include "common/sha256.h"

namespace lo::runtime {

ResultCache::ResultCache(size_t capacity) : capacity_(capacity) {}

std::string ResultCache::MakeKey(std::string_view oid, std::string_view method,
                                 std::string_view argument) {
  std::string key;
  key.append(oid);
  key.push_back('\0');
  key.append(method);
  key.push_back('\0');
  // Hash the argument: cache keys stay small regardless of input size.
  key += Sha256Hex(argument);
  return key;
}

std::optional<std::string> ResultCache::Lookup(const std::string& cache_key) {
  auto it = entries_.find(cache_key);
  if (it == entries_.end()) {
    stats_.misses++;
    return std::nullopt;
  }
  stats_.hits++;
  // Refresh LRU position.
  lru_.erase(it->second.lru_pos);
  lru_.push_back(cache_key);
  it->second.lru_pos = std::prev(lru_.end());
  return it->second.output;
}

uint64_t ResultCache::BeginFill() {
  uint64_t fill = next_fill_++;
  fills_.emplace(fill, Fill{});
  return fill;
}

void ResultCache::AbandonFill(uint64_t fill) { fills_.erase(fill); }

void ResultCache::Insert(uint64_t fill, const std::string& cache_key,
                         std::string output, std::vector<std::string> read_keys) {
  auto open = fills_.extract(fill);
  LO_CHECK_MSG(!open.empty(), "Insert without an open fill");
  const Fill& ended = open.mapped();
  if (ended.cleared ||
      std::any_of(read_keys.begin(), read_keys.end(), [&](const std::string& key) {
        return ended.invalidated.contains(key);
      })) {
    return;
  }
  Erase(cache_key);  // replace any stale entry
  Entry entry;
  entry.output = std::move(output);
  for (const auto& read_key : read_keys) {
    by_read_key_.emplace(read_key, cache_key);
  }
  entry.read_keys = std::move(read_keys);
  lru_.push_back(cache_key);
  entry.lru_pos = std::prev(lru_.end());
  entries_.emplace(cache_key, std::move(entry));
  stats_.insertions++;
  while (entries_.size() > capacity_) {
    stats_.evictions++;
    Erase(lru_.front());
  }
}

void ResultCache::InvalidateWrites(std::span<const std::string> written_keys,
                                   bool remote) {
  for (auto& [id, fill] : fills_) {
    fill.invalidated.insert(written_keys.begin(), written_keys.end());
  }
  for (const auto& key : written_keys) {
    auto [begin, end] = by_read_key_.equal_range(key);
    // Collect first: Erase mutates by_read_key_.
    std::vector<std::string> victims;
    for (auto it = begin; it != end; ++it) victims.push_back(it->second);
    for (const auto& victim : victims) {
      if (entries_.contains(victim)) {
        stats_.invalidations++;
        if (remote) stats_.remote_invalidations++;
        Erase(victim);
      }
    }
  }
}

void ResultCache::Erase(const std::string& cache_key) {
  auto it = entries_.find(cache_key);
  if (it == entries_.end()) return;
  for (const auto& read_key : it->second.read_keys) {
    auto [begin, end] = by_read_key_.equal_range(read_key);
    for (auto dep = begin; dep != end; ++dep) {
      if (dep->second == cache_key) {
        by_read_key_.erase(dep);
        break;
      }
    }
  }
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void ResultCache::Clear() {
  entries_.clear();
  by_read_key_.clear();
  lru_.clear();
  for (auto& [id, fill] : fills_) fill.cleared = true;
}

}  // namespace lo::runtime
