// Consistent result cache for deterministic read-only methods (§4.2.2).
//
// Because storage and execution are co-located, the storage node sees
// every committed write, so it can invalidate cached function results
// precisely: each entry records the invocation's read set (the storage
// keys it read); committing a batch drops every entry whose read set
// overlaps the batch's write keys. Entries therefore never serve stale
// data.
//
// An invocation may suspend between its lookup and its insert (the sim
// charges its CPU time after it ran), so a write can commit and
// invalidate in between. Each miss therefore opens a fill that records
// the keys invalidated while it is open, and Insert refuses a result
// that read one of them.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "runtime/context.h"

namespace lo::runtime {

class ResultCache {
 public:
  explicit ResultCache(size_t capacity = 4096);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t invalidations = 0;  // entries dropped by writes
    uint64_t evictions = 0;      // entries dropped by capacity
    /// Subset of `invalidations` triggered by *replicated* batches —
    /// writes that executed on another node and arrived over the
    /// replication stream (a backup keeping its cache consistent).
    uint64_t remote_invalidations = 0;
  };

  /// Cache key for (object, method, argument).
  static std::string MakeKey(std::string_view oid, std::string_view method,
                             std::string_view argument);

  /// Returns the cached output, or nullopt on miss.
  std::optional<std::string> Lookup(const std::string& cache_key);

  /// Opens a fill after a miss. Call it before the invocation reads
  /// anything; end it with exactly one Insert or AbandonFill.
  uint64_t BeginFill();
  /// Ends `fill` and caches the output, unless a write invalidated one of
  /// `read_keys` (or Clear ran) while the fill was open: the output may
  /// predate that write.
  void Insert(uint64_t fill, const std::string& cache_key, std::string output,
              std::vector<std::string> read_keys);
  /// Ends a fill whose invocation produced nothing to cache.
  void AbandonFill(uint64_t fill);

  /// Drops every entry that read one of these storage keys, and records
  /// the keys against every open fill. `remote` marks the write as having
  /// arrived via replication rather than a local commit (counted
  /// separately in stats).
  void InvalidateWrites(std::span<const std::string> written_keys,
                        bool remote = false);

  /// Drops every entry, and makes every open fill's Insert a no-op.
  void Clear();
  size_t size() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string output;
    std::vector<std::string> read_keys;
    std::list<std::string>::iterator lru_pos;
  };
  void Erase(const std::string& cache_key);

  size_t capacity_;
  std::map<std::string, Entry> entries_;
  // read key -> cache keys depending on it.
  std::multimap<std::string, std::string> by_read_key_;
  std::list<std::string> lru_;  // front = least recently used
  /// Open fills by id: the keys invalidated since each began, and
  /// whether Clear ran since.
  struct Fill {
    std::set<std::string> invalidated;
    bool cleared = false;
  };
  std::map<uint64_t, Fill> fills_;
  uint64_t next_fill_ = 0;
  Stats stats_;
};

}  // namespace lo::runtime
