// In-memory write buffer: an arena-backed skiplist over internal keys.
// Entries are encoded as  varint32(ikey_len) ikey varint32(val_len) val
// and owned by the arena until the memtable is flushed to an SSTable.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "storage/arena.h"
#include "storage/dbformat.h"
#include "storage/iterator.h"
#include "storage/skiplist.h"

namespace lo::storage {

class MemTable {
 public:
  MemTable();
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  void Add(SequenceNumber seq, ValueType type, std::string_view user_key,
           std::string_view value);

  /// Looks up user_key at or below `seq`. Returns:
  ///  - true, *found_value filled, s=OK        -> live value
  ///  - true, s=NotFound                       -> deletion tombstone
  ///  - false                                  -> key not in this memtable
  bool Get(std::string_view user_key, SequenceNumber seq, std::string* value,
           Status* s) const;

  /// Iterator over internal keys (used for flush and reads).
  std::unique_ptr<Iterator> NewIterator() const;

  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }
  uint64_t entries() const { return entries_; }

  // Public so the iterator implementation in memtable.cc can name the
  // skiplist type; not part of the DB-facing API.
  struct KeyComparator {
    InternalKeyComparator icmp;
    int Compare(const char* a, const char* b) const;
  };
  using Table = SkipList<const char*, KeyComparator>;

 private:

  Arena arena_;
  Table table_;
  uint64_t entries_ = 0;
};

}  // namespace lo::storage
