// Atomic group of mutations. One invocation's writes become exactly one
// WriteBatch: it hits the WAL as a single record and the memtable under
// one sequence range, which is what makes LambdaObjects invocations
// atomic (paper §3.1 guarantee 1).
//
// Wire format:  fixed64 base_seq | fixed32 count | record*
//   record:     type(1) | key lp | [value lp]
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/dbformat.h"

namespace lo::storage {

class MemTable;

class WriteBatch {
 public:
  WriteBatch();

  void Put(std::string_view key, std::string_view value);
  void Delete(std::string_view key);
  void Clear();

  uint32_t Count() const;
  size_t ByteSize() const { return rep_.size(); }

  /// Serialized representation (WAL record payload).
  const std::string& rep() const { return rep_; }
  /// Adopts a serialized representation (replica applying a shipped batch).
  static Result<WriteBatch> FromRep(std::string rep);

  /// Applies all records to mem with sequence numbers base_seq, base_seq+1...
  Status InsertInto(SequenceNumber base_seq, MemTable* mem) const;

  /// Visitor used by InsertInto and by replication tests.
  struct Handler {
    virtual ~Handler() = default;
    virtual void Put(std::string_view key, std::string_view value) = 0;
    virtual void Delete(std::string_view key) = 0;
  };
  Status Iterate(Handler* handler) const;

  /// The base sequence stamped by the DB at commit time.
  SequenceNumber sequence() const;
  void SetSequence(SequenceNumber seq);

  /// Appends all of `other`'s records to this batch (group commit).
  void Append(const WriteBatch& other);

 private:
  static constexpr size_t kHeaderSize = 12;
  std::string rep_;
};

}  // namespace lo::storage
