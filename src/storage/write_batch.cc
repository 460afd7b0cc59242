#include "storage/write_batch.h"

#include "common/coding.h"
#include "common/log.h"
#include "storage/memtable.h"

namespace lo::storage {
namespace {

constexpr char kTypeValue = static_cast<char>(ValueType::kValue);
constexpr char kTypeDeletion = static_cast<char>(ValueType::kDeletion);

}  // namespace

WriteBatch::WriteBatch() { Clear(); }

void WriteBatch::Clear() { rep_.assign(kHeaderSize, '\0'); }

void WriteBatch::Put(std::string_view key, std::string_view value) {
  rep_.push_back(kTypeValue);
  PutLengthPrefixed(&rep_, key);
  PutLengthPrefixed(&rep_, value);
  uint32_t count = Count() + 1;
  char* p = rep_.data() + 8;
  for (int i = 0; i < 4; i++) p[i] = static_cast<char>((count >> (8 * i)) & 0xff);
}

void WriteBatch::Delete(std::string_view key) {
  rep_.push_back(kTypeDeletion);
  PutLengthPrefixed(&rep_, key);
  uint32_t count = Count() + 1;
  char* p = rep_.data() + 8;
  for (int i = 0; i < 4; i++) p[i] = static_cast<char>((count >> (8 * i)) & 0xff);
}

uint32_t WriteBatch::Count() const { return DecodeFixed32(rep_.data() + 8); }

SequenceNumber WriteBatch::sequence() const { return DecodeFixed64(rep_.data()); }

void WriteBatch::SetSequence(SequenceNumber seq) {
  char* p = rep_.data();
  for (int i = 0; i < 8; i++) p[i] = static_cast<char>((seq >> (8 * i)) & 0xff);
}

Result<WriteBatch> WriteBatch::FromRep(std::string rep) {
  if (rep.size() < kHeaderSize) return Status::Corruption("batch header too small");
  WriteBatch batch;
  batch.rep_ = std::move(rep);
  // Validate structure eagerly so replicas reject corrupt batches.
  struct Counter : Handler {
    void Put(std::string_view, std::string_view) override { n++; }
    void Delete(std::string_view) override { n++; }
    uint32_t n = 0;
  } counter;
  LO_RETURN_IF_ERROR(batch.Iterate(&counter));
  if (counter.n != batch.Count()) return Status::Corruption("batch count mismatch");
  return batch;
}

Status WriteBatch::Iterate(Handler* handler) const {
  Reader reader{std::string_view(rep_).substr(kHeaderSize)};
  while (!reader.empty()) {
    std::string_view type_byte;
    if (!reader.GetBytes(1, &type_byte)) return Status::Corruption("bad batch record");
    std::string_view key, value;
    switch (type_byte[0]) {
      case kTypeValue:
        if (!reader.GetLengthPrefixed(&key) || !reader.GetLengthPrefixed(&value)) {
          return Status::Corruption("bad batch put");
        }
        handler->Put(key, value);
        break;
      case kTypeDeletion:
        if (!reader.GetLengthPrefixed(&key)) {
          return Status::Corruption("bad batch delete");
        }
        handler->Delete(key);
        break;
      default:
        return Status::Corruption("unknown batch record type");
    }
  }
  return Status::OK();
}

Status WriteBatch::InsertInto(SequenceNumber base_seq, MemTable* mem) const {
  struct Inserter : Handler {
    SequenceNumber seq;
    MemTable* mem;
    void Put(std::string_view key, std::string_view value) override {
      mem->Add(seq++, ValueType::kValue, key, value);
    }
    void Delete(std::string_view key) override {
      mem->Add(seq++, ValueType::kDeletion, key, {});
    }
  } inserter;
  inserter.seq = base_seq;
  inserter.mem = mem;
  return Iterate(&inserter);
}

void WriteBatch::Append(const WriteBatch& other) {
  uint32_t count = Count() + other.Count();
  rep_.append(other.rep_, kHeaderSize, other.rep_.size() - kHeaderSize);
  char* p = rep_.data() + 8;
  for (int i = 0; i < 4; i++) p[i] = static_cast<char>((count >> (8 * i)) & 0xff);
}

}  // namespace lo::storage
