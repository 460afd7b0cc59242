#include "storage/memtable.h"

#include <cstring>

#include "common/coding.h"
#include "common/log.h"

namespace lo::storage {
namespace {

// Decodes the length-prefixed internal key at p.
std::string_view GetLengthPrefixedAt(const char* p) {
  uint32_t len = 0;
  const char* data = GetVarint32Ptr(p, p + 5, &len);
  LO_CHECK(data != nullptr);
  return {data, len};
}

}  // namespace

int MemTable::KeyComparator::Compare(const char* a, const char* b) const {
  return icmp.Compare(GetLengthPrefixedAt(a), GetLengthPrefixedAt(b));
}

MemTable::MemTable() : table_(KeyComparator{}, &arena_) {}

void MemTable::Add(SequenceNumber seq, ValueType type, std::string_view user_key,
                   std::string_view value) {
  size_t ikey_size = user_key.size() + 8;
  std::string scratch;
  PutVarint32(&scratch, static_cast<uint32_t>(ikey_size));
  size_t header = scratch.size();
  size_t total = header + ikey_size;
  std::string vheader;
  PutVarint32(&vheader, static_cast<uint32_t>(value.size()));
  total += vheader.size() + value.size();

  char* buf = arena_.Allocate(total);
  char* p = buf;
  std::memcpy(p, scratch.data(), header);
  p += header;
  std::memcpy(p, user_key.data(), user_key.size());
  p += user_key.size();
  uint64_t packed = PackSeqAndType(seq, type);
  for (int i = 0; i < 8; i++) *p++ = static_cast<char>((packed >> (8 * i)) & 0xff);
  std::memcpy(p, vheader.data(), vheader.size());
  p += vheader.size();
  // Deletes carry an empty value whose data() may be null.
  if (!value.empty()) std::memcpy(p, value.data(), value.size());
  table_.Insert(buf);
  entries_++;
}

bool MemTable::Get(std::string_view user_key, SequenceNumber seq,
                   std::string* value, Status* s) const {
  std::string lookup = MakeInternalKey(user_key, seq, kValueTypeForSeek);
  std::string entry;
  PutVarint32(&entry, static_cast<uint32_t>(lookup.size()));
  entry += lookup;
  Table::Iterator iter(&table_);
  iter.Seek(entry.data());
  if (!iter.Valid()) return false;
  std::string_view ikey = GetLengthPrefixedAt(iter.key());
  ParsedInternalKey parsed;
  if (!ParseInternalKey(ikey, &parsed)) {
    *s = Status::Corruption("bad memtable key");
    return true;
  }
  if (parsed.user_key != user_key) return false;
  if (parsed.type == ValueType::kDeletion) {
    *s = Status::NotFound("");
    return true;
  }
  const char* value_ptr = ikey.data() + ikey.size();
  uint32_t vlen = 0;
  const char* vdata = GetVarint32Ptr(value_ptr, value_ptr + 5, &vlen);
  LO_CHECK(vdata != nullptr);
  value->assign(vdata, vlen);
  *s = Status::OK();
  return true;
}

namespace {

class MemTableIterator : public Iterator {
 public:
  explicit MemTableIterator(const SkipList<const char*, MemTable::KeyComparator>* table)
      : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void Seek(std::string_view target) override {
    scratch_.clear();
    PutVarint32(&scratch_, static_cast<uint32_t>(target.size()));
    scratch_.append(target);
    iter_.Seek(scratch_.data());
  }
  void Next() override { iter_.Next(); }
  std::string_view key() const override { return GetLengthPrefixedAt(iter_.key()); }
  std::string_view value() const override {
    std::string_view k = GetLengthPrefixedAt(iter_.key());
    const char* p = k.data() + k.size();
    uint32_t vlen = 0;
    const char* vdata = GetVarint32Ptr(p, p + 5, &vlen);
    LO_CHECK(vdata != nullptr);
    return {vdata, vlen};
  }
  Status status() const override { return Status::OK(); }

 private:
  SkipList<const char*, MemTable::KeyComparator>::Iterator iter_;
  std::string scratch_;
};

}  // namespace

std::unique_ptr<Iterator> MemTable::NewIterator() const {
  return std::make_unique<MemTableIterator>(&table_);
}

}  // namespace lo::storage
