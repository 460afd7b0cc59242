#include "cluster/microshard.h"

#include "common/coding.h"
#include "runtime/object.h"

namespace lo::cluster {

std::string_view OidFromStorageKey(std::string_view key) {
  size_t first = key.find('\0');
  if (first == std::string_view::npos) return {};
  size_t second = key.find('\0', first + 1);
  if (second == std::string_view::npos) return key.substr(first + 1);
  return key.substr(first + 1, second - first - 1);
}

Result<std::vector<std::pair<std::string, std::string>>> CollectObjectEntries(
    storage::DB* db, std::string_view oid) {
  std::vector<std::pair<std::string, std::string>> entries;
  auto existence = db->Get({}, runtime::ObjectExistsKey(oid));
  if (!existence.ok()) return existence.status();
  entries.emplace_back(runtime::ObjectExistsKey(oid), *existence);
  std::string prefix = runtime::FieldKey(oid, "");
  auto iter = db->NewIterator({});
  for (iter->Seek(prefix); iter->Valid(); iter->Next()) {
    std::string_view key = iter->key();
    if (key.substr(0, prefix.size()) != prefix) break;
    entries.emplace_back(std::string(key), std::string(iter->value()));
  }
  LO_RETURN_IF_ERROR(iter->status());
  return entries;
}

Result<std::string> ExtractObjectRep(storage::DB* db, std::string_view oid) {
  auto entries = CollectObjectEntries(db, oid);
  if (!entries.ok()) return entries.status();
  storage::WriteBatch batch;
  for (const auto& [key, value] : *entries) batch.Put(key, value);
  return batch.rep();
}

Result<storage::WriteBatch> DecodeObjectRep(std::string rep) {
  return storage::WriteBatch::FromRep(std::move(rep));
}

std::string EncodeInstall(coord::ShardId shard, std::string_view oid,
                          std::string_view batch_rep) {
  std::string out;
  PutVarint32(&out, shard);
  PutLengthPrefixed(&out, oid);
  out.append(batch_rep);
  return out;
}

bool DecodeInstall(std::string_view payload, coord::ShardId* shard,
                   std::string_view* oid, std::string_view* batch_rep) {
  Reader reader{payload};
  if (!reader.GetVarint32(shard) || !reader.GetLengthPrefixed(oid)) return false;
  *batch_rep = reader.rest();
  return true;
}

}  // namespace lo::cluster
