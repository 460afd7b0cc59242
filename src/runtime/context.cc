#include "runtime/context.h"

#include "common/coding.h"
#include "common/log.h"
#include "runtime/runtime.h"

namespace lo::runtime {

InvocationContext::InvocationContext(Runtime* runtime, ObjectId oid,
                                     MethodKind kind,
                                     const storage::Snapshot* snapshot)
    : runtime_(runtime), oid_(std::move(oid)), kind_(kind), snapshot_(snapshot) {}

Status InvocationContext::CheckWritable() const {
  if (kind_ != MethodKind::kReadWrite) {
    return Status::FailedPrecondition("read-only invocation cannot write");
  }
  return Status::OK();
}

sim::Task<Result<std::string>> InvocationContext::ReadKey(std::string key) {
  auto buffered = writes_.find(key);
  if (buffered != writes_.end()) {
    // Own uncommitted write; not part of the storage read set.
    if (!buffered->second.has_value()) co_return Status::NotFound("");
    co_return *buffered->second;
  }
  Result<std::string> value = runtime_->StorageRead(key, snapshot_);
  if (!value.ok() && !value.status().IsNotFound()) co_return value.status();
  read_set_.push_back(std::move(key));
  co_return value;
}

sim::Task<Status> InvocationContext::WriteKey(std::string key,
                                              std::optional<std::string> value) {
  LO_CO_RETURN_IF_ERROR(CheckWritable());
  writes_[std::move(key)] = std::move(value);
  co_return Status::OK();
}

// --- HostApi ------------------------------------------------------------

sim::Task<Result<std::string>> InvocationContext::KvGet(std::string_view key) {
  return ReadKey(FieldKey(oid_, key));
}

sim::Task<Status> InvocationContext::KvPut(std::string_view key,
                                           std::string_view value) {
  return WriteKey(FieldKey(oid_, key), std::string(value));
}

sim::Task<Status> InvocationContext::KvDelete(std::string_view key) {
  return WriteKey(FieldKey(oid_, key), std::nullopt);
}

sim::Task<Result<std::string>> InvocationContext::InvokeObject(
    std::string_view oid, std::string_view function, std::string_view argument) {
  return runtime_->NestedInvoke(*this, ObjectId(oid), std::string(function),
                                std::string(argument));
}

uint64_t InvocationContext::TimeMillis() { return runtime_->TimeMillis(); }

void InvocationContext::DebugLog(std::string_view message) {
  LO_DEBUG << "[" << oid_ << "] " << message;
}

// --- native field API -----------------------------------------------------

sim::Task<Result<std::string>> InvocationContext::Get(std::string_view field) {
  return ReadKey(FieldKey(oid_, field));
}

sim::Task<Status> InvocationContext::Set(std::string_view field,
                                         std::string_view value) {
  return WriteKey(FieldKey(oid_, field), std::string(value));
}

sim::Task<Status> InvocationContext::Unset(std::string_view field) {
  return WriteKey(FieldKey(oid_, field), std::nullopt);
}

sim::Task<Result<uint64_t>> InvocationContext::ListLen(std::string_view field) {
  auto raw = co_await ReadKey(ListLenKey(oid_, field));
  if (!raw.ok()) {
    if (raw.status().IsNotFound()) co_return uint64_t{0};
    co_return raw.status();
  }
  if (raw->size() != 8) co_return Status::Corruption("bad list length");
  co_return DecodeFixed64(raw->data());
}

sim::Task<Status> InvocationContext::ListPush(std::string_view field,
                                              std::string_view value) {
  LO_CO_RETURN_IF_ERROR(CheckWritable());
  auto len = co_await ListLen(field);
  if (!len.ok()) co_return len.status();
  LO_CO_RETURN_IF_ERROR(co_await WriteKey(ListEntryKey(oid_, field, *len),
                                          std::string(value)));
  std::string encoded;
  PutFixed64(&encoded, *len + 1);
  co_return co_await WriteKey(ListLenKey(oid_, field), std::move(encoded));
}

sim::Task<Result<std::string>> InvocationContext::ListGet(std::string_view field,
                                                          uint64_t index) {
  return ReadKey(ListEntryKey(oid_, field, index));
}

sim::Task<Result<std::vector<std::string>>> InvocationContext::ListNewest(
    std::string_view field, uint64_t limit) {
  auto len = co_await ListLen(field);
  if (!len.ok()) co_return len.status();
  std::vector<std::string> result;
  uint64_t count = std::min(limit, *len);
  result.reserve(count);
  for (uint64_t i = 0; i < count; i++) {
    auto entry = co_await ListGet(field, *len - 1 - i);
    if (!entry.ok()) co_return entry.status();
    result.push_back(std::move(*entry));
  }
  co_return result;
}

sim::Task<Result<std::string>> InvocationContext::MapGet(std::string_view field,
                                                         std::string_view key) {
  return ReadKey(MapEntryKey(oid_, field, key));
}

sim::Task<Status> InvocationContext::MapSet(std::string_view field,
                                            std::string_view key,
                                            std::string_view value) {
  return WriteKey(MapEntryKey(oid_, field, key), std::string(value));
}

sim::Task<Status> InvocationContext::MapDelete(std::string_view field,
                                               std::string_view key) {
  return WriteKey(MapEntryKey(oid_, field, key), std::nullopt);
}

// --- runtime plumbing -----------------------------------------------------

storage::WriteBatch InvocationContext::TakeWriteBatch() {
  storage::WriteBatch batch;
  for (const auto& [key, value] : writes_) {
    if (value.has_value()) {
      batch.Put(key, *value);
    } else {
      batch.Delete(key);
    }
  }
  writes_.clear();
  return batch;
}

std::vector<std::string> InvocationContext::written_keys() const {
  std::vector<std::string> keys;
  keys.reserve(writes_.size());
  for (const auto& [key, value] : writes_) keys.push_back(key);
  return keys;
}

}  // namespace lo::runtime
