// The LambdaObjects data model (paper §3).
//
// An *object type* declares fields (a single opaque value, or a
// collection indexed by key) and methods (native C++ or LambdaVM
// bytecode). Objects are instantiated from types and addressed by an
// ObjectId. A method can only touch its own object's data, which is what
// lets LambdaStore schedule per-object and shard per-object.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sim/task.h"
#include "vm/module.h"

namespace lo::runtime {

/// Object identity, e.g. "user/alice". Must not contain NUL bytes (NUL
/// separates id from field in the key layout).
using ObjectId = std::string;

enum class FieldKind : uint8_t {
  kValue,  // single opaque value
  kList,   // append-only collection, indexed 0..len-1
  kMap,    // collection indexed by string key
};

struct FieldSchema {
  std::string name;
  FieldKind kind = FieldKind::kValue;
};

enum class MethodKind : uint8_t {
  kReadWrite,  // exclusive per object; commits a write batch
  kReadOnly,   // runs on a snapshot; may run concurrently / on replicas
};

class InvocationContext;

/// Native method body. The context provides the same ABI the VM sees.
using NativeMethod = std::function<sim::Task<Result<std::string>>(
    InvocationContext& ctx, std::string argument)>;

struct MethodImpl {
  MethodKind kind = MethodKind::kReadWrite;
  /// Only deterministic read-only methods are result-cacheable (§4.2.2).
  bool deterministic = false;
  /// Exactly one of `native` / `module` is set. VM methods call the
  /// module's export named after the method.
  NativeMethod native{};
  std::shared_ptr<const vm::Module> module{};
};

struct ObjectType {
  std::string name;
  std::vector<FieldSchema> fields;
  std::map<std::string, MethodImpl, std::less<>> methods;

  const MethodImpl* FindMethod(std::string_view method) const {
    auto it = methods.find(method);
    return it == methods.end() ? nullptr : &it->second;
  }
};

/// Process-wide catalog of uploaded object types.
class TypeRegistry {
 public:
  Status Register(ObjectType type);
  const ObjectType* Find(std::string_view name) const;
  std::vector<std::string> TypeNames() const;

 private:
  std::map<std::string, ObjectType, std::less<>> types_;
};

// ----------------------------------------------------------------------
// Key layout over the node-local KV store. NUL separates components so
// ids containing '/' (e.g. "user/alice") cannot collide across objects.
//
//   o\0<oid>                      -> type name            (existence)
//   f\0<oid>\0<field>             -> value field / VM raw key
//   f\0<oid>\0<field>\0len        -> list length (fixed64)
//   f\0<oid>\0<field>\0e<be64 i>  -> list entry i
//   f\0<oid>\0<field>\0m<key>     -> map entry
//   f\0<oid>\0\x01idem\0<tok>\0<i> -> applied-invocation marker (reserved
//                                    field "\x01idem"; see AppliedMarkerKey)
// ----------------------------------------------------------------------

std::string ObjectExistsKey(std::string_view oid);
std::string FieldKey(std::string_view oid, std::string_view field);
std::string ListLenKey(std::string_view oid, std::string_view field);
std::string ListEntryKey(std::string_view oid, std::string_view field, uint64_t index);
std::string MapEntryKey(std::string_view oid, std::string_view field,
                        std::string_view key);
/// Idempotency marker for commit number `commit_index` of the invocation
/// identified by `token`. Lives in the object's field namespace (reserved
/// field name "\x01idem") so it routes to the owning shard, replicates
/// inside the commit batch it guards, and migrates with the object.
std::string AppliedMarkerKey(std::string_view oid, std::string_view token,
                             uint64_t commit_index);

}  // namespace lo::runtime
