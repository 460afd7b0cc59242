// Microshard extract/install: the storage-level half of object
// migration (paper §4.2.1), shared by the simulated StorageNode and the
// real clusterd server so both deployments move byte-identical state.
//
// A microshard is everything one object owns in the node-local KV store:
// the existence key plus every field key (including list/map entries and
// the idempotency markers, which must travel with the object so retries
// stay exactly-once across a migration). Extract packages that set as a
// WriteBatch rep; install commits the rep on the receiving node.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "coord/coordinator.h"
#include "storage/db.h"
#include "storage/write_batch.h"

namespace lo::cluster {

/// Storage keys embed the owning object id: "o\0<oid>" or
/// "f\0<oid>\0...". Extracts it for shard routing.
std::string_view OidFromStorageKey(std::string_view key);

/// All storage entries belonging to one object (existence + fields).
/// NotFound if the object does not exist on this node.
Result<std::vector<std::pair<std::string, std::string>>> CollectObjectEntries(
    storage::DB* db, std::string_view oid);

/// Packages the object as a WriteBatch rep ready for ExtractedBatch /
/// shard.install. NotFound if the object does not exist.
Result<std::string> ExtractObjectRep(storage::DB* db, std::string_view oid);

/// Decodes an extract rep back into a WriteBatch (validates it).
Result<storage::WriteBatch> DecodeObjectRep(std::string rep);

/// shard.install request: varint32 shard | lp oid | extract rep
/// (response: "ok").
std::string EncodeInstall(coord::ShardId shard, std::string_view oid,
                          std::string_view batch_rep);
bool DecodeInstall(std::string_view payload, coord::ShardId* shard,
                   std::string_view* oid, std::string_view* batch_rep);

}  // namespace lo::cluster
