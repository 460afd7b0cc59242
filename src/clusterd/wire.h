// Wire protocol of the real (multi-process) cluster deployment.
//
// Everything clusterd speaks rides the net/frame.h RPC framing; this
// header only defines the payload encodings and the service names. The
// cluster *view* is the coordinator's replicated ClusterState (shards,
// directory, hash space — byte-compatible with the sim coordinator)
// plus the piece only the real deployment needs: the node -> "ip:port"
// address book, and a version (the coordinator's applied-command count)
// so servers and clients can tell a stale directory from a fresh one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "coord/coordinator.h"

namespace lo::clusterd {

// Services hosted by the coordinator process.
inline constexpr char kSvcRegister[] = "clusterd.register";
inline constexpr char kSvcGetConfig[] = "clusterd.get_config";
inline constexpr char kSvcReport[] = "clusterd.report";
inline constexpr char kSvcPlace[] = "coord.place";
inline constexpr char kSvcMigrate[] = "clusterd.migrate";

// Services hosted by every storage server (beyond lambda.invoke/create).
inline constexpr char kSvcShardMigrate[] = "shard.migrate";
inline constexpr char kSvcShardInstall[] = "shard.install";

/// A versioned snapshot of the cluster configuration.
struct ClusterView {
  uint64_t version = 0;
  coord::ClusterState state;
  std::map<sim::NodeId, std::string> addresses;

  std::string Encode() const;
  static Result<ClusterView> Decode(std::string_view bytes);

  /// Directory entry wins, then hash over the pinned hash space.
  coord::ShardId ShardFor(std::string_view oid) const;
  /// Primary node for the object, or 0 when the shard has no config yet.
  sim::NodeId PrimaryFor(std::string_view oid) const;
  /// "ip:port" of a node, or empty when unknown.
  std::string AddressOf(sim::NodeId node) const;
  /// "ip:port" of the object's primary, or empty when unroutable.
  std::string AddressForObject(std::string_view oid) const;
};

// clusterd.register: server -> coordinator on startup.
//   request:  lp(advertise_address)
//   response: varint32 node_id | varint32 shard_id | lp(encoded view)
std::string EncodeRegisterRequest(std::string_view address);
bool DecodeRegisterRequest(std::string_view payload, std::string_view* address);
std::string EncodeRegisterResponse(sim::NodeId node, coord::ShardId shard,
                                   const ClusterView& view);
Status DecodeRegisterResponse(std::string_view payload, sim::NodeId* node,
                              coord::ShardId* shard, ClusterView* view);

// clusterd.report: periodic load report (doubles as the heartbeat).
//   request:  varint32 node | varint64 view_version | varint64 requests |
//             varint32 n | n * (lp oid | varint64 count)
//   response: varint64 coordinator_version
struct LoadReport {
  sim::NodeId node = 0;
  uint64_t view_version = 0;
  uint64_t window_requests = 0;
  std::vector<std::pair<std::string, uint64_t>> hot_objects;
};
std::string EncodeLoadReport(const LoadReport& report);
Status DecodeLoadReport(std::string_view payload, LoadReport* report);

// coord.place: publish a directory entry (same payload as the sim
// coordinator's "coord.place": lp oid | varint32 shard).
std::string EncodePlace(std::string_view oid, coord::ShardId shard);
bool DecodePlace(std::string_view payload, std::string_view* oid,
                 coord::ShardId* shard);

// clusterd.migrate / shard.migrate: move one object to `target_shard`.
// The coordinator resolves the target address; the source server
// receives the full triple. request: lp oid | varint32 shard | lp addr.
std::string EncodeMigrate(std::string_view oid, coord::ShardId target_shard,
                          std::string_view target_address);
bool DecodeMigrate(std::string_view payload, std::string_view* oid,
                   coord::ShardId* target_shard,
                   std::string_view* target_address);

// shard.install: commit an extracted object on the receiving server;
// cluster::EncodeInstall (cluster/microshard.h) is its payload, shared
// with the sim node.

// lambda.invoke / lambda.create payloads (shared by clusterd::Client and
// clusterd::ServerNode; the token is optional on the wire so
// node-to-node forwards can omit it).
std::string EncodeInvoke(std::string_view oid, std::string_view method,
                         std::string_view argument, std::string_view token);
bool DecodeInvoke(std::string_view payload, std::string_view* oid,
                  std::string_view* method, std::string_view* argument,
                  std::string_view* token);
std::string EncodeCreate(std::string_view oid, std::string_view type_name,
                         std::string_view token);
bool DecodeCreate(std::string_view payload, std::string_view* oid,
                  std::string_view* type_name, std::string_view* token);

}  // namespace lo::clusterd
