#include "clusterd/wire.h"

#include "cluster/routing.h"
#include "common/coding.h"

namespace lo::clusterd {

std::string ClusterView::Encode() const {
  std::string out;
  PutVarint64(&out, version);
  // The state blob is length-prefixed because ClusterState::Decode
  // consumes its input greedily (trailing optional fields).
  PutLengthPrefixed(&out, state.Encode());
  PutVarint32(&out, static_cast<uint32_t>(addresses.size()));
  for (const auto& [node, address] : addresses) {
    PutVarint32(&out, node);
    PutLengthPrefixed(&out, address);
  }
  return out;
}

Result<ClusterView> ClusterView::Decode(std::string_view bytes) {
  ClusterView view;
  Reader reader{bytes};
  std::string_view state_blob;
  uint32_t num_addresses = 0;
  if (!reader.GetVarint64(&view.version) ||
      !reader.GetLengthPrefixed(&state_blob) ||
      !reader.GetVarint32(&num_addresses)) {
    return Status::Corruption("bad cluster view");
  }
  auto state = coord::ClusterState::Decode(state_blob);
  if (!state.ok()) return state.status();
  view.state = std::move(*state);
  for (uint32_t i = 0; i < num_addresses; i++) {
    uint32_t node = 0;
    std::string_view address;
    if (!reader.GetVarint32(&node) || !reader.GetLengthPrefixed(&address)) {
      return Status::Corruption("bad cluster view address");
    }
    view.addresses[node] = std::string(address);
  }
  return view;
}

coord::ShardId ClusterView::ShardFor(std::string_view oid) const {
  return cluster::ShardForObject(state, oid);
}

sim::NodeId ClusterView::PrimaryFor(std::string_view oid) const {
  auto it = state.shards.find(ShardFor(oid));
  return it == state.shards.end() ? 0 : it->second.primary;
}

std::string ClusterView::AddressOf(sim::NodeId node) const {
  auto it = addresses.find(node);
  return it == addresses.end() ? std::string() : it->second;
}

std::string ClusterView::AddressForObject(std::string_view oid) const {
  sim::NodeId primary = PrimaryFor(oid);
  return primary == 0 ? std::string() : AddressOf(primary);
}

std::string EncodeRegisterRequest(std::string_view address) {
  std::string out;
  PutLengthPrefixed(&out, address);
  return out;
}

bool DecodeRegisterRequest(std::string_view payload, std::string_view* address) {
  Reader reader{payload};
  return reader.GetLengthPrefixed(address);
}

std::string EncodeRegisterResponse(sim::NodeId node, coord::ShardId shard,
                                   const ClusterView& view) {
  std::string out;
  PutVarint32(&out, node);
  PutVarint32(&out, shard);
  PutLengthPrefixed(&out, view.Encode());
  return out;
}

Status DecodeRegisterResponse(std::string_view payload, sim::NodeId* node,
                              coord::ShardId* shard, ClusterView* view) {
  Reader reader{payload};
  uint32_t node32 = 0;
  std::string_view view_blob;
  if (!reader.GetVarint32(&node32) || !reader.GetVarint32(shard) ||
      !reader.GetLengthPrefixed(&view_blob)) {
    return Status::Corruption("bad register response");
  }
  *node = node32;
  auto decoded = ClusterView::Decode(view_blob);
  if (!decoded.ok()) return decoded.status();
  *view = std::move(*decoded);
  return Status::OK();
}

std::string EncodeLoadReport(const LoadReport& report) {
  std::string out;
  PutVarint32(&out, report.node);
  PutVarint64(&out, report.view_version);
  PutVarint64(&out, report.window_requests);
  PutVarint32(&out, static_cast<uint32_t>(report.hot_objects.size()));
  for (const auto& [oid, count] : report.hot_objects) {
    PutLengthPrefixed(&out, oid);
    PutVarint64(&out, count);
  }
  return out;
}

Status DecodeLoadReport(std::string_view payload, LoadReport* report) {
  Reader reader{payload};
  uint32_t node = 0, n = 0;
  if (!reader.GetVarint32(&node) || !reader.GetVarint64(&report->view_version) ||
      !reader.GetVarint64(&report->window_requests) || !reader.GetVarint32(&n)) {
    return Status::Corruption("bad load report");
  }
  report->node = node;
  report->hot_objects.clear();
  for (uint32_t i = 0; i < n; i++) {
    std::string_view oid;
    uint64_t count = 0;
    if (!reader.GetLengthPrefixed(&oid) || !reader.GetVarint64(&count)) {
      return Status::Corruption("bad load report entry");
    }
    report->hot_objects.emplace_back(std::string(oid), count);
  }
  return Status::OK();
}

std::string EncodeMigrate(std::string_view oid, coord::ShardId target_shard,
                          std::string_view target_address) {
  std::string out;
  PutLengthPrefixed(&out, oid);
  PutVarint32(&out, target_shard);
  PutLengthPrefixed(&out, target_address);
  return out;
}

bool DecodeMigrate(std::string_view payload, std::string_view* oid,
                   coord::ShardId* target_shard,
                   std::string_view* target_address) {
  Reader reader{payload};
  return reader.GetLengthPrefixed(oid) && reader.GetVarint32(target_shard) &&
         reader.GetLengthPrefixed(target_address);
}

}  // namespace lo::clusterd
