#include "clusterd/coordinator.h"

#include <algorithm>
#include <chrono>

#include "common/coding.h"
#include "common/log.h"

namespace lo::clusterd {
namespace {

/// Reports older than this are treated as zero load.
constexpr int64_t kReportStalenessMs = 2'000;
constexpr int64_t kRpcTimeoutUs = 5'000'000;

}  // namespace

CoordinatorServer::CoordinatorServer(CoordinatorServerOptions options)
    : options_(options),
      server_([&options] {
        net::RpcServerOptions server_options;
        server_options.bind_address = options.bind_address;
        server_options.port = options.port;
        server_options.metrics_registry = options.metrics_registry;
        return server_options;
      }()),
      rpc_([&options] {
        net::RpcClientOptions client_options;
        client_options.metrics_registry = options.metrics_registry;
        return client_options;
      }()) {
  // Pin the hash space before any server registers, so shards created
  // beyond it are directory-only from the start.
  view_.state.hash_shards = options_.hash_servers;
  view_.version = 1;
  InstallHandlers();
}

CoordinatorServer::~CoordinatorServer() { Shutdown(); }

void CoordinatorServer::ApplyLocked(const std::string& command) {
  Status applied = view_.state.Apply(command);
  LO_CHECK_MSG(applied.ok(), "ClusterState::Apply failed on own command");
  view_.version++;
}

void CoordinatorServer::InstallHandlers() {
  server_.Handle(kSvcRegister, [this](net::RpcServer::Request request,
                                      net::RpcServer::Responder respond) {
    std::string_view address;
    if (!DecodeRegisterRequest(request.payload, &address)) {
      respond(Status::Corruption("bad register payload"));
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Re-registration (server restart on the same address) keeps the
    // node id and shard assignment stable.
    sim::NodeId node = 0;
    for (const auto& [id, addr] : view_.addresses) {
      if (addr == address) {
        node = id;
        break;
      }
    }
    if (node == 0) {
      node = next_node_id_++;
      coord::ShardId shard = next_shard_id_++;
      shard_of_node_[node] = shard;
      coord::ShardConfig config;
      config.epoch = 1;
      config.primary = node;
      ApplyLocked(coord::CmdSetShard(shard, config));
      view_.addresses[node] = std::string(address);
      view_.version++;  // address book changed too
    }
    ApplyLocked(coord::CmdNodeAlive(node));
    metrics_.registrations++;
    respond(EncodeRegisterResponse(node, shard_of_node_[node], view_));
  });

  server_.Handle(kSvcGetConfig, [this](net::RpcServer::Request,
                                       net::RpcServer::Responder respond) {
    std::lock_guard<std::mutex> lock(mu_);
    respond(view_.Encode());
  });

  server_.Handle(kSvcPlace, [this](net::RpcServer::Request request,
                                   net::RpcServer::Responder respond) {
    std::string_view oid;
    coord::ShardId shard = 0;
    if (!coord::DecodePlace(request.payload, &oid, &shard)) {
      respond(Status::Corruption("bad place payload"));
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!view_.state.shards.contains(shard)) {
      respond(Status::InvalidArgument("unknown shard"));
      return;
    }
    ApplyLocked(coord::CmdPlaceObject(oid, shard));
    metrics_.placements++;
    respond(std::string("ok"));
  });

  server_.Handle(kSvcReport, [this](net::RpcServer::Request request,
                                    net::RpcServer::Responder respond) {
    LoadReport report;
    Status decoded = DecodeLoadReport(request.payload, &report);
    if (!decoded.ok()) {
      respond(decoded);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    NodeLoad& load = loads_[report.node];
    load.requests = report.window_requests;
    load.hot_objects = std::move(report.hot_objects);
    load.reported_at_us = net::EventLoop::NowUs();
    metrics_.reports++;
    std::string reply;
    PutVarint64(&reply, view_.version);
    respond(reply);
  });

  // Manual migration trigger (tests, operators): lp oid | varint32
  // target shard. The coordinator resolves source and target addresses
  // and orders the source server; the answer propagates back once the
  // full extract -> install -> place chain finished. Runs async so the
  // loop thread keeps serving heartbeats while objects move.
  server_.Handle(kSvcMigrate, [this](net::RpcServer::Request request,
                                     net::RpcServer::Responder respond) {
    std::string_view oid_view;
    coord::ShardId target_shard = 0;
    if (!coord::DecodePlace(request.payload, &oid_view, &target_shard)) {
      respond(Status::Corruption("bad migrate payload"));
      return;
    }
    std::string oid(oid_view);
    std::string source_address, target_address;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto shard_it = view_.state.shards.find(target_shard);
      if (shard_it == view_.state.shards.end()) {
        respond(Status::InvalidArgument("unknown target shard"));
        return;
      }
      target_address = view_.AddressOf(shard_it->second.primary);
      source_address = view_.AddressForObject(oid);
      if (view_.ShardFor(oid) == target_shard) {
        respond(std::string("noop"));
        return;
      }
      metrics_.migrations_started++;
    }
    if (source_address.empty() || target_address.empty()) {
      respond(Status::Unavailable("unroutable migration"));
      return;
    }
    rpc_.Call(source_address, kSvcShardMigrate,
              EncodeMigrate(oid, target_shard, target_address),
              kRpcTimeoutUs,
              [this, respond](Result<std::string> result) {
                {
                  std::lock_guard<std::mutex> lock(mu_);
                  if (result.ok()) {
                    metrics_.migrations_done++;
                  } else {
                    metrics_.migrations_failed++;
                  }
                }
                respond(std::move(result));
              });
  });

  server_.Handle("ping", [](net::RpcServer::Request request,
                            net::RpcServer::Responder respond) {
    respond(std::string(request.payload));
  });

  server_.Handle("admin.stats", [this](net::RpcServer::Request,
                                       net::RpcServer::Responder respond) {
    respond(StatsText());
  });

  server_.Handle("admin.shutdown", [this](net::RpcServer::Request,
                                          net::RpcServer::Responder respond) {
    respond(std::string("bye"));
    shutdown_requested_.store(true, std::memory_order_release);
  });
}

int CoordinatorServer::RebalanceRound() {
  struct Candidate {
    std::string oid;
    uint64_t count = 0;
  };
  std::string source_address, target_address;
  coord::ShardId target_shard = 0;
  std::vector<Candidate> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (view_.addresses.size() < 2) return 0;
    const int64_t now_us = net::EventLoop::NowUs();
    const int64_t stale_us = kReportStalenessMs * 1000;
    // Every registered node participates; nodes without a fresh report
    // count as idle — that is exactly what makes a just-added node the
    // rebalance target.
    uint64_t total = 0;
    sim::NodeId hottest = 0, coldest = 0;
    uint64_t hottest_load = 0, coldest_load = UINT64_MAX;
    for (const auto& [node, address] : view_.addresses) {
      uint64_t load = 0;
      auto it = loads_.find(node);
      if (it != loads_.end() && now_us - it->second.reported_at_us < stale_us) {
        load = it->second.requests;
      }
      total += load;
      if (hottest == 0 || load > hottest_load) {
        hottest = node;
        hottest_load = load;
      }
      if (coldest == 0 || load < coldest_load) {
        coldest = node;
        coldest_load = load;
      }
    }
    if (total < options_.rebalance_min_requests) return 0;
    double mean = static_cast<double>(total) /
                  static_cast<double>(view_.addresses.size());
    if (static_cast<double>(hottest_load) < options_.rebalance_skew * mean) {
      return 0;
    }
    auto load_it = loads_.find(hottest);
    if (load_it == loads_.end()) return 0;
    // Move the hottest objects that still live on the hottest node.
    for (const auto& [oid, count] : load_it->second.hot_objects) {
      if (static_cast<int>(candidates.size()) >= options_.migrations_per_round)
        break;
      auto shard_it = view_.state.shards.find(view_.ShardFor(oid));
      if (shard_it == view_.state.shards.end() ||
          shard_it->second.primary != hottest) {
        continue;  // stale report entry; the object already moved
      }
      candidates.push_back({oid, count});
    }
    if (candidates.empty()) return 0;
    target_shard = shard_of_node_[coldest];
    source_address = view_.AddressOf(hottest);
    target_address = view_.AddressOf(coldest);
    metrics_.rebalance_rounds++;
    metrics_.migrations_started += candidates.size();
    // Invalidate this window's reports: the next decision should see
    // post-migration traffic, not re-issue the same moves.
    loads_.clear();
  }
  if (source_address.empty() || target_address.empty()) return 0;
  int moved = 0;
  for (const Candidate& candidate : candidates) {
    auto result = rpc_.CallSync(
        source_address, kSvcShardMigrate,
        EncodeMigrate(candidate.oid, target_shard, target_address),
        kRpcTimeoutUs);
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      metrics_.migrations_done++;
      moved++;
    } else {
      metrics_.migrations_failed++;
    }
  }
  return moved;
}

void CoordinatorServer::RebalanceLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(rebalancer_mu_);
      rebalancer_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.rebalance_interval_ms),
          [&] { return stop_rebalancer_; });
      if (stop_rebalancer_) return;
    }
    (void)RebalanceRound();
  }
}

Status CoordinatorServer::Start() {
  LO_CHECK_MSG(!started_, "CoordinatorServer::Start called twice");
  started_ = true;
  LO_RETURN_IF_ERROR(server_.Start());
  if (options_.rebalance_enabled) {
    rebalancer_ = std::thread([this] { RebalanceLoop(); });
  }
  if (options_.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options_.metrics_registry;
    reg->RegisterExternal("clusterd.coord.registrations", 0,
                          &metrics_.registrations);
    reg->RegisterExternal("clusterd.coord.reports", 0, &metrics_.reports);
    reg->RegisterExternal("clusterd.coord.placements", 0, &metrics_.placements);
    reg->RegisterExternal("clusterd.coord.rebalance_rounds", 0,
                          &metrics_.rebalance_rounds);
    reg->RegisterExternal("clusterd.coord.migrations_done", 0,
                          &metrics_.migrations_done);
    reg->RegisterExternal("clusterd.coord.migrations_failed", 0,
                          &metrics_.migrations_failed);
  }
  return Status::OK();
}

void CoordinatorServer::Shutdown() {
  if (stopped_) return;
  stopped_ = true;
  if (rebalancer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(rebalancer_mu_);
      stop_rebalancer_ = true;
    }
    rebalancer_cv_.notify_all();
    rebalancer_.join();
  }
  server_.Stop();
  rpc_.Stop();
}

ClusterView CoordinatorServer::View() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_;
}

CoordinatorServer::Metrics CoordinatorServer::metrics_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

std::string CoordinatorServer::StatsText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out += "version=" + std::to_string(view_.version) + "\n";
  out += "nodes=" + std::to_string(view_.addresses.size()) + "\n";
  out += "shards=" + std::to_string(view_.state.shards.size()) + "\n";
  out += "hash_shards=" + std::to_string(view_.state.hash_shards) + "\n";
  out += "directory_entries=" + std::to_string(view_.state.directory.size()) + "\n";
  out += "registrations=" + std::to_string(metrics_.registrations) + "\n";
  out += "reports=" + std::to_string(metrics_.reports) + "\n";
  out += "placements=" + std::to_string(metrics_.placements) + "\n";
  out += "rebalance_rounds=" + std::to_string(metrics_.rebalance_rounds) + "\n";
  out += "migrations_started=" + std::to_string(metrics_.migrations_started) + "\n";
  out += "migrations_done=" + std::to_string(metrics_.migrations_done) + "\n";
  out += "migrations_failed=" + std::to_string(metrics_.migrations_failed) + "\n";
  return out;
}

}  // namespace lo::clusterd
