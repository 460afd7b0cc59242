#include "clusterd/server.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>
#include <vector>

#include "cluster/microshard.h"
#include "common/coding.h"
#include "common/log.h"
#include "replication/replicator.h"
#include "runtime/object.h"

namespace lo::clusterd {
namespace {

/// Hottest objects named per load report.
constexpr size_t kReportTopK = 16;
/// Cap on distinct oids tracked per report window; hot objects enter the
/// map early, so overflow only drops cold tails.
constexpr size_t kHotTrackingMax = 4096;
constexpr int64_t kPeerTimeoutUs = 2'000'000;
constexpr int64_t kCoordTimeoutUs = 2'000'000;
/// Directory re-resolutions per forwarded nested invocation.
constexpr int kForwardRedirects = 2;
/// coord.place attempts before a migration rolls back.
constexpr int kPlaceAttempts = 3;
/// The server runs one execution lane. Every invocation of an object,
/// top-level or nested, then runs on the one runtime that sees its
/// commits, as invocation linearizability and the consistent result
/// cache need, and a nested call recurses on the lane thread instead of
/// hopping to another lane and back. More lanes did not pay on this
/// server: every DB call takes the DB's one serialize_access mutex, and
/// each lane's result cache keeps its own copies of the hot timelines.
constexpr size_t kLanes = 1;

}  // namespace

ServerNode::ServerNode(storage::DB* db, const runtime::TypeRegistry* types,
                       ServerNodeOptions options)
    : db_(db),
      options_(options),
      coordinator_(options.coordinator),
      server_([&options] {
        net::RpcServerOptions server_options;
        server_options.bind_address = options.bind_address;
        server_options.port = options.port;
        server_options.net_threads = options.net_threads;
        server_options.metrics_registry = options.metrics_registry;
        server_options.tracer = options.tracer;
        return server_options;
      }()),
      rpc_([&options] {
        net::RpcClientOptions client_options;
        client_options.metrics_registry = options.metrics_registry;
        return client_options;
      }()) {
  runtime::ParallelNodeOptions node_options;
  node_options.lanes = kLanes;
  node_options.group_commit = options_.group_commit;
  node_options.tenants = options_.tenants;
  node_ = std::make_unique<runtime::ParallelNode>(db_, types, node_options);
  if (options_.tenants != nullptr) {
    options_.tenants->RegisterMetrics(options_.metrics_registry);
  }
  if (!coordinator_.empty()) {
    // Nested invocations of objects owned by a peer leave the process:
    // the lane blocks (helping with its own queue) while the forward
    // runs on the RPC client's loop thread.
    node_->SetPeerInvoker(
        [this](const runtime::ObjectId& oid) { return OwnsForExecution(oid); },
        [this](runtime::ObjectId oid, std::string method, std::string argument,
               runtime::ParallelNode::Callback done) {
          ForwardInvoke(std::move(oid), std::move(method), std::move(argument),
                        kForwardRedirects, std::move(done));
        });
  }
  InstallHandlers();
}

ServerNode::~ServerNode() { Shutdown(); }

std::shared_ptr<const ClusterView> ServerNode::view() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_;
}

bool ServerNode::OwnsForExecution(const std::string& oid) const {
  if (coordinator_.empty()) return true;
  std::lock_guard<std::mutex> lock(view_mu_);
  if (migrated_away_.contains(oid)) return false;
  return view_ != nullptr && view_->PrimaryFor(oid) == node_id_;
}

void ServerNode::InstallView(ClusterView fresh) {
  auto shared = std::make_shared<const ClusterView>(std::move(fresh));
  std::lock_guard<std::mutex> lock(view_mu_);
  if (view_ == nullptr || shared->version >= view_->version) {
    view_ = std::move(shared);
  }
}

void ServerNode::CountRequest(const std::string& oid) {
  auto current = view();
  coord::ShardId shard =
      current == nullptr ? home_shard_ : current->ShardFor(oid);
  std::lock_guard<std::mutex> lock(stats_mu_);
  metrics_.invokes++;
  shard_requests_[shard]++;
  window_requests_++;
  auto it = window_object_requests_.find(oid);
  if (it != window_object_requests_.end()) {
    it->second++;
  } else if (window_object_requests_.size() < kHotTrackingMax) {
    window_object_requests_[oid] = 1;
  }
}

void ServerNode::RejectWrongShard(const net::RpcServer::Responder& respond,
                                  const char* why) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    metrics_.wrong_shard_rejects++;
  }
  respond(Status::WrongShard(why));
}

void ServerNode::ServeOnLane(std::string_view oid_view,
                             const net::RpcServer::Request& request,
                             net::RpcServer::Responder respond, LaneCall call) {
  runtime::ObjectId oid(oid_view);
  CountRequest(oid);
  if (!OwnsForExecution(oid)) {
    RejectWrongShard(respond, "object not served here");
    return;
  }
  if (options_.tenants != nullptr) {
    // Tenant admission: over budget sheds with kTenantThrottled; else the
    // tenant's in-flight slot is released exactly once, when the
    // lane-deferred response goes out. Responder copies share the flag.
    Status admitted = options_.tenants->Admit(request.tenant);
    if (!admitted.ok()) {
      respond(std::move(admitted));
      return;
    }
    auto released = std::make_shared<std::atomic<bool>>(false);
    respond = [registry = options_.tenants, tenant = request.tenant, released,
               inner = std::move(respond)](Result<std::string> result) {
      if (!released->exchange(true)) registry->Release(tenant);
      inner(std::move(result));
    };
  }
  // The job captures a copy of the id: RunOnLane reads `oid` to pick the
  // lane, so nothing may move from it first.
  node_->RunOnLane(
      oid,
      [this, oid, deadline_us = request.deadline_us,
       respond = std::move(respond),
       call = std::move(call)](runtime::Runtime& rt) mutable {
        // Lane-level shed: the request waited behind a busy lane past its
        // deadline. Counts into the same counter as arrival sheds.
        if (deadline_us != 0 && net::EventLoop::NowUs() > deadline_us) {
          server_.RecordShed();
          respond(Status::Timeout("deadline expired before execution"));
          return;
        }
        // Ownership re-check on the lane: a migration's extract job may
        // have run between the loop-thread check and now; a write
        // executed here would land in a copy that already left.
        if (!OwnsForExecution(oid)) {
          RejectWrongShard(respond, "object migrated while queued");
          return;
        }
        respond(call(rt, std::move(oid)));
      },
      request.tenant);
}

void ServerNode::InstallHandlers() {
  server_.Handle("lambda.invoke", [this](net::RpcServer::Request request,
                                         net::RpcServer::Responder respond) {
    std::string_view oid, method, argument, token;
    if (!cluster::DecodeInvoke(request.payload, &oid, &method, &argument, &token)) {
      respond(Status::Corruption("bad invoke payload"));
      return;
    }
    ServeOnLane(oid, request, std::move(respond),
                [method = std::string(method), argument = std::string(argument),
                 token = std::string(token), tenant = request.tenant](
                    runtime::Runtime& rt, runtime::ObjectId oid) mutable {
                  return runtime::RunSync(
                      rt.Invoke(std::move(oid), std::move(method),
                                std::move(argument), {}, std::move(token),
                                tenant));
                });
  });

  server_.Handle("lambda.create", [this](net::RpcServer::Request request,
                                         net::RpcServer::Responder respond) {
    std::string_view oid, type_name, token;
    if (!cluster::DecodeCreate(request.payload, &oid, &type_name, &token)) {
      respond(Status::Corruption("bad create payload"));
      return;
    }
    ServeOnLane(oid, request, std::move(respond),
                [type_name = std::string(type_name), token = std::string(token)](
                    runtime::Runtime& rt, runtime::ObjectId oid) mutable {
                  return runtime::RunSync(rt.CreateObject(
                      std::move(oid), std::move(type_name), std::move(token)));
                });
  });

  // Read path, wire-compatible with the sim's "lambda.read". Every read
  // runs at the object's only copy (the real path replicates by
  // migration, not by replica sets), and that copy committed every
  // acknowledged write before acking it, so the request's read mode and
  // token need no gate here. The reply still carries the apply-epoch.
  server_.Handle("lambda.read", [this](net::RpcServer::Request request,
                                       net::RpcServer::Responder respond) {
    replication::ReadRequest read;
    if (!replication::DecodeReadRequest(request.payload, &read)) {
      respond(Status::Corruption("bad read payload"));
      return;
    }
    ServeOnLane(read.oid, request, std::move(respond),
                [this, method = std::string(read.method),
                 argument = std::string(read.argument),
                 tenant = request.tenant](runtime::Runtime& rt,
                                          runtime::ObjectId oid) mutable
                -> Result<std::string> {
                  LO_RETURN_IF_ERROR(rt.CheckReadOnly(oid, method));
                  auto result = runtime::RunSync(
                      rt.Invoke(std::move(oid), std::move(method),
                                std::move(argument), {}, {}, tenant));
                  if (!result.ok()) return result.status();
                  // Epoch 0: the real path has no config epochs.
                  return replication::EncodeTokenWrapped(
                      {0, node_->apply_epoch()}, *result);
                });
  });

  // Live migration, source side. Extraction runs on the object's lane,
  // so every invocation enqueued before the migrate drains (executes and
  // commits) first; everything after bounces with kWrongShard until the
  // directory points at the target. The handler answers only once the
  // chain extract -> install -> place finished (or rolled back), so the
  // caller observes a migration that either fully happened or didn't.
  server_.Handle(kSvcShardMigrate, [this](net::RpcServer::Request request,
                                          net::RpcServer::Responder respond) {
    std::string_view oid, target_address;
    coord::ShardId target_shard = 0;
    if (!DecodeMigrate(request.payload, &oid, &target_shard, &target_address)) {
      respond(Status::Corruption("bad migrate payload"));
      return;
    }
    std::string oid_str(oid);
    if (!OwnsForExecution(oid_str)) {
      respond(Status::WrongShard("not the owner of " + oid_str));
      return;
    }
    node_->RunOnLane(
        oid_str,
        [this, oid = oid_str, target_shard,
         target_address = std::string(target_address),
         respond](runtime::Runtime&) mutable {
          auto rep = cluster::ExtractObjectRep(db_, oid);
          if (!rep.ok()) {
            respond(rep.status());
            return;
          }
          {
            // Stop serving the object. The local keys stay (lazy delete,
            // same crash-safety story as the sim node): the directory
            // never points here again unless the object migrates back.
            std::lock_guard<std::mutex> lock(view_mu_);
            migrated_away_.insert(oid);
          }
          rpc_.Call(
              target_address, kSvcShardInstall,
              cluster::EncodeInstall(target_shard, oid, *rep), kPeerTimeoutUs,
              [this, oid, target_shard, respond](Result<std::string> installed) mutable {
                if (!installed.ok()) {
                  // Target unreachable or refused: roll back and keep
                  // serving the object from here.
                  {
                    std::lock_guard<std::mutex> lock(view_mu_);
                    migrated_away_.erase(oid);
                  }
                  std::lock_guard<std::mutex> lock(stats_mu_);
                  metrics_.migration_failures++;
                  respond(installed.status());
                  return;
                }
                PlaceAsync(oid, target_shard, kPlaceAttempts, respond);
              });
        });
  });

  // Live migration, target side. The install commits on the object's
  // lane so it serializes with any (bounced) invocation of the same oid
  // and the lane runtime drops stale cache entries for the object.
  server_.Handle(kSvcShardInstall, [this](net::RpcServer::Request request,
                                          net::RpcServer::Responder respond) {
    coord::ShardId shard = 0;
    std::string_view oid, batch_rep;
    if (!cluster::DecodeInstall(request.payload, &shard, &oid, &batch_rep)) {
      respond(Status::Corruption("bad install payload"));
      return;
    }
    node_->RunOnLane(
        std::string(oid),
        [this, oid = std::string(oid), rep = std::string(batch_rep),
         respond](runtime::Runtime& rt) mutable {
          auto batch = cluster::DecodeObjectRep(std::move(rep));
          if (!batch.ok()) {
            respond(batch.status());
            return;
          }
          Status committed = node_->committer().Commit(*batch);
          if (!committed.ok()) {
            respond(committed);
            return;
          }
          rt.OnExternalCommit(*batch);
          {
            std::lock_guard<std::mutex> lock(view_mu_);
            migrated_away_.erase(oid);  // the object may be coming back
          }
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            metrics_.migrations_in++;
          }
          respond(std::string("ok"));
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

void ServerNode::ForwardInvoke(runtime::ObjectId oid, std::string method,
                               std::string argument, int redirects_left,
                               runtime::ParallelNode::Callback done) {
  std::string address;
  if (auto current = view(); current != nullptr) {
    address = current->AddressForObject(oid);
  }
  if (address.empty()) {
    if (redirects_left > 0) {
      RefreshViewAsync([this, oid = std::move(oid), method = std::move(method),
                        argument = std::move(argument), redirects_left,
                        done = std::move(done)]() mutable {
        ForwardInvoke(std::move(oid), std::move(method), std::move(argument),
                      redirects_left - 1, std::move(done));
      });
      return;
    }
    done(Status::Unavailable("no route for " + oid));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    metrics_.peer_forwards++;
  }
  // Forwards carry no idempotency token, matching the sim's node-to-node
  // EncodeInvoke: retries of the *root* invocation are what dedupes.
  rpc_.Call(address, "lambda.invoke", EncodeInvoke(oid, method, argument, {}),
            kPeerTimeoutUs,
            [this, oid, method, argument, redirects_left,
             done = std::move(done)](Result<std::string> result) mutable {
              if (!result.ok() &&
                  result.status().code() == StatusCode::kWrongShard &&
                  redirects_left > 0) {
                RefreshViewAsync([this, oid = std::move(oid),
                                  method = std::move(method),
                                  argument = std::move(argument),
                                  redirects_left,
                                  done = std::move(done)]() mutable {
                  ForwardInvoke(std::move(oid), std::move(method),
                                std::move(argument), redirects_left - 1,
                                std::move(done));
                });
                return;
              }
              done(std::move(result));
            });
}

void ServerNode::RefreshViewAsync(std::function<void()> done) {
  rpc_.Call(coordinator_, kSvcGetConfig, "", kCoordTimeoutUs,
            [this, done = std::move(done)](Result<std::string> result) {
              if (result.ok()) {
                auto fresh = ClusterView::Decode(*result);
                if (fresh.ok()) {
                  InstallView(std::move(*fresh));
                  std::lock_guard<std::mutex> lock(stats_mu_);
                  metrics_.directory_refreshes++;
                }
              }
              done();
            });
}

void ServerNode::PlaceAsync(std::string oid, coord::ShardId shard,
                            int attempts_left,
                            net::RpcServer::Responder respond) {
  // Encoded before the Call so the callback's `std::move(oid)` capture —
  // evaluated in unspecified order relative to the other arguments —
  // cannot hollow out the payload.
  std::string payload = coord::EncodePlace(oid, shard);
  rpc_.Call(coordinator_, kSvcPlace, std::move(payload),
            kCoordTimeoutUs,
            [this, oid = std::move(oid), shard, attempts_left,
             respond = std::move(respond)](Result<std::string> placed) mutable {
              if (placed.ok()) {
                {
                  std::lock_guard<std::mutex> lock(stats_mu_);
                  metrics_.migrations_out++;
                }
                respond(std::string("ok"));
                return;
              }
              if (attempts_left > 1) {
                PlaceAsync(std::move(oid), shard, attempts_left - 1,
                           std::move(respond));
                return;
              }
              // The copy landed on the target but the directory was
              // never published, so nobody will ever route there: roll
              // back and keep serving from the (still-authoritative)
              // source copy. The orphan at the target is overwritten by
              // any later successful migration of the same object.
              {
                std::lock_guard<std::mutex> lock(view_mu_);
                migrated_away_.erase(oid);
              }
              {
                std::lock_guard<std::mutex> lock(stats_mu_);
                metrics_.migration_failures++;
              }
              respond(placed.status());
            });
}

Status ServerNode::RegisterWithCoordinator() {
  std::string advertise =
      options_.advertise_host + ":" + std::to_string(server_.port());
  auto reply =
      rpc_.CallSync(coordinator_, kSvcRegister, EncodeRegisterRequest(advertise),
                    kCoordTimeoutUs);
  if (!reply.ok()) return reply.status();
  ClusterView fresh;
  LO_RETURN_IF_ERROR(
      DecodeRegisterResponse(*reply, &node_id_, &home_shard_, &fresh));
  InstallView(std::move(fresh));
  return Status::OK();
}

void ServerNode::ReportLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(reporter_mu_);
      reporter_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.report_interval_ms),
          [&] { return stop_reporter_; });
      if (stop_reporter_) return;
    }
    LoadReport report;
    report.node = node_id_;
    {
      auto current = view();
      report.view_version = current == nullptr ? 0 : current->version;
    }
    std::map<std::string, uint64_t> window;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      report.window_requests = window_requests_;
      window_requests_ = 0;
      window.swap(window_object_requests_);
    }
    // Top-K hottest objects of the window, hottest first.
    std::vector<std::pair<std::string, uint64_t>> hot(window.begin(),
                                                      window.end());
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    if (hot.size() > kReportTopK) hot.resize(kReportTopK);
    report.hot_objects = std::move(hot);

    auto reply = rpc_.CallSync(coordinator_, kSvcReport,
                               EncodeLoadReport(report),
                               kCoordTimeoutUs);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      metrics_.reports_sent++;
    }
    if (!reply.ok()) continue;  // coordinator will hear from us next window
    Reader reader{*reply};
    uint64_t coordinator_version = 0;
    if (!reader.GetVarint64(&coordinator_version)) continue;
    uint64_t our_version = 0;
    if (auto current = view(); current != nullptr) our_version = current->version;
    if (coordinator_version > our_version) {
      auto config = rpc_.CallSync(coordinator_, kSvcGetConfig, "",
                                  kCoordTimeoutUs);
      if (config.ok()) {
        auto fresh = ClusterView::Decode(*config);
        if (fresh.ok()) {
          InstallView(std::move(*fresh));
          std::lock_guard<std::mutex> lock(stats_mu_);
          metrics_.directory_refreshes++;
        }
      }
    }
  }
}

Status ServerNode::Start() {
  LO_CHECK_MSG(!started_, "ServerNode::Start called twice");
  started_ = true;
  LO_RETURN_IF_ERROR(server_.Start());
  if (!coordinator_.empty()) {
    LO_RETURN_IF_ERROR(RegisterWithCoordinator());
    reporter_ = std::thread([this] { ReportLoop(); });
  }
  if (options_.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options_.metrics_registry;
    uint32_t label = node_id_;
    reg->RegisterExternal("clusterd.invokes", label, &metrics_.invokes);
    reg->RegisterExternal("clusterd.wrong_shard_rejects", label,
                          &metrics_.wrong_shard_rejects);
    reg->RegisterExternal("clusterd.peer_forwards", label,
                          &metrics_.peer_forwards);
    reg->RegisterExternal("clusterd.migrations_out", label,
                          &metrics_.migrations_out);
    reg->RegisterExternal("clusterd.migrations_in", label,
                          &metrics_.migrations_in);
    reg->RegisterExternal("clusterd.migration_failures", label,
                          &metrics_.migration_failures);
    reg->RegisterExternal("clusterd.directory_refreshes", label,
                          &metrics_.directory_refreshes);
  }
  return Status::OK();
}

void ServerNode::Shutdown() {
  if (stopped_) return;
  stopped_ = true;
  if (reporter_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(reporter_mu_);
      stop_reporter_ = true;
    }
    reporter_cv_.notify_all();
    reporter_.join();
  }
  // Teardown order matters: stop the server first (no new requests),
  // then drain the lanes (every outstanding Responder fires — into
  // closed connections, harmlessly), then flush so a restart from the
  // same path sees every acked commit without WAL replay.
  server_.Stop();
  node_->Drain();
  (void)db_->CompactAll();
  rpc_.Stop();
}

ServerNode::Metrics ServerNode::metrics_snapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return metrics_;
}

std::string ServerNode::StatsText() {
  const auto& stats = server_.stats();
  std::string out;
  out += "node=" + std::to_string(node_id_) + "\n";
  out += "requests=" + std::to_string(stats.requests.load()) + "\n";
  out += "responses=" + std::to_string(stats.responses.load()) + "\n";
  out += "deadline_shed=" + std::to_string(stats.deadline_shed.load()) + "\n";
  out += "backlog_shed=" + std::to_string(stats.backlog_shed.load()) + "\n";
  out += "frame_rejects=" + std::to_string(server_.frame_stats().rejects()) + "\n";
  // Transport syscall accounting for the A13 saturation bench: the
  // loadgen diffs two snapshots around its measure window.
  out += "net_reactors=" + std::to_string(server_.reactors()) + "\n";
  out += "net_syscalls=" + std::to_string(stats.syscalls.load()) + "\n";
  out += "net_poll_waits=" + std::to_string(server_.poll_waits()) + "\n";
  out += "net_bytes_out=" + std::to_string(stats.bytes_out.load()) + "\n";
  out += "lanes=" + std::to_string(node_->lanes()) + "\n";
  uint64_t executed = 0;
  for (size_t i = 0; i < node_->lanes(); i++) executed += node_->lane_executed(i);
  out += "invocations_executed=" + std::to_string(executed) + "\n";
  const auto& gc = node_->committer().stats();
  out += "gc_commits=" + std::to_string(gc.commits) + "\n";
  out += "gc_groups=" + std::to_string(gc.groups) + "\n";
  // MiniLSM maintenance, which runs on the DB's own thread.
  storage::DB::Stats db = db_->GetStats();
  out += "db_flushes=" + std::to_string(db.flushes) + "\n";
  out += "db_compactions=" + std::to_string(db.compactions) + "\n";
  out += "db_compaction_bytes=" +
         std::to_string(db.compaction_bytes_read + db.compaction_bytes_written) + "\n";
  out += "db_stall_us=" + std::to_string(db.stall_us) + "\n";
  out += "db_stall_soft=" + std::to_string(db.stall_soft) + "\n";
  out += "db_stall_hard=" + std::to_string(db.stall_hard) + "\n";
  std::lock_guard<std::mutex> lock(stats_mu_);
  out += "invokes=" + std::to_string(metrics_.invokes) + "\n";
  out += "wrong_shard_rejects=" + std::to_string(metrics_.wrong_shard_rejects) + "\n";
  out += "peer_forwards=" + std::to_string(metrics_.peer_forwards) + "\n";
  out += "migrations_out=" + std::to_string(metrics_.migrations_out) + "\n";
  out += "migrations_in=" + std::to_string(metrics_.migrations_in) + "\n";
  out += "migration_failures=" + std::to_string(metrics_.migration_failures) + "\n";
  out += "directory_refreshes=" + std::to_string(metrics_.directory_refreshes) + "\n";
  out += "reports_sent=" + std::to_string(metrics_.reports_sent) + "\n";
  for (const auto& [shard, count] : shard_requests_) {
    out += "shard_requests." + std::to_string(shard) + "=" +
           std::to_string(count) + "\n";
  }
  return out;
}

}  // namespace lo::clusterd
