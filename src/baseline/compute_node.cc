#include "baseline/compute_node.h"

#include "cluster/microshard.h"
#include "common/coding.h"
#include "common/log.h"
#include "sim/calibration.h"

namespace lo::baseline {
namespace {

/// Deadline on one storage round trip.
constexpr sim::Duration kStorageTimeout = sim::Millis(100);

}  // namespace

/// HostApi whose every operation is a round-trip to the storage layer —
/// the crux of the disaggregated design. No write buffering, no read
/// snapshot: operations are individually visible the moment they land.
class RemoteHostApi : public vm::HostApi {
 public:
  RemoteHostApi(ComputeNode* node, std::string oid, obs::TraceContext trace)
      : node_(node), oid_(std::move(oid)), trace_(trace) {}

  sim::Task<Result<std::string>> KvGet(std::string_view key) override {
    node_->metrics_.storage_round_trips++;
    co_return co_await node_->rpc_.Call(Primary(), "kv.get",
                                        runtime::FieldKey(oid_, key),
                                        kStorageTimeout, trace_);
  }

  sim::Task<Status> KvPut(std::string_view key, std::string_view value) override {
    node_->metrics_.storage_round_trips++;
    std::string payload;
    PutLengthPrefixed(&payload, runtime::FieldKey(oid_, key));
    PutLengthPrefixed(&payload, value);
    payload.push_back(0);
    auto reply = co_await node_->rpc_.Call(Primary(), "kv.put", payload,
                                           kStorageTimeout, trace_);
    co_return reply.status();
  }

  sim::Task<Status> KvDelete(std::string_view key) override {
    node_->metrics_.storage_round_trips++;
    std::string payload;
    PutLengthPrefixed(&payload, runtime::FieldKey(oid_, key));
    PutLengthPrefixed(&payload, "");
    payload.push_back(1);
    auto reply = co_await node_->rpc_.Call(Primary(), "kv.put", payload,
                                           kStorageTimeout, trace_);
    co_return reply.status();
  }

  sim::Task<Result<std::string>> InvokeObject(std::string_view oid,
                                              std::string_view function,
                                              std::string_view argument) override {
    // §4.1: nested calls re-enter through the load balancer when there
    // is one (another round of indirection); otherwise loop back into
    // this compute node as a fresh invocation.
    if (node_->load_balancer_ != 0) {
      co_return co_await node_->rpc_.Call(
          node_->load_balancer_, "lb.invoke",
          cluster::EncodeInvoke(oid, function, argument), kStorageTimeout * 4,
          trace_);
    }
    co_return co_await node_->InvokeFunction(std::string(oid), std::string(function),
                                             std::string(argument), trace_);
  }

  uint64_t TimeMillis() override {
    return static_cast<uint64_t>(node_->rpc_.sim().Now() / 1'000'000);
  }

 private:
  sim::NodeId Primary() const { return node_->shard_map_.PrimaryFor(oid_); }

  ComputeNode* node_;
  std::string oid_;
  obs::TraceContext trace_;
};

ComputeNode::ComputeNode(sim::Network& net, sim::NodeId id,
                         const runtime::TypeRegistry* types,
                         ComputeNodeOptions options)
    : options_(options), rpc_(net, id), cpu_(net.sim(), sim::kNodeCores),
      types_(types) {
  rpc_.SetTracer(options.tracer);
  rpc_.Handle("fn.invoke", [this](sim::NodeId from, obs::TraceContext trace,
                                  std::string payload) {
    return HandleInvoke(from, trace, std::move(payload));
  });
  rpc_.Handle("fn.create", [this](sim::NodeId from, std::string payload) {
    return HandleCreate(from, std::move(payload));
  });
  if (options.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options.metrics_registry;
    reg->RegisterExternal("compute.invocations", id, &metrics_.invocations);
    reg->RegisterExternal("compute.storage_round_trips", id,
                          &metrics_.storage_round_trips);
    reg->RegisterExternal("compute.cold_starts", id, &metrics_.cold_starts);
    reg->RegisterExternal("compute.fuel_executed", id, &metrics_.fuel_executed);
    reg->RegisterCallback("cpu.busy_core_ns", id, [this] {
      return static_cast<double>(cpu_.busy_core_ns());
    });
  }
}

sim::Task<Result<std::string>> ComputeNode::TypeNameOf(const std::string& oid) {
  auto cached = type_cache_.find(oid);
  if (cached != type_cache_.end()) co_return cached->second;
  metrics_.storage_round_trips++;
  auto reply = co_await rpc_.Call(shard_map_.PrimaryFor(oid), "kv.get",
                                  runtime::ObjectExistsKey(oid),
                                  kStorageTimeout);
  if (!reply.ok()) co_return reply.status();
  type_cache_[oid] = *reply;
  co_return reply;
}

sim::Task<void> ComputeNode::MaybeColdStart(const std::string& type_name) {
  if (options_.cold_start <= 0) co_return;
  sim::Time now = rpc_.sim().Now();
  auto it = warm_until_.find(type_name);
  if (it == warm_until_.end() || it->second < now) {
    metrics_.cold_starts++;
    co_await rpc_.sim().Sleep(options_.cold_start);
  }
  warm_until_[type_name] = rpc_.sim().Now() + options_.keep_alive;
}

sim::Task<Result<std::string>> ComputeNode::InvokeFunction(std::string oid,
                                                           std::string method,
                                                           std::string argument,
                                                           obs::TraceContext trace) {
  metrics_.invocations++;
  auto type_name = co_await TypeNameOf(oid);
  if (!type_name.ok()) {
    co_return Status::NotFound("no such object: " + oid);
  }
  const runtime::ObjectType* type = types_->Find(*type_name);
  if (type == nullptr) co_return Status::NotFound("unknown type: " + *type_name);
  const runtime::MethodImpl* impl = type->FindMethod(method);
  if (impl == nullptr) co_return Status::NotFound("no method: " + method);
  if (impl->module == nullptr) {
    // The baseline executes uploaded (bytecode) functions only, exactly
    // like a serverless platform; native methods are a LambdaStore
    // convenience.
    co_return Status::InvalidArgument("baseline requires a VM module for " + method);
  }
  co_await MaybeColdStart(*type_name);

  RemoteHostApi host(this, oid, trace);
  vm::Instance instance(impl->module.get(), vm::VmLimits{});
  auto result = co_await instance.Invoke(method, std::move(argument), &host);
  uint64_t fuel = instance.metrics().fuel_used;
  metrics_.fuel_executed += fuel;
  sim::Time exec_started = rpc_.sim().Now();
  co_await cpu_.Execute(sim::kSandboxInstantiation +
                        static_cast<sim::Duration>(fuel * sim::kNsPerFuel));
  if (obs::Tracing(options_.tracer, trace)) {
    options_.tracer->RecordChild(trace, "vm_exec", id(), exec_started,
                                 rpc_.sim().Now());
  }
  co_return result;
}

sim::Task<Result<std::string>> ComputeNode::HandleInvoke(sim::NodeId,
                                                         obs::TraceContext trace,
                                                         std::string payload) {
  std::string_view oid, method, argument, token;
  if (!cluster::DecodeInvoke(payload, &oid, &method, &argument, &token)) {
    co_return Status::Corruption("bad fn.invoke payload");
  }
  sim::Time dispatch_started = rpc_.sim().Now();
  co_await rpc_.sim().Sleep(sim::kDispatchOverhead);
  if (obs::Tracing(options_.tracer, trace)) {
    options_.tracer->RecordChild(trace, "dispatch", id(), dispatch_started,
                                 rpc_.sim().Now());
  }
  co_return co_await InvokeFunction(std::string(oid), std::string(method),
                                    std::string(argument), trace);
}

sim::Task<Result<std::string>> ComputeNode::HandleCreate(sim::NodeId,
                                                         std::string payload) {
  std::string_view oid, type_name, token;
  if (!cluster::DecodeCreate(payload, &oid, &type_name, &token)) {
    co_return Status::Corruption("bad fn.create payload");
  }
  co_await rpc_.sim().Sleep(sim::kDispatchOverhead);
  if (types_->Find(*&type_name) == nullptr) {
    co_return Status::NotFound("unknown type");
  }
  // Existence record written straight to storage (single put, no txn).
  std::string put;
  PutLengthPrefixed(&put, runtime::ObjectExistsKey(oid));
  PutLengthPrefixed(&put, type_name);
  put.push_back(0);
  metrics_.storage_round_trips++;
  auto reply = co_await rpc_.Call(shard_map_.PrimaryFor(oid), "kv.put", put,
                                  kStorageTimeout);
  if (!reply.ok()) co_return reply.status();
  co_return std::string(oid);
}

}  // namespace lo::baseline
