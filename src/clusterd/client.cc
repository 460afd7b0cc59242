#include "clusterd/client.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "net/event_loop.h"
#include "replication/replicator.h"

namespace lo::clusterd {

namespace {
// Process-unique client ids keep idempotency tokens distinct across the
// many per-thread Clients sharing one server.
std::atomic<uint64_t> g_next_client_id{1};

constexpr int64_t kDirectoryTimeoutUs = 2'000'000;
}  // namespace

Client::Client(net::RpcClient* rpc, std::string coordinator,
               ClientOptions options)
    : Client(rpc, std::move(coordinator), {}, options) {}

Client Client::Standalone(net::RpcClient* rpc, std::string address,
                          ClientOptions options) {
  return Client(rpc, {}, std::move(address), options);
}

Client::Client(net::RpcClient* rpc, std::string coordinator, std::string server,
               ClientOptions options)
    : rpc_(rpc),
      coordinator_(std::move(coordinator)),
      server_(std::move(server)),
      options_(options),
      rng_(options.seed),
      client_id_(g_next_client_id.fetch_add(1, std::memory_order_relaxed)) {
  if (options_.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options_.metrics_registry;
    reg->RegisterExternal("client.requests", 0, &metrics_.requests);
    reg->RegisterExternal("client.retries", 0, &metrics_.retries);
    reg->RegisterExternal("client.budget_exhausted", 0,
                          &metrics_.budget_exhausted);
    reg->RegisterExternal("client.redirects", 0, &metrics_.redirects);
    reg->RegisterExternal("rpc.throttled", 0, &metrics_.throttled);
    invoke_latency_us_ = reg->GetHistogram("client.invoke_latency_us", 0);
  }
}

std::string Client::AddressFor(const std::string& oid) const {
  if (coordinator_.empty()) return server_;
  return view_ ? view_->AddressForObject(oid) : std::string();
}

Status Client::RefreshDirectory() {
  auto reply = rpc_->CallSync(coordinator_, kSvcGetConfig, "",
                              kDirectoryTimeoutUs);
  if (!reply.ok()) return reply.status();
  auto fresh = ClusterView::Decode(*reply);
  if (!fresh.ok()) return fresh.status();
  if (!view_ || fresh->version >= view_->version) view_ = std::move(*fresh);
  metrics_.directory_refreshes++;
  return Status::OK();
}

std::string Client::NextInvocationToken() {
  return "r" + std::to_string(client_id_) + "-" + std::to_string(next_token_++);
}

Result<std::string> Client::Call(const std::string& oid, const char* service,
                                 const std::string& payload) {
  metrics_.requests++;
  obs::TraceContext trace;
  if (options_.tracer != nullptr) trace = options_.tracer->StartTrace();
  const int64_t started_us = net::EventLoop::NowUs();
  cluster::RetryPolicy retry([] { return net::EventLoop::NowUs() * 1000; },
                             &rng_, options_.retry_budget_us * 1000,
                             /*follows_redirects=*/!coordinator_.empty(),
                             &metrics_);
  // First use: fetch the directory. On failure the first attempt finds
  // no route and takes the kWrongShard path, which fetches again.
  if (!coordinator_.empty() && !view_) (void)RefreshDirectory();
  while (true) {
    // Re-resolve every attempt: a directory refresh or a failover may
    // have moved the object since the last send.
    std::string address = AddressFor(oid);
    Status failure;
    if (address.empty()) {
      failure = Status::WrongShard("no route for " + oid);
    } else {
      auto result = rpc_->CallSync(address, service, payload,
                                   options_.request_timeout_us, trace);
      if (result.ok()) {
        int64_t now_us = net::EventLoop::NowUs();
        if (obs::Tracing(options_.tracer, trace)) {
          options_.tracer->Record(trace, "invoke", 0, started_us * 1000,
                                  now_us * 1000);
        }
        if (invoke_latency_us_ != nullptr) {
          invoke_latency_us_->Record(now_us - started_us);
        }
        return result;
      }
      failure = result.status();
    }
    bool rerouted = cluster::RetryPolicy::Classify(failure.code()) ==
                        cluster::RetryPolicy::Failure::kMisroute &&
                    !coordinator_.empty() && RefreshDirectory().ok();
    std::optional<int64_t> pause = retry.Next(failure.code(), rerouted);
    if (!pause) return failure;
    if (*pause > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(*pause));
  }
}

Result<std::string> Client::Invoke(const std::string& oid,
                                   const std::string& method,
                                   const std::string& argument) {
  // The token is baked into the payload once, before the retry loop, so
  // every attempt of this request carries the same identity.
  return Call(oid, "lambda.invoke",
              EncodeInvoke(oid, method, argument, NextInvocationToken()));
}

Result<std::string> Client::Create(const std::string& oid,
                                   const std::string& type_name) {
  return Call(oid, "lambda.create",
              cluster::EncodeCreate(oid, type_name, NextInvocationToken()));
}

Result<std::string> Client::InvokeRead(const std::string& oid,
                                       const std::string& method,
                                       const std::string& argument) {
  replication::ReadRequest read;
  read.oid = oid;
  read.method = method;
  read.argument = argument;
  auto wrapped = Call(oid, "lambda.read", replication::EncodeReadRequest(read));
  if (!wrapped.ok()) return wrapped;
  replication::EpochToken token;
  return replication::UnwrapToken(*wrapped, &token);
}

}  // namespace lo::clusterd
