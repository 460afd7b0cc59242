// Async TCP RPC client on net::EventLoop — the real-transport
// counterpart of the client half of sim::RpcEndpoint.
//
// One loop thread owns a pool of connections, one per remote address,
// each multiplexing any number of in-flight calls by correlation id
// (rpc_id): callers never wait for the wire to go quiet, and every
// thread in the process can share one RpcClient. Per-call deadlines are
// armed on the loop's timer wheel and travel in the frame header, so
// the server can shed the request if it expires in a queue.
//
// Connection lifecycle: a call to a new address starts a non-blocking
// connect; calls issued while connecting (or while in reconnect
// backoff) queue and are written once the socket is ready. When a
// connection drops, calls already on the wire fail with Unavailable
// (the caller cannot know whether they executed — retry with an
// idempotency token, see clusterd::Client) and the client re-dials
// with exponential backoff + jitter (rpc_client.cc's constants: a 1 s
// connect deadline, a backoff from 10 ms doubling to 1 s). Queued-but-
// unsent calls survive a reconnect: their own deadline is the only bound
// on how long they wait.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "common/status.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/send_queue.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lo::net {

struct RpcClientOptions {
  /// Observability (nullptr = off). Counters register under `node_label`
  /// as net.client.*; sampled calls get "rpc.<service>" spans like the
  /// sim transport. The tracer is only touched on the loop thread.
  obs::MetricsRegistry* metrics_registry = nullptr;
  obs::Tracer* tracer = nullptr;
  uint32_t node_label = 0;
};

class RpcClient {
 public:
  /// Invoked exactly once, on the loop thread.
  using Callback = std::function<void(Result<std::string>)>;

  explicit RpcClient(RpcClientOptions options = {});
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Thread-safe. Sends `service(payload)` to `address` ("ip:port") with
  /// a relative timeout; the frame carries the absolute deadline so the
  /// server can shed expired work. A sampled `trace` context propagates
  /// in the frame and the call is recorded as an "rpc.<service>" span.
  /// `tenant` rides in the frame for server-side QoS (0 = unattributed).
  void Call(const std::string& address, std::string service, std::string payload,
            int64_t timeout_us, Callback done, obs::TraceContext trace = {},
            uint32_t tenant = 0);

  /// Blocking convenience for worker threads (benchmarks, clusterd::Client).
  Result<std::string> CallSync(const std::string& address, std::string service,
                               std::string payload, int64_t timeout_us,
                               obs::TraceContext trace = {}, uint32_t tenant = 0);

  /// Fails outstanding calls with Unavailable and joins the loop thread.
  /// Idempotent; the destructor calls it.
  void Stop();

  struct Stats {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> connects{0};
    std::atomic<uint64_t> reconnects{0};  // re-dials after a drop/failure
    std::atomic<uint64_t> conn_failures{0};
    std::atomic<uint64_t> inflight{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
  };
  const Stats& stats() const { return stats_; }
  const FrameStats& frame_stats() const { return frame_stats_; }

 private:
  struct PendingCall {
    uint64_t rpc_id = 0;
    std::string frame;  // fully encoded, ready for the wire
    Callback done;
    TimerId deadline_timer = 0;
    bool sent = false;
    int64_t started_us = 0;
    std::string service;
    obs::TraceContext span_ctx;
  };

  enum class ConnState { kConnecting, kReady, kBackoff };

  struct Connection {
    std::string address;
    std::string host;
    uint16_t port = 0;
    int fd = -1;
    ConnState state = ConnState::kBackoff;
    std::string inbuf;
    /// Encoded request frames queued for the wire; drained with writev
    /// so a burst of pipelined calls costs one syscall.
    SendQueue sendq;
    bool want_write = false;
    int64_t backoff_us = 0;
    TimerId connect_timer = 0;    // connect-timeout watchdog
    TimerId reconnect_timer = 0;  // armed while in kBackoff
    /// Calls owned by this connection, keyed by rpc_id. Unsent calls are
    /// also queued (in order) in `unsent`.
    std::unordered_map<uint64_t, PendingCall> pending;
    std::deque<uint64_t> unsent;
  };

  // All private methods run on the loop thread.
  Connection* ConnFor(const std::string& address);
  void StartConnect(Connection* conn);
  void ConnectOutcome(Connection* conn, Status status);
  void ScheduleReconnect(Connection* conn);
  void ConnReady(const std::string& address, uint32_t events);
  void DrainInbuf(Connection* conn);
  void HandleResponse(Connection* conn, const ResponseFrame& response);
  /// Fails in-flight calls, keeps unsent ones, moves to backoff.
  void ConnLost(Connection* conn, const Status& reason);
  void FlushUnsent(Connection* conn);
  void FlushOutbuf(Connection* conn);
  void FinishCall(Connection* conn, uint64_t rpc_id, Result<std::string> result);
  void RegisterMetrics();

  RpcClientOptions options_;
  EventLoop loop_;
  std::thread loop_thread_;
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> next_rpc_id_{1};
  Rng rng_;
  std::unordered_map<std::string, std::unique_ptr<Connection>> conns_;
  Histogram* call_latency_us_ = nullptr;  // owned by the registry
  Stats stats_;
  FrameStats frame_stats_;
};

}  // namespace lo::net
