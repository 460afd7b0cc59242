// Async TCP RPC server on net::EventLoop — the real-transport
// counterpart of the server half of sim::RpcEndpoint.
//
// The server runs `net_threads` reactor threads. Each reactor owns its
// own EventLoop, its own SO_REUSEPORT listener (the kernel hashes
// incoming connections across the listeners by 4-tuple), and every
// connection it accepted: accept, frame decode (CRC verified, corrupt
// streams are closed), request dispatch, and response writes all happen
// on the owning reactor thread, so connection state needs no locking
// and a response never hops between transport threads. A listener that
// fails to bind fails Start() with its error.
//
// Responses coalesce: a completed response appends to the connection's
// iovec send queue and the reactor flushes every dirty connection with
// one writev at the end of the loop iteration, so a pipelined burst of
// N responses costs one write syscall instead of N. Responses are
// encoded scatter-gather (frame.h EncodeResponseParts): the handler's
// payload buffer is moved into the queue, never re-copied into a
// contiguous staging buffer.
//
// Handlers receive a Responder that may be called from ANY thread
// exactly once — completion marshals back onto the owning reactor —
// so a handler can hand the request to worker threads (the lambdastore
// server enqueues onto runtime::ParallelNode lanes) and return
// immediately.
//
// Deadline shedding: a request whose frame-header deadline has already
// passed when it is dispatched is answered with Status::Timeout without
// invoking the handler (it sat in a socket buffer or behind a slow
// handler for longer than the caller was willing to wait — doing the
// work now only burns CPU on a response nobody reads). Handlers that
// queue work should re-check Request::Expired() at execution time; both
// shed points count into stats().deadline_shed via RecordShed.
// A connection whose pending-response backlog exceeds
// `max_conn_backlog_bytes` sheds new requests the same way (the client
// stopped reading; finishing more work for it only grows the queue).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/send_queue.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lo::net {

struct RpcServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back with port().
  uint16_t port = 0;
  /// Reactor threads (one EventLoop + listener each).
  int net_threads = 1;
  /// Shed requests once a connection's unsent responses exceed this.
  size_t max_conn_backlog_bytes = 8u << 20;
  /// >0: SO_SNDBUF for accepted sockets. Tests use the kernel minimum
  /// to force partial writev returns across iovec boundaries.
  int sndbuf_bytes = 0;
  /// Observability (nullptr = off). Counters register under `node_label`
  /// as net.server.*; sampled requests get "srv.<service>" spans with
  /// CLOCK_MONOTONIC-µs timestamps, parented under the caller's rpc span
  /// exactly like the sim transport.
  obs::MetricsRegistry* metrics_registry = nullptr;
  obs::Tracer* tracer = nullptr;
  uint32_t node_label = 0;
};

class RpcServer {
 public:
  struct Request {
    std::string service;
    std::string payload;
    obs::TraceContext trace;
    /// Absolute CLOCK_MONOTONIC µs deadline from the frame; 0 = none.
    int64_t deadline_us = 0;
    /// Tenant QoS identity from the frame; 0 = unattributed.
    uint32_t tenant = 0;

    bool Expired() const {
      return deadline_us != 0 && EventLoop::NowUs() > deadline_us;
    }
  };
  /// Thread-safe, single-shot. Calling it after the connection died (or
  /// after Stop()) is harmless — the response is dropped — but every
  /// Responder must be invoked or destroyed before the RpcServer is
  /// destructed: drain worker threads first.
  using Responder = std::function<void(Result<std::string>)>;
  using Handler = std::function<void(Request request, Responder respond)>;

  explicit RpcServer(RpcServerOptions options = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Installs the handler for `service`. Call before Start().
  void Handle(std::string service, Handler handler);

  /// Binds the listeners and spawns the reactor threads.
  Status Start();
  /// Closes every connection and joins the reactor threads. Idempotent.
  void Stop();

  /// Actual bound port (after Start with port 0).
  uint16_t port() const { return port_; }
  /// Reactor threads actually running (after Start).
  int reactors() const { return static_cast<int>(reactors_.size()); }

  struct Stats {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> responses{0};
    std::atomic<uint64_t> deadline_shed{0};
    std::atomic<uint64_t> backlog_shed{0};  // subset of deadline_shed
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    /// Data-path syscalls issued: every read/writev/write/accept4 call,
    /// including ones that return EAGAIN.
    std::atomic<uint64_t> syscalls{0};
    /// Unsent response bytes queued across all live connections (gauge).
    std::atomic<uint64_t> backlog_bytes{0};
  };
  const Stats& stats() const { return stats_; }
  const FrameStats& frame_stats() const { return frame_stats_; }
  /// Handlers that shed queued work themselves (lane-level deadline
  /// checks) report it here so one counter covers both shed points.
  void RecordShed() { stats_.deadline_shed.fetch_add(1, std::memory_order_relaxed); }

  /// epoll_wait calls across all reactors.
  uint64_t poll_waits() const;
  /// (data syscalls + poll waits) / responses — the per-RPC syscall
  /// budget the coalesced flush path exists to shrink. 0 before any
  /// response.
  double syscalls_per_rpc() const;

 private:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    std::string inbuf;
    SendQueue sendq;
    bool want_write = false;  // EAGAIN hit; EPOLLOUT armed and drives flush
    bool dirty = false;       // queued on the reactor's flush list
  };

  /// One reactor thread: loop + listener + the connections it accepted.
  /// All fields except the loop handle are loop-thread-only.
  struct Reactor {
    int index = 0;
    EventLoop loop;
    std::thread thread;
    int listen_fd = -1;
    uint64_t next_conn_seq = 1;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    std::vector<uint64_t> flush_list;  // dirty connections this iteration
  };

  void AcceptReady(Reactor* reactor);
  /// Registers an accepted fd on `reactor` (its loop thread).
  void AdoptFd(Reactor* reactor, int fd);
  void ConnReady(Reactor* reactor, uint64_t conn_id, uint32_t events);
  /// Returns false when a corrupt frame closed the connection.
  bool DrainInbuf(Reactor* reactor, Connection* conn);
  void DispatchRequest(Reactor* reactor, Connection* conn,
                       const RequestFrame& request);
  /// Queues an encoded response; the reactor's end-of-iteration hook
  /// (or EPOLLOUT) flushes it.
  void SendOnConn(Reactor* reactor, Connection* conn, ResponseParts parts);
  void FlushConn(Reactor* reactor, Connection* conn);
  /// End-of-iteration hook: one writev per dirty connection.
  void FlushDirty(Reactor* reactor);
  void CloseConn(Reactor* reactor, uint64_t conn_id);
  void RegisterMetrics();

  RpcServerOptions options_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  bool started_ = false;
  uint16_t port_ = 0;
  std::unordered_map<std::string, Handler> handlers_;
  Stats stats_;
  FrameStats frame_stats_;
};

}  // namespace lo::net
