#include "net/rpc_client.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <future>
#include <utility>
#include <vector>

#include "common/log.h"
#include "net/socket.h"

namespace lo::net {
namespace {

/// Iovecs per writev; matches the server's flush batch width.
constexpr int kMaxIovecs = 64;
/// Deadline on establishing a TCP connection.
constexpr int64_t kConnectTimeoutUs = 1'000'000;
/// Reconnect backoff: doubles per consecutive failure (±25% jitter from
/// a seeded RNG) up to the max; resets on success.
constexpr int64_t kReconnectBackoffUs = 10'000;
constexpr int64_t kReconnectBackoffMaxUs = 1'000'000;
constexpr uint64_t kJitterSeed = 1;

}  // namespace

RpcClient::RpcClient(RpcClientOptions options)
    : options_(std::move(options)), rng_(kJitterSeed) {
  if (options_.metrics_registry != nullptr) RegisterMetrics();
  loop_thread_ = std::thread([this] { loop_.Run(); });
}

RpcClient::~RpcClient() { Stop(); }

void RpcClient::RegisterMetrics() {
  obs::MetricsRegistry* reg = options_.metrics_registry;
  uint32_t node = options_.node_label;
  auto counter = [&](const char* name, const std::atomic<uint64_t>* value) {
    reg->RegisterCallback(name, node, [value] {
      return static_cast<double>(value->load(std::memory_order_relaxed));
    });
  };
  counter("net.client.calls", &stats_.calls);
  counter("net.client.timeouts", &stats_.timeouts);
  counter("net.client.connects", &stats_.connects);
  counter("net.client.reconnects", &stats_.reconnects);
  counter("net.client.conn_failures", &stats_.conn_failures);
  counter("net.client.inflight", &stats_.inflight);
  counter("net.client.bytes_in", &stats_.bytes_in);
  counter("net.client.bytes_out", &stats_.bytes_out);
  counter("net.client.frame_crc_rejects", &frame_stats_.crc_rejects);
  call_latency_us_ = reg->GetHistogram("net.client.call_latency_us", node);
}

void RpcClient::Call(const std::string& address, std::string service,
                     std::string payload, int64_t timeout_us, Callback done,
                     obs::TraceContext trace, uint32_t tenant) {
  if (stopped_) {
    done(Status::Unavailable("rpc client stopped"));
    return;
  }
  uint64_t rpc_id = next_rpc_id_.fetch_add(1, std::memory_order_relaxed);
  loop_.RunInLoop([this, address, service = std::move(service),
                   payload = std::move(payload), timeout_us,
                   done = std::move(done), trace, tenant, rpc_id]() mutable {
    if (stopped_) {  // raced Stop(); runs via DrainNow after the loop died
      done(Status::Unavailable("rpc client stopped"));
      return;
    }
    stats_.calls.fetch_add(1, std::memory_order_relaxed);
    Connection* conn = ConnFor(address);
    obs::TraceContext span_ctx = obs::Tracing(options_.tracer, trace)
                                     ? options_.tracer->Child(trace)
                                     : obs::TraceContext{};
    int64_t now_us = EventLoop::NowUs();
    RequestFrame frame;
    frame.rpc_id = rpc_id;
    frame.trace_id = span_ctx.trace_id;
    frame.span_id = span_ctx.span_id;
    frame.deadline_us = timeout_us > 0 ? now_us + timeout_us : 0;
    frame.tenant = tenant;
    frame.service = service;
    frame.payload = payload;

    PendingCall call;
    call.rpc_id = rpc_id;
    call.frame = EncodeRequest(frame);
    call.done = std::move(done);
    call.started_us = now_us;
    call.service = std::move(service);
    call.span_ctx = span_ctx;
    if (timeout_us > 0) {
      call.deadline_timer = loop_.AddTimer(timeout_us, [this, address, rpc_id] {
        auto it = conns_.find(address);
        if (it == conns_.end()) return;
        auto pending = it->second->pending.find(rpc_id);
        if (pending == it->second->pending.end()) return;
        pending->second.deadline_timer = 0;  // it just fired
        stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
        FinishCall(it->second.get(), rpc_id, Status::Timeout("rpc timeout"));
      });
    }
    conn->pending.emplace(rpc_id, std::move(call));
    conn->unsent.push_back(rpc_id);
    stats_.inflight.fetch_add(1, std::memory_order_relaxed);
    if (conn->state == ConnState::kReady) {
      FlushUnsent(conn);
    } else if (conn->state == ConnState::kBackoff && conn->reconnect_timer == 0) {
      StartConnect(conn);
    }
    // kConnecting (or an armed reconnect timer): the call waits its turn.
  });
}

Result<std::string> RpcClient::CallSync(const std::string& address,
                                        std::string service, std::string payload,
                                        int64_t timeout_us,
                                        obs::TraceContext trace,
                                        uint32_t tenant) {
  LO_CHECK_MSG(!loop_.InLoopThread(), "CallSync would deadlock the loop thread");
  auto promise = std::make_shared<std::promise<Result<std::string>>>();
  auto future = promise->get_future();
  Call(address, std::move(service), std::move(payload), timeout_us,
       [promise](Result<std::string> result) {
         promise->set_value(std::move(result));
       },
       trace, tenant);
  return future.get();
}

RpcClient::Connection* RpcClient::ConnFor(const std::string& address) {
  auto it = conns_.find(address);
  if (it != conns_.end()) return it->second.get();
  auto conn = std::make_unique<Connection>();
  conn->address = address;
  Status parsed = ParseAddress(address, &conn->host, &conn->port);
  if (!parsed.ok()) {
    LO_WARN << parsed.ToString();
  }
  Connection* raw = conn.get();
  conns_[address] = std::move(conn);
  return raw;
}

void RpcClient::StartConnect(Connection* conn) {
  if (conn->host.empty()) {
    // Bad address: fail whatever is queued rather than dial forever.
    std::vector<uint64_t> ids;
    for (const auto& [id, call] : conn->pending) ids.push_back(id);
    for (uint64_t id : ids) {
      FinishCall(conn, id, Status::InvalidArgument("bad address: " + conn->address));
    }
    return;
  }
  auto fd = ConnectTcp(conn->host, conn->port);
  if (!fd.ok()) {
    ConnectOutcome(conn, fd.status());
    return;
  }
  stats_.connects.fetch_add(1, std::memory_order_relaxed);
  conn->fd = *fd;
  conn->state = ConnState::kConnecting;
  std::string address = conn->address;
  loop_.AddFd(conn->fd, EPOLLOUT | EPOLLIN,
              [this, address](uint32_t events) { ConnReady(address, events); });
  conn->connect_timer =
      loop_.AddTimer(kConnectTimeoutUs, [this, address] {
        auto it = conns_.find(address);
        if (it == conns_.end()) return;
        Connection* c = it->second.get();
        if (c->state != ConnState::kConnecting) return;
        c->connect_timer = 0;
        loop_.RemoveFd(c->fd);
        close(c->fd);
        c->fd = -1;
        ConnectOutcome(c, Status::Unavailable("connect timeout"));
      });
}

void RpcClient::ConnectOutcome(Connection* conn, Status status) {
  // Only called with a failure; success is handled inline in ConnReady.
  stats_.conn_failures.fetch_add(1, std::memory_order_relaxed);
  LO_WARN << "connect " << conn->address << " failed: " << status.ToString();
  ScheduleReconnect(conn);
}

void RpcClient::ScheduleReconnect(Connection* conn) {
  conn->state = ConnState::kBackoff;
  if (conn->pending.empty()) return;  // re-dial lazily on the next call
  int64_t base = conn->backoff_us == 0
                     ? kReconnectBackoffUs
                     : std::min(conn->backoff_us * 2, kReconnectBackoffMaxUs);
  conn->backoff_us = base;
  // ±25% jitter, mirroring the sim client's retry pause (cluster/client).
  auto pause = static_cast<int64_t>(static_cast<double>(base) *
                                    (0.75 + 0.5 * rng_.NextDouble()));
  std::string address = conn->address;
  conn->reconnect_timer = loop_.AddTimer(pause, [this, address] {
    auto it = conns_.find(address);
    if (it == conns_.end()) return;
    Connection* c = it->second.get();
    c->reconnect_timer = 0;
    if (c->state != ConnState::kBackoff) return;
    stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
    StartConnect(c);
  });
}

void RpcClient::ConnReady(const std::string& address, uint32_t events) {
  auto it = conns_.find(address);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  if (conn->state == ConnState::kConnecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    Status status = ConnectError(conn->fd);
    if (conn->connect_timer != 0) {
      loop_.CancelTimer(conn->connect_timer);
      conn->connect_timer = 0;
    }
    if (!status.ok()) {
      loop_.RemoveFd(conn->fd);
      close(conn->fd);
      conn->fd = -1;
      ConnectOutcome(conn, status);
      return;
    }
    conn->state = ConnState::kReady;
    conn->backoff_us = 0;  // healthy again
    loop_.ModFd(conn->fd, EPOLLIN);
    FlushUnsent(conn);
    return;
  }
  if (conn->state != ConnState::kReady) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    ConnLost(conn, Status::Unavailable("connection error"));
    return;
  }
  if ((events & EPOLLOUT) != 0 && conn->want_write) {
    FlushOutbuf(conn);
    if (conns_.find(address) == conns_.end()) return;
    if (conn->state != ConnState::kReady) return;  // lost during flush
  }
  if ((events & EPOLLIN) == 0) return;
  bool peer_closed = false;
  char buf[64 * 1024];
  while (true) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      stats_.bytes_in.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    ConnLost(conn, Status::Unavailable(std::string("read: ") + strerror(errno)));
    return;
  }
  DrainInbuf(conn);
  if (peer_closed && conn->state == ConnState::kReady) {
    ConnLost(conn, Status::Unavailable("server closed connection"));
  }
}

void RpcClient::DrainInbuf(Connection* conn) {
  size_t offset = 0;
  std::string_view view(conn->inbuf);
  while (true) {
    size_t consumed = 0;
    std::string_view body;
    DecodeResult result =
        TryDecodeFrame(view.substr(offset), &consumed, &body, &frame_stats_);
    if (result == DecodeResult::kNeedMore) break;
    if (result == DecodeResult::kCorrupt) {
      ConnLost(conn, Status::Corruption("corrupt frame from server"));
      return;
    }
    Message message;
    if (DecodeMessage(body, &message, &frame_stats_) &&
        message.kind == MessageKind::kResponse) {
      HandleResponse(conn, message.response);
    }
    offset += consumed;
  }
  conn->inbuf.erase(0, offset);
}

void RpcClient::HandleResponse(Connection* conn, const ResponseFrame& response) {
  if (conn->pending.find(response.rpc_id) == conn->pending.end()) {
    return;  // late response after a timeout — correlation id retired
  }
  if (response.code == StatusCode::kOk) {
    FinishCall(conn, response.rpc_id, std::string(response.body));
  } else {
    FinishCall(conn, response.rpc_id,
               Status(response.code, std::string(response.body)));
  }
}

void RpcClient::ConnLost(Connection* conn, const Status& reason) {
  if (conn->fd >= 0) {
    loop_.RemoveFd(conn->fd);
    close(conn->fd);
    conn->fd = -1;
  }
  conn->inbuf.clear();
  conn->sendq.Clear();
  conn->want_write = false;
  if (conn->connect_timer != 0) {
    loop_.CancelTimer(conn->connect_timer);
    conn->connect_timer = 0;
  }
  // Calls on the wire cannot be resent blindly — the server may have
  // executed them. Fail them; retry belongs to the caller's policy
  // (idempotency tokens make it safe). Unsent calls stay queued for the
  // reconnect; their deadline timers bound the wait.
  std::vector<uint64_t> sent_ids;
  for (const auto& [id, call] : conn->pending) {
    if (call.sent) sent_ids.push_back(id);
  }
  for (uint64_t id : sent_ids) {
    FinishCall(conn, id, Status(reason.code(), reason.message()));
  }
  ScheduleReconnect(conn);
}

void RpcClient::FlushUnsent(Connection* conn) {
  bool queued = false;
  while (!conn->unsent.empty()) {
    uint64_t id = conn->unsent.front();
    conn->unsent.pop_front();
    auto it = conn->pending.find(id);
    if (it == conn->pending.end()) continue;  // timed out while queued
    it->second.sent = true;
    conn->sendq.Append(std::move(it->second.frame));
    it->second.frame.clear();
    queued = true;
  }
  if (queued) FlushOutbuf(conn);
}

void RpcClient::FlushOutbuf(Connection* conn) {
  while (!conn->sendq.empty()) {
    struct iovec iov[kMaxIovecs];
    int iov_count = conn->sendq.FillIovecs(iov, kMaxIovecs);
    ssize_t n = writev(conn->fd, iov, iov_count);
    if (n > 0) {
      conn->sendq.Consume(static_cast<size_t>(n));
      stats_.bytes_out.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        loop_.ModFd(conn->fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    ConnLost(conn, Status::Unavailable(std::string("write: ") + strerror(errno)));
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    loop_.ModFd(conn->fd, EPOLLIN);
  }
}

void RpcClient::FinishCall(Connection* conn, uint64_t rpc_id,
                           Result<std::string> result) {
  auto it = conn->pending.find(rpc_id);
  if (it == conn->pending.end()) return;
  PendingCall call = std::move(it->second);
  conn->pending.erase(it);
  if (call.deadline_timer != 0) loop_.CancelTimer(call.deadline_timer);
  stats_.inflight.fetch_sub(1, std::memory_order_relaxed);
  int64_t now_us = EventLoop::NowUs();
  if (call.span_ctx.sampled()) {
    options_.tracer->Record(call.span_ctx, "rpc." + call.service,
                            options_.node_label, call.started_us * 1000,
                            now_us * 1000);
  }
  if (call_latency_us_ != nullptr) {
    call_latency_us_->Record(now_us - call.started_us);
  }
  call.done(std::move(result));  // may reentrantly issue new calls
}

void RpcClient::Stop() {
  if (stopped_) return;
  stopped_ = true;
  loop_.RunInLoop([this] {
    for (auto& [address, conn] : conns_) {
      std::vector<uint64_t> ids;
      ids.reserve(conn->pending.size());
      for (const auto& [id, call] : conn->pending) ids.push_back(id);
      for (uint64_t id : ids) {
        FinishCall(conn.get(), id, Status::Unavailable("rpc client stopped"));
      }
      if (conn->fd >= 0) {
        loop_.RemoveFd(conn->fd);
        close(conn->fd);
        conn->fd = -1;
      }
    }
  });
  loop_.Stop();
  loop_thread_.join();
  // Calls queued between the cleanup above and the loop's death would
  // otherwise hold broken promises; run them now — they fail fast on
  // the stopped_ check.
  loop_.DrainNow();
}

}  // namespace lo::net
