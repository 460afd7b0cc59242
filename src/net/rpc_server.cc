#include "net/rpc_server.h"

#include <errno.h>
#include <stdlib.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "common/log.h"
#include "net/socket.h"

namespace lo::net {
namespace {

/// Iovecs per writev. 64 covers a deep pipelined burst (32 responses at
/// two parts each) while staying far under IOV_MAX.
constexpr int kMaxIovecs = 64;

int EnvInt(const char* name, int fallback) {
  const char* value = getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  long parsed = strtol(value, &end, 10);
  if (end == nullptr || *end != '\0') return fallback;
  return static_cast<int>(parsed);
}

}  // namespace

RpcServer::RpcServer(RpcServerOptions options) : options_(std::move(options)) {}

RpcServer::~RpcServer() { Stop(); }

void RpcServer::Handle(std::string service, Handler handler) {
  LO_CHECK_MSG(!started_, "Handle() must be called before Start()");
  handlers_[std::move(service)] = std::move(handler);
}

Status RpcServer::Start() {
  LO_CHECK_MSG(!started_, "Start() called twice");
  int net_threads = options_.net_threads > 0 ? options_.net_threads
                                             : EnvInt("LO_NET_THREADS", 1);
  net_threads = std::clamp(net_threads, 1, 64);

  reactors_.reserve(static_cast<size_t>(net_threads));
  for (int i = 0; i < net_threads; ++i) {
    auto reactor = std::make_unique<Reactor>();
    reactor->index = i;
    reactors_.push_back(std::move(reactor));
  }

  // Reactor 0's listener. With several reactors, try SO_REUSEPORT so
  // every reactor can bind its own; a kernel that refuses drops us to
  // the single-acceptor round-robin fallback.
  reuseport_sharding_ = net_threads > 1;
  auto listen_fd = ListenTcp(options_.bind_address, options_.port,
                             reuseport_sharding_);
  if (!listen_fd.ok() && reuseport_sharding_) {
    reuseport_sharding_ = false;
    listen_fd = ListenTcp(options_.bind_address, options_.port, false);
  }
  if (!listen_fd.ok()) {
    reactors_.clear();
    return listen_fd.status();
  }
  reactors_[0]->listen_fd = *listen_fd;
  auto port = LocalPort(*listen_fd);
  if (!port.ok()) {
    close(*listen_fd);
    reactors_.clear();
    return port.status();
  }
  port_ = *port;

  if (reuseport_sharding_) {
    for (int i = 1; i < net_threads; ++i) {
      auto fd = ListenTcp(options_.bind_address, port_, true);
      if (!fd.ok()) {
        // Mid-way failure: keep reactor 0's listener, shed the rest and
        // deal connections round-robin instead.
        LO_WARN << "SO_REUSEPORT listener " << i
                << " failed, falling back to round-robin accept: "
                << fd.status().ToString();
        for (int j = 1; j < i; ++j) {
          close(reactors_[j]->listen_fd);
          reactors_[j]->listen_fd = -1;
        }
        reuseport_sharding_ = false;
        break;
      }
      reactors_[i]->listen_fd = *fd;
    }
  }

  // Safe off-loop: no reactor thread exists yet.
  for (auto& reactor_ptr : reactors_) {
    Reactor* reactor = reactor_ptr.get();
    if (reactor->listen_fd >= 0) {
      reactor->loop.AddFd(reactor->listen_fd, EPOLLIN,
                          [this, reactor](uint32_t) { AcceptReady(reactor); });
    }
    reactor->loop.SetEndOfIteration([this, reactor] { FlushDirty(reactor); });
  }
  if (options_.metrics_registry != nullptr) RegisterMetrics();
  started_ = true;
  for (auto& reactor_ptr : reactors_) {
    Reactor* reactor = reactor_ptr.get();
    reactor->thread = std::thread([reactor] { reactor->loop.Run(); });
  }
  return Status::OK();
}

void RpcServer::Stop() {
  if (!started_) return;
  for (auto& reactor_ptr : reactors_) {
    Reactor* reactor = reactor_ptr.get();
    reactor->loop.RunInLoop([this, reactor] {
      std::vector<uint64_t> ids;
      ids.reserve(reactor->conns.size());
      for (const auto& [id, conn] : reactor->conns) ids.push_back(id);
      for (uint64_t id : ids) CloseConn(reactor, id);
      if (reactor->listen_fd >= 0) {
        reactor->loop.RemoveFd(reactor->listen_fd);
        close(reactor->listen_fd);
        reactor->listen_fd = -1;
      }
    });
    reactor->loop.Stop();
  }
  for (auto& reactor_ptr : reactors_) reactor_ptr->thread.join();
  started_ = false;
}

uint64_t RpcServer::poll_waits() const {
  uint64_t total = 0;
  for (const auto& reactor : reactors_) total += reactor->loop.poll_waits();
  return total;
}

double RpcServer::syscalls_per_rpc() const {
  uint64_t responses = stats_.responses.load(std::memory_order_relaxed);
  if (responses == 0) return 0.0;
  uint64_t total =
      stats_.syscalls.load(std::memory_order_relaxed) + poll_waits();
  return static_cast<double>(total) / static_cast<double>(responses);
}

void RpcServer::RegisterMetrics() {
  obs::MetricsRegistry* reg = options_.metrics_registry;
  uint32_t node = options_.node_label;
  auto counter = [&](const char* name, const std::atomic<uint64_t>* value) {
    reg->RegisterCallback(name, node, [value] {
      return static_cast<double>(value->load(std::memory_order_relaxed));
    });
  };
  counter("net.server.requests", &stats_.requests);
  counter("net.server.responses", &stats_.responses);
  counter("net.server.deadline_shed", &stats_.deadline_shed);
  counter("net.server.backlog_shed", &stats_.backlog_shed);
  counter("net.server.bytes_in", &stats_.bytes_in);
  counter("net.server.bytes_out", &stats_.bytes_out);
  counter("net.server.connections", &stats_.connections_accepted);
  counter("net.server.syscalls", &stats_.syscalls);
  counter("net.conn_backlog_bytes", &stats_.backlog_bytes);
  counter("net.server.frame_crc_rejects", &frame_stats_.crc_rejects);
  counter("net.server.frame_malformed_rejects", &frame_stats_.malformed_rejects);
  reg->RegisterCallback("net.syscalls_per_rpc", node,
                        [this] { return syscalls_per_rpc(); });
}

void RpcServer::AcceptReady(Reactor* reactor) {
  while (true) {
    stats_.syscalls.fetch_add(1, std::memory_order_relaxed);
    int fd = accept4(reactor->listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      LO_WARN << "accept failed: " << strerror(errno);
      return;
    }
    if (reuseport_sharding_ || reactors_.size() == 1) {
      AdoptFd(reactor, fd);
      continue;
    }
    // Fallback sharding: the lone acceptor deals connections round-robin
    // and hands the bare fd to the owning reactor's loop.
    uint32_t target_index =
        round_robin_.fetch_add(1, std::memory_order_relaxed) %
        static_cast<uint32_t>(reactors_.size());
    Reactor* target = reactors_[target_index].get();
    if (target == reactor) {
      AdoptFd(reactor, fd);
    } else {
      target->loop.RunInLoop([this, target, fd] { AdoptFd(target, fd); });
    }
  }
}

void RpcServer::AdoptFd(Reactor* reactor, int fd) {
  if (Status st = SetNoDelay(fd); !st.ok()) {
    LO_WARN << "TCP_NODELAY: " << st.ToString();
  }
  if (options_.sndbuf_bytes > 0) {
    if (Status st = SetSendBuf(fd, options_.sndbuf_bytes); !st.ok()) {
      LO_WARN << "SO_SNDBUF: " << st.ToString();
    }
  }
  auto conn = std::make_unique<Connection>();
  conn->id = (static_cast<uint64_t>(reactor->index) << 48) |
             reactor->next_conn_seq++;
  conn->fd = fd;
  uint64_t id = conn->id;
  reactor->conns[id] = std::move(conn);
  stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  reactor->loop.AddFd(fd, EPOLLIN, [this, reactor, id](uint32_t events) {
    ConnReady(reactor, id, events);
  });
}

void RpcServer::ConnReady(Reactor* reactor, uint64_t conn_id, uint32_t events) {
  auto it = reactor->conns.find(conn_id);
  if (it == reactor->conns.end()) return;
  Connection* conn = it->second.get();
  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConn(reactor, conn_id);
    return;
  }
  if (events & EPOLLOUT) {
    if (!conn->want_write) {
      // Spurious; nothing queued.
    } else {
      FlushConn(reactor, conn);
      if (reactor->conns.find(conn_id) == reactor->conns.end()) return;
    }
  }
  if ((events & EPOLLIN) == 0) return;
  bool peer_closed = false;
  char buf[64 * 1024];
  while (true) {
    stats_.syscalls.fetch_add(1, std::memory_order_relaxed);
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
    CloseConn(reactor, conn_id);
    return;
  }
  if (!DrainInbuf(reactor, conn)) return;  // corrupt stream, conn closed
  if (peer_closed) CloseConn(reactor, conn_id);
}

bool RpcServer::DrainInbuf(Reactor* reactor, Connection* conn) {
  uint64_t conn_id = conn->id;
  size_t offset = 0;
  std::string_view view(conn->inbuf);
  while (true) {
    size_t consumed = 0;
    std::string_view body;
    DecodeResult result =
        TryDecodeFrame(view.substr(offset), &consumed, &body, &frame_stats_);
    if (result == DecodeResult::kNeedMore) break;
    if (result == DecodeResult::kCorrupt) {
      // A byte stream that fails its checksum cannot be re-synchronized;
      // drop the connection (the client reconnects and retries).
      LO_WARN << "closing connection " << conn_id << ": corrupt frame";
      CloseConn(reactor, conn_id);
      return false;
    }
    Message message;
    if (DecodeMessage(body, &message, &frame_stats_) &&
        message.kind == MessageKind::kRequest) {
      DispatchRequest(reactor, conn, message.request);
    }
    offset += consumed;
  }
  conn->inbuf.erase(0, offset);
  return true;
}

void RpcServer::DispatchRequest(Reactor* reactor, Connection* conn,
                                const RequestFrame& request) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  uint64_t rpc_id = request.rpc_id;
  Request req;
  req.service.assign(request.service);
  req.payload.assign(request.payload);
  req.deadline_us = request.deadline_us;
  req.tenant = request.tenant;
  obs::TraceContext caller_ctx;
  caller_ctx.trace_id = request.trace_id;
  caller_ctx.span_id = request.span_id;
  if (conn->sendq.bytes() >= options_.max_conn_backlog_bytes) {
    // The client stopped reading; doing more work for it only grows the
    // queue. Shed through the deadline path — the tiny Timeout response
    // bounds per-request queue growth to a few dozen bytes.
    stats_.backlog_shed.fetch_add(1, std::memory_order_relaxed);
    stats_.deadline_shed.fetch_add(1, std::memory_order_relaxed);
    stats_.responses.fetch_add(1, std::memory_order_relaxed);
    SendOnConn(reactor, conn,
               EncodeResponseParts(
                   rpc_id, Status::Timeout("connection backlog over cap")));
    return;
  }
  if (req.Expired()) {
    // Shed: the request outlived its deadline in a buffer; the caller
    // has already timed out or is about to — don't do the work.
    stats_.deadline_shed.fetch_add(1, std::memory_order_relaxed);
    stats_.responses.fetch_add(1, std::memory_order_relaxed);
    SendOnConn(reactor, conn,
               EncodeResponseParts(
                   rpc_id, Status::Timeout("deadline expired at server")));
    return;
  }
  auto handler_it = handlers_.find(req.service);
  if (handler_it == handlers_.end()) {
    stats_.responses.fetch_add(1, std::memory_order_relaxed);
    SendOnConn(reactor, conn,
               EncodeResponseParts(
                   rpc_id, Status::NotFound("no such service: " + req.service)));
    return;
  }
  // Server-side span, mirroring sim::RpcEndpoint: handler wall time as
  // "srv.<service>" under the caller's rpc span.
  obs::TraceContext server_ctx = obs::Tracing(options_.tracer, caller_ctx)
                                     ? options_.tracer->Child(caller_ctx)
                                     : obs::TraceContext{};
  req.trace = server_ctx.sampled() ? server_ctx : caller_ctx;
  int64_t started_us = EventLoop::NowUs();
  uint64_t conn_id = conn->id;
  auto used = std::make_shared<std::atomic<bool>>(false);
  std::string service = req.service;
  Responder respond = [this, reactor, conn_id, rpc_id, used, server_ctx,
                       started_us, service](Result<std::string> result) {
    if (used->exchange(true)) return;  // single-shot
    auto complete = [this, reactor, conn_id, rpc_id, server_ctx, started_us,
                     service, result = std::move(result)]() mutable {
      if (server_ctx.sampled()) {
        options_.tracer->Record(server_ctx, "srv." + service,
                                options_.node_label, started_us * 1000,
                                EventLoop::NowUs() * 1000);
      }
      stats_.responses.fetch_add(1, std::memory_order_relaxed);
      auto it = reactor->conns.find(conn_id);
      if (it == reactor->conns.end()) return;  // connection died; drop
      SendOnConn(reactor, it->second.get(),
                 EncodeResponseParts(rpc_id, std::move(result)));
    };
    // Synchronous handlers complete on the loop thread: queue the
    // response NOW, not via the pending queue, so the next pipelined
    // request's backlog check sees every byte already owed to this
    // connection. Worker-thread completions marshal over as before.
    if (reactor->loop.InLoopThread()) {
      complete();
    } else {
      reactor->loop.RunInLoop(std::move(complete));
    }
  };
  handler_it->second(std::move(req), std::move(respond));
}

void RpcServer::SendOnConn(Reactor* reactor, Connection* conn,
                           ResponseParts parts) {
  size_t queued = parts.head.size() + parts.payload.size();
  conn->sendq.Append(std::move(parts.head));
  conn->sendq.Append(std::move(parts.payload));
  stats_.backlog_bytes.fetch_add(queued, std::memory_order_relaxed);
  // The end-of-iteration hook drains every response queued this
  // iteration with one writev. A connection already waiting on EPOLLOUT
  // is flushed by the write-ready event instead.
  if (!conn->dirty && !conn->want_write) {
    conn->dirty = true;
    reactor->flush_list.push_back(conn->id);
  }
}

void RpcServer::FlushDirty(Reactor* reactor) {
  if (reactor->flush_list.empty()) return;
  std::vector<uint64_t> batch;
  batch.swap(reactor->flush_list);
  for (uint64_t conn_id : batch) {
    auto it = reactor->conns.find(conn_id);
    if (it == reactor->conns.end()) continue;  // closed since queueing
    Connection* conn = it->second.get();
    conn->dirty = false;
    if (!conn->want_write) FlushConn(reactor, conn);
  }
}

void RpcServer::FlushConn(Reactor* reactor, Connection* conn) {
  while (!conn->sendq.empty()) {
    struct iovec iov[kMaxIovecs];
    int iov_count = conn->sendq.FillIovecs(iov, kMaxIovecs);
    stats_.syscalls.fetch_add(1, std::memory_order_relaxed);
    ssize_t n = writev(conn->fd, iov, iov_count);
    if (n > 0) {
      conn->sendq.Consume(static_cast<size_t>(n));
      stats_.backlog_bytes.fetch_sub(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
      stats_.bytes_out.fetch_add(static_cast<uint64_t>(n),
                                 std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        reactor->loop.ModFd(conn->fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(reactor, conn->id);
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    reactor->loop.ModFd(conn->fd, EPOLLIN);
  }
}

void RpcServer::CloseConn(Reactor* reactor, uint64_t conn_id) {
  auto it = reactor->conns.find(conn_id);
  if (it == reactor->conns.end()) return;
  stats_.backlog_bytes.fetch_sub(it->second->sendq.bytes(),
                                 std::memory_order_relaxed);
  reactor->loop.RemoveFd(it->second->fd);
  close(it->second->fd);
  reactor->conns.erase(it);
  stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace lo::net
