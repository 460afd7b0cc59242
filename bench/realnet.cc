// Real-process half of the harness (experiment A13): spawns one
// lambdastore-server process, floods it over loopback TCP from raw
// sockets, and shuts it down cleanly.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/child_process.h"
#include "bench/harness.h"
#include "common/log.h"
#include "net/rpc_client.h"

namespace lo::bench {

namespace {

/// Blocking loopback connect with TCP_NODELAY — the saturation loadgen
/// wants the simplest possible client so its own overhead stays flat
/// across the server arms being compared.
int DialBlocking(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  LO_CHECK_MSG(fd >= 0, "socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  LO_CHECK_MSG(rc == 0, "loadgen connect failed");
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Value of `key=` at the start of a line of admin.stats output.
uint64_t StatValue(const std::string& stats, const std::string& key) {
  std::string needle = key + "=";
  size_t pos = stats.rfind("\n" + needle);
  if (pos != std::string::npos) {
    pos += 1;
  } else if (stats.rfind(needle, 0) == 0) {
    pos = 0;
  } else {
    return 0;
  }
  return std::strtoull(stats.c_str() + pos + needle.size(), nullptr, 10);
}

}  // namespace

SaturationResult RunRealNetSaturation(const SaturationConfig& config) {
  auto spawned = ChildProcess::Spawn(
      {ToolBinary("LO_NET_SERVER_BIN", "lambdastore-server"),
       "--net-threads=" + std::to_string(config.net_threads)});
  if (!spawned.ok()) {
    std::fprintf(stderr, "%s\n", spawned.status().ToString().c_str());
    LO_CHECK_MSG(false, "cannot spawn lambdastore-server (set LO_NET_SERVER_BIN)");
  }
  ChildProcess server = std::move(*spawned);
  const std::string address = server.address();

  // One pipelined window, encoded once. rpc_id stays constant because
  // responses are matched FIFO per connection, never by id.
  net::RequestFrame ping;
  ping.rpc_id = 1;
  ping.service = "ping";
  std::string payload(config.payload_bytes, 'x');
  ping.payload = payload;
  std::string frame = net::EncodeRequest(ping);
  std::string batch;
  batch.reserve(frame.size() * static_cast<size_t>(config.window));
  for (int i = 0; i < config.window; i++) batch.append(frame);

  // 0 = warmup, 1 = measure, 2 = done; checked between windows.
  std::atomic<int> phase{0};
  struct Slot {
    Histogram window_rtt_us;
    uint64_t completed = 0;
    uint64_t errors = 0;
  };
  std::vector<Slot> slots(static_cast<size_t>(config.connections));
  std::vector<std::thread> threads;
  threads.reserve(slots.size());
  for (size_t c = 0; c < slots.size(); c++) {
    threads.emplace_back([&, c] {
      Slot& slot = slots[c];
      int fd = DialBlocking(server.port());
      std::string inbuf;
      char buf[64 * 1024];
      while (phase.load(std::memory_order_acquire) < 2) {
        auto t0 = std::chrono::steady_clock::now();
        size_t written = 0;
        while (written < batch.size()) {
          ssize_t n = write(fd, batch.data() + written, batch.size() - written);
          LO_CHECK_MSG(n > 0, "loadgen write failed");
          written += static_cast<size_t>(n);
        }
        int remaining = config.window;
        while (remaining > 0) {
          ssize_t n = read(fd, buf, sizeof(buf));
          LO_CHECK_MSG(n > 0, "loadgen read failed (server died?)");
          inbuf.append(buf, static_cast<size_t>(n));
          size_t offset = 0;
          while (remaining > 0) {
            size_t consumed = 0;
            std::string_view body;
            auto decoded = net::TryDecodeFrame(
                std::string_view(inbuf).substr(offset), &consumed, &body);
            if (decoded == net::DecodeResult::kNeedMore) break;
            LO_CHECK_MSG(decoded == net::DecodeResult::kOk,
                         "corrupt frame from server");
            net::Message message;
            if (net::DecodeMessage(body, &message) &&
                message.kind == net::MessageKind::kResponse &&
                message.response.code == StatusCode::kOk) {
              // ok
            } else {
              slot.errors++;
            }
            remaining--;
            offset += consumed;
          }
          inbuf.erase(0, offset);
        }
        if (phase.load(std::memory_order_acquire) == 1) {
          slot.completed += static_cast<uint64_t>(config.window);
          slot.window_rtt_us.Record(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        }
      }
      close(fd);
    });
  }

  // Control-plane snapshots bracket the measure window; their own ~2
  // RPCs are noise against the pipelined flood.
  net::RpcClient rpc;
  std::this_thread::sleep_for(std::chrono::duration<double>(config.warmup_s));
  auto before = rpc.CallSync(address, "admin.stats", "", 5'000'000);
  LO_CHECK_MSG(before.ok(), "admin.stats failed");
  auto measure_start = std::chrono::steady_clock::now();
  phase.store(1, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(config.measure_s));
  phase.store(2, std::memory_order_release);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - measure_start)
                       .count();
  auto after = rpc.CallSync(address, "admin.stats", "", 5'000'000);
  LO_CHECK_MSG(after.ok(), "admin.stats failed");
  for (std::thread& t : threads) t.join();

  SaturationResult result;
  Histogram merged;
  for (Slot& slot : slots) {
    merged.Merge(slot.window_rtt_us);
    result.completed += slot.completed;
    result.errors += slot.errors;
  }
  result.rpcs_per_sec = seconds > 0 ? static_cast<double>(result.completed) / seconds : 0;
  result.p50_us = static_cast<double>(merged.Percentile(0.50));
  result.p99_us = static_cast<double>(merged.Percentile(0.99));
  uint64_t d_responses = StatValue(*after, "responses") - StatValue(*before, "responses");
  uint64_t d_syscalls = StatValue(*after, "net_syscalls") - StatValue(*before, "net_syscalls");
  uint64_t d_waits = StatValue(*after, "net_poll_waits") - StatValue(*before, "net_poll_waits");
  result.syscalls_per_rpc =
      d_responses > 0
          ? static_cast<double>(d_syscalls + d_waits) / static_cast<double>(d_responses)
          : 0;
  result.reactors = static_cast<int>(StatValue(*after, "net_reactors"));

  (void)rpc.CallSync(address, "admin.shutdown", "", 1'000'000);
  if (server.Wait(5'000) == -1) {  // up to 5s for the drain
    std::fprintf(stderr, "lambdastore-server ignored shutdown; killing\n");
  }
  return result;
}

}  // namespace lo::bench
