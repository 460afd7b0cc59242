// Tests for the src/net subsystem: the shared frame codec (round-trip
// plus seeded fuzzing of torn/oversized/corrupt frames), the event loop
// (timers, cross-thread RunInLoop), the TCP RPC client/server pair
// (echo, multiplexing under threads, deadline expiry and server-side
// shedding, reconnect with backoff across a server restart), the
// clusterd::Client retry policy over real sockets, and a multi-process
// loopback smoke test that spawns the real lambdastore-server binary
// and runs a small ReTwis slice against it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <stdio.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

#include <sys/uio.h>

#include "clusterd/client.h"
#include "common/coding.h"
#include "common/rng.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "net/send_queue.h"
#include "retwis/retwis.h"

namespace lo::net {
namespace {

// ---------------------------------------------------------------------
// Frame codec

TEST(Frame, RequestRoundTrip) {
  RequestFrame request;
  request.rpc_id = 42;
  request.trace_id = 7;
  request.span_id = 9;
  request.deadline_us = 123456789;
  request.service = "lambda.invoke";
  const std::string payload("payload\0with\0nuls", 17);
  request.payload = payload;
  std::string wire = EncodeRequest(request);

  size_t consumed = 0;
  std::string_view body;
  FrameStats stats;
  ASSERT_EQ(TryDecodeFrame(wire, &consumed, &body, &stats), DecodeResult::kOk);
  EXPECT_EQ(consumed, wire.size());
  Message message;
  ASSERT_TRUE(DecodeMessage(body, &message, &stats));
  ASSERT_EQ(message.kind, MessageKind::kRequest);
  EXPECT_EQ(message.request.rpc_id, 42u);
  EXPECT_EQ(message.request.trace_id, 7u);
  EXPECT_EQ(message.request.span_id, 9u);
  EXPECT_EQ(message.request.deadline_us, 123456789);
  EXPECT_EQ(message.request.service, "lambda.invoke");
  EXPECT_EQ(message.request.payload, request.payload);
  EXPECT_EQ(stats.frames_decoded.load(), 1u);
  EXPECT_EQ(stats.rejects(), 0u);
}

TEST(Frame, ResponseRoundTripOkAndError) {
  for (bool ok : {true, false}) {
    Result<std::string> result =
        ok ? Result<std::string>(std::string("value"))
           : Result<std::string>(Status::NotFound("no such service"));
    std::string wire = EncodeResponse(77, result);
    size_t consumed = 0;
    std::string_view body;
    ASSERT_EQ(TryDecodeFrame(wire, &consumed, &body), DecodeResult::kOk);
    Message message;
    ASSERT_TRUE(DecodeMessage(body, &message));
    ASSERT_EQ(message.kind, MessageKind::kResponse);
    EXPECT_EQ(message.response.rpc_id, 77u);
    if (ok) {
      EXPECT_EQ(message.response.code, StatusCode::kOk);
      EXPECT_EQ(message.response.body, "value");
    } else {
      EXPECT_EQ(message.response.code, StatusCode::kNotFound);
      EXPECT_EQ(message.response.body, "no such service");
    }
  }
}

TEST(Frame, TornFrameNeedsMore) {
  RequestFrame request;
  request.rpc_id = 1;
  request.service = "svc";
  request.payload = "0123456789";
  std::string wire = EncodeRequest(request);
  // Every strict prefix is incomplete, never corrupt: a stream decoder
  // must keep waiting for bytes, not kill the connection.
  for (size_t len = 0; len < wire.size(); len++) {
    size_t consumed = 0;
    std::string_view body;
    EXPECT_EQ(TryDecodeFrame(std::string_view(wire).substr(0, len), &consumed,
                             &body),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(Frame, OversizedLengthIsCorrupt) {
  // A torn/garbage length field larger than kMaxFrameBytes must be
  // rejected immediately — waiting for 4GiB that never arrives would
  // stall the stream forever.
  std::string wire;
  PutFixed32(&wire, 0xffffffffu);
  PutFixed32(&wire, 0);  // bogus crc; never reached
  FrameStats stats;
  size_t consumed = 0;
  std::string_view body;
  EXPECT_EQ(TryDecodeFrame(wire, &consumed, &body, &stats),
            DecodeResult::kCorrupt);
  EXPECT_EQ(stats.oversize_rejects.load(), 1u);
}

TEST(Frame, CorruptByteNeverDecodesOk) {
  RequestFrame request;
  request.rpc_id = 99;
  request.trace_id = 3;
  request.deadline_us = 1000;
  request.service = "lambda.invoke";
  request.payload = "some payload bytes";
  const std::string wire = EncodeRequest(request);
  // Flip every single byte (all 8 bit positions): no mutation of header
  // or body may ever yield a successfully decoded frame.
  for (size_t i = 0; i < wire.size(); i++) {
    for (int bit = 0; bit < 8; bit++) {
      std::string mutated = wire;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      size_t consumed = 0;
      std::string_view body;
      FrameStats stats;
      DecodeResult result = TryDecodeFrame(mutated, &consumed, &body, &stats);
      if (result == DecodeResult::kOk) {
        // The only acceptable kOk is a body-length mutation that made the
        // frame *shorter* and the CRC still matching — impossible with
        // CRC over the body. Flag any kOk as a codec hole.
        FAIL() << "bit flip at byte " << i << " bit " << bit
               << " decoded as kOk";
      }
    }
  }
}

TEST(Frame, SeededFuzzNeverCrashesOrFalselyAccepts) {
  Rng rng(20240806);
  RequestFrame request;
  request.rpc_id = 5;
  request.service = "fuzz.target";
  FrameStats stats;
  for (int round = 0; round < 2000; round++) {
    std::string wire;
    uint64_t shape = rng.Uniform(3);
    if (shape == 0) {
      // Pure garbage.
      wire = rng.Bytes(rng.Uniform(64));
    } else {
      std::string payload = rng.Bytes(rng.Uniform(128));
      request.payload = payload;
      request.deadline_us = static_cast<int64_t>(rng.Uniform(1 << 30));
      wire = EncodeRequest(request);
      if (shape == 1 && !wire.empty()) {
        // Mutate 1-4 random bytes.
        uint64_t flips = 1 + rng.Uniform(4);
        for (uint64_t f = 0; f < flips; f++) {
          size_t pos = rng.Uniform(wire.size());
          wire[pos] = static_cast<char>(rng.Next());
        }
      } else if (shape == 2) {
        // Truncate.
        wire.resize(rng.Uniform(wire.size() + 1));
      }
    }
    size_t consumed = 0;
    std::string_view body;
    DecodeResult result = TryDecodeFrame(wire, &consumed, &body, &stats);
    if (result == DecodeResult::kOk) {
      // Whatever decodes must carry a CRC-consistent body; decoding the
      // message may still fail (mutations confined to the payload change
      // the CRC, so kOk here means the frame was untouched or truncation
      // landed exactly on the frame boundary).
      Message message;
      if (DecodeMessage(body, &message)) {
        ASSERT_EQ(message.kind, MessageKind::kRequest);
        EXPECT_EQ(message.request.rpc_id, 5u);
      }
    }
  }
}

TEST(Frame, DecodeMessageRejectsMalformedBody) {
  FrameStats stats;
  Message message;
  EXPECT_FALSE(DecodeMessage("", &message, &stats));
  EXPECT_FALSE(DecodeMessage("\x07garbage", &message, &stats));  // bad kind
  std::string truncated_request;
  truncated_request.push_back('\0');  // kRequest, then nothing
  EXPECT_FALSE(DecodeMessage(truncated_request, &message, &stats));
  EXPECT_EQ(stats.malformed_rejects.load(), 3u);
}

// ---------------------------------------------------------------------
// Event loop

TEST(EventLoop, TimersFireInOrderAndCancel) {
  EventLoop loop;
  std::vector<int> fired;
  std::thread runner([&loop] { loop.Run(); });
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  loop.RunInLoop([&] {
    loop.AddTimer(30'000, [&] { fired.push_back(3); });
    loop.AddTimer(10'000, [&] { fired.push_back(1); });
    TimerId cancelled = loop.AddTimer(20'000, [&] { fired.push_back(2); });
    EXPECT_TRUE(loop.CancelTimer(cancelled));
    loop.AddTimer(50'000, [&] {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; }));
  }
  loop.Stop();
  runner.join();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 3);
}

TEST(EventLoop, RunInLoopFromManyThreads) {
  EventLoop loop;
  std::thread runner([&loop] { loop.Run(); });
  std::atomic<int> count{0};
  constexpr int kThreads = 8, kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; i++) {
        loop.RunInLoop([&] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Flush: a final marker task queued after all others.
  std::promise<void> flushed;
  loop.RunInLoop([&] { flushed.set_value(); });
  flushed.get_future().wait();
  loop.Stop();
  runner.join();
  EXPECT_EQ(count.load(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// RPC client/server over loopback

TEST(Rpc, EchoAndUnknownService) {
  RpcServer server;
  server.Handle("echo", [](RpcServer::Request request,
                           RpcServer::Responder respond) {
    respond(std::string(request.payload));
  });
  ASSERT_TRUE(server.Start().ok());
  std::string address = "127.0.0.1:" + std::to_string(server.port());

  RpcClient client;
  auto echoed = client.CallSync(address, "echo", "hello frames", 1'000'000);
  ASSERT_TRUE(echoed.ok()) << echoed.status().ToString();
  EXPECT_EQ(*echoed, "hello frames");

  auto missing = client.CallSync(address, "nope", "x", 1'000'000);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  client.Stop();
  server.Stop();
  EXPECT_GE(server.stats().requests.load(), 2u);
  EXPECT_EQ(server.frame_stats().rejects(), 0u);
}

TEST(Rpc, ServerRejectsCorruptFrame) {
  RpcServer server;
  server.Handle("echo", [](RpcServer::Request request,
                           RpcServer::Responder respond) {
    respond(std::string(request.payload));
  });
  ASSERT_TRUE(server.Start().ok());
  std::string address = "127.0.0.1:" + std::to_string(server.port());

  // Hand-corrupt a frame and push it through a raw client; the server
  // must reject it (CRC) and close the stream, never dispatch.
  RequestFrame request;
  request.rpc_id = 1;
  request.service = "echo";
  request.payload = "boom";
  std::string wire = EncodeRequest(request);
  wire[wire.size() - 1] ^= 0x01;  // flip a payload bit

  RpcClient prober;  // used only to learn the address parses; raw socket below
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  // The server closes the corrupted connection: read() returns EOF.
  char buf[16];
  ssize_t n = ::read(fd, buf, sizeof(buf));
  EXPECT_EQ(n, 0);
  ::close(fd);
  prober.Stop();
  server.Stop();
  EXPECT_EQ(server.frame_stats().crc_rejects.load(), 1u);
  EXPECT_EQ(server.stats().requests.load(), 0u);
}

TEST(Rpc, DeadlineExpiryClientAndServerShed) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  RpcServer server;
  // First call blocks the handler (on the loop thread) until released;
  // the second call's deadline expires while its frame waits in the
  // socket buffer behind the blocked handler, so the server sheds it on
  // dispatch instead of running it.
  server.Handle("slow", [&](RpcServer::Request request,
                            RpcServer::Responder respond) {
    if (request.payload == "block") {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
    }
    respond(std::string("done"));
  });
  ASSERT_TRUE(server.Start().ok());
  std::string address = "127.0.0.1:" + std::to_string(server.port());

  RpcClient client;
  std::promise<Result<std::string>> blocked_result;
  client.Call(address, "slow", "block", 2'000'000,
              [&](Result<std::string> result) {
                blocked_result.set_value(std::move(result));
              });
  // Wait until the blocking request is actually inside the handler, so
  // the second frame is guaranteed to queue behind it.
  for (int i = 0; i < 1000 && server.stats().requests.load() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().requests.load(), 1u);
  // Second call: 30ms deadline; the loop thread stays blocked well past
  // it. The client times out locally...
  auto shed = client.CallSync(address, "slow", "fast", 30'000);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kTimeout);
  // ...and only after the deadline is long past (the loop's timer wheel
  // may fire up to one 1ms tick early) does the handler unblock, so the
  // server dispatches an unambiguously expired frame.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  auto blocked = blocked_result.get_future().get();
  EXPECT_TRUE(blocked.ok());
  // Give the server a beat to process the stale frame and shed it.
  for (int i = 0; i < 1000 && server.stats().deadline_shed.load() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().deadline_shed.load(), 1u);
  client.Stop();
  server.Stop();
}

TEST(Rpc, CallTimesOutWhenServerNeverResponds) {
  RpcServer server;
  std::vector<RpcServer::Responder> parked;
  std::mutex parked_mu;
  server.Handle("hold", [&](RpcServer::Request, RpcServer::Responder respond) {
    std::lock_guard<std::mutex> lock(parked_mu);
    parked.push_back(std::move(respond));  // never answered
  });
  ASSERT_TRUE(server.Start().ok());
  std::string address = "127.0.0.1:" + std::to_string(server.port());

  RpcClient client;
  auto started = std::chrono::steady_clock::now();
  auto result = client.CallSync(address, "hold", "x", 80'000);
  auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            2000);
  EXPECT_EQ(client.stats().timeouts.load(), 1u);
  client.Stop();
  {
    // Responders must die before the server (they reference it).
    std::lock_guard<std::mutex> lock(parked_mu);
    parked.clear();
  }
  server.Stop();
}

TEST(Rpc, ReconnectWithBackoffAfterServerRestart) {
  auto echo = [](RpcServer::Request request, RpcServer::Responder respond) {
    respond(std::string(request.payload));
  };
  RpcServerOptions server_options;
  auto server = std::make_unique<RpcServer>(server_options);
  server->Handle("echo", echo);
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();
  std::string address = "127.0.0.1:" + std::to_string(port);

  RpcClient client;
  auto first = client.CallSync(address, "echo", "one", 1'000'000);
  ASSERT_TRUE(first.ok());

  // Kill the server; the established connection drops.
  server->Stop();
  server.reset();

  // Re-issue with a generous deadline while restarting the server on the
  // SAME port in a racing thread: the client's reconnect-with-backoff
  // must eventually re-dial and the queued call must complete.
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server_options.port = port;
    server = std::make_unique<RpcServer>(server_options);
    server->Handle("echo", echo);
    // The port lingers in TIME_WAIT-adjacent states occasionally; retry.
    for (int i = 0; i < 50; i++) {
      if (server->Start().ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    FAIL() << "could not rebind port " << port;
  });
  // If this call races ahead of the loop thread noticing the close, it
  // counts as on-the-wire and fails Unavailable per the client contract
  // (the caller cannot know whether it executed) — retry it like a real
  // caller would. The reconnect machinery is still what must deliver.
  Result<std::string> second = Status::Unavailable("not sent");
  for (int i = 0; i < 50 && !second.ok(); i++) {
    second = client.CallSync(address, "echo", "two", 5'000'000);
  }
  restarter.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, "two");
  EXPECT_GE(client.stats().reconnects.load(), 1u);
  client.Stop();
  server->Stop();
}

TEST(Rpc, MultiplexedEchoConcurrent) {
  RpcServer server;
  server.Handle("echo", [](RpcServer::Request request,
                           RpcServer::Responder respond) {
    respond(std::string(request.payload));
  });
  ASSERT_TRUE(server.Start().ok());
  std::string address = "127.0.0.1:" + std::to_string(server.port());

  RpcClient client;  // one client, one connection: all calls multiplex
  constexpr int kThreads = 8, kCallsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; i++) {
        std::string msg = "t" + std::to_string(t) + "-" + std::to_string(i);
        auto result = client.CallSync(address, "echo", msg, 5'000'000);
        if (!result.ok() || *result != msg) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client.stats().calls.load(),
            static_cast<uint64_t>(kThreads * kCallsPerThread));
  // One connection carried everything: multiplexing, not conn-per-call.
  EXPECT_EQ(client.stats().connects.load(), 1u);
  client.Stop();
  server.Stop();
}

TEST(ClusterdClient, RetriesTransientFailuresWithSameToken) {
  std::atomic<int> attempts{0};
  std::mutex tokens_mu;
  std::vector<std::string> tokens;
  RpcServer server;
  server.Handle("lambda.invoke", [&](RpcServer::Request request,
                                     RpcServer::Responder respond) {
    Reader reader{request.payload};
    std::string_view oid, method, argument, token;
    ASSERT_TRUE(reader.GetLengthPrefixed(&oid));
    ASSERT_TRUE(reader.GetLengthPrefixed(&method));
    ASSERT_TRUE(reader.GetLengthPrefixed(&argument));
    ASSERT_TRUE(reader.GetLengthPrefixed(&token));
    {
      std::lock_guard<std::mutex> lock(tokens_mu);
      tokens.emplace_back(token);
    }
    if (attempts.fetch_add(1) < 2) {
      respond(Status::Unavailable("warming up"));  // transient: retried
    } else {
      respond(std::string("ok:") + std::string(argument));
    }
  });
  server.Handle("lambda.create", [](RpcServer::Request,
                                    RpcServer::Responder respond) {
    respond(Status::InvalidArgument("bad type"));
  });
  ASSERT_TRUE(server.Start().ok());

  RpcClient rpc;
  auto client = clusterd::Client::Standalone(
      &rpc, "127.0.0.1:" + std::to_string(server.port()));
  auto result = client.Invoke("user1", "get_timeline", "10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, "ok:10");
  EXPECT_EQ(client.metrics().retries, 2u);
  ASSERT_EQ(tokens.size(), 3u);
  // Idempotency: every retry of one logical request reuses one token.
  EXPECT_EQ(tokens[0], tokens[1]);
  EXPECT_EQ(tokens[1], tokens[2]);

  // Application errors surface immediately, no retry.
  uint64_t retries_before = client.metrics().retries;
  auto created = client.Create("user2", "nosuch");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.metrics().retries, retries_before);

  rpc.Stop();
  server.Stop();
}

TEST(ClusterdClient, WrongShardSurfacesStandaloneAndRedirectsViaDirectory) {
  // `wrong` always bounces; `right` serves. A directory-routed client
  // first learns a stale route to `wrong` and must follow the redirect.
  RpcServer wrong;
  wrong.Handle("lambda.invoke",
               [](RpcServer::Request, RpcServer::Responder respond) {
                 respond(Status::WrongShard("object not served here"));
               });
  RpcServer right;
  right.Handle("lambda.invoke",
               [](RpcServer::Request, RpcServer::Responder respond) {
                 respond(std::string("served"));
               });
  ASSERT_TRUE(wrong.Start().ok());
  ASSERT_TRUE(right.Start().ok());
  const std::string wrong_address = "127.0.0.1:" + std::to_string(wrong.port());
  const std::string right_address = "127.0.0.1:" + std::to_string(right.port());

  // A coordinator stand-in whose directory first names the bouncing
  // server as the one shard's primary, then the serving one.
  std::atomic<uint64_t> fetches{0};
  RpcServer coordinator;
  coordinator.Handle(
      clusterd::kSvcGetConfig,
      [&](RpcServer::Request, RpcServer::Responder respond) {
        clusterd::ClusterView view;
        view.version = fetches.fetch_add(1) + 1;
        view.state.shards[0] = coord::ShardConfig{1, 1, {}};
        view.addresses[1] = view.version == 1 ? wrong_address : right_address;
        respond(view.Encode());
      });
  ASSERT_TRUE(coordinator.Start().ok());

  RpcClient rpc;
  // A standalone client has no directory to refresh: the typed status
  // surfaces immediately — no backoff, no burned retry budget.
  {
    auto client = clusterd::Client::Standalone(&rpc, wrong_address);
    auto result = client.Invoke("user1", "get_timeline", "10");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kWrongShard);
    EXPECT_EQ(client.metrics().retries, 0u);
    EXPECT_EQ(client.metrics().redirects, 0u);
  }
  // A directory-routed client answers the bounce on the cheap fast
  // path: refresh the directory, re-send straight to the new owner,
  // count a redirect — not a retry.
  {
    clusterd::Client client(&rpc,
                            "127.0.0.1:" + std::to_string(coordinator.port()));
    auto result = client.Invoke("user1", "get_timeline", "10");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, "served");
    EXPECT_EQ(client.metrics().redirects, 1u);
    EXPECT_EQ(client.metrics().retries, 0u);
    EXPECT_EQ(client.metrics().directory_refreshes, 2u);
  }
  rpc.Stop();
  coordinator.Stop();
  right.Stop();
  wrong.Stop();
}

// ---------------------------------------------------------------------
// SendQueue: the partial-write bookkeeping under the coalesced writev
// flush path. A short write must never re-send a drained byte and never
// skip an undrained one, no matter where it lands relative to buffer
// boundaries.

TEST(SendQueue, ConsumeAcrossBufferBoundaries) {
  SendQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.Append("abc");
  queue.Append("");  // dropped: zero-length iovecs confuse writev math
  queue.Append("defgh");
  queue.Append("ij");
  EXPECT_EQ(queue.bytes(), 10u);

  struct iovec iov[4];
  int n = queue.FillIovecs(iov, 4);
  ASSERT_EQ(n, 3);
  EXPECT_EQ(iov[0].iov_len, 3u);
  EXPECT_EQ(memcmp(iov[0].iov_base, "abc", 3), 0);

  // Short write inside the head buffer: offset, don't retire.
  queue.Consume(1);
  n = queue.FillIovecs(iov, 4);
  ASSERT_EQ(n, 3);
  EXPECT_EQ(iov[0].iov_len, 2u);
  EXPECT_EQ(memcmp(iov[0].iov_base, "bc", 2), 0);

  // Write crossing the head boundary into the middle of the next buffer.
  queue.Consume(4);  // rest of "abc" + "de"
  n = queue.FillIovecs(iov, 4);
  ASSERT_EQ(n, 2);
  EXPECT_EQ(iov[0].iov_len, 3u);
  EXPECT_EQ(memcmp(iov[0].iov_base, "fgh", 3), 0);
  EXPECT_EQ(queue.bytes(), 5u);

  // Write landing exactly on a boundary retires the buffer cleanly.
  queue.Consume(3);
  n = queue.FillIovecs(iov, 4);
  ASSERT_EQ(n, 1);
  EXPECT_EQ(iov[0].iov_len, 2u);
  EXPECT_EQ(memcmp(iov[0].iov_base, "ij", 2), 0);
  queue.Consume(2);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.FillIovecs(iov, 4), 0);

  // FillIovecs honors max: more buffers than slots exposes a prefix.
  for (int i = 0; i < 6; i++) queue.Append(std::string(1, 'a' + i));
  n = queue.FillIovecs(iov, 4);
  EXPECT_EQ(n, 4);
  queue.Clear();
  EXPECT_TRUE(queue.empty());
}

TEST(SendQueue, RandomizedDrainMatchesReferenceStream) {
  // Model check: interleave random appends with random-length consumes
  // (copying what the iovecs expose first, like writev would). The
  // concatenation of everything "written" must equal the concatenation
  // of everything appended — any off-by-one in head_offset_ bookkeeping
  // shows up as duplicated or dropped bytes.
  Rng rng(20260808);
  SendQueue queue;
  std::string appended, drained;
  auto drain_some = [&] {
    struct iovec iov[8];
    int n = queue.FillIovecs(iov, 8);
    if (n == 0) return;
    size_t exposed = 0;
    for (int i = 0; i < n; i++) exposed += iov[i].iov_len;
    size_t take = 1 + rng.Uniform(exposed);
    size_t left = take;
    for (int i = 0; i < n && left > 0; i++) {
      size_t chunk = std::min(left, iov[i].iov_len);
      drained.append(static_cast<const char*>(iov[i].iov_base), chunk);
      left -= chunk;
    }
    queue.Consume(take);
  };
  for (int round = 0; round < 1000; round++) {
    if (queue.empty() || rng.Uniform(2) == 0) {
      std::string buf = rng.Bytes(1 + rng.Uniform(64));
      appended += buf;
      queue.Append(std::move(buf));
    } else {
      drain_some();
    }
  }
  while (!queue.empty()) drain_some();
  EXPECT_EQ(drained, appended);
}

// ---------------------------------------------------------------------
// Scatter-gather response encode: head + payload concatenated must be
// byte-identical to the contiguous EncodeResponse, or the two flush
// paths would disagree on the wire format.

TEST(Frame, ResponsePartsMatchContiguousEncode) {
  struct Case {
    Result<std::string> result;
  } cases[] = {
      {Result<std::string>(std::string("value bytes"))},
      {Result<std::string>(std::string())},  // empty payload
      {Result<std::string>(std::string(100 * 1024, '\xab'))},
      {Result<std::string>(Status::NotFound("no such service"))},
      {Result<std::string>(Status::Timeout("deadline expired before dispatch"))},
  };
  uint64_t rpc_id = 91;
  for (auto& c : cases) {
    std::string contiguous = EncodeResponse(rpc_id, c.result);
    Result<std::string> moved = c.result;  // EncodeResponseParts consumes
    ResponseParts parts = EncodeResponseParts(rpc_id, std::move(moved));
    EXPECT_EQ(parts.head + parts.payload, contiguous) << "rpc_id " << rpc_id;

    // And it still decodes: CRC over preamble+payload is intact.
    std::string wire = parts.head + parts.payload;
    size_t consumed = 0;
    std::string_view body;
    ASSERT_EQ(TryDecodeFrame(wire, &consumed, &body), DecodeResult::kOk);
    Message message;
    ASSERT_TRUE(DecodeMessage(body, &message));
    ASSERT_EQ(message.kind, MessageKind::kResponse);
    EXPECT_EQ(message.response.rpc_id, rpc_id);
    if (c.result.ok()) {
      EXPECT_EQ(message.response.code, StatusCode::kOk);
      EXPECT_EQ(message.response.body, *c.result);
    } else {
      EXPECT_EQ(message.response.code, c.result.status().code());
      EXPECT_EQ(message.response.body, c.result.status().message());
    }
    rpc_id++;
  }
}

// ---------------------------------------------------------------------
// Partial writes: a tiny SO_SNDBUF (the kernel clamps to its floor, a
// few KB) against responses far larger forces writev to return short
// over and over, at arbitrary offsets relative to the head/payload
// iovec boundaries. Every echo must still come back byte-identical.

TEST(Rpc, PartialWritevAcrossIovecBoundaries) {
  RpcServerOptions options;
  options.sndbuf_bytes = 1;  // clamped up to the kernel minimum
  RpcServer server(options);
  server.Handle("echo", [](RpcServer::Request request,
                           RpcServer::Responder respond) {
    respond(std::string(request.payload));
  });
  ASSERT_TRUE(server.Start().ok());
  std::string address = "127.0.0.1:" + std::to_string(server.port());

  // Pipeline several large, distinct payloads on ONE connection so the
  // coalesced flush queues many head+payload iovec pairs at once.
  constexpr int kCalls = 8;
  constexpr size_t kPayload = 192 * 1024;
  RpcClient client;
  std::vector<std::promise<Result<std::string>>> done(kCalls);
  std::vector<std::string> payloads(kCalls);
  for (int i = 0; i < kCalls; i++) {
    payloads[i].reserve(kPayload);
    for (size_t b = 0; b < kPayload; b++) {
      payloads[i].push_back(static_cast<char>('A' + i + (b % 23)));
    }
    client.Call(address, "echo", payloads[i], 10'000'000,
                [&done, i](Result<std::string> result) {
                  done[i].set_value(std::move(result));
                });
  }
  for (int i = 0; i < kCalls; i++) {
    auto result = done[i].get_future().get();
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    EXPECT_EQ(*result, payloads[i]) << "echo " << i << " corrupted";
  }
  // The whole point of the tiny sndbuf: the flush path actually hit
  // EAGAIN / short writes, so it took far more writev calls than
  // responses (each ~196KB response drains through a few-KB buffer).
  EXPECT_GT(server.stats().syscalls.load(),
            static_cast<uint64_t>(2 * kCalls));
  client.Stop();
  server.Stop();
  EXPECT_EQ(server.stats().responses.load(), static_cast<uint64_t>(kCalls));
}

// ---------------------------------------------------------------------
// Multi-reactor server under concurrent clients, frame fuzz, and
// reconnect churn: well-formed requests on one connection must never be
// corrupted or lost because a *different* connection — possibly on a
// different reactor — fed the server garbage or hung up mid-frame.

TEST(Rpc, MultiReactorFuzzAndReconnectChurn) {
  RpcServerOptions options;
  options.net_threads = 4;
  RpcServer server(options);
  server.Handle("echo", [](RpcServer::Request request,
                           RpcServer::Responder respond) {
    respond(std::string(request.payload));
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.reactors(), 4);
  std::string address = "127.0.0.1:" + std::to_string(server.port());
  uint16_t port = server.port();

  auto dial_raw = [port]() -> int {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };

  std::atomic<int> failures{0};
  std::atomic<bool> stop_fuzz{false};
  // Fuzz thread: corrupt frames, pure garbage, and torn prefixes on
  // fresh raw connections, racing the real clients below.
  std::thread fuzzer([&] {
    Rng rng(777);
    RequestFrame request;
    request.rpc_id = 1;
    request.service = "echo";
    while (!stop_fuzz.load(std::memory_order_relaxed)) {
      int fd = dial_raw();
      if (fd < 0) continue;
      std::string payload = rng.Bytes(rng.Uniform(256));
      request.payload = payload;  // RequestFrame holds a view
      std::string wire = EncodeRequest(request);
      uint64_t shape = rng.Uniform(3);
      if (shape == 0 && !wire.empty()) {
        wire[rng.Uniform(wire.size())] ^= 0x20;  // corrupt: CRC reject
      } else if (shape == 1) {
        wire = rng.Bytes(16 + rng.Uniform(64));  // garbage header
      } else {
        wire.resize(rng.Uniform(wire.size()));  // torn frame, then hangup
      }
      (void)!::write(fd, wire.data(), wire.size());
      ::close(fd);  // churn: the server sees EOF/RST mid-stream
    }
  });

  constexpr int kThreads = 8, kBatches = 5, kCallsPerBatch = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Reconnect churn: a fresh client (fresh connection, landing on
      // whichever reactor the kernel hashes it to) every batch.
      for (int batch = 0; batch < kBatches; batch++) {
        RpcClient client;
        for (int i = 0; i < kCallsPerBatch; i++) {
          std::string msg = "t" + std::to_string(t) + "-b" +
                            std::to_string(batch) + "-" + std::to_string(i) +
                            "-" + std::string(1 + (i * 37) % 512, 'x');
          auto result = client.CallSync(address, "echo", msg, 10'000'000);
          if (!result.ok() || *result != msg) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        client.Stop();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stop_fuzz.store(true);
  fuzzer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().responses.load(),
            static_cast<uint64_t>(kThreads * kBatches * kCallsPerBatch));
  // The fuzzer actually exercised the reject paths.
  EXPECT_GT(server.frame_stats().rejects(), 0u);
  // Churn accounting: every accepted connection eventually closed.
  server.Stop();
  EXPECT_EQ(server.stats().connections_accepted.load(),
            server.stats().connections_closed.load());
}

// ---------------------------------------------------------------------
// Backpressure: a peer that pipelines requests but never reads responses
// must not grow the server's send queue without bound — once the
// per-connection backlog cap is crossed, new requests are shed via the
// deadline path and the gauge stays bounded.

TEST(Rpc, BacklogCapShedsWhenPeerStopsReading) {
  constexpr size_t kCap = 64 * 1024;
  constexpr size_t kResponse = 32 * 1024;
  RpcServerOptions options;
  options.max_conn_backlog_bytes = kCap;
  options.sndbuf_bytes = 1;  // kernel floor: the socket absorbs little
  RpcServer server(options);
  server.Handle("blob", [](RpcServer::Request, RpcServer::Responder respond) {
    respond(std::string(kResponse, 'z'));
  });
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Pipeline far more than the cap's worth of work (no deadline, so the
  // only shed reason is the backlog), and never read a byte back.
  RequestFrame request;
  request.service = "blob";
  std::string burst;
  constexpr int kRequests = 64;  // 64 * 32KB = 2MB >> 64KB cap
  for (int i = 0; i < kRequests; i++) {
    request.rpc_id = static_cast<uint64_t>(i + 1);
    burst += EncodeRequest(request);
  }
  size_t written = 0;
  while (written < burst.size()) {
    ssize_t n = ::write(fd, burst.data() + written, burst.size() - written);
    ASSERT_GT(n, 0);
    written += static_cast<size_t>(n);
  }

  // The server sheds once the queue crosses the cap...
  for (int i = 0; i < 5000 && server.stats().backlog_shed.load() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(server.stats().backlog_shed.load(), 0u);
  // ...and the gauge never runs away: at most the cap plus one response
  // that was in flight when the cap was crossed, plus the tiny shed
  // replies themselves.
  EXPECT_LT(server.stats().backlog_bytes.load(), kCap + kResponse + 16 * 1024);

  // Hanging up reclaims the whole backlog.
  ::close(fd);
  for (int i = 0; i < 5000 && server.stats().backlog_bytes.load() != 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().backlog_bytes.load(), 0u);
  server.Stop();
}

// ---------------------------------------------------------------------
// Multi-process loopback smoke test: spawn the real server binary, run
// a small ReTwis slice over TCP, shut it down cleanly.

std::string ServerBinaryPath() {
  if (const char* env = std::getenv("LO_SERVER_BIN")) return env;
#ifdef LO_SERVER_BIN_DEFAULT
  return LO_SERVER_BIN_DEFAULT;
#else
  return "";
#endif
}

/// Kills the spawned server on any early test exit (a failed ASSERT
/// would otherwise leak the child; its inherited stderr then wedges
/// ctest's output pipe forever).
struct SpawnGuard {
  pid_t pid = -1;
  ~SpawnGuard() {
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
  /// Hands ownership back for a normal waitpid.
  pid_t Release() {
    pid_t p = pid;
    pid = -1;
    return p;
  }
};

TEST(MultiProcess, LoopbackRetwisSlice) {
  std::string binary = ServerBinaryPath();
  ASSERT_FALSE(binary.empty()) << "set LO_SERVER_BIN";

  // Spawn the server with a pipe on its stdout to parse "READY port=N".
  int out_pipe[2];
  ASSERT_EQ(pipe(out_pipe), 0);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
  posix_spawn_file_actions_addclose(&actions, out_pipe[1]);
  std::string arg_port = "--port=0";
  std::string arg_users = "--seed-users=100";
  char* argv[] = {binary.data(), arg_port.data(), arg_users.data(), nullptr};
  pid_t pid = -1;
  ASSERT_EQ(posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv, environ),
            0)
      << "spawning " << binary;
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  SpawnGuard guard{pid};

  // Read the READY line.
  std::string ready;
  char c;
  while (ready.find('\n') == std::string::npos &&
         ::read(out_pipe[0], &c, 1) == 1) {
    ready.push_back(c);
  }
  ::close(out_pipe[0]);
  ASSERT_EQ(ready.rfind("READY port=", 0), 0u) << "got: " << ready;
  uint16_t port = static_cast<uint16_t>(std::stoi(ready.substr(11)));
  ASSERT_GT(port, 0);

  {
    RpcClient rpc;
    const std::string address = "127.0.0.1:" + std::to_string(port);
    ASSERT_TRUE(rpc.CallSync(address, "ping", "ping", 1'000'000).ok());
    auto remote = clusterd::Client::Standalone(&rpc, address);

    // Fresh object end-to-end: create, init, post twice, read the
    // timeline back.
    ASSERT_TRUE(remote.Create("zz_test", "user").ok());
    ASSERT_TRUE(remote.Invoke("zz_test", "init", "tester").ok());
    ASSERT_TRUE(remote.Invoke("zz_test", "create_post", "hello world").ok());
    ASSERT_TRUE(remote.Invoke("zz_test", "create_post", "second post").ok());
    auto timeline = remote.Invoke("zz_test", "get_timeline", "10");
    ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
    auto posts = retwis::DecodeTimeline(*timeline);
    ASSERT_TRUE(posts.ok());
    ASSERT_EQ(posts->size(), 2u);
    const retwis::Post* older = nullptr;
    const retwis::Post* newer = nullptr;
    for (const retwis::Post& post : *posts) {
      EXPECT_EQ(post.author, "tester");
      if (post.message == "hello world") older = &post;
      if (post.message == "second post") newer = &post;
    }
    ASSERT_NE(older, nullptr);
    ASSERT_NE(newer, nullptr);
    // Real servers stamp posts from the lane runtime's wall clock.
    EXPECT_GT(older->time_ms, 0u);
    EXPECT_GT(newer->time_ms, 0u);
    EXPECT_GE(newer->time_ms, older->time_ms);

    // Seeded object: the --seed-users graph pre-loaded timelines.
    auto seeded = remote.Invoke("user/1", "get_timeline", "10");
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
    auto seeded_posts = retwis::DecodeTimeline(*seeded);
    ASSERT_TRUE(seeded_posts.ok());
    EXPECT_FALSE(seeded_posts->empty());

    (void)rpc.CallSync(address, "admin.shutdown", "", 1'000'000);
    rpc.Stop();
  }

  int wstatus = 0;
  pid = guard.Release();
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "server did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

}  // namespace
}  // namespace lo::net
