#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "server_process.h"

namespace perfbench {

namespace {

// Per-request timeout: celebrity fan-outs under load take seconds.
constexpr int64_t kTimeoutUs = 60'000'000;

const char* SpanName(Op op) {
  switch (op) {
    case Op::kRead: return "request.read";
    case Op::kFollow: return "request.follow";
    case Op::kPost: return "request.post";
  }
  return "request";
}

// Shared by every in-flight call. Replies arrive on the RpcClient loop
// thread only, so the result fields need no lock; `next` and `completed`
// are atomic because the first window is sent from the caller's thread.
struct LoopState {
  lo::net::RpcClient* rpc;
  std::string address;
  const std::vector<Request>* requests;
  ReplyChecker* checker;
  SpanLog* spans;
  std::vector<uint32_t> tokens;
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  PhaseResult result;
  std::mutex mu;
  bool finished = false;  // guarded by mu
  std::condition_variable done_cv;
};

void Send(const std::shared_ptr<LoopState>& state, size_t index) {
  const Request& request = (*state->requests)[index];
  state->tokens[index] = state->checker->BeforeSend(request);
  state->result.sent_ns[index] = NowNs();
  state->rpc->Call(
      state->address, "lambda.invoke", request.payload, kTimeoutUs,
      [state, index](lo::Result<std::string> reply) {
        int64_t now = NowNs();
        const Request& request = (*state->requests)[index];
        PhaseResult& result = state->result;
        std::string error =
            reply.ok() ? state->checker->Check(request, state->tokens[index], *reply)
                       : std::string(OpLabel(request.op)) + ": " +
                             reply.status().ToString();
        if (error.empty()) {
          result.latency_ns[index] = now - state->result.sent_ns[index];
          if (request.op == Op::kPost) {
            result.acked_posts.push_back(static_cast<uint32_t>(index));
          }
        } else {
          result.failed++;
          if (result.first_error.empty()) result.first_error = error;
        }
        if (state->spans != nullptr) {
          state->spans->Record(SpanName(request.op), index + 1,
                               state->result.sent_ns[index], now);
        }
        size_t following = state->next.fetch_add(1);
        if (following < state->requests->size()) Send(state, following);
        if (state->completed.fetch_add(1) + 1 == state->requests->size()) {
          std::lock_guard<std::mutex> lock(state->mu);
          result.end_ns = now;
          state->finished = true;
          state->done_cv.notify_all();
        }
      });
}

}  // namespace

PhaseResult RunClosedLoop(lo::net::RpcClient* rpc, const std::string& address,
                          const std::vector<Request>& requests,
                          ReplyChecker* checker, SpanLog* spans) {
  if (requests.empty()) return {};
  auto state = std::make_shared<LoopState>();
  state->rpc = rpc;
  state->address = address;
  state->requests = &requests;
  state->checker = checker;
  state->spans = spans;
  state->result.sent_ns.assign(requests.size(), 0);
  state->tokens.assign(requests.size(), 0);
  state->result.attempted = requests.size();
  state->result.latency_ns.assign(requests.size(), -1);
  state->result.start_ns = NowNs();
  size_t window = std::min<size_t>(kOutstanding, requests.size());
  state->next.store(window);
  for (size_t i = 0; i < window; i++) Send(state, i);
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->finished; });
  return std::move(state->result);
}

int64_t Percentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace perfbench
