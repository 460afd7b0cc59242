// LambdaVM interpreter: fuel-metered, bounds-checked execution of one
// exported function. Host calls are coroutines, so a running function
// can suspend on storage access or on a nested object invocation — the
// same shape as a WASM runtime with async host imports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sim/task.h"
#include "vm/module.h"

namespace lo::vm {

/// The host ABI surface a LambdaObject method sees (paper §3: "a
/// key-value API and some utility functions"). Implemented by the
/// runtime's InvocationContext; tests use in-memory fakes.
class HostApi {
 public:
  virtual ~HostApi() = default;

  /// NotFound when the key is absent.
  virtual sim::Task<Result<std::string>> KvGet(std::string_view key) = 0;
  virtual sim::Task<Status> KvPut(std::string_view key, std::string_view value) = 0;
  virtual sim::Task<Status> KvDelete(std::string_view key) = 0;
  /// Invokes `function` on another object; returns its result buffer.
  virtual sim::Task<Result<std::string>> InvokeObject(std::string_view object_id,
                                                      std::string_view function,
                                                      std::string_view argument) = 0;
  /// Virtual wall-clock time, milliseconds.
  virtual uint64_t TimeMillis() = 0;
  virtual void DebugLog(std::string_view message) { (void)message; }
};

/// External fuel sink: receives fuel amounts as the instance burns them
/// and may veto further execution by returning a non-OK status (which
/// becomes the invocation's trap status). The VM stays policy-agnostic —
/// the runtime installs a tap that debits the invoking tenant's budget
/// and returns kTenantThrottled when the window is dry.
using FuelTap = std::function<Status(uint64_t spent)>;

struct VmLimits {
  uint64_t fuel = 10'000'000;
  uint64_t max_memory = 1 << 20;
  uint32_t max_call_depth = 64;
  uint32_t max_stack = 4096;
  /// Optional; called every ~4096 fuel (and once at invocation end) so
  /// the per-instruction hot path stays a bare integer decrement.
  FuelTap fuel_tap{};
};

struct VmMetrics {
  uint64_t instructions = 0;
  uint64_t fuel_used = 0;
  uint64_t host_calls = 0;
};

/// One instantiation = one invocation (fresh memory, fresh stack), per
/// the paper's "short-lived and isolated" method semantics.
class Instance {
 public:
  Instance(const Module* module, VmLimits limits);

  /// Runs exported `function` with `argument` readable via the `arg`
  /// opcode. Returns the buffer set by `ret` (empty if never set).
  /// Sandbox violations and fuel exhaustion surface as Status::Trap.
  sim::Task<Result<std::string>> Invoke(std::string_view function,
                                        std::string argument, HostApi* host);

  const VmMetrics& metrics() const { return metrics_; }

 private:
  sim::Task<Result<std::string>> Run(uint32_t function_index);

  // All return false after setting trap_ on a sandbox violation.
  bool Push(uint64_t v);
  bool Pop(uint64_t* v);
  bool CheckMem(uint64_t addr, uint64_t len);
  bool ReadMem(uint64_t addr, uint64_t len, std::string_view* out);
  bool WriteMem(uint64_t addr, std::string_view bytes);
  bool ChargeFuel(uint64_t amount);
  /// Pushes accumulated fuel into limits_.fuel_tap. Returns false (with
  /// the tap's status as the trap status) if the tap vetoes execution.
  bool FlushFuelTap();
  void Trap(std::string message);

  const Module* module_;
  VmLimits limits_;
  std::vector<uint8_t> memory_;
  std::vector<uint64_t> stack_;
  std::string argument_;
  std::string result_;
  bool result_set_ = false;
  uint64_t fuel_left_ = 0;
  uint64_t tap_pending_ = 0;  // fuel burned since the last tap flush
  uint32_t depth_ = 0;
  Status trap_status_;
  HostApi* host_ = nullptr;
  VmMetrics metrics_;
};

}  // namespace lo::vm
