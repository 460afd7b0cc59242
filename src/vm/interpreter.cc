#include "vm/interpreter.h"

#include <cstring>

#include "common/log.h"

namespace lo::vm {

Instance::Instance(const Module* module, VmLimits limits)
    : module_(module), limits_(limits), fuel_left_(limits.fuel) {
  uint64_t mem = std::min<uint64_t>(module->min_memory(), limits_.max_memory);
  memory_.assign(static_cast<size_t>(mem), 0);
  for (const auto& segment : module->data()) {
    // Validated against min_memory at module creation.
    std::memcpy(memory_.data() + segment.offset, segment.bytes.data(),
                segment.bytes.size());
  }
  stack_.reserve(256);
}

void Instance::Trap(std::string message) {
  if (trap_status_.ok()) trap_status_ = Status::Trap(std::move(message));
}

bool Instance::Push(uint64_t v) {
  if (stack_.size() >= limits_.max_stack) {
    Trap("operand stack overflow");
    return false;
  }
  stack_.push_back(v);
  return true;
}

bool Instance::Pop(uint64_t* v) {
  if (stack_.empty()) {
    Trap("operand stack underflow");
    return false;
  }
  *v = stack_.back();
  stack_.pop_back();
  return true;
}

bool Instance::CheckMem(uint64_t addr, uint64_t len) {
  if (addr > memory_.size() || len > memory_.size() - addr) {
    Trap("memory access out of bounds");
    return false;
  }
  return true;
}

bool Instance::ReadMem(uint64_t addr, uint64_t len, std::string_view* out) {
  if (!CheckMem(addr, len)) return false;
  *out = std::string_view(reinterpret_cast<const char*>(memory_.data()) + addr,
                          static_cast<size_t>(len));
  return true;
}

bool Instance::WriteMem(uint64_t addr, std::string_view bytes) {
  if (!CheckMem(addr, bytes.size())) return false;
  std::memcpy(memory_.data() + addr, bytes.data(), bytes.size());
  return true;
}

bool Instance::ChargeFuel(uint64_t amount) {
  if (fuel_left_ < amount) {
    fuel_left_ = 0;
    Trap("fuel exhausted");
    return false;
  }
  fuel_left_ -= amount;
  metrics_.fuel_used += amount;
  if (limits_.fuel_tap) {
    // Chunked so the common path is integer arithmetic, not a
    // std::function call per instruction.
    constexpr uint64_t kFuelTapChunk = 4096;
    tap_pending_ += amount;
    if (tap_pending_ >= kFuelTapChunk && !FlushFuelTap()) return false;
  }
  return true;
}

bool Instance::FlushFuelTap() {
  if (tap_pending_ == 0 || !limits_.fuel_tap) return true;
  uint64_t spent = tap_pending_;
  tap_pending_ = 0;
  Status vetoed = limits_.fuel_tap(spent);
  if (!vetoed.ok()) {
    // The tap's status (e.g. kTenantThrottled) wins over a generic trap.
    if (trap_status_.ok()) trap_status_ = std::move(vetoed);
    return false;
  }
  return true;
}

sim::Task<Result<std::string>> Instance::Invoke(std::string_view function,
                                                std::string argument,
                                                HostApi* host) {
  auto index = module_->FindExport(function);
  if (!index.ok()) co_return index.status();
  argument_ = std::move(argument);
  host_ = host;
  const Function& fn = module_->function(*index);
  // Exported entry points take no stack parameters; the argument buffer
  // is reached through the `arg` opcode.
  if (fn.num_params != 0) {
    co_return Status::InvalidArgument("exported function must take 0 params");
  }
  Result<std::string> result = co_await Run(*index);
  // Account the final partial chunk (also charged when the run trapped):
  // the tap must see every unit the meter recorded. A veto here does not
  // retroactively fail a completed invocation.
  if (limits_.fuel_tap && tap_pending_ > 0) {
    (void)limits_.fuel_tap(tap_pending_);
    tap_pending_ = 0;
  }
  co_return result;
}

sim::Task<Result<std::string>> Instance::Run(uint32_t function_index) {
  if (depth_ >= limits_.max_call_depth) {
    Trap("call depth exceeded");
    co_return trap_status_;
  }
  depth_++;
  const Function& fn = module_->function(function_index);
  std::vector<uint64_t> locals(fn.num_params + fn.num_locals, 0);
  // Calling convention: args pushed left-to-right, popped here.
  for (uint32_t i = fn.num_params; i > 0; i--) {
    if (!Pop(&locals[i - 1])) {
      depth_--;
      co_return trap_status_;
    }
  }
  size_t stack_floor = stack_.size();

  uint64_t pc = 0;
  while (pc < fn.code.size()) {
    const Instruction& instr = fn.code[pc];
    if (!ChargeFuel(kFuelPerInstruction)) break;
    metrics_.instructions++;
    pc++;
    uint64_t a = 0, b = 0, c = 0;
    switch (instr.op) {
      case Op::kNop:
        break;
      case Op::kUnreachable:
        Trap("unreachable executed");
        break;
      case Op::kBr:
        pc = instr.imm;
        break;
      case Op::kBrIf:
        if (!Pop(&a)) break;
        if (a != 0) pc = instr.imm;
        break;
      case Op::kCall: {
        auto nested = co_await Run(static_cast<uint32_t>(instr.imm));
        if (!nested.ok()) {
          if (trap_status_.ok()) trap_status_ = nested.status();
        }
        break;
      }
      case Op::kReturn:
        pc = fn.code.size();
        break;
      case Op::kPush:
        Push(instr.imm);
        break;
      case Op::kDrop:
        Pop(&a);
        break;
      case Op::kDup:
        if (Pop(&a)) {
          Push(a);
          Push(a);
        }
        break;
      case Op::kSwap:
        if (Pop(&a) && Pop(&b)) {
          Push(a);
          Push(b);
        }
        break;
      case Op::kLocalGet:
        Push(locals[instr.imm]);
        break;
      case Op::kLocalSet:
        if (Pop(&a)) locals[instr.imm] = a;
        break;
      case Op::kLocalTee:
        if (Pop(&a)) {
          locals[instr.imm] = a;
          Push(a);
        }
        break;
#define LO_VM_BINOP(opcode, expr)                   \
  case opcode:                                      \
    if (Pop(&b) && Pop(&a)) Push(expr);             \
    break
      LO_VM_BINOP(Op::kAdd, a + b);
      LO_VM_BINOP(Op::kSub, a - b);
      LO_VM_BINOP(Op::kMul, a * b);
      LO_VM_BINOP(Op::kAnd, a & b);
      LO_VM_BINOP(Op::kOr, a | b);
      LO_VM_BINOP(Op::kXor, a ^ b);
      LO_VM_BINOP(Op::kShl, b >= 64 ? 0 : a << b);
      LO_VM_BINOP(Op::kShrU, b >= 64 ? 0 : a >> b);
      LO_VM_BINOP(Op::kEq, static_cast<uint64_t>(a == b));
      LO_VM_BINOP(Op::kNe, static_cast<uint64_t>(a != b));
      LO_VM_BINOP(Op::kLtU, static_cast<uint64_t>(a < b));
      LO_VM_BINOP(Op::kGtU, static_cast<uint64_t>(a > b));
      LO_VM_BINOP(Op::kLeU, static_cast<uint64_t>(a <= b));
      LO_VM_BINOP(Op::kGeU, static_cast<uint64_t>(a >= b));
#undef LO_VM_BINOP
      case Op::kDivU:
        if (Pop(&b) && Pop(&a)) {
          if (b == 0) {
            Trap("division by zero");
          } else {
            Push(a / b);
          }
        }
        break;
      case Op::kRemU:
        if (Pop(&b) && Pop(&a)) {
          if (b == 0) {
            Trap("remainder by zero");
          } else {
            Push(a % b);
          }
        }
        break;
      case Op::kEqz:
        if (Pop(&a)) Push(static_cast<uint64_t>(a == 0));
        break;
      case Op::kLoad8:
        if (Pop(&a) && CheckMem(a, 1)) Push(memory_[a]);
        break;
      case Op::kLoad64:
        if (Pop(&a) && CheckMem(a, 8)) {
          uint64_t v = 0;
          std::memcpy(&v, memory_.data() + a, 8);  // little-endian host
          Push(v);
        }
        break;
      case Op::kStore8:
        if (Pop(&a) && Pop(&b) && CheckMem(b, 1)) {
          memory_[b] = static_cast<uint8_t>(a);
        }
        break;
      case Op::kStore64:
        if (Pop(&a) && Pop(&b) && CheckMem(b, 8)) {
          std::memcpy(memory_.data() + b, &a, 8);
        }
        break;
      case Op::kMemSize:
        Push(memory_.size());
        break;
      case Op::kMemCopy:
        if (Pop(&c) && Pop(&b) && Pop(&a)) {  // len=c src=b dst=a
          if (ChargeFuel(c / 8) && CheckMem(b, c) && CheckMem(a, c)) {
            std::memmove(memory_.data() + a, memory_.data() + b, c);
          }
        }
        break;
      case Op::kMemFill:
        if (Pop(&c) && Pop(&b) && Pop(&a)) {  // len=c byte=b dst=a
          if (ChargeFuel(c / 8) && CheckMem(a, c)) {
            std::memset(memory_.data() + a, static_cast<int>(b), c);
          }
        }
        break;
      case Op::kKvGet: {
        uint64_t dst_cap, dst, key_len, key_ptr;
        if (!Pop(&dst_cap) || !Pop(&dst) || !Pop(&key_len) || !Pop(&key_ptr)) break;
        if (!ChargeFuel(kFuelPerHostCall)) break;
        std::string_view key;
        if (!ReadMem(key_ptr, key_len, &key)) break;
        metrics_.host_calls++;
        auto value = co_await host_->KvGet(key);
        if (!value.ok()) {
          if (value.status().IsNotFound()) {
            Push(kKvNotFound);
          } else {
            if (trap_status_.ok()) trap_status_ = value.status();
          }
          break;
        }
        size_t n = std::min<size_t>(value->size(), dst_cap);
        if (!WriteMem(dst, std::string_view(*value).substr(0, n))) break;
        Push(value->size());
        break;
      }
      case Op::kKvPut: {
        uint64_t val_len, val_ptr, key_len, key_ptr;
        if (!Pop(&val_len) || !Pop(&val_ptr) || !Pop(&key_len) || !Pop(&key_ptr)) break;
        if (!ChargeFuel(kFuelPerHostCall)) break;
        std::string_view key, value;
        if (!ReadMem(key_ptr, key_len, &key) || !ReadMem(val_ptr, val_len, &value)) break;
        metrics_.host_calls++;
        Status s = co_await host_->KvPut(key, value);
        if (!s.ok() && trap_status_.ok()) trap_status_ = s;
        break;
      }
      case Op::kKvDelete: {
        uint64_t key_len, key_ptr;
        if (!Pop(&key_len) || !Pop(&key_ptr)) break;
        if (!ChargeFuel(kFuelPerHostCall)) break;
        std::string_view key;
        if (!ReadMem(key_ptr, key_len, &key)) break;
        metrics_.host_calls++;
        Status s = co_await host_->KvDelete(key);
        if (!s.ok() && trap_status_.ok()) trap_status_ = s;
        break;
      }
      case Op::kInvoke: {
        uint64_t dst_cap, dst, arg_len, arg_ptr, fn_len, fn_ptr, oid_len, oid_ptr;
        if (!Pop(&dst_cap) || !Pop(&dst) || !Pop(&arg_len) || !Pop(&arg_ptr) ||
            !Pop(&fn_len) || !Pop(&fn_ptr) || !Pop(&oid_len) || !Pop(&oid_ptr)) {
          break;
        }
        if (!ChargeFuel(kFuelPerHostCall)) break;
        std::string_view oid, fname, arg;
        if (!ReadMem(oid_ptr, oid_len, &oid) || !ReadMem(fn_ptr, fn_len, &fname) ||
            !ReadMem(arg_ptr, arg_len, &arg)) {
          break;
        }
        metrics_.host_calls++;
        // Copy out of linear memory: the callee may run while we hold these.
        auto result =
            co_await host_->InvokeObject(std::string(oid), std::string(fname),
                                         std::string(arg));
        if (!result.ok()) {
          if (trap_status_.ok()) trap_status_ = result.status();
          break;
        }
        size_t n = std::min<size_t>(result->size(), dst_cap);
        if (!WriteMem(dst, std::string_view(*result).substr(0, n))) break;
        Push(result->size());
        break;
      }
      case Op::kArg: {
        uint64_t dst_cap, dst;
        if (!Pop(&dst_cap) || !Pop(&dst)) break;
        size_t n = std::min<size_t>(argument_.size(), dst_cap);
        if (!WriteMem(dst, std::string_view(argument_).substr(0, n))) break;
        Push(argument_.size());
        break;
      }
      case Op::kRet: {
        uint64_t len, ptr;
        if (!Pop(&len) || !Pop(&ptr)) break;
        std::string_view bytes;
        if (!ReadMem(ptr, len, &bytes)) break;
        result_.assign(bytes);
        result_set_ = true;
        break;
      }
      case Op::kTime:
        Push(host_->TimeMillis());
        break;
      case Op::kLog: {
        uint64_t len, ptr;
        if (!Pop(&len) || !Pop(&ptr)) break;
        std::string_view bytes;
        if (ReadMem(ptr, len, &bytes)) host_->DebugLog(bytes);
        break;
      }
      case Op::kOpCount:
        Trap("invalid opcode");
        break;
    }
    if (!trap_status_.ok()) break;
  }
  depth_--;

  if (!trap_status_.ok()) co_return trap_status_;

  // Enforce the declared result arity toward the caller.
  if (stack_.size() < stack_floor + fn.num_results) {
    Trap("function returned too few values");
    co_return trap_status_;
  }
  uint64_t result_value = 0;
  if (fn.num_results == 1) {
    result_value = stack_.back();
  }
  stack_.resize(stack_floor);
  if (fn.num_results == 1) stack_.push_back(result_value);

  co_return result_;
}

}  // namespace lo::vm
