// The benchmark's handle on real processes: spawning lambdastore-server
// pinned to its CPUs, reading its /proc counters, and the CPU split
// between the load generator and the server.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// CPUs of this process's affinity mask: the generator gets the first,
/// the server the rest. With one CPU both share it.
struct CpuSplit {
  std::vector<int> generator;
  std::vector<int> server;
  std::string Describe() const;  // e.g. "generator=0 server=1-3"
};
CpuSplit MakeCpuSplit();
/// Pins the calling thread; threads it creates afterwards inherit the mask.
lo::Status PinThisThread(const std::vector<int>& cpus);

/// One lambdastore-server child. The destructor SIGKILLs and reaps it,
/// so no exit path leaks a process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Forks, pins the child to `cpus`, execs `args`, and blocks until it
  /// prints "READY port=<p>". Returns seconds from fork to READY.
  lo::Result<double> Start(const std::vector<std::string>& args,
                           const std::vector<int>& cpus, double timeout_s);
  /// SIGKILL and reap (no drain: the crash the durability check models).
  void Kill();

  uint16_t port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

  /// User + system CPU seconds of every thread (/proc/<pid>/stat).
  lo::Result<double> CpuSeconds() const;
  /// Peak resident set (VmHWM) in MiB.
  lo::Result<double> PeakRssMib() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Total size of the regular files under `dir`, in bytes.
uint64_t DirectoryBytes(const std::string& dir);
void RemoveTree(const std::string& path);

/// This process's user + system CPU seconds (getrusage).
double SelfCpuSeconds();
/// Seconds on CLOCK_MONOTONIC.
double NowSeconds();
int64_t NowNs();

/// Machine description for the result file: nproc, CPU model, kernel.
std::string CpuModel();
std::string KernelRelease();

}  // namespace perfbench
