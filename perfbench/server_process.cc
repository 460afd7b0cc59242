#include "server_process.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (size_t i = 0; i < cpus.size();) {
    size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) j++;
    if (!out.empty()) out += ",";
    out += std::to_string(cpus[i]);
    if (j > i) out += "-" + std::to_string(cpus[j]);
    i = j + 1;
  }
  return out;
}

cpu_set_t ToSet(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return set;
}

}  // namespace

std::string CpuSplit::Describe() const {
  return "generator=" + CpuList(generator) + " server=" + CpuList(server);
}

CpuSplit MakeCpuSplit() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  CpuSplit split;
  split.generator = {cpus[0]};
  split.server = cpus.size() > 1 ? std::vector<int>(cpus.begin() + 1, cpus.end())
                                 : cpus;
  return split;
}

lo::Status PinThisThread(const std::vector<int>& cpus) {
  cpu_set_t set = ToSet(cpus);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    return lo::Status::IOError(std::string("sched_setaffinity: ") + strerror(errno));
  }
  return lo::Status::OK();
}

ServerProcess::~ServerProcess() { Kill(); }

lo::Result<double> ServerProcess::Start(const std::vector<std::string>& args,
                                        const std::vector<int>& cpus,
                                        double timeout_s) {
  Kill();
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) return lo::Status::IOError("pipe");
  // Everything the child touches is prepared before fork: between fork
  // and exec only async-signal-safe calls are allowed.
  std::vector<std::string> owned = args;
  std::vector<char*> argv;
  for (std::string& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  cpu_set_t set = ToSet(cpus);
  pid_t parent = getpid();

  double started = NowSeconds();
  pid_t pid = fork();
  if (pid < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return lo::Status::IOError("fork");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    if (getppid() != parent) _exit(127);
    sched_setaffinity(0, sizeof(set), &set);
    dup2(pipefd[1], STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(pipefd[1]);
  pid_ = pid;
  stdout_fd_ = pipefd[0];

  std::string out;
  while (true) {
    size_t pos = out.find("READY port=");
    if (pos != std::string::npos && out.find('\n', pos) != std::string::npos) {
      port_ = static_cast<uint16_t>(std::atoi(out.c_str() + pos + 11));
      return NowSeconds() - started;
    }
    double left = timeout_s - (NowSeconds() - started);
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    int ready = left > 0 ? poll(&pfd, 1, static_cast<int>(left * 1000) + 1) : 0;
    if (ready <= 0) {
      Kill();
      return lo::Status::Timeout(args[0] + " did not print READY");
    }
    char buf[256];
    ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      Kill();
      return lo::Status::Unavailable(args[0] + " exited before READY");
    }
    out.append(buf, static_cast<size_t>(n));
  }
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

lo::Result<double> ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return lo::Status::IOError("no /proc stat");
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall, the 12th and 13th after it.
  size_t close_paren = line.rfind(')');
  if (close_paren == std::string::npos) return lo::Status::Corruption("stat");
  std::istringstream fields(line.substr(close_paren + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; i++) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

lo::Result<double> ServerProcess::PeakRssMib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return lo::Status::IOError("no VmHWM");
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double SelfCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string KernelRelease() {
  struct utsname name;
  if (uname(&name) != 0) return "unknown";
  return std::string(name.sysname) + " " + name.release;
}

}  // namespace perfbench
