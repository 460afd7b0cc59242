// A spawned lambdastore-server or lambdastore-coordinator process, for the
// benches and tests that drive real processes over loopback. Spawn
// starts the binary with its stdout piped and waits up to 30 s for the
// "READY port=<p>" line both binaries print once they listen. The
// destructor SIGKILLs and reaps a child that has not exited, so a failed
// run never leaks a process holding a port (its inherited stderr would
// otherwise wedge ctest's output pipe).
#pragma once

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

extern char** environ;

namespace lo::bench {

/// The binary the environment variable `env` names, or else
/// `<build>/tools/<name>` for a bench running from `<build>/bench`.
inline std::string ToolBinary(const char* env, const std::string& name) {
  const char* path_env = std::getenv(env);
  if (path_env != nullptr && path_env[0] != '\0') return path_env;
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return name;
  std::string path(buf, static_cast<size_t>(n));
  size_t slash = path.rfind('/');
  if (slash == std::string::npos) return name;
  return path.substr(0, slash) + "/../tools/" + name;
}

class ChildProcess {
 public:
  /// Spawns `args[0]` with `args` as its argv.
  static Result<ChildProcess> Spawn(std::vector<std::string> args) {
    int pipefd[2];
    if (pipe(pipefd) != 0) {
      return Status::IOError(std::string("pipe: ") + strerror(errno));
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, pipefd[0]);
    posix_spawn_file_actions_addclose(&actions, pipefd[1]);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ChildProcess child;
    int rc = posix_spawn(&child.pid_, args[0].c_str(), &actions, nullptr,
                         argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(pipefd[1]);
    child.stdout_fd_ = pipefd[0];
    if (rc != 0) {
      child.pid_ = -1;
      return Status::IOError("posix_spawn " + args[0] + ": " + strerror(rc));
    }
    std::string out;
    while (true) {
      size_t pos = out.find("READY port=");
      if (pos != std::string::npos && out.find('\n', pos) != std::string::npos) {
        child.port_ = static_cast<uint16_t>(
            std::atoi(out.c_str() + pos + strlen("READY port=")));
        return child;
      }
      struct pollfd pfd = {child.stdout_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 30'000) <= 0) {
        return Status::Timeout(args[0] + " did not print READY in 30s");
      }
      char buf[256];
      ssize_t n = read(child.stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return Status::IOError(args[0] + " exited before READY");
      out.append(buf, static_cast<size_t>(n));
    }
  }

  ChildProcess() = default;
  ChildProcess(ChildProcess&& other) noexcept { *this = std::move(other); }
  ChildProcess& operator=(ChildProcess&& other) noexcept {
    std::swap(pid_, other.pid_);
    std::swap(stdout_fd_, other.stdout_fd_);
    std::swap(port_, other.port_);
    return *this;
  }
  ~ChildProcess() { Kill(); }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

  /// SIGKILLs and reaps the child unless it already exited.
  void Kill() {
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  /// Waits up to `timeout_ms` for the child to exit and returns its
  /// waitpid status, or -1 if it is still running.
  int Wait(int timeout_ms = 10'000) {
    for (int waited = 0; pid_ > 0; waited += 50) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return status;
      }
      if (waited >= timeout_ms) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace lo::bench
