#include "procs.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace gsbench {

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

using Clock = std::chrono::steady_clock;

/// waitpid with a deadline; returns true and fills `status` once reaped.
bool reap(pid_t pid, double timeout_s, int& status) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return true;
    if (r < 0) return errno == ECHILD;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

bool interrupted() { return g_signal != 0; }

void check_interrupted() {
  if (interrupted()) throw Interrupted{};
}

// ---------------------------------------------------------------- TempDir

TempDir::TempDir() {
  const char* base = std::getenv("TMPDIR");
  std::string pattern =
      std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
      "/gsbench.XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("mkdtemp " + pattern + " failed");
  }
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

// ----------------------------------------------------------------- Daemon

Daemon::Daemon(std::string name, const std::vector<std::string>& argv,
               std::string log_path)
    : name_(std::move(name)), log_path_(std::move(log_path)) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log_path_.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + name_ + " (" + argv[0] +
                             "): " + std::strerror(rc));
  }
}

Daemon::~Daemon() {
  if (pid_ < 0) return;
  int status = 0;
  ::kill(pid_, SIGTERM);
  if (!reap(pid_, 20.0, status)) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
}

std::string Daemon::wait_ready(const std::string& ready_file,
                               double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    check_interrupted();
    std::ifstream in(ready_file);
    std::string line;
    // The daemon writes "<endpoint>\n"; a line without its newline may
    // still be in flight.
    if (in && std::getline(in, line) && !in.eof()) return line;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error(name_ + " exited before becoming ready:\n" +
                               log_tail());
    }
    if (Clock::now() >= deadline) {
      throw std::runtime_error(name_ + " not ready after " +
                               std::to_string(timeout_s) + " s:\n" +
                               log_tail());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Daemon::stop() {
  if (pid_ < 0) return;
  const pid_t pid = pid_;
  pid_ = -1;
  int status = 0;
  ::kill(pid, SIGTERM);
  if (!reap(pid, 20.0, status)) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    throw std::runtime_error(name_ + " did not drain within 20 s:\n" +
                             log_tail());
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(name_ + " did not exit 0 on SIGTERM (status " +
                             std::to_string(status) + "):\n" + log_tail());
  }
}

long Daemon::proc_status(const std::string& key) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  throw std::runtime_error("no " + key + " in /proc status of " + name_);
}

double Daemon::peak_rss_mb() const { return proc_status("VmHWM") / 1024.0; }

long Daemon::threads() const { return proc_status("Threads"); }

std::string Daemon::log_tail() const {
  std::ifstream in(log_path_);
  std::deque<std::string> tail;
  std::string line;
  while (std::getline(in, line)) {
    tail.push_back(line);
    if (tail.size() > 20) tail.pop_front();
  }
  std::ostringstream out;
  for (const auto& l : tail) out << "  | " << l << "\n";
  return out.str();
}

}  // namespace gsbench
