// Process hygiene for gsbench: a private scratch directory, the daemons it
// spawns, and the interrupt flag every loop polls. Each resource is owned
// by an object whose destructor releases it, so every exit path — normal
// return, exception, SIGINT/SIGTERM to gsbench — stops the daemons, waits
// for them, and removes the scratch directory.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace gsbench {

/// Thrown by interrupted() once SIGINT/SIGTERM arrived.
struct Interrupted {};

/// Installs SIGINT/SIGTERM handlers that only set a flag.
void install_signal_handlers();
/// Throws Interrupted if a signal arrived; loops call it between steps.
void check_interrupted();
bool interrupted();

/// A mkdtemp directory under $TMPDIR (or /tmp), removed recursively on
/// destruction.
class TempDir {
 public:
  TempDir();
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string operator/(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// One gsserved/gsrouter child. Spawned with posix_spawn, stdout and
/// stderr to `log_path`; stop() sends SIGTERM and reaps it. The
/// destructor stops a daemon nobody stopped (exception paths).
class Daemon {
 public:
  Daemon(std::string name, const std::vector<std::string>& argv,
         std::string log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits until the daemon wrote its --ready-file line and returns the
  /// endpoint in it. Throws (with the log tail) if the daemon exits first
  /// or `timeout_s` passes.
  std::string wait_ready(const std::string& ready_file,
                         double timeout_s = 30.0);

  /// SIGTERM + waitpid. Throws (with the log tail) unless the daemon
  /// exited with status 0: graceful drain is part of its contract.
  void stop();

  /// VmHWM (peak resident set) in MB, from /proc.
  double peak_rss_mb() const;
  /// Threads: from /proc.
  long threads() const;

 private:
  /// Field `key` of /proc/<pid>/status as a number.
  long proc_status(const std::string& key) const;
  std::string log_tail() const;

  std::string name_;
  std::string log_path_;
  pid_t pid_ = -1;
};

}  // namespace gsbench
