// Signal handling shared by the serving daemons (gsserved, gsrouter):
// SIGINT, SIGTERM and SIGHUP are blocked before the first thread starts,
// so every thread inherits the mask, and the main thread takes them in
// sigwait the moment they arrive, with no polling tick.
#pragma once

#include <pthread.h>
#include <signal.h>

#include <functional>

namespace gs::cli {

/// Blocks SIGINT, SIGTERM and SIGHUP in the calling thread and every
/// thread it starts afterwards; call before the daemon's first thread.
inline sigset_t block_daemon_signals() {
  sigset_t set;
  sigemptyset(&set);
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) sigaddset(&set, sig);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  return set;
}

/// Takes the blocked signals one at a time: each SIGHUP runs `on_hup`;
/// SIGINT or SIGTERM returns, and the daemon drains.
inline void wait_for_stop(const sigset_t& set,
                          const std::function<void()>& on_hup) {
  for (int sig = 0; sigwait(&set, &sig) != 0 || sig == SIGHUP; sig = 0) {
    if (sig == SIGHUP) on_hup();
  }
}

}  // namespace gs::cli
