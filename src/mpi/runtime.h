// The simmpi runtime: a Universe of rank threads sharing one process.
//
// gs::mpi::run(n, fn) is the mpiexec of this substrate — it spawns n
// threads, hands each a world communicator handle, joins them, and
// propagates the first exception (aborting the others' blocking calls so
// a failing rank cannot hang the job).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "mpi/comm.h"
#include "mpi/message.h"

namespace gs::mpi {

/// Shared state of one simulated MPI job.
class Universe {
 public:
  explicit Universe(int world_size);

  int world_size() const { return static_cast<int>(boxes_.size()); }
  Mailbox& mailbox(int world_rank);

  /// Allocates `count` consecutive fresh communicator ids.
  std::uint64_t allocate_comm_ids(std::uint64_t count);

  /// Aborts every blocking mailbox wait in the job.
  void abort_all();
  bool aborted() const { return aborted_.load(std::memory_order_relaxed); }

  /// World communicator handle for `rank`.
  Comm world_comm(int rank);

 private:
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::atomic<std::uint64_t> next_comm_id_{1};
  std::atomic<bool> aborted_{false};
};

/// Runs `fn(world)` on `nranks` threads. Rethrows the first rank failure
/// after all threads have stopped. The thread running rank 0 is the calling
/// thread when `nranks == 1` (fast path used heavily by tests). When
/// `nranks > 1` and there are at least as many ranks as par::global_pool()
/// lanes, every rank thread is one lane: its gs::par regions run inline on
/// it (par::ThreadPool::run_inline_on_this_thread).
void run(int nranks, const std::function<void(Comm&)>& fn);

}  // namespace gs::mpi
