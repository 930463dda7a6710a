#include "mpi/runtime.h"

#include <exception>
#include <mutex>
#include <thread>

#include "common/log.h"
#include "par/pool.h"

namespace gs::mpi {

Universe::Universe(int world_size) {
  GS_REQUIRE(world_size > 0, "world size must be positive");
  boxes_.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

Mailbox& Universe::mailbox(int world_rank) {
  GS_REQUIRE(world_rank >= 0 && world_rank < world_size(),
             "world rank " << world_rank << " out of range");
  return *boxes_[static_cast<std::size_t>(world_rank)];
}

std::uint64_t Universe::allocate_comm_ids(std::uint64_t count) {
  return next_comm_id_.fetch_add(count, std::memory_order_relaxed);
}

void Universe::abort_all() {
  aborted_.store(true, std::memory_order_relaxed);
  for (auto& box : boxes_) box->abort();
}

Comm Universe::world_comm(int rank) {
  std::vector<int> members(static_cast<std::size_t>(world_size()));
  for (int r = 0; r < world_size(); ++r) {
    members[static_cast<std::size_t>(r)] = r;
  }
  // Communicator id 0 is reserved for the world communicator.
  return Comm(this, 0, rank, std::move(members));
}

void run(int nranks, const std::function<void(Comm&)>& fn) {
  Universe universe(nranks);

  if (nranks == 1) {
    Comm world = universe.world_comm(0);
    fn(world);
    return;
  }

  // With at least as many ranks as pool lanes, the ranks are the job's
  // parallel axis: each rank thread is one lane, and its gs::par regions
  // (kernel tiles, halo packing, BP compression) run inline on it rather
  // than taking turns on the shared pool behind the other ranks' regions.
  // Fixed tiling keeps every result bitwise identical either way.
  const bool rank_lanes =
      static_cast<std::size_t>(nranks) >= par::global_pool().lanes();

  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto body = [&](int rank) {
    if (rank_lanes) par::ThreadPool::run_inline_on_this_thread();
    try {
      Comm world = universe.world_comm(rank);
      fn(world);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      GS_WARN("rank " << rank << " failed; aborting job");
      universe.abort_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back(body, r);
  }
  for (auto& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace gs::mpi
