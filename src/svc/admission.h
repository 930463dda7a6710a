// gs::svc admission — the one request queue of the serving tier, and the
// Handler interface an rpc::Server serves. svc::Service (gsserved) and
// shard::Router (gsrouter) each implement Handler over one Admission and
// keep only what differs: the Service its fault hook, accounting,
// deadlines and execute; the Router its RouterStats and route.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "config/json.h"
#include "svc/query.h"

namespace gs::svc {

/// Completion callback of an admitted request: runs exactly once with
/// its Response.
using Done = std::function<void(Response)>;

/// What an rpc::Server serves: anything that answers Requests through a
/// callback and describes itself for the stats RPC. svc::Service is one;
/// the gs::shard scatter-gather Router is another — the wire protocol
/// cannot tell them apart, which is the point: clients speak to a router
/// exactly as to a single daemon.
class Handler {
 public:
  using Done = svc::Done;

  virtual ~Handler() = default;

  /// Admits `request`; `done` then runs exactly once with its Response,
  /// on any thread — inline before submit() returns for a rejection
  /// (busy, shutting down). Never blocks. If submit() throws (an injected
  /// fault::Kill), `done` never runs.
  virtual void submit(Request request, Done done) = 0;

  /// The handler's half of the stats RPC JSON. Must contain a "dataset"
  /// member (remote tools identify the served dataset through it).
  virtual json::Value stats_json() const = 0;

  /// Requests admitted but not yet executing. Surfaced as the rpc
  /// ServerStats "queue_depth" load signal; 0 when the handler has no
  /// queue of its own.
  virtual std::size_t queue_depth() const { return 0; }

  /// submit() through a future, for in-process callers.
  std::future<Response> submit(Request request);

  /// submit() + wait.
  Response call(Request request);
};

/// An admitted request, stamped with its id and submit time.
struct Job {
  Request request;
  Done done;
  std::chrono::steady_clock::time_point submitted_at;
};

/// A bounded FIFO of Jobs served by a fixed set of worker threads.
class Admission {
 public:
  /// Serves one dequeued Job on a worker; answers it through job.done.
  using Serve = std::function<void(Job)>;
  /// Books a request refused inline, before its Done runs.
  using Refused = std::function<void(const Request&, StatusCode)>;

  /// Starts `workers` threads; each runs its gs::par regions inline
  /// (par::ThreadPool::run_inline_on_this_thread) and serves Jobs in
  /// admission order. `capacity` bounds the queue (0 = unbounded).
  Admission(std::size_t workers, std::size_t capacity,
            std::string busy_message, std::string shutdown_message,
            Serve serve, Refused refused);
  ~Admission();  ///< shutdown()

  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

  /// Stamps `request` with the next id and the submit time and queues it;
  /// or refuses it inline, never blocking: with a non-ok `refusal`, with
  /// server_busy when the queue holds `capacity` jobs, or shutting_down
  /// once shutdown() began. A refusal carries its latency_seconds.
  void submit(Request request, Done done, Status refusal = {});

  /// Stops admission, lets the workers drain every queued job, joins
  /// them. Idempotent; concurrent calls are serialized.
  void shutdown();

  std::size_t depth() const;      ///< queued jobs right now
  std::size_t max_depth() const;  ///< high-water mark of depth()

 private:
  void worker_main();

  const std::size_t capacity_;
  const std::string busy_message_;
  const std::string shutdown_message_;
  const Serve serve_;
  const Refused refused_;
  std::atomic<std::uint64_t> next_id_{1};

  mutable std::mutex mu_;  ///< guards the queue, stopping_ and max_depth_
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::size_t max_depth_ = 0;

  std::mutex shutdown_mu_;  ///< serializes concurrent shutdown() calls
  std::vector<std::thread> workers_;
};

}  // namespace gs::svc
