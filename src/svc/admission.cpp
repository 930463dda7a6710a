#include "svc/admission.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/error.h"
#include "par/pool.h"

namespace gs::svc {

std::future<Response> Handler::submit(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submit(std::move(request),
         [promise](Response r) { promise->set_value(std::move(r)); });
  return future;
}

Response Handler::call(Request request) {
  return submit(std::move(request)).get();
}

Admission::Admission(std::size_t workers, std::size_t capacity,
                     std::string busy_message, std::string shutdown_message,
                     Serve serve, Refused refused)
    : capacity_(capacity),
      busy_message_(std::move(busy_message)),
      shutdown_message_(std::move(shutdown_message)),
      serve_(std::move(serve)),
      refused_(std::move(refused)) {
  GS_REQUIRE(workers >= 1, "admission needs at least one worker");
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

Admission::~Admission() { shutdown(); }

void Admission::submit(Request request, Done done, Status refusal) {
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Job job{std::move(request), std::move(done),
          std::chrono::steady_clock::now()};
  if (refusal.ok()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        refusal = {StatusCode::shutting_down, shutdown_message_};
      } else if (capacity_ > 0 && queue_.size() >= capacity_) {
        refusal = {StatusCode::server_busy, busy_message_};
      } else {
        queue_.push_back(std::move(job));
        max_depth_ = std::max(max_depth_, queue_.size());
      }
    }
    if (refusal.ok()) {
      cv_.notify_one();
      return;
    }
  }
  // Refused inline: the caller always gets an answer, backpressure
  // instead of blocking.
  refused_(job.request, refusal.code);
  Response response;
  response.id = job.request.id;
  response.verb = verb_of(job.request.body);
  response.status = std::move(refusal);
  response.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    job.submitted_at)
          .count();
  job.done(std::move(response));
}

void Admission::shutdown() {
  const std::lock_guard<std::mutex> slock(shutdown_mu_);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

std::size_t Admission::depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t Admission::max_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return max_depth_;
}

void Admission::worker_main() {
  par::ThreadPool::run_inline_on_this_thread();
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and fully drained
    Job job = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    serve_(std::move(job));
  }
}

}  // namespace gs::svc
