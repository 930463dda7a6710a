#include "rpc/channel.h"

#include <exception>
#include <optional>
#include <utility>

#include "fault/fault.h"

namespace gs::rpc {

namespace {
using SteadyClock = std::chrono::steady_clock;
/// The reader's poll slice; poison() and the destructor wake it at once.
constexpr std::int64_t kReaderPollMs = 1000;
}  // namespace

Channel::Channel(Endpoint endpoint, ClientConfig config)
    : endpoint_(std::move(endpoint)), config_(std::move(config)) {}

Channel::~Channel() {
  sock_.shutdown();
  if (reader_.joinable()) reader_.join();
}

void Channel::connect() {
  // A dead connection's socket is already shut down, so its reader has
  // exited or is about to.
  if (reader_.joinable()) reader_.join();
  sock_ = dial(endpoint_, config_.connect_timeout_ms);
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead_ = false;
    ++connects_;
  }
  reader_ = std::thread([this] { read_loop(); });
}

void Channel::poison(const std::string& why) {
  std::unordered_map<std::uint64_t, std::promise<Reply>> failed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead_ = true;
    failed.swap(pending_);
  }
  sock_.shutdown();  // a writer mid-frame fails, the reader wakes to EOF
  for (auto& [id, promise] : failed) {
    promise.set_exception(std::make_exception_ptr(
        IoError("rpc connection lost: " + why)));
  }
}

void Channel::read_loop() {
  try {
    for (;;) {
      if (!sock_.wait_readable(kReaderPollMs)) continue;
      std::optional<Frame> frame = recv_frame(sock_, config_.io_timeout_ms);
      if (!frame) {
        poison("closed by the server");
        return;
      }
      std::promise<Reply> promise;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = pending_.find(frame->id);
        if (it == pending_.end()) continue;  // its caller timed out
        promise = std::move(it->second);
        pending_.erase(it);
      }
      promise.set_value(Reply{std::move(*frame), SteadyClock::now()});
    }
  } catch (const std::exception& e) {
    // Torn frame, CRC mismatch, or an injected kill: the stream is lost.
    poison(e.what());
  }
}

Channel::Call Channel::start(FrameType type, std::vector<std::byte> payload) {
  Call call;
  std::promise<Reply> promise;
  call.reply = promise.get_future();
  std::lock_guard<std::mutex> write_lock(write_mu_);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (dead_) {
      lock.unlock();  // the exiting reader may still need mu_
      connect();
      lock.lock();
    }
    call.id = next_id_++;
    call.sent = SteadyClock::now();
    if (dead_) {  // the new connection died already
      promise.set_exception(
          std::make_exception_ptr(IoError("rpc connection lost on connect")));
      return call;
    }
    pending_.emplace(call.id, std::move(promise));
  }
  Frame frame;
  frame.type = type;
  frame.id = call.id;
  frame.payload = std::move(payload);
  try {
    send_frame(sock_, frame, config_.io_timeout_ms);
  } catch (const IoError& e) {
    poison(e.what());  // a torn frame leaves the stream unusable
  }
  return call;
}

Frame Channel::wait(Call& call) {
  if (config_.call_timeout_ms > 0 &&
      call.reply.wait_until(call.sent + std::chrono::milliseconds(
                                            config_.call_timeout_ms)) ==
          std::future_status::timeout) {
    std::lock_guard<std::mutex> lock(mu_);
    // Still pending: abandon the id. Otherwise the reply (or the
    // connection's failure) landed just now and get() returns it.
    if (pending_.erase(call.id) == 1) {
      GS_THROW(IoError, "rpc call timed out after " << config_.call_timeout_ms
                                                    << " ms");
    }
  }
  Reply reply = call.reply.get();
  call.seconds =
      std::chrono::duration<double>(reply.received - call.sent).count();
  if (reply.frame.type == FrameType::error_reply) {
    GS_THROW(IoError, "server error: " << decode_text(reply.frame.payload));
  }
  return std::move(reply.frame);
}

Frame Channel::transact(FrameType type,
                        const std::vector<std::byte>& payload) {
  std::optional<Frame> out;
  fault::RetryPolicy policy;
  policy.attempts = config_.retries;
  policy.backoff_seconds = config_.backoff_ms / 1000.0;
  fault::with_retries(policy, "rpc.channel", [&] {
    Call call = start(type, payload);
    out = wait(call);
  });
  return std::move(*out);
}

svc::Response Channel::call(const svc::Request& request) {
  const Frame reply = transact(FrameType::request, encode_request(request));
  svc::Response response = decode_response(reply.payload);
  response.id = reply.id;
  return response;
}

json::Value Channel::server_stats() {
  return json::parse(decode_text(transact(FrameType::stats, {}).payload));
}

void Channel::ping() { transact(FrameType::ping, {}); }

Channel::Stats Channel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{connects_, pending_.size()};
}

}  // namespace gs::rpc
