#include "rpc/channel.h"

#include <exception>
#include <utility>

#include "fault/fault.h"

namespace gs::rpc {

namespace {
using SteadyClock = std::chrono::steady_clock;
/// The reader's poll slice; poison() and the destructor wake it at once.
constexpr std::int64_t kReaderPollMs = 1000;

/// The one reply type a call of `type` accepts.
FrameType reply_type(FrameType type) {
  switch (type) {
    case FrameType::request: return FrameType::response;
    case FrameType::stats: return FrameType::stats_reply;
    case FrameType::ping: return FrameType::pong;
    case FrameType::reload_map: return FrameType::reload_reply;
    case FrameType::subscribe: return FrameType::sub_ok;
    default:
      GS_THROW(Error, to_string(type) << " frames expect no reply");
  }
}
}  // namespace

Channel::Channel(Endpoint endpoint, ClientConfig config)
    : endpoint_(std::move(endpoint)), config_(std::move(config)) {}

Channel::~Channel() { disconnect(); }

void Channel::disconnect() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  poison("disconnected by the client");
  if (reader_.joinable()) reader_.join();
  sock_.close();
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
    if (!dead_) lost_ = why;
    dead_ = true;
    stream_lost_ = true;
    failed.swap(pending_);
  }
  stream_cv_.notify_all();
  sock_.shutdown();  // a writer mid-frame fails, the reader wakes to EOF
  for (auto& [id, promise] : failed) {
    promise.set_value(
        Reply{{}, SteadyClock::now(), "rpc connection lost: " + why});
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
      if (frame->type == FrameType::stream_step ||
          frame->type == FrameType::stream_end) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          stream_.push_back(std::move(*frame));
        }
        stream_cv_.notify_all();
        continue;
      }
      if (frame->id == 0 && frame->type == FrameType::error_reply) {
        // Answers no call: the server refused the connection itself.
        poison("server error: " + decode_text(frame->payload));
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
      promise.set_value(Reply{std::move(*frame), SteadyClock::now(), {}});
    }
  } catch (const std::exception& e) {
    // Torn frame, CRC mismatch, or an injected kill: the stream is lost.
    poison(e.what());
  }
}

Channel::Call Channel::start(FrameType type, std::vector<std::byte> payload) {
  Call call;
  call.want = reply_type(type);
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
      promise.set_value(Reply{{}, call.sent, "rpc connection lost: " + lost_});
      return call;
    }
    if (type == FrameType::subscribe) {
      // A subscription lives on this connection only; nothing of an
      // earlier one carries over.
      stream_.clear();
      stream_lost_ = false;
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
  if (!reply.lost.empty()) throw IoError(reply.lost);
  call.seconds =
      std::chrono::duration<double>(reply.received - call.sent).count();
  if (reply.frame.type == FrameType::error_reply) {
    GS_THROW(IoError, "server error: " << decode_text(reply.frame.payload));
  }
  if (reply.frame.type != call.want) {
    GS_THROW(IoError, "rpc reply type mismatch: expected a "
                          << to_string(call.want) << " frame, got a "
                          << to_string(reply.frame.type) << " frame");
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

json::Value Channel::reload_map(const std::string& token) {
  return json::parse(
      decode_text(transact(FrameType::reload_map, encode_text(token)).payload));
}

void Channel::ping() { transact(FrameType::ping, {}); }

void Channel::subscribe(std::uint64_t credits) {
  GS_REQUIRE(credits >= 1, "subscription needs at least one credit");
  transact(FrameType::subscribe, encode_u64(credits));
  subscribed_ = true;
  ended_ = false;
  expected_seq_ = -1;
  gaps_ = 0;
  end_ = StreamEnd{};
}

std::optional<bp::StreamStep> Channel::next_step(std::int64_t timeout_ms) {
  GS_REQUIRE(subscribed_, "next_step() without subscribe()");
  if (ended_) return std::nullopt;

  Frame frame;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [this] { return !stream_.empty() || stream_lost_; };
    if (timeout_ms <= 0) {
      stream_cv_.wait(lock, ready);
    } else if (!stream_cv_.wait_for(
                   lock, std::chrono::milliseconds(timeout_ms), ready)) {
      GS_THROW(IoError, "timed out after " << timeout_ms
                                           << " ms waiting for a live step");
    }
    if (stream_.empty()) {  // frames queued before the loss still count
      ended_ = true;
      end_.reason = "connection closed";
      return std::nullopt;
    }
    frame = std::move(stream_.front());
    stream_.pop_front();
  }
  if (frame.type == FrameType::stream_end) {
    end_ = decode_stream_end(frame.payload);
    ended_ = true;
    return std::nullopt;
  }
  bp::StreamStep step = decode_stream_step(frame.payload);
  if (expected_seq_ >= 0 && step.sequence > expected_seq_) {
    gaps_ += static_cast<std::uint64_t>(step.sequence - expected_seq_);
  }
  expected_seq_ = step.sequence + 1;

  // The consumer holds the step: return its credit, on the subscription's
  // connection only.
  Frame credit;
  credit.type = FrameType::credit;
  credit.payload = encode_u64(1);
  std::lock_guard<std::mutex> write_lock(write_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stream_lost_) return step;
  }
  try {
    send_frame(sock_, credit, config_.io_timeout_ms);
  } catch (const IoError& e) {
    poison(e.what());
  }
  return step;
}

Channel::Stats Channel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{connects_, pending_.size()};
}

}  // namespace gs::rpc
