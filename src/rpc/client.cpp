#include "rpc/client.h"

#include <chrono>
#include <utility>

#include "fault/fault.h"

namespace gs::rpc {

namespace {
using SteadyClock = std::chrono::steady_clock;

/// Waits until `sock` is readable; false once `timeout_ms` (> 0) has
/// passed since `start`. timeout_ms <= 0 waits without a deadline.
bool readable_within(Socket& sock, SteadyClock::time_point start,
                     std::int64_t timeout_ms) {
  for (;;) {
    std::int64_t left = 60'000;
    if (timeout_ms > 0) {
      const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
          SteadyClock::now() - start);
      left = timeout_ms - waited.count();
      if (left <= 0) return false;
    }
    if (sock.wait_readable(left)) return true;
  }
}
}  // namespace

Client::Client(Endpoint endpoint, ClientConfig config)
    : endpoint_(std::move(endpoint)), config_(config) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  sock_.close();
  subscribed_ = false;
}

void Client::ensure_connected() {
  if (sock_.valid()) return;
  sock_ = dial(endpoint_, config_.connect_timeout_ms);
}

Frame Client::await(std::uint64_t id, FrameType want) {
  const auto start = SteadyClock::now();
  for (;;) {
    if (!readable_within(sock_, start, config_.call_timeout_ms)) {
      GS_THROW(IoError, "rpc call timed out after "
                        << config_.call_timeout_ms << " ms awaiting a "
                        << to_string(want) << " frame");
    }
    const auto frame = recv_frame(sock_, config_.io_timeout_ms);
    if (!frame) {
      GS_THROW(IoError, "connection closed while awaiting a "
                        << to_string(want) << " frame");
    }
    if (frame->type == FrameType::error_reply) {
      GS_THROW(IoError, "server error: " << decode_text(frame->payload));
    }
    if (frame->type == want && frame->id == id) return *frame;
    // Anything else is stale (a reply to an abandoned earlier attempt)
    // or an out-of-band push; drop it and keep waiting.
  }
}

Frame Client::transact(FrameType type, std::vector<std::byte> payload,
                       FrameType want) {
  std::optional<Frame> out;
  fault::RetryPolicy policy;
  policy.attempts = config_.retries;
  policy.backoff_seconds = config_.backoff_ms / 1000.0;
  fault::with_retries(policy, "rpc.client", [&] {
    try {
      ensure_connected();
      Frame frame;
      frame.type = type;
      frame.id = next_id_++;
      frame.payload = payload;
      send_frame(sock_, frame, config_.io_timeout_ms);
      out = await(frame.id, want);
    } catch (const IoError&) {
      disconnect();  // the next attempt reconnects from scratch
      throw;
    }
  });
  return std::move(*out);
}

svc::Response Client::call(svc::Request request) {
  const Frame reply = transact(FrameType::request,
                               encode_request(request), FrameType::response);
  svc::Response response = decode_response(reply.payload);
  response.id = reply.id;
  last_ = response;
  return response;
}

json::Value Client::server_stats() {
  const Frame reply =
      transact(FrameType::stats, {}, FrameType::stats_reply);
  return json::parse(decode_text(reply.payload));
}

json::Value Client::reload_map(const std::string& token) {
  const Frame reply = transact(FrameType::reload_map, encode_text(token),
                               FrameType::reload_reply);
  return json::parse(decode_text(reply.payload));
}

void Client::ping() { transact(FrameType::ping, {}, FrameType::pong); }

svc::Response& Client::exchange(svc::QueryBody body) {
  svc::Request request;
  request.body = std::move(body);
  request.timeout_seconds = config_.default_timeout_seconds;
  request.tenant = config_.tenant;
  call(std::move(request));
  return last_;
}

void Client::subscribe(std::uint64_t credits) {
  GS_REQUIRE(credits >= 1, "subscription needs at least one credit");
  transact(FrameType::subscribe, encode_u64(credits), FrameType::sub_ok);
  subscribed_ = true;
  ended_ = false;
  expected_seq_ = -1;
  gaps_ = 0;
  end_ = StreamEnd{};
}

std::optional<bp::StreamStep> Client::next_step(std::int64_t timeout_ms) {
  GS_REQUIRE(subscribed_, "next_step() without subscribe()");
  if (ended_) return std::nullopt;

  const auto start = SteadyClock::now();
  for (;;) {
    if (!readable_within(sock_, start, timeout_ms)) {
      GS_THROW(IoError, "timed out after " << timeout_ms
                        << " ms waiting for a live step");
    }
    const auto frame = recv_frame(sock_, config_.io_timeout_ms);
    if (!frame) {
      ended_ = true;
      end_.reason = "connection closed";
      return std::nullopt;
    }
    if (frame->type == FrameType::stream_step) {
      bp::StreamStep step = decode_stream_step(frame->payload);
      if (expected_seq_ >= 0 && step.sequence > expected_seq_) {
        gaps_ += static_cast<std::uint64_t>(step.sequence - expected_seq_);
      }
      expected_seq_ = step.sequence + 1;
      // Replenish the window: one credit per consumed step keeps the
      // server's view of our capacity accurate.
      Frame credit;
      credit.type = FrameType::credit;
      credit.payload = encode_u64(1);
      send_frame(sock_, credit, config_.io_timeout_ms);
      return step;
    }
    if (frame->type == FrameType::stream_end) {
      end_ = decode_stream_end(frame->payload);
      ended_ = true;
      return std::nullopt;
    }
    // Stale query replies etc.: ignore.
  }
}

}  // namespace gs::rpc
