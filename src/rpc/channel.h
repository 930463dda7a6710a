// gs::rpc channel — the one client request path: one multiplexed
// connection to one endpoint, shared by every thread that calls through
// it (the router holds one per shard; rpc::Client is a typed facade over
// one). start() registers a promise under a fresh request id and sends
// the frame; one reader thread completes the promises by id as replies
// arrive, since rpc::Server answers pipelined requests out of order. A
// call accepts one reply type (a response for a request, a pong for a
// ping, ...); an error_reply or any other type fails it with gs::IoError.
//
// The reader routes stream_step/stream_end frames to a stream queue that
// next_step() pops, so queries and a live subscription share the
// connection. next_step() returns a step's credit when the consumer
// takes it, not when the reader receives it, so the server's credit
// window bounds the queue and its drop-not-stall policy sees the
// consumer's pace.
//
// A torn send, a torn or CRC-bad read, EOF, or an id-0 error_reply (the
// server refusing the connection at max_connections) poisons the
// connection: pending calls fail with gs::IoError carrying the cause, a
// subscription ends ("connection closed"), and the next start() redials
// — never resubscribing. A caller waits at most call_timeout_ms, then
// abandons only its own id; a later reply is dropped (ids never repeat).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bp/stream.h"
#include "config/json.h"
#include "rpc/socket.h"
#include "rpc/wire.h"
#include "svc/query.h"

namespace gs::rpc {

struct ClientConfig {
  std::int64_t connect_timeout_ms = 5000;
  /// Per-frame read/write deadline, ms.
  std::int64_t io_timeout_ms = 5000;
  /// Overall wait for one response frame (covers service queue + exec);
  /// <= 0 waits forever.
  std::int64_t call_timeout_ms = 30000;
  /// Total attempts for one call (1 = no retry), reconnecting between
  /// attempts.
  int retries = 3;
  double backoff_ms = 1.0;
  /// svc::Request::timeout_seconds attached to every typed call
  /// (0 = none) — the server enforces it in its admission queue.
  double default_timeout_seconds = 0.0;
  /// svc::Request::tenant attached to every typed call ("" = untagged);
  /// the server's per-tenant metrics are keyed by it.
  std::string tenant;
};

class Channel {
 public:
  /// A reply frame and the time the reader took it off the wire, or why
  /// the connection died under the call. A reason, not an exception
  /// object: the caller's thread builds its own IoError.
  struct Reply {
    Frame frame;
    std::chrono::steady_clock::time_point received;
    std::string lost;
  };

  struct Call {
    std::uint64_t id = 0;
    FrameType want = FrameType::response;  ///< the reply type accepted
    std::chrono::steady_clock::time_point sent;
    std::future<Reply> reply;
    double seconds = 0.0;  ///< send to receipt; set by wait()
  };

  struct Stats {
    std::uint64_t connects = 0;  ///< successful dials
    std::size_t in_flight = 0;   ///< calls awaiting a reply
  };

  /// Dials nothing yet: the first start() connects.
  Channel(Endpoint endpoint, ClientConfig config);
  /// disconnect()s.
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Sends `payload` as a `type` frame (request, stats, ping, reload_map
  /// or subscribe) under the next request id, dialing first when the
  /// connection is absent or dead (throws gs::IoError when the dial
  /// fails). A failed send poisons the connection; the call then fails
  /// in wait().
  Call start(FrameType type, std::vector<std::byte> payload);
  /// The reply to `call`, awaited at most call_timeout_ms after the send.
  /// Throws gs::IoError on timeout, on an error_reply or a reply of
  /// another type than the call's, or when the connection died under
  /// the call.
  Frame wait(Call& call);

  // start() + wait() inside fault::with_retries (ClientConfig::retries
  // attempts); a dead connection is redialed by the next attempt.

  /// The response carries its frame id.
  svc::Response call(const svc::Request& request);
  json::Value server_stats();
  /// The JSON reload report; a refusal throws gs::IoError with the
  /// server's reason.
  json::Value reload_map(const std::string& token);
  void ping();
  /// Subscribes this connection to the server's live stream with an
  /// initial credit window; calls may go on meanwhile.
  void subscribe(std::uint64_t credits = 4);

  /// Next live step, in server order; one consumer thread drives it.
  /// Returns nullopt at end-of-stream or when the connection died (see
  /// stream_end()). Throws gs::IoError if `timeout_ms` (> 0) elapses
  /// without a step.
  std::optional<bp::StreamStep> next_step(std::int64_t timeout_ms = -1);
  /// Valid after next_step() returned nullopt.
  const StreamEnd& stream_end() const { return end_; }
  /// Steps provably missed (sequence-number gaps observed).
  std::uint64_t gaps_detected() const { return gaps_; }

  /// Closes the connection now, failing whatever is pending and ending
  /// a subscription; the next start() redials.
  void disconnect();

  Stats stats() const;

 private:
  Frame transact(FrameType type, const std::vector<std::byte>& payload);
  /// Replaces the dead connection: joins its reader, dials, starts a new
  /// reader. Caller holds write_mu_.
  void connect();
  void read_loop();
  /// Marks the connection dead, fails every pending call and ends the
  /// stream; the first cause is kept for calls that find it dead.
  void poison(const std::string& why);

  const Endpoint endpoint_;
  const ClientConfig config_;

  std::mutex write_mu_;  ///< guards the two members below and every send
  Socket sock_;
  std::uint64_t next_id_ = 1;

  mutable std::mutex mu_;  ///< guards the members down to stream_lost_
  bool dead_ = true;       ///< no usable connection: start() dials
  std::string lost_;       ///< why the connection died
  std::unordered_map<std::uint64_t, std::promise<Reply>> pending_;
  std::uint64_t connects_ = 0;
  std::deque<Frame> stream_;  ///< stream_step/stream_end, not yet consumed
  bool stream_lost_ = false;  ///< the subscription's connection died
  std::condition_variable stream_cv_;

  // The consumer's view of the subscription (next_step()'s thread only).
  bool subscribed_ = false;
  bool ended_ = false;
  std::int64_t expected_seq_ = -1;
  std::uint64_t gaps_ = 0;
  StreamEnd end_;

  std::thread reader_;  ///< declared last: it uses every member above
};

}  // namespace gs::rpc
