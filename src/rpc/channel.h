// gs::rpc channel — one multiplexed connection to one endpoint, shared
// by every thread that calls through it. Frames carry a request id and
// rpc::Server answers pipelined requests out of order, so start()
// registers a promise under a fresh id and sends the frame, and one
// reader thread completes the promises by id as replies arrive: any
// number of calls are in flight at once with no thread per call.
//
// A torn send, a torn or CRC-bad read, or EOF poisons the connection:
// every call pending on it completes with gs::IoError, and the next
// start() joins the dead reader and redials. A caller waits at most
// ClientConfig::call_timeout_ms, then abandons only its own id; a reply
// arriving later finds no caller and is dropped (ids are never reused).
// An error_reply completes its call with gs::IoError.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "config/json.h"
#include "rpc/client.h"
#include "rpc/socket.h"
#include "rpc/wire.h"
#include "svc/query.h"

namespace gs::rpc {

class Channel {
 public:
  /// A reply frame and the time the reader took it off the wire.
  struct Reply {
    Frame frame;
    std::chrono::steady_clock::time_point received;
  };

  struct Call {
    std::uint64_t id = 0;
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
  /// Closes the connection (failing whatever is pending) and joins the
  /// reader.
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Sends `payload` as a `type` frame under the next request id,
  /// dialing first when the connection is absent or dead (throws
  /// gs::IoError when the dial fails). A failed send poisons the
  /// connection; the call then fails in wait().
  Call start(FrameType type, std::vector<std::byte> payload);
  /// The reply to `call`, awaited at most call_timeout_ms after the send.
  /// Throws gs::IoError on timeout, on an error_reply, or when the
  /// connection died under the call.
  Frame wait(Call& call);

  /// start() + wait() inside fault::with_retries (ClientConfig::retries
  /// attempts); a dead connection is redialed by the next attempt.
  svc::Response call(const svc::Request& request);
  json::Value server_stats();
  void ping();

  Stats stats() const;

 private:
  Frame transact(FrameType type, const std::vector<std::byte>& payload);
  /// Replaces the dead connection: joins its reader, dials, starts a new
  /// reader. Caller holds write_mu_.
  void connect();
  void read_loop();
  /// Marks the connection dead and fails every pending call.
  void poison(const std::string& why);

  const Endpoint endpoint_;
  const ClientConfig config_;

  std::mutex write_mu_;  ///< guards the two members below and every send
  Socket sock_;
  std::uint64_t next_id_ = 1;

  mutable std::mutex mu_;  ///< guards the three members below
  bool dead_ = true;       ///< no usable connection: start() dials
  std::unordered_map<std::uint64_t, std::promise<Reply>> pending_;
  std::uint64_t connects_ = 0;

  std::thread reader_;  ///< declared last: it uses every member above
};

}  // namespace gs::rpc
