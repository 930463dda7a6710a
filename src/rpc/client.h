// gs::rpc client — the remote twin of svc::Client: one typed method per
// verb returning the same svc::Expected<R>, plus the stats RPC and the
// live-stream subscription. Transport failures (connect refused, torn
// frame, CRC mismatch, mid-reply disconnect) are absorbed by
// fault::with_retries with reconnect-between-attempts — queries are
// idempotent reads, so a retried request can never double-apply. What a
// retry cannot heal surfaces as gs::IoError; service-level refusals
// (ServerBusy, DeadlineExceeded, BadRequest) arrive as ordinary non-ok
// Status values exactly as in-process callers see them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

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

/// The typed queries (list_variables, field_stats, ...) are svc::Client's,
/// from svc::TypedVerbs.
class Client : public svc::TypedVerbs<Client> {
 public:
  explicit Client(Endpoint endpoint, ClientConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Raw round-trip for a pre-built request (retries + reconnect).
  /// The returned Response carries this call's frame id.
  svc::Response call(svc::Request request);

  /// The raw Response of the last successful call (timings, counters).
  const svc::Response& last_response() const { return last_; }

  /// The server's stats RPC: transport + service metrics as JSON.
  json::Value server_stats();

  /// The authenticated reload_map admin RPC: asks the server to re-read
  /// its shard map file and adopt the new epoch now, returning the JSON
  /// reload report. A refusal (bad token, verb disabled, map rejected)
  /// surfaces as gs::IoError carrying the server's reason.
  json::Value reload_map(const std::string& token);

  /// Liveness round-trip.
  void ping();

  // ---- live subscription -------------------------------------------------

  /// Subscribes this connection to the server's live stream with an
  /// initial credit window. After this, drive next_step(); issuing
  /// queries interleaved with a subscription is not supported.
  void subscribe(std::uint64_t credits = 4);

  /// Next live step, in server order. Returns nullopt at end-of-stream
  /// (see stream_end() for the server's drop count and reason). Throws
  /// gs::IoError if `timeout_ms` (> 0) elapses without a frame.
  /// Replenishes one credit per received step.
  std::optional<bp::StreamStep> next_step(std::int64_t timeout_ms = -1);

  /// Valid after next_step() returned nullopt.
  const StreamEnd& stream_end() const { return end_; }

  /// Steps this client provably missed (sequence-number gaps observed).
  std::uint64_t gaps_detected() const { return gaps_; }

  bool connected() const { return sock_.valid(); }
  void disconnect();

 private:
  friend class svc::TypedVerbs<Client>;
  /// call() with the configured timeout and tenant.
  svc::Response& exchange(svc::QueryBody body);

  void ensure_connected();
  /// One send + await on the current connection; throws IoError on any
  /// transport problem (caller retries after reconnect).
  Frame transact(FrameType type, std::vector<std::byte> payload,
                 FrameType want);
  Frame await(std::uint64_t id, FrameType want);

  Endpoint endpoint_;
  ClientConfig config_;
  Socket sock_;
  std::uint64_t next_id_ = 1;
  svc::Response last_;

  bool subscribed_ = false;
  bool ended_ = false;
  std::int64_t expected_seq_ = -1;
  std::uint64_t gaps_ = 0;
  StreamEnd end_;
};

}  // namespace gs::rpc
