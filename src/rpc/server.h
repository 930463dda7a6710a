// gs::rpc server — the transport in front of a svc::Handler: an acceptor
// thread plus one owner thread per connection, speaking the wire protocol
// of rpc/wire.h. Execution stays inside the Handler's admission queue; the
// rpc layer adds connection-level admission (max_connections), framed
// request-id multiplexing (a client may pipeline requests and responses
// return as they complete), an optional live bp::Stream subscription
// fan-out with a per-connection credit window, and graceful drain on
// shutdown (in-flight responses are delivered before sockets close).
//
// Only a connection's owner thread reads, writes or closes its socket.
// A request's svc::Handler::Done and the live-stream bridge post encoded
// frames to the connection's outbox and signal its Wakeup; the owner
// blocks in one poll() on both, so a reply leaves as soon as it is
// posted, and a client that stops reading stalls only its connection.
// The acceptor blocks the same way on the listener and its own Wakeup.
//
// Slow-consumer policy (documented contract): a subscribed connection
// with zero credits DROPS steps rather than stalling the producer — the
// simulation never waits for a lagging dashboard. Dropped steps are
// counted per connection, visible as sequence-number gaps, and reported
// in the final stream_end frame.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bp/stream.h"
#include "common/stats.h"
#include "config/json.h"
#include "config/settings.h"
#include "prof/profiler.h"
#include "rpc/socket.h"
#include "rpc/wire.h"
#include "svc/admission.h"

namespace gs::rpc {

struct ServerConfig {
  /// Address to bind: "host:port" (port 0 = ephemeral) or "unix:/path".
  std::string listen = "127.0.0.1:0";
  std::int64_t backlog = 64;
  /// Connections admitted concurrently; the acceptor answers further
  /// dials with an error_reply frame and closes (counted, never hung).
  std::int64_t max_connections = 64;
  /// Per-frame read/write deadline, ms (Settings::rpc_io_timeout_ms).
  std::int64_t io_timeout_ms = 5000;
  /// Shared trace sink; may be null (Profiler::record is thread-safe).
  prof::Profiler* profiler = nullptr;
  /// Shared secret for the reload_map admin RPC. Empty (the default)
  /// disables the verb entirely — remote epoch bumps are opt-in.
  std::string admin_token;
  /// Runs on a correctly-authenticated reload_map frame (on the
  /// connection's thread): re-reads the shard map and adopts it,
  /// returning the JSON reload report. A throw becomes an error_reply —
  /// the old epoch keeps serving. Typically MapWatcher::reload_now.
  std::function<json::Value()> reload_hook;
};

/// Lifts the rpc_* knobs (already env-overridden by Settings) into a
/// server config listening on 127.0.0.1:<rpc_port>.
ServerConfig config_from_settings(const Settings& settings);

/// Point-in-time transport counters (cumulative since start).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_capacity = 0;  ///< dials refused at max_connections
  std::uint64_t active = 0;             ///< connections open right now
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t requests = 0;   ///< query frames decoded and submitted
  std::uint64_t responses = 0;  ///< response frames delivered
  std::uint64_t bad_frames = 0; ///< undecodable payloads (error_reply sent)
  std::uint64_t crc_errors = 0; ///< torn/corrupt frames detected
  std::uint64_t io_errors = 0;  ///< connections dropped on transport error
  std::uint64_t killed_connections = 0;  ///< fault::Kill at an rpc site
  std::uint64_t subscribers = 0;         ///< live-stream subscriptions made
  std::uint64_t steps_streamed = 0;      ///< step fan-out deliveries
  std::uint64_t steps_dropped = 0;       ///< slow-consumer drops
  std::uint64_t reloads = 0;             ///< reload_map RPCs that applied
  std::uint64_t reloads_refused = 0;     ///< bad token / disabled / rejected
  // Load signals (append-only: version-1 stats consumers that ignore
  // unknown members keep working). These are the gs::ctrl controller's
  // primary input — instantaneous pressure, not lifetime counters.
  std::uint64_t queue_depth = 0;  ///< handler admission queue, right now
  std::uint64_t inflight = 0;     ///< requests admitted, response not sent
  double rate_rps = 0.0;          ///< decayed requests/sec (DecayedRate)
  /// Server-side request latency (decode -> response frame on the wire).
  LatencySummary latency;

  json::Value to_json() const;
  std::string report() const;  ///< human-readable table
};

/// Writes `latency` as the flat latency_count/latency_p50/latency_p95/
/// latency_p99 keys (seconds) of the rpc stats and of gsrouter's
/// per-shard entries.
void put_latency(json::Object& obj, const LatencySummary& latency);

/// One serving endpoint over a svc::Handler. Starts the acceptor on
/// construction; destruction (or shutdown()) drains and joins.
class Server {
 public:
  /// Serves `handler` (a svc::Service, a shard::Router, ...), which must
  /// outlive the server. When `live_stream` is non-null a bridge thread
  /// consumes it and fans steps out to subscribed connections; the Server
  /// becomes the stream's single consumer (reads it to end-of-stream or
  /// abandons it at shutdown so blocked producers fail cleanly).
  explicit Server(svc::Handler& handler, ServerConfig config = {},
                  bp::Stream* live_stream = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound address with the kernel-resolved port.
  const Endpoint& endpoint() const { return endpoint_; }

  /// Ends the live bridge, stops accepting, drains in-flight requests
  /// (responses are still delivered), joins every thread. On return no
  /// svc::Handler::Done can still touch the Server. Idempotent.
  void shutdown();

  ServerStats stats() const;

  /// The stats RPC payload: transport counters + the handler's stats.
  json::Value stats_json() const;

 private:
  /// A request's verb and admission time: its rpc.<verb> span and
  /// latency sample end once the reply is on the wire.
  struct Admitted {
    svc::Verb verb;
    std::chrono::steady_clock::time_point t0;
  };
  /// A frame posted to a connection (stream frames are shared by every
  /// subscriber); `reply` is set for a request's response.
  struct Outgoing {
    std::shared_ptr<const Frame> frame;
    std::optional<Admitted> reply;
  };

  struct Conn {
    explicit Conn(Socket s) : sock(std::move(s)) {}
    Socket sock;  ///< read, written and closed by `thread` alone
    std::thread thread;
    Wakeup wake;
    std::mutex mu;  ///< guards outbox and outstanding
    std::deque<Outgoing> outbox;
    /// Requests submitted whose Done has not run yet; the owner exits
    /// only at 0, so no callback outlives the connection (or the Server).
    std::int64_t outstanding = 0;
    std::atomic<std::int64_t> credits{0};
    std::atomic<bool> subscribed{false};
    std::atomic<std::uint64_t> dropped_steps{0};
    std::atomic<bool> done{false};

    /// Appends `out` and wakes the owner; never blocks. A reply settles
    /// one outstanding request; after the wake (under `mu`) the poster no
    /// longer touches this Conn.
    void post(Outgoing out);
    bool idle() {  ///< nothing outstanding, nothing left to send
      std::lock_guard<std::mutex> lock(mu);
      return outstanding == 0 && outbox.empty();
    }
  };

  void acceptor_main();
  void conn_main(Conn& conn);
  void bridge_main();
  void handle_frame(Conn& conn, const Frame& frame);
  std::uint64_t active_connections() const;
  void send(Conn& conn, const Frame& frame);
  /// Sends everything posted to `conn`, in order, on its owner thread.
  void send_posted(Conn& conn);
  /// Every exit: closes the socket, waits until every outstanding Done
  /// has run, and drops what was posted but never sent.
  void close(Conn& conn);
  void record_reply(const Admitted& reply);
  void count(std::uint64_t ServerStats::*counter) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++(counters_.*counter);
  }

  svc::Handler* handler_;
  ServerConfig config_;
  bp::Stream* live_stream_;
  Listener listener_;
  Endpoint endpoint_;
  std::chrono::steady_clock::time_point epoch_;  ///< profiler time base

  std::atomic<bool> stopping_{false};
  /// Wakes the acceptor: shutdown() (to stop) and each connection that
  /// ends (to be reaped).
  Wakeup accept_wake_;
  std::thread acceptor_;
  std::thread bridge_;

  mutable std::mutex conns_mu_;
  std::list<std::shared_ptr<Conn>> conns_;

  std::mutex shutdown_mu_;  ///< serializes concurrent shutdown() calls
  bool shut_down_ = false;

  // Counters (stats_mu_ guards the non-atomic aggregates).
  mutable std::mutex stats_mu_;
  ServerStats counters_;
  LatencyHistogram latencies_;
  /// Requests admitted (decoded + submitted) whose response frame has
  /// not been sent yet, across all connections. Atomic: changed on each
  /// connection's owner thread, read by stats().
  std::atomic<std::uint64_t> inflight_{0};
  DecayedRate rate_{/*halflife_seconds=*/10.0};  ///< under stats_mu_
};

}  // namespace gs::rpc
