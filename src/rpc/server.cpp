#include "rpc/server.h"

#include <limits>
#include <sstream>
#include <utility>

#include "common/log.h"
#include "fault/fault.h"

namespace gs::rpc {

namespace {
using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr std::int64_t kMaxCredits = std::numeric_limits<std::int64_t>::max();

/// A subscribe / credit payload: one u64 credit count. The window is
/// signed (the bridge spends it one step at a time), so a count above
/// INT64_MAX is a malformed frame, not a huge window.
std::int64_t decode_credits(const Frame& frame) {
  const std::uint64_t n = decode_u64(frame.payload);
  if (n > static_cast<std::uint64_t>(kMaxCredits)) {
    GS_THROW(ParseError, to_string(frame.type) << " of " << n
                         << " credits exceeds " << kMaxCredits);
  }
  return static_cast<std::int64_t>(n);
}
}  // namespace

ServerConfig config_from_settings(const Settings& settings) {
  ServerConfig config;
  config.listen = "127.0.0.1:" + std::to_string(settings.rpc_port);
  config.backlog = settings.rpc_backlog;
  config.max_connections = settings.rpc_max_connections;
  config.io_timeout_ms = settings.rpc_io_timeout_ms;
  return config;
}

// ------------------------------------------------------------- ServerStats

json::Value ServerStats::to_json() const {
  json::Object obj;
  obj["accepted"] = json::Value(static_cast<std::int64_t>(accepted));
  obj["rejected_capacity"] =
      json::Value(static_cast<std::int64_t>(rejected_capacity));
  obj["active"] = json::Value(static_cast<std::int64_t>(active));
  obj["frames_in"] = json::Value(static_cast<std::int64_t>(frames_in));
  obj["frames_out"] = json::Value(static_cast<std::int64_t>(frames_out));
  obj["bytes_in"] = json::Value(static_cast<std::int64_t>(bytes_in));
  obj["bytes_out"] = json::Value(static_cast<std::int64_t>(bytes_out));
  obj["requests"] = json::Value(static_cast<std::int64_t>(requests));
  obj["responses"] = json::Value(static_cast<std::int64_t>(responses));
  obj["bad_frames"] = json::Value(static_cast<std::int64_t>(bad_frames));
  obj["crc_errors"] = json::Value(static_cast<std::int64_t>(crc_errors));
  obj["io_errors"] = json::Value(static_cast<std::int64_t>(io_errors));
  obj["killed_connections"] =
      json::Value(static_cast<std::int64_t>(killed_connections));
  obj["subscribers"] = json::Value(static_cast<std::int64_t>(subscribers));
  obj["steps_streamed"] =
      json::Value(static_cast<std::int64_t>(steps_streamed));
  obj["steps_dropped"] =
      json::Value(static_cast<std::int64_t>(steps_dropped));
  obj["reloads"] = json::Value(static_cast<std::int64_t>(reloads));
  obj["reloads_refused"] =
      json::Value(static_cast<std::int64_t>(reloads_refused));
  obj["queue_depth"] = json::Value(static_cast<std::int64_t>(queue_depth));
  obj["inflight"] = json::Value(static_cast<std::int64_t>(inflight));
  obj["rate_rps"] = json::Value(rate_rps);
  put_latency(obj, latency);
  return json::Value(std::move(obj));
}

void put_latency(json::Object& obj, const LatencySummary& latency) {
  obj["latency_count"] =
      json::Value(static_cast<std::int64_t>(latency.count));
  obj["latency_p50"] = json::Value(latency.p50);
  obj["latency_p95"] = json::Value(latency.p95);
  obj["latency_p99"] = json::Value(latency.p99);
}

std::string ServerStats::report() const {
  std::ostringstream os;
  os << "rpc server: " << accepted << " accepted, " << active << " active, "
     << rejected_capacity << " rejected at capacity\n"
     << "  frames: " << frames_in << " in / " << frames_out << " out ("
     << bytes_in << " / " << bytes_out << " bytes)\n"
     << "  requests: " << requests << " in, " << responses
     << " answered; p50/p95/p99 = " << latency.p50 << " / " << latency.p95
     << " / " << latency.p99 << " s over " << latency.count << "\n"
     << "  load: " << queue_depth << " queued, " << inflight
     << " in flight, " << rate_rps << " req/s (decayed)\n"
     << "  faults: " << bad_frames << " bad frames, " << crc_errors
     << " crc errors, " << io_errors << " io errors, "
     << killed_connections << " killed\n"
     << "  stream: " << subscribers << " subscriptions, " << steps_streamed
     << " steps delivered, " << steps_dropped << " dropped\n"
     << "  reloads: " << reloads << " applied, " << reloads_refused
     << " refused\n";
  return os.str();
}

// ------------------------------------------------------------------ Server

Server::Server(svc::Handler& handler, ServerConfig config,
               bp::Stream* live_stream)
    : handler_(&handler),
      config_(std::move(config)),
      live_stream_(live_stream),
      epoch_(SteadyClock::now()) {
  GS_REQUIRE(config_.max_connections >= 1,
             "max_connections must be at least 1");
  GS_REQUIRE(config_.io_timeout_ms >= 1, "io_timeout_ms must be positive");
  listener_ = Listener::bind_listen(Endpoint::parse(config_.listen),
                                    static_cast<int>(config_.backlog));
  endpoint_ = listener_.endpoint();
  acceptor_ = std::thread([this] { acceptor_main(); });
  if (live_stream_ != nullptr) {
    bridge_ = std::thread([this] { bridge_main(); });
  }
}

Server::~Server() { shutdown(); }

std::uint64_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::uint64_t n = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load()) ++n;
  }
  return n;
}

void Server::acceptor_main() {
  while (!stopping_.load()) {
    std::optional<Socket> sock;
    try {
      // Sleeps until a peer connects, or a connection ends (reap it), or
      // shutdown() signals.
      if (accept_wake_.wait(listener_)) sock = listener_.accept(0);
    } catch (const IoError& e) {
      if (stopping_.load()) break;
      GS_WARN("rpc acceptor error: " << e.what());
      continue;
    }

    // Reap finished connection workers.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!sock) continue;

    // Fault site: the link dying between connect and service. A refused
    // eventfd fails the connection the same way.
    std::shared_ptr<Conn> conn;
    try {
      fault::Injector::instance().check("rpc.accept");
      conn = std::make_shared<Conn>(std::move(*sock));
    } catch (const IoError&) {
      count(&ServerStats::io_errors);
      continue;  // Socket dtor closes the connection
    } catch (const fault::Kill&) {
      count(&ServerStats::killed_connections);
      continue;
    }

    if (active_connections() >=
        static_cast<std::uint64_t>(config_.max_connections)) {
      // Connection-level backpressure: refuse loudly, never hang.
      Frame busy;
      busy.type = FrameType::error_reply;
      busy.payload = encode_text("server busy: connection limit " +
                                 std::to_string(config_.max_connections) +
                                 " reached");
      try {
        send_frame(conn->sock, busy, config_.io_timeout_ms);
      } catch (const IoError&) {
        // best effort; the refusal is also visible as the close
      } catch (const fault::Kill&) {
      }
      count(&ServerStats::rejected_capacity);
      continue;
    }

    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    count(&ServerStats::accepted);
    conn->thread = std::thread([this, conn] { conn_main(*conn); });
  }
}

void Server::Conn::post(Outgoing out) {
  std::lock_guard<std::mutex> lock(mu);
  if (out.reply) --outstanding;
  outbox.push_back(std::move(out));
  wake.signal();
}

void Server::send(Conn& conn, const Frame& frame) {
  const std::size_t bytes = send_frame(conn.sock, frame, config_.io_timeout_ms);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++counters_.frames_out;
  counters_.bytes_out += bytes;
}

void Server::send_posted(Conn& conn) {
  for (;;) {
    Outgoing out;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      if (conn.outbox.empty()) return;
      out = std::move(conn.outbox.front());
      conn.outbox.pop_front();
    }
    // Settled before the send: a send that throws must not leave the
    // request counted in flight.
    if (out.reply) inflight_.fetch_sub(1);
    send(conn, *out.frame);
    if (out.reply) {
      record_reply(*out.reply);
    } else if (out.frame->type == FrameType::stream_step) {
      count(&ServerStats::steps_streamed);
    }
  }
}

void Server::record_reply(const Admitted& reply) {
  const auto t1 = SteadyClock::now();
  if (config_.profiler != nullptr) {
    prof::Span span;
    span.name = std::string("rpc.") + svc::to_string(reply.verb);
    span.kind = prof::SpanKind::other;
    span.t0 = seconds_between(epoch_, reply.t0);
    span.t1 = seconds_between(epoch_, t1);
    config_.profiler->record(std::move(span));
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++counters_.responses;
  latencies_.add(seconds_between(reply.t0, t1));
}

void Server::handle_frame(Conn& conn, const Frame& frame) {
  Frame reply;
  reply.id = frame.id;
  try {
    switch (frame.type) {
      case FrameType::request: {
        svc::Request request = decode_request(frame.payload);
        const Admitted admitted{svc::verb_of(request.body), SteadyClock::now()};
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++counters_.requests;
          rate_.add(seconds_between(epoch_, admitted.t0));
        }
        handler_->submit(std::move(request), [&conn, id = frame.id,
                                              admitted](svc::Response r) {
          conn.post({std::make_shared<const Frame>(Frame{
                         FrameType::response, id, encode_response(r)}),
                     admitted});
        });
        // Counted once submit() returns: a throwing submit never runs
        // its Done. One that already ran left `outstanding` at -1 until
        // here; only this thread reads it.
        inflight_.fetch_add(1);
        std::lock_guard<std::mutex> lock(conn.mu);
        ++conn.outstanding;
        return;
      }
      case FrameType::stats:
        reply.type = FrameType::stats_reply;
        reply.payload = encode_text(stats_json().dump(2));
        break;
      case FrameType::ping:
        reply.type = FrameType::pong;
        break;
      case FrameType::subscribe: {
        if (live_stream_ == nullptr) {
          reply.type = FrameType::error_reply;
          reply.payload =
              encode_text("no live stream attached to this server");
          break;
        }
        conn.credits.store(decode_credits(frame));
        conn.subscribed.store(true);
        count(&ServerStats::subscribers);
        // Sent before the owner sends anything the bridge posts.
        reply.type = FrameType::sub_ok;
        break;
      }
      case FrameType::credit: {
        // Saturating add; only the bridge spends, so the window is >= 0.
        const std::int64_t more = decode_credits(frame);
        std::int64_t have = conn.credits.load();
        while (!conn.credits.compare_exchange_weak(
            have, have > kMaxCredits - more ? kMaxCredits : have + more)) {
        }
        return;
      }
      case FrameType::reload_map: {
        // Authenticated admin verb: bump the shard-map epoch NOW instead
        // of waiting for the mtime poll. An empty configured token
        // disables the verb; the token comparison gates before the hook
        // runs.
        reply.type = FrameType::error_reply;
        if (config_.admin_token.empty() || config_.reload_hook == nullptr) {
          reply.payload = encode_text("reload_map is not enabled here");
        } else if (decode_text(frame.payload) != config_.admin_token) {
          reply.payload = encode_text("reload_map: bad admin token");
        } else {
          try {
            reply.payload = encode_text(config_.reload_hook().dump(2));
            reply.type = FrameType::reload_reply;
          } catch (const fault::Kill&) {
            throw;  // a kill is a crash, not a refusal
          } catch (const std::exception& e) {
            reply.payload =
                encode_text(std::string("reload failed: ") + e.what());
          }
        }
        count(reply.type == FrameType::reload_reply
                  ? &ServerStats::reloads
                  : &ServerStats::reloads_refused);
        break;
      }
      default:
        GS_THROW(ParseError, "unexpected frame type " << to_string(frame.type));
    }
  } catch (const ParseError& e) {
    // An undecodable frame is answered and counted; the connection stays.
    count(&ServerStats::bad_frames);
    reply.type = FrameType::error_reply;
    reply.payload = encode_text(e.what());
  }
  send(conn, reply);
}

void Server::conn_main(Conn& conn) {
  try {
    for (;;) {
      send_posted(conn);
      if (stopping_.load()) {
        // Graceful drain: read no more, but every submitted request
        // still gets its answer (the handler completes queued work).
        if (conn.idle()) break;
        conn.wake.wait(nullptr);
        continue;
      }
      if (!conn.wake.wait(&conn.sock)) continue;  // something was posted
      const auto frame = recv_frame(conn.sock, config_.io_timeout_ms);
      if (!frame) break;  // peer closed cleanly
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.frames_in;
        counters_.bytes_in += kHeaderBytes + frame->payload.size();
      }
      handle_frame(conn, *frame);
    }
  } catch (const fault::Kill& e) {
    // Models the connection's process/link dying mid-exchange: abrupt
    // close, no drain — the client sees EOF / a torn frame.
    count(&ServerStats::killed_connections);
  } catch (const CrcError& e) {
    GS_WARN("rpc connection dropped: " << e.what());
    count(&ServerStats::crc_errors);
  } catch (const IoError& e) {
    count(&ServerStats::io_errors);
  } catch (const std::exception& e) {
    GS_WARN("rpc connection worker failed: " << e.what());
    count(&ServerStats::io_errors);
  }
  close(conn);
  conn.done.store(true);
  accept_wake_.signal();
}

void Server::close(Conn& conn) {
  conn.subscribed.store(false);
  conn.sock.close();
  std::unique_lock<std::mutex> lock(conn.mu);
  while (conn.outstanding != 0) {
    lock.unlock();
    conn.wake.wait(nullptr);
    lock.lock();
  }
  for (const Outgoing& out : conn.outbox) {
    if (out.reply) inflight_.fetch_sub(1);
  }
  conn.outbox.clear();
}

void Server::bridge_main() try {
  bp::StreamReader reader(*live_stream_);
  while (auto step = reader.next_step()) {
    const auto frame = std::make_shared<const Frame>(
        Frame{FrameType::stream_step, 0, encode_stream_step(*step)});

    // Posting never blocks, so the fan-out may hold conns_mu_: a stalled
    // subscriber backs up only its own outbox, at most its credits deep.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (!conn->subscribed.load()) continue;
      if (conn->credits.load() <= 0) {
        // Slow-consumer policy: drop, never stall the simulation. The
        // client sees the gap in sequence numbers and the final count.
        conn->dropped_steps.fetch_add(1);
        count(&ServerStats::steps_dropped);
        continue;
      }
      conn->credits.fetch_sub(1);
      conn->post({frame, std::nullopt});
    }
  }

  // End-of-stream (clean close or abandon): tell every subscriber what
  // it missed.
  StreamEnd end;
  end.reason =
      live_stream_->abandoned() ? "stream abandoned" : "end of stream";
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) {
    if (!conn->subscribed.exchange(false)) continue;
    end.dropped = conn->dropped_steps.load();
    conn->post({std::make_shared<const Frame>(
                    Frame{FrameType::stream_end, 0, encode_stream_end(end)}),
                std::nullopt});
  }
} catch (const std::exception& e) {
  // Last line of defense: an escaped exception would std::terminate the
  // whole daemon from this thread. Queries keep being served; only the
  // live fan-out ends.
  GS_WARN("rpc stream bridge stopped: " << e.what());
}

void Server::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;

  if (live_stream_ != nullptr) {
    // Unblocks the bridge (and any producer stuck on backpressure) when
    // the stream is still live; a no-op after a clean end-of-stream.
    live_stream_->consumer_detached();
  }
  // The bridge ends first, so its stream_end frames are posted before
  // the connections drain.
  if (bridge_.joinable()) bridge_.join();

  stopping_.store(true);
  accept_wake_.signal();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();

  std::list<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) conn->wake.signal();
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

ServerStats Server::stats() const {
  const std::uint64_t active = active_connections();
  const std::size_t queued = handler_->queue_depth();
  const double now = seconds_between(epoch_, SteadyClock::now());
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServerStats out = counters_;
  out.active = active;
  out.queue_depth = queued;
  out.inflight = inflight_.load();
  out.rate_rps = rate_.rate(now);
  out.latency = latencies_.summary();
  return out;
}

json::Value Server::stats_json() const {
  json::Value v = handler_->stats_json();
  json::Object& obj = v.as_object();
  obj["endpoint"] = json::Value(endpoint_.str());
  obj["rpc"] = stats().to_json();
  return v;
}

}  // namespace gs::rpc
