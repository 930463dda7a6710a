// gs::rpc client — the remote twin of svc::Client: one typed method per
// verb returning the same svc::Expected<R>, plus the stats RPC, the
// reload_map admin RPC and the live-stream subscription. It is a typed
// facade over one rpc::Channel, the one client request path, so queries
// may interleave with a live subscription on its connection. Transport
// failures (connect refused, torn frame, CRC mismatch, mid-reply
// disconnect) are absorbed by the channel's fault::with_retries with a
// redial between attempts — queries are idempotent reads, so a retried
// request can never double-apply. What a retry cannot heal surfaces as
// gs::IoError; service-level refusals (ServerBusy, DeadlineExceeded,
// BadRequest) arrive as ordinary non-ok Status values exactly as
// in-process callers see them.
#pragma once

#include "rpc/channel.h"
#include "svc/query.h"

namespace gs::rpc {

/// The typed queries (list_variables, field_stats, ...) are svc::Client's,
/// from svc::TypedVerbs; the rest is Channel's.
class Client : public svc::TypedVerbs<Client>, private Channel {
 public:
  explicit Client(Endpoint endpoint, ClientConfig config = {});

  /// Raw round-trip for a pre-built request (retries + redial).
  /// The returned Response carries this call's frame id.
  svc::Response call(const svc::Request& request);

  /// The raw Response of the last successful call (timings, counters).
  const svc::Response& last_response() const { return last_; }

  using Channel::disconnect;
  using Channel::gaps_detected;
  using Channel::next_step;
  using Channel::ping;
  using Channel::reload_map;
  using Channel::server_stats;
  using Channel::stream_end;
  using Channel::subscribe;

 private:
  friend class svc::TypedVerbs<Client>;
  /// call() with the configured timeout and tenant.
  svc::Response& exchange(svc::QueryBody body);

  const double timeout_seconds_;
  const std::string tenant_;
  svc::Response last_;
};

}  // namespace gs::rpc
