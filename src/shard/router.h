// gs::shard router — the scatter-gather tier in front of a fleet of
// gsserved shards. The router implements svc::Handler, so an rpc::Server
// wrapped around it speaks the EXISTING wire protocol unchanged: remote
// clients (gsquery, the live dashboard's query side) cannot tell a
// router from a single daemon — except that the dataset behind it is
// served by N processes. Its admission queue is svc::Service's, one
// svc::Admission (svc/admission.h).
//
// For each client query the router scatters one sub-query per shard in
// the map ("answer for the blocks you own under epoch E"), gathers the
// partial answers, and merges them EXACTLY (svc/merge.h + gs::ExactStats
// integer accumulators), so a routed answer is byte-identical to a
// single daemon scanning the whole dataset. The scatter spawns no
// threads: each shard has one multiplexed rpc::Channel, and the routing
// worker puts every shard's sub-query in flight before awaiting any.
//
// Failure handling:
//   * every shard has a HealthTracker entry with mark-dead / mark-live
//     hysteresis, fed by query traffic and by a background probe thread
//     that pings every shard each probe interval (fault site
//     "shard.health");
//   * every sub-query takes one path, Router::ask: the shard's owner
//     first, then — only when the owner gives no final answer — a
//     deterministic ring-derived failover chain of replicas (every shard
//     opens the same dataset directory, so any daemon can act_as a dead
//     owner and answer bit-exactly). Each candidate is asked once, with
//     RouterConfig::attempts transport attempts in total
//     (fault::with_retries; fault site "shard.route" fires before each
//     send); a live owner's first attempt is the call scatter put in
//     flight. A transport failure after every attempt, or a retryable
//     refusal (any status but ok and bad_request: server_busy,
//     stale_epoch, ...), moves on to the next candidate. Failover runs
//     on the routing worker, so shards failing in one query fail over in
//     turn;
//   * when no candidate answers for a shard, the router degrades
//     explicitly: the merged answer covers the blocks it has,
//     Response::degraded is set, bad_blocks counts the missing blocks,
//     and status.message names the missing shard(s) — never a silently
//     wrong answer.
//
// Epoch handover (reload_map): membership lives in an immutable
// EpochState (map + ring + health + per-shard channels) behind one
// shared_ptr. Every query pins the state it started under, so a reload
// is a two-phase flip: validate the candidate map, publish a NEW state
// atomically (new queries route under the new ring immediately; channels
// and health of unchanged shards carry over), then wait — bounded by
// drain_timeout_ms — for the old state's in-flight queries to finish. A
// shard state the new epoch did not carry over is then reachable only
// from the old one, and its channel closes when the last pinned query
// or snapshot lets go of it. A query pinned to the old epoch either
// completes there (daemons keep the previous epoch answerable through a
// grace window) or degrades explicitly; it is never answered under a
// ring it did not pin. Fault sites: "shard.reload" (validation),
// "shard.drain" (between publish and drain).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "config/json.h"
#include "rpc/channel.h"
#include "rpc/client.h"
#include "shard/health.h"
#include "shard/map.h"
#include "shard/reshard.h"
#include "svc/admission.h"
#include "svc/query.h"

namespace gs::shard {

struct RouterConfig {
  /// Scatter-gather worker threads, one client query each. A worker
  /// sends every shard's sub-query before awaiting any, so one query's
  /// sub-queries run concurrently without a thread per shard.
  std::size_t workers = 4;
  /// Admission-queue bound; 0 disables admission control.
  std::size_t queue_capacity = 64;
  /// Transport attempts per failover candidate (fault::with_retries), in
  /// total: each is one send on the shard's channel.
  int attempts = 2;
  double backoff_ms = 1.0;
  /// Try replicas (act_as failover) when a shard's own daemon is down.
  /// Off, a dead shard's blocks are reported missing instead.
  bool failover = true;
  /// Health-probe period; <= 0 disables the probe thread (health is then
  /// fed by query traffic only).
  std::int64_t probe_interval_ms = 200;
  HealthConfig health;
  /// Per-shard connection settings (dial/io/call timeouts). Its retries
  /// cover the probe's pings and stats calls, not sub-queries.
  rpc::ClientConfig client;
  /// Epoch handover: how long reload_map waits for queries pinned to the
  /// old epoch to finish before abandoning the wait (they still complete;
  /// only the bookkeeping stops blocking). <= 0 skips the wait.
  std::int64_t drain_timeout_ms = 2000;
};

/// Cumulative router counters (see stats_json() for the full picture
/// including per-shard latency percentiles).
struct RouterStats {
  std::uint64_t queries = 0;        ///< client queries admitted to a worker
  std::uint64_t completed_ok = 0;   ///< answered with status ok
  std::uint64_t rejected_busy = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t failed = 0;            ///< answered with a non-ok status
  std::uint64_t degraded_answers = 0;  ///< ok answers with missing blocks
  /// Candidates asked: +1 per daemon a shard's sub-query went to, owner
  /// and replicas alike (a healthy query books one per shard).
  std::uint64_t subqueries = 0;
  /// Candidates whose transport attempts all failed.
  std::uint64_t subquery_errors = 0;
  /// Shards whose final answer came from a daemon other than the owner.
  std::uint64_t failovers = 0;
};

class Router : public svc::Handler {
 public:
  /// Builds the ring, dials nothing yet (channels connect lazily), starts
  /// the workers and the probe thread.
  Router(std::shared_ptr<const ShardMap> map, RouterConfig config = {});
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // svc::Handler -----------------------------------------------------------
  void submit(svc::Request request, Done done) override {
    admission_.submit(std::move(request), std::move(done));
  }
  using svc::Handler::submit;
  json::Value stats_json() const override;
  std::size_t queue_depth() const override { return admission_.depth(); }

  /// Stops admission, drains queued queries, joins workers + probe.
  void shutdown();

  /// Adopts `next` as the routing epoch (the router half of a handover).
  /// Validates (throws gs::Error and keeps routing the old epoch on a bad
  /// map), publishes the new EpochState atomically — channels and health
  /// state of shards whose (id, endpoint) survive carry over — then
  /// drains the old epoch's in-flight queries behind
  /// config().drain_timeout_ms. The channels it replaced close once
  /// nothing pins the old epoch.
  /// Serialized against concurrent reloads; never blocks queries.
  HandoverStats reload_map(std::shared_ptr<const ShardMap> next);

  /// The last handover's bookkeeping; zero-valued before the first.
  HandoverStats handover_stats() const;

  /// Snapshot of the serving map (immutable; epoch flips swap the ptr).
  std::shared_ptr<const ShardMap> map() const;
  /// Current epoch's tracker. The reference is invalidated by the NEXT
  /// reload_map — callers poll it between reloads, never across them.
  const HealthTracker& health() const;
  RouterStats stats() const;

 private:
  struct ShardState {
    ShardState(ShardInfo shard, const rpc::ClientConfig& client);

    ShardInfo info;
    rpc::Channel channel;
    mutable std::mutex mu;  ///< guards the three members below
    LatencyHistogram latencies;  ///< seconds per successful sub-call
    std::uint64_t calls = 0;
    std::uint64_t errors = 0;
  };

  /// One epoch's complete routing state, immutable once published. Every
  /// query pins the EpochState it started under via shared_ptr, so a
  /// reload can swap the current pointer without touching queries in
  /// flight. ShardStates are shared between consecutive epochs when the
  /// shard's (id, endpoint) is unchanged — channels and latency history
  /// survive a flip.
  struct EpochState {
    std::shared_ptr<const ShardMap> map;
    Ring ring;
    std::unique_ptr<HealthTracker> health;
    std::map<std::string, std::shared_ptr<ShardState>> shards;
    std::atomic<std::uint64_t> in_flight{0};

    EpochState(std::shared_ptr<const ShardMap> m, const RouterConfig& config,
               const EpochState* carry);
  };

  /// RAII pin: holds the epoch a query routes under and counts it
  /// in-flight; the destructor wakes a draining reload_map.
  struct Pin {
    Router* router = nullptr;
    std::shared_ptr<EpochState> ep;

    Pin(Router* r, std::shared_ptr<EpochState> e);
    Pin(Pin&&) = delete;
    ~Pin();
  };

  /// One shard's contribution to a scattered query.
  struct SubResult {
    std::string act_as;
    /// Set when some daemon answered (any status); empty = shard missing
    /// after every candidate and retry was exhausted.
    std::optional<svc::Response> response;
  };

  /// Routes one admitted query on an Admission worker.
  void serve(svc::Job job);
  void probe_main();

  /// The current epoch, unpinned (probe loop, stats, accessors).
  std::shared_ptr<EpochState> snapshot() const;

  svc::Response route(const svc::Request& request);
  /// Scatters `body` (with a ShardSelector per shard) to every shard of
  /// the pinned epoch: it starts every live owner's call before awaiting
  /// any reply, then gathers in map order, handing each shard's started
  /// call to ask().
  std::vector<SubResult> scatter(EpochState& ep, const svc::Request& base,
                                 const svc::QueryBody& body);

  /// The owner's first transport attempt as scatter began it: the call
  /// in flight, or the IoError its start threw.
  struct Started {
    rpc::Channel::Call call;
    std::exception_ptr failed;
  };
  /// One shard's sub-query (`payload`, encoded once): its owner `act_as`,
  /// whose first attempt is `started` when scatter began one, then — if
  /// the owner gives no final answer — the other candidates(). The one
  /// place that books subqueries, subquery_errors, failovers, health
  /// and record_call.
  SubResult ask(EpochState& ep, const std::vector<std::byte>& payload,
                const std::string& act_as, std::optional<Started> started);
  /// act_as first, then (with failover) every other shard in a
  /// deterministic ring-derived order.
  std::vector<std::string> candidates(const EpochState& ep,
                                      const std::string& act_as) const;
  /// Books one transport attempt on a shard: its round-trip seconds, or
  /// an error when `seconds` is empty.
  static void record_call(ShardState& state, std::optional<double> seconds);

  // Verb merges (each throws gs::Error -> internal_error on
  // disagreement between shards).
  svc::Response merge_scattered(EpochState& ep, const svc::Request& request);
  /// Validates partial metadata across parts (equal totals, no coverage
  /// overlap), fills response.degraded/bad_blocks/status.message, and
  /// returns the parts with ok responses. Throws on inconsistency.
  std::vector<const svc::Response*> check_partials(
      const EpochState& ep, const std::vector<SubResult>& results,
      svc::Response& response);

  static ShardState& state(EpochState& ep, const std::string& id);

  RouterConfig config_;

  /// Current epoch (epoch_mu_ guards the pointer swap and the drain
  /// wait; the pointee is immutable). drain_cv_ wakes reload_map when an
  /// old epoch's last pinned query finishes.
  mutable std::mutex epoch_mu_;
  std::shared_ptr<EpochState> epoch_;
  std::condition_variable drain_cv_;
  std::mutex reload_mu_;  ///< serializes concurrent reload_map calls
  HandoverStats handover_;  ///< guarded by stats_mu_

  std::mutex shutdown_mu_;  ///< serializes concurrent shutdown() calls
  std::mutex probe_mu_;  ///< guards probe_stop_
  std::condition_variable probe_cv_;  ///< woken by shutdown()
  bool probe_stop_ = false;
  std::thread probe_;

  mutable std::mutex stats_mu_;
  RouterStats stats_;

  /// The served dataset path, fetched lazily from the first reachable
  /// shard's stats RPC (the Handler contract requires reporting one).
  mutable std::mutex dataset_mu_;
  mutable std::string dataset_;

  // Last: its workers call serve(), so they stop before the members above
  // are destroyed.
  svc::Admission admission_;
};

}  // namespace gs::shard
