// gs::ctrl collector — the OBSERVE half of the autonomous resharding
// controller: polls every shard's stats endpoint on a jittered,
// deterministic schedule (fault::Backoff per shard, so a controller
// watching a hundred daemons never lines its probes up into a stampede)
// and maintains decayed per-shard load estimates. The raw stats RPC
// reports instantaneous pressure (rpc::ServerStats queue_depth /
// inflight / rate_rps — the PR 10 load signals); the collector turns
// those point samples into half-life-weighted levels so one busy poll
// cannot trigger a reshard and one idle poll cannot mask saturation.
//
// The transport is pluggable (Fetcher): production uses rpc_fetcher()
// (a stats round-trip per poll), the simulation harness and the unit
// tests inject synthetic samples — the estimator and everything above
// it (Policy, Planner, Controller) never touch a socket.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "config/json.h"
#include "fault/fault.h"
#include "rpc/client.h"
#include "shard/map.h"

namespace gs::ctrl {

/// One stats poll of one endpoint, reduced to the controller's inputs.
/// `reachable == false` means the endpoint did not answer (connect or
/// RPC failure); every other field is then meaningless.
struct StatsSample {
  bool reachable = false;
  std::uint64_t epoch = 0;  ///< serving shard-map epoch (0 = unsharded)
  double queue_depth = 0.0;
  double inflight = 0.0;
  double rate_rps = 0.0;
  /// Server-side latency p99 over the daemon's lifetime, seconds; a
  /// LatencyHistogram quantile, within 1% of exact.
  double p99 = 0.0;
  std::uint64_t requests = 0;   ///< cumulative
  std::uint64_t errors = 0;     ///< cumulative transport-level failures
  // Last handover's warming cost as reported by the daemon ("reshard"):
  // the collector's only source for the move-cost signal.
  std::uint64_t warm_epoch_to = 0;
  std::uint64_t warm_blocks = 0;
  double warm_seconds = 0.0;
};

/// Reduces a stats-RPC JSON document (daemon or router shape — the
/// router doc carries its epoch under "router") to a StatsSample.
StatsSample parse_stats(const json::Value& doc);

/// How the collector reads one endpoint. Must NOT throw: failure is the
/// `reachable = false` sample.
using Fetcher = std::function<StatsSample(const shard::ShardInfo&)>;

/// The production fetcher: dial `info.endpoint`, issue the stats RPC,
/// parse_stats the reply; any transport failure becomes unreachable.
Fetcher rpc_fetcher(rpc::ClientConfig config = {});

struct CollectorConfig {
  /// Base poll period per shard, seconds.
  double poll_seconds = 1.0;
  /// Cap on one jittered poll gap, as a multiple of poll_seconds (the
  /// fault::Backoff cap; gaps land in [1, poll_jitter_cap] periods).
  double poll_jitter_cap = 1.5;
  /// Seeds the per-shard jitter streams (fault::detail::backoff_seed
  /// mixes in the shard id): fixed seed = fully replayable schedule.
  std::uint64_t seed = 0;
  /// Half-life of the decayed load levels, seconds.
  double halflife_seconds = 5.0;
  /// Half-life of the flap counter (reachability transitions), seconds:
  /// long, so a shard bouncing every few minutes still accumulates.
  double flap_halflife_seconds = 60.0;
  /// Warming-cost prior (seconds per moved block) before the first
  /// observed handover teaches the collector the real figure.
  double default_warm_seconds_per_block = 0.005;
};

/// The decayed estimate of one shard, as of the last poll that reached
/// (or failed to reach) it.
struct ShardEstimate {
  std::string id;
  std::string endpoint;
  bool reachable = true;      ///< optimistic until the first failed poll
  int unreachable_streak = 0; ///< consecutive failed polls
  double recent_flaps = 0.0;  ///< decayed reachability transitions
  std::uint64_t epoch = 0;
  double queue_depth = 0.0;   ///< decayed level
  double inflight = 0.0;      ///< decayed level
  double rate_rps = 0.0;      ///< decayed level of the server's own rate
  double p99 = 0.0;           ///< decayed level
  double error_rate = 0.0;    ///< decayed transport errors per second
  double last_seen = 0.0;     ///< last successful poll, collector clock
  std::uint64_t polls = 0;

  /// The scalar pressure signal the policy thresholds: requests waiting
  /// plus requests executing, per shard.
  double load() const { return queue_depth + inflight; }
};

/// The cluster at a glance: per-shard estimates plus the aggregates the
/// policy rules read. Means are over REACHABLE shards only (an
/// unreachable shard's stale load must not dilute a saturation signal).
struct ClusterView {
  std::vector<ShardEstimate> shards;
  std::size_t reachable = 0;
  /// The epoch every reachable shard agrees on, or 0 while they
  /// disagree (mid-handover) or none is reachable.
  std::uint64_t epoch = 0;
  double mean_queue_depth = 0.0;
  double mean_inflight = 0.0;
  double total_rate_rps = 0.0;
  double max_p99 = 0.0;
  double mean_error_rate = 0.0;

  double mean_load() const { return mean_queue_depth + mean_inflight; }

  json::Value to_json() const;
};

class Collector {
 public:
  Collector(std::shared_ptr<const shard::ShardMap> map,
            CollectorConfig config, Fetcher fetcher);

  /// Polls every shard whose jittered schedule has expired at `now`
  /// (seconds on any one monotonic clock). Returns the number polled.
  std::size_t poll_due(double now);

  /// Polls every shard unconditionally (gsctl --plan wants one fresh
  /// round, not a warmed-up schedule) and resets the schedules.
  void poll_all(double now);

  ClusterView view(double now) const;

  /// Adopts a new map: estimates of retained ids carry over (a reshard
  /// must not amnesty a flapping shard — the HealthTracker carry rule),
  /// removed ids are dropped, added ids start fresh and optimistic.
  void set_map(std::shared_ptr<const shard::ShardMap> map);

  const shard::ShardMap& map() const { return *map_; }

  /// The move-cost signal: seconds per warmed block, learned from the
  /// daemons' reported ReplacementStats (EWMA over observed handovers),
  /// or the configured prior before any observation.
  double warm_seconds_per_block() const;

 private:
  struct Entry {
    ShardEstimate est;
    fault::Backoff backoff;
    double next_poll_at = 0.0;
    DecayedRate queue;
    DecayedRate inflight;
    DecayedRate rate;
    DecayedRate p99;
    DecayedRate errors;  ///< rate-style: fed with per-poll error deltas
    DecayedRate flaps;   ///< rate-style count with the long half-life
    std::uint64_t last_errors = 0;
    std::uint64_t last_warm_epoch = 0;
    bool have_baseline = false;
  };

  Entry make_entry(const shard::ShardInfo& info) const;
  void ingest(Entry& entry, const StatsSample& sample, double now);

  CollectorConfig config_;
  Fetcher fetcher_;
  std::shared_ptr<const shard::ShardMap> map_;
  std::vector<Entry> entries_;
  double warm_ewma_ = 0.0;
  std::uint64_t warm_observations_ = 0;
};

}  // namespace gs::ctrl
