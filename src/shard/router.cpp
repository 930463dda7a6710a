#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <sstream>
#include <utility>

#include "analysis/analysis.h"
#include "common/error.h"
#include "common/log.h"
#include "fault/fault.h"
#include "rpc/server.h"
#include "svc/merge.h"

namespace gs::shard {

namespace {

constexpr const char* kRouteSite = "shard.route";
constexpr const char* kHealthSite = "shard.health";
constexpr const char* kReloadSite = "shard.reload";
constexpr const char* kDrainSite = "shard.drain";

std::vector<std::string> shard_ids(const ShardMap& map) {
  std::vector<std::string> ids;
  ids.reserve(map.size());
  for (const auto& s : map.shards()) ids.push_back(s.id);
  return ids;
}

std::string join_ids(const std::vector<std::string>& ids) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) oss << ",";
    oss << ids[i];
  }
  return oss.str();
}

/// The sub-query that asks the daemon behind `act_as` for the blocks it
/// owns under the pinned map.
svc::Request sub_request(const ShardMap& map, const svc::Request& base,
                         const svc::QueryBody& body,
                         const std::string& act_as) {
  svc::Request sub;
  sub.body = body;
  sub.timeout_seconds = base.timeout_seconds;
  sub.shard = svc::ShardSelector{map.epoch(), map.ring_crc(), act_as};
  return sub;
}

/// A daemon's answer settles its shard when it is ok, or a BadRequest —
/// semantic and final, every daemon would refuse the same way. A
/// capacity/deadline/stale-epoch refusal does not: a replica (possibly
/// still inside its reload grace window) may answer.
bool is_final(const svc::Response& response) {
  return response.status.ok() ||
         response.status.code == svc::StatusCode::bad_request;
}

/// The field-stats partials' exact accumulators merged: bitwise the
/// whole-dataset accumulator, in any shard order.
ExactStats merge_exact(const std::vector<const svc::Response*>& parts) {
  ExactStats acc;
  for (const svc::Response* part : parts) {
    GS_REQUIRE(part->partial->stats.has_value(),
               "field-stats partial carries no exact accumulator");
    acc.merge(*part->partial->stats);
  }
  return acc;
}

}  // namespace

Router::EpochState::EpochState(std::shared_ptr<const ShardMap> m,
                               const RouterConfig& config,
                               const EpochState* carry)
    : map(std::move(m)),
      ring(*map),
      health(std::make_unique<HealthTracker>(
          shard_ids(*map), config.health,
          carry != nullptr ? carry->health.get() : nullptr)) {
  for (const auto& info : map->shards()) {
    // Same id AND same endpoint: the previous epoch's state (channel,
    // latency history) carries over — the flip costs those shards
    // nothing. New or endpoint-moved shards get a fresh channel.
    if (carry != nullptr) {
      const auto it = carry->shards.find(info.id);
      if (it != carry->shards.end() &&
          it->second->info.endpoint == info.endpoint) {
        shards.emplace(info.id, it->second);
        continue;
      }
    }
    shards.emplace(info.id, std::make_shared<ShardState>(info, config.client));
  }
}

Router::ShardState::ShardState(ShardInfo shard,
                               const rpc::ClientConfig& client)
    : info(std::move(shard)),
      channel(rpc::Endpoint::parse(info.endpoint), client) {}

Router::Pin::Pin(Router* r, std::shared_ptr<EpochState> e)
    : router(r), ep(std::move(e)) {
  ep->in_flight.fetch_add(1, std::memory_order_acq_rel);
}

Router::Pin::~Pin() {
  ep->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  // Lock-then-notify so a reload_map that just read in_flight under
  // epoch_mu_ cannot miss the wakeup.
  std::lock_guard<std::mutex> lock(router->epoch_mu_);
  router->drain_cv_.notify_all();
}

Router::Router(std::shared_ptr<const ShardMap> map, RouterConfig config)
    : config_(config),
      admission_(config_.workers, config_.queue_capacity,
                 "router admission queue full", "router shutting down",
                 [this](svc::Job job) { serve(std::move(job)); },
                 [this](const svc::Request&, svc::StatusCode code) {
                   const std::lock_guard<std::mutex> lock(stats_mu_);
                   ++(code == svc::StatusCode::shutting_down
                          ? stats_.rejected_shutdown
                          : stats_.rejected_busy);
                 }) {
  GS_REQUIRE(map != nullptr, "router needs a shard map");
  epoch_ = std::make_shared<EpochState>(std::move(map), config_, nullptr);
  if (config_.probe_interval_ms > 0) {
    probe_ = std::thread([this] { probe_main(); });
  }
}

Router::~Router() { shutdown(); }

void Router::shutdown() {
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    const std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  admission_.shutdown();
  if (probe_.joinable()) probe_.join();
}

void Router::serve(svc::Job job) {
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries;
  }
  svc::Response response = route(job.request);
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    if (response.status.ok()) {
      ++stats_.completed_ok;
      if (response.degraded) ++stats_.degraded_answers;
    } else {
      ++stats_.failed;
    }
  }
  job.done(std::move(response));
}

void Router::probe_main() {
  const auto t_start = std::chrono::steady_clock::now();
  const auto now_seconds = [&t_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t_start)
        .count();
  };
  std::unique_lock<std::mutex> lock(probe_mu_);
  for (;;) {
    probe_cv_.wait_for(lock,
                       std::chrono::milliseconds(config_.probe_interval_ms),
                       [this] { return probe_stop_; });
    if (probe_stop_) return;
    lock.unlock();
    const std::shared_ptr<EpochState> ep = snapshot();
    for (const auto& info : ep->map->shards()) {
      // Dead shards re-probe behind their per-shard jittered backoff; a
      // mass outage must not hammer every corpse on the fixed period.
      if (!ep->health->probe_due(info.id, now_seconds())) continue;
      ShardState& st = state(*ep, info.id);
      try {
        fault::Injector::instance().check(kHealthSite);
        st.channel.ping();
        ep->health->record_probe_success(info.id);
      } catch (const IoError&) {
        ep->health->record_probe_failure(info.id, now_seconds());
      }
    }
    lock.lock();
  }
}

std::shared_ptr<Router::EpochState> Router::snapshot() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

std::shared_ptr<const ShardMap> Router::map() const {
  return snapshot()->map;
}

const HealthTracker& Router::health() const { return *snapshot()->health; }

// ---- scatter -------------------------------------------------------------

std::vector<std::string> Router::candidates(const EpochState& ep,
                                            const std::string& act_as) const {
  std::vector<std::string> out{act_as};
  if (!config_.failover) return out;
  // Ring-derived replica order: deterministic per shard, so every router
  // instance retries a dead owner toward the same replicas.
  for (const auto& id : ep.ring.chain("failover/" + act_as, ep.map->size())) {
    if (id != act_as) out.push_back(id);
  }
  return out;
}

Router::ShardState& Router::state(EpochState& ep, const std::string& id) {
  auto it = ep.shards.find(id);
  GS_ASSERT(it != ep.shards.end(), "unknown shard id");
  return *it->second;
}

void Router::record_call(ShardState& st, std::optional<double> seconds) {
  std::lock_guard<std::mutex> lock(st.mu);
  ++st.calls;
  if (seconds.has_value()) {
    st.latencies.add(*seconds);
  } else {
    ++st.errors;
  }
}

Router::SubResult Router::ask(EpochState& ep,
                              const std::vector<std::byte>& payload,
                              const std::string& act_as,
                              std::optional<Started> started) {
  SubResult result{act_as, std::nullopt};
  fault::RetryPolicy policy;
  policy.attempts = config_.attempts;
  policy.backoff_seconds = config_.backoff_ms / 1000.0;

  // One candidate: RouterConfig::attempts transport attempts in total
  // (the channel's own retry loop would multiply them by
  // ClientConfig::retries), the first of them `first` when scatter began
  // it. True when the candidate gave the shard's final answer.
  const auto try_candidate = [&](const std::string& id,
                                 std::optional<Started> first) {
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.subqueries;
    }
    ShardState& st = state(ep, id);
    svc::Response response;
    try {
      fault::with_retries(policy, "shard.route:" + id, [&] {
        rpc::Channel::Call call;
        rpc::Frame reply;
        try {
          if (first.has_value()) {
            Started begun = std::move(*first);
            first.reset();
            if (begun.failed) std::rethrow_exception(begun.failed);
            call = std::move(begun.call);
          } else {
            fault::Injector::instance().check(kRouteSite);
            call = st.channel.start(rpc::FrameType::request, payload);
          }
          reply = st.channel.wait(call);
          response = rpc::decode_response(reply.payload);
        } catch (const ParseError& e) {
          // An undecodable reply fails this attempt, like a reply of the
          // wrong frame type.
          record_call(st, std::nullopt);
          GS_THROW(IoError, "shard " << id << " sent an undecodable "
                                     << "response: " << e.what());
        } catch (...) {
          record_call(st, std::nullopt);
          throw;
        }
        record_call(st, call.seconds);
      });
    } catch (const IoError&) {
      ep.health->record_failure(id);
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.subquery_errors;
      return false;
    }
    ep.health->record_success(id);
    if (!is_final(response)) return false;
    if (id != act_as) {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.failovers;
    }
    result.response = std::move(response);
    return true;
  };

  const bool owner_asked = started.has_value();
  if (owner_asked && try_candidate(act_as, std::move(started))) return result;

  // No final answer from the owner, or health had it dead: its failover
  // chain. Dead-marked daemons are skipped (no point eating their connect
  // timeouts); if health leaves nothing, everyone is tried — health may
  // be stale and a refused dial is cheap. The owner is asked once.
  const std::vector<std::string> chain = candidates(ep, act_as);
  std::vector<std::string> order;
  std::copy_if(chain.begin(), chain.end(), std::back_inserter(order),
               [&ep](const std::string& id) { return ep.health->alive(id); });
  if (order.empty()) order = chain;
  for (const auto& id : order) {
    if (owner_asked && id == act_as) continue;
    if (try_candidate(id, std::nullopt)) break;
  }
  return result;  // response empty: nobody answered for act_as
}

std::vector<Router::SubResult> Router::scatter(EpochState& ep,
                                               const svc::Request& base,
                                               const svc::QueryBody& body) {
  const auto& shards = ep.map->shards();
  // Every live owner's first attempt starts before any reply is awaited,
  // so the sub-queries are all in flight at once on their shards'
  // channels.
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(shards.size());
  std::vector<std::optional<Started>> started(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string& id = shards[i].id;
    payloads.push_back(
        rpc::encode_request(sub_request(*ep.map, base, body, id)));
    if (!ep.health->alive(id)) continue;
    Started& begun = started[i].emplace();
    try {
      fault::Injector::instance().check(kRouteSite);
      begun.call =
          state(ep, id).channel.start(rpc::FrameType::request, payloads[i]);
    } catch (const IoError&) {
      begun.failed = std::current_exception();
    }
  }
  // Gathered in map order. A failing owner's chain runs here, on this
  // worker: when several shards fail in one query, they fail over in turn.
  std::vector<SubResult> results;
  results.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    results.push_back(
        ask(ep, payloads[i], shards[i].id, std::move(started[i])));
  }
  return results;
}

// ---- merge ---------------------------------------------------------------

std::vector<const svc::Response*> Router::check_partials(
    const EpochState& ep, const std::vector<SubResult>& results,
    svc::Response& response) {
  std::vector<const svc::Response*> parts;
  std::vector<std::string> missing;
  for (const auto& r : results) {
    if (!r.response.has_value()) {
      missing.push_back(r.act_as);
      continue;
    }
    if (!r.response->status.ok()) {
      // Semantic refusal (BadRequest): propagate the first one verbatim,
      // naming the shard. Every daemon refuses identically.
      response.status = r.response->status;
      response.status.message =
          "shard " + r.act_as + ": " + response.status.message;
      return {};
    }
    parts.push_back(&*r.response);
  }
  if (parts.empty()) {
    response.status =
        svc::Status{svc::StatusCode::internal_error,
                    "no shard reachable: missing shard(s) " +
                        join_ids(missing)};
    return {};
  }

  std::uint64_t total = 0;
  std::uint64_t covered = 0;
  bool have_total = false;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const svc::Response& part = *parts[i];
    GS_REQUIRE(part.partial.has_value(),
               "shard sub-response carries no partial metadata");
    const svc::PartialMeta& meta = *part.partial;
    GS_REQUIRE(meta.epoch == ep.map->epoch(),
               "shard answered for epoch " << meta.epoch
                                           << ", this query pinned "
                                           << ep.map->epoch());
    if (meta.total_blocks == 0) continue;  // list_variables-style partial
    if (!have_total) {
      total = meta.total_blocks;
      have_total = true;
    }
    GS_REQUIRE(meta.total_blocks == total,
               "shards disagree on the block count: " << meta.total_blocks
                                                      << " vs " << total);
    covered += meta.covered_blocks;
    if (part.degraded) response.degraded = true;
  }
  GS_REQUIRE(covered <= total, "shards claim overlapping block coverage ("
                                   << covered << " of " << total << ")");

  if (covered < total) {
    response.degraded = true;
    response.bad_blocks = static_cast<std::size_t>(total - covered);
    if (!missing.empty()) {
      response.status.message =
          "degraded: missing shard(s) " + join_ids(missing);
    }
  }
  // covered == total with shards down means replicas picked up every
  // block: the answer is exact, nothing to flag.
  return parts;
}

svc::Response Router::merge_scattered(EpochState& ep,
                                      const svc::Request& request) {
  svc::Response response;
  response.id = request.id;
  response.verb = svc::verb_of(request.body);

  // The two-phase histogram agrees on the global range first: exact
  // min/max from a stats scatter, then every shard bins its partial
  // counts against the identical [lo, hi).
  svc::QueryBody body = request.body;
  std::vector<std::string> phase1_missing;
  if (const auto* q = std::get_if<svc::HistogramQ>(&request.body);
      q != nullptr && !q->has_range) {
    svc::Response stats_probe;
    stats_probe.verb = svc::Verb::field_stats;
    const auto stats_results = scatter(
        ep, request, svc::QueryBody{svc::FieldStatsQ{q->variable, q->step}});
    const auto stats_parts = check_partials(ep, stats_results, stats_probe);
    if (!stats_probe.status.ok()) {
      response.status = stats_probe.status;
      return response;
    }
    const ExactStats acc = merge_exact(stats_parts);
    const auto [lo, hi] = analysis::histogram_range(acc.min(), acc.max());
    svc::HistogramQ ranged = *q;
    ranged.has_range = true;
    ranged.lo = lo;
    ranged.hi = hi;
    body = ranged;
    // A shard missing in the range phase makes the range itself suspect:
    // even if every block is binned in phase two, the answer must stay
    // flagged — never silently different from a single-daemon run.
    if (stats_probe.degraded) {
      for (const auto& r : stats_results) {
        if (!r.response.has_value()) phase1_missing.push_back(r.act_as);
      }
      response.degraded = true;
      response.bad_blocks = stats_probe.bad_blocks;
    }
  }

  const auto results = scatter(ep, request, body);
  const auto parts = check_partials(ep, results, response);
  if (!response.status.ok()) return response;

  switch (response.verb) {
    case svc::Verb::list_variables: {
      // Any one listing is already exact (every daemon opens the whole
      // dataset); gathering from all reachable shards verifies agreement.
      std::vector<svc::ListVariablesR> listings;
      listings.reserve(parts.size());
      for (const svc::Response* part : parts) {
        listings.push_back(std::get<svc::ListVariablesR>(part->body));
      }
      response.body = svc::merge::merge_list_variables(listings);
      break;
    }
    case svc::Verb::field_stats: {
      response.body =
          svc::FieldStatsR{analysis::stats_from_exact(merge_exact(parts))};
      break;
    }
    case svc::Verb::histogram: {
      svc::HistogramR merged = std::get<svc::HistogramR>(parts[0]->body);
      for (std::size_t i = 1; i < parts.size(); ++i) {
        const auto& p = std::get<svc::HistogramR>(parts[i]->body);
        GS_REQUIRE(p.lo == merged.lo && p.hi == merged.hi &&
                       p.counts.size() == merged.counts.size(),
                   "histogram partials disagree on the bin range");
        for (std::size_t b = 0; b < merged.counts.size(); ++b) {
          merged.counts[b] += p.counts[b];
        }
        merged.total += p.total;
      }
      response.body = std::move(merged);
      break;
    }
    case svc::Verb::slice2d: {
      const auto& q = std::get<svc::Slice2DQ>(request.body);
      const auto& first = std::get<svc::Slice2DR>(parts[0]->body);
      svc::Slice2DR out;
      out.slice.nx = first.slice.nx;
      out.slice.ny = first.slice.ny;
      out.slice.values.assign(
          static_cast<std::size_t>(out.slice.nx * out.slice.ny), 0.0);
      for (const svc::Response* part : parts) {
        svc::merge::overlay_slice2d(std::get<svc::Slice2DR>(part->body),
                                    part->partial->coverage, q.axis, out);
      }
      svc::merge::finalize_slice_minmax(out);
      response.body = std::move(out);
      break;
    }
    case svc::Verb::read_box: {
      const auto& first = std::get<svc::ReadBoxR>(parts[0]->body);
      svc::ReadBoxR out;
      out.box = first.box;
      out.values.assign(static_cast<std::size_t>(out.box.volume()), 0.0);
      for (const svc::Response* part : parts) {
        svc::merge::overlay_read_box(std::get<svc::ReadBoxR>(part->body),
                                     part->partial->coverage, out);
      }
      response.body = std::move(out);
      break;
    }
    default:
      GS_THROW(Error, "unmergeable verb " << svc::to_string(response.verb));
  }

  if (!phase1_missing.empty() && response.status.message.empty()) {
    response.status.message =
        "degraded: missing shard(s) " + join_ids(phase1_missing);
  }
  return response;
}

svc::Response Router::route(const svc::Request& request) {
  // Pin the epoch this query routes under: a concurrent reload_map swaps
  // the current pointer but this query keeps its map/ring/channels — and
  // the reload's drain waits for the pin to drop.
  const Pin pin(this, snapshot());
  try {
    return merge_scattered(*pin.ep, request);
  } catch (const Error& e) {
    svc::Response response;
    response.id = request.id;
    response.verb = svc::verb_of(request.body);
    response.status =
        svc::Status{svc::StatusCode::internal_error, e.what()};
    return response;
  }
}

// ---- epoch handover ------------------------------------------------------

HandoverStats Router::reload_map(std::shared_ptr<const ShardMap> next) {
  GS_REQUIRE(next != nullptr, "reload_map needs a map");
  const std::lock_guard<std::mutex> rlock(reload_mu_);

  // VALIDATING (fault site shard.reload fires inside): a bad candidate
  // throws here and the serving epoch is untouched.
  const std::shared_ptr<EpochState> old = snapshot();
  validate_successor(*old->map, *next);
  const MapDiff diff = diff_maps(*old->map, *next);

  HandoverStats stats;
  stats.epoch_from = old->map->epoch();
  stats.epoch_to = next->epoch();
  stats.shards_added = diff.added.size();
  stats.shards_removed = diff.removed.size();
  stats.shards_moved = diff.moved.size();
  stats.shards_retained = diff.retained.size();

  // Publish: new queries pin the new epoch from this instant. Retained
  // shards share their ShardState (channel, latency history, health);
  // the ShardStates it replaced close their channels when the last
  // query pinned to `old` lets go of them.
  auto fresh = std::make_shared<EpochState>(next, config_, old.get());
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_ = fresh;
  }
  GS_INFO("router: epoch " << stats.epoch_from << " -> " << stats.epoch_to
                           << " published (+" << stats.shards_added << "/-"
                           << stats.shards_removed << "/~"
                           << stats.shards_moved << " shards), draining");

  // DRAINING (fault site shard.drain: a kill here models dying between
  // publish and drain — the committed map on disk stays authoritative).
  fault::Injector::instance().check(kDrainSite);
  const auto t0 = std::chrono::steady_clock::now();
  if (config_.drain_timeout_ms > 0) {
    std::unique_lock<std::mutex> lock(epoch_mu_);
    drain_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.drain_timeout_ms),
        [&old] {
          return old->in_flight.load(std::memory_order_acquire) == 0;
        });
  }
  stats.inflight_abandoned = old->in_flight.load(std::memory_order_acquire);
  stats.drained = stats.inflight_abandoned == 0;
  stats.drain_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    handover_ = stats;
  }
  GS_INFO("router: epoch " << stats.epoch_to << " committed ("
                           << (stats.drained ? "drained" : "drain timeout")
                           << " in " << stats.drain_seconds << "s, "
                           << stats.inflight_abandoned
                           << " old-epoch queries still running)");
  return stats;
}

HandoverStats Router::handover_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return handover_;
}

// ---- observability -------------------------------------------------------

RouterStats Router::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

json::Value Router::stats_json() const {
  json::Object obj;
  const std::shared_ptr<EpochState> ep = snapshot();

  // The Handler contract: report the dataset behind this endpoint. The
  // router itself never opens it, so ask a shard (once, lazily).
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    if (dataset_.empty()) {
      for (const auto& [id, st] : ep->shards) {
        if (!ep->health->alive(id)) continue;
        try {
          dataset_ = st->channel.server_stats().at("dataset").as_string();
          break;
        } catch (const IoError&) {
          continue;
        }
      }
    }
    obj["dataset"] = json::Value(dataset_);
  }

  json::Object router;
  router["epoch"] = json::Value(static_cast<std::int64_t>(ep->map->epoch()));
  router["ring_crc"] =
      json::Value(static_cast<std::int64_t>(ep->map->ring_crc()));
  router["handover"] = handover_stats().to_json();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    router["queries"] = json::Value(static_cast<std::int64_t>(stats_.queries));
    router["completed_ok"] =
        json::Value(static_cast<std::int64_t>(stats_.completed_ok));
    router["rejected_busy"] =
        json::Value(static_cast<std::int64_t>(stats_.rejected_busy));
    router["rejected_shutdown"] =
        json::Value(static_cast<std::int64_t>(stats_.rejected_shutdown));
    router["failed"] = json::Value(static_cast<std::int64_t>(stats_.failed));
    router["degraded_answers"] =
        json::Value(static_cast<std::int64_t>(stats_.degraded_answers));
    router["subqueries"] =
        json::Value(static_cast<std::int64_t>(stats_.subqueries));
    router["subquery_errors"] =
        json::Value(static_cast<std::int64_t>(stats_.subquery_errors));
    router["failovers"] =
        json::Value(static_cast<std::int64_t>(stats_.failovers));
  }

  json::Array shard_arr;
  const auto snapshots = ep->health->snapshot();
  for (const auto& [id, st] : ep->shards) {
    json::Object s;
    s["id"] = json::Value(st->info.id);
    s["endpoint"] = json::Value(st->info.endpoint);
    for (const auto& h : snapshots) {
      if (h.id != id) continue;
      s["state"] = json::Value(std::string(to_string(h.state)));
      s["successes"] = json::Value(static_cast<std::int64_t>(h.successes));
      s["failures"] = json::Value(static_cast<std::int64_t>(h.failures));
      s["went_dead"] = json::Value(static_cast<std::int64_t>(h.went_dead));
      s["went_live"] = json::Value(static_cast<std::int64_t>(h.went_live));
      break;
    }
    {
      std::lock_guard<std::mutex> lock(st->mu);
      s["calls"] = json::Value(static_cast<std::int64_t>(st->calls));
      s["errors"] = json::Value(static_cast<std::int64_t>(st->errors));
      rpc::put_latency(s, st->latencies.summary());
    }
    const auto channel = st->channel.stats();
    s["connects"] = json::Value(static_cast<std::int64_t>(channel.connects));
    s["in_flight"] =
        json::Value(static_cast<std::int64_t>(channel.in_flight));
    shard_arr.emplace_back(std::move(s));
  }
  router["shards"] = json::Value(std::move(shard_arr));

  obj["router"] = json::Value(std::move(router));
  return json::Value(std::move(obj));
}

}  // namespace gs::shard
