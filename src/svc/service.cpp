#include "svc/service.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/format.h"
#include "common/log.h"
#include "fault/fault.h"
#include "svc/merge.h"

namespace gs::svc {

namespace {

template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

/// The metrics JSON's latency keys: <prefix>count, <prefix>mean_s,
/// <prefix>p50_s, <prefix>p95_s and <prefix>p99_s.
void put_latency_s(json::Object& o, const std::string& prefix,
                   const LatencySummary& latency) {
  o[prefix + "count"] = json::Value(static_cast<std::int64_t>(latency.count));
  o[prefix + "mean_s"] = json::Value(latency.mean);
  o[prefix + "p50_s"] = json::Value(latency.p50);
  o[prefix + "p95_s"] = json::Value(latency.p95);
  o[prefix + "p99_s"] = json::Value(latency.p99);
}

}  // namespace

const char* to_string(Verb verb) {
  switch (verb) {
    case Verb::list_variables: return "ListVariables";
    case Verb::field_stats: return "FieldStats";
    case Verb::histogram: return "Histogram";
    case Verb::slice2d: return "Slice2D";
    case Verb::read_box: return "ReadBox";
  }
  return "?";
}

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::ok: return "ok";
    case StatusCode::server_busy: return "server_busy";
    case StatusCode::deadline_exceeded: return "deadline_exceeded";
    case StatusCode::bad_request: return "bad_request";
    case StatusCode::shutting_down: return "shutting_down";
    case StatusCode::internal_error: return "internal_error";
    case StatusCode::stale_epoch: return "stale_epoch";
  }
  return "?";
}

Verb verb_of(const QueryBody& body) {
  return std::visit(
      overloaded{[](const ListVariablesQ&) { return Verb::list_variables; },
                 [](const FieldStatsQ&) { return Verb::field_stats; },
                 [](const HistogramQ&) { return Verb::histogram; },
                 [](const Slice2DQ&) { return Verb::slice2d; },
                 [](const ReadBoxQ&) { return Verb::read_box; }},
      body);
}

// ------------------------------------------------------------------ Service

Service::Service(std::string path, ServiceConfig config)
    : path_(std::move(path)),
      reader_(path_),
      config_(std::move(config)),
      cache_(std::make_unique<BlockCache>(config_.cache_bytes,
                                          config_.cache_shards)),
      epoch_(SteadyClock::now()),
      admission_(config_.threads, config_.queue_capacity,
                 "admission queue full", "service is shutting down",
                 [this](Job job) { process(std::move(job)); },
                 [this](const Request& request, StatusCode code) {
                   count_outcome(verb_of(request.body), code, 0.0,
                                 request.tenant);
                 }) {
  if (!config_.mmap_reads) reader_.set_mmap(false);
  if (config_.shard_map) {
    shard_current_.map = config_.shard_map;
    shard_current_.ring = std::make_shared<const shard::Ring>(
        *config_.shard_map);
  }
}

double Service::since_epoch(SteadyClock::time_point tp) const {
  return std::chrono::duration<double>(tp - epoch_).count();
}

void Service::submit(Request request, Done done) {
  // Fault hook: an injected admission failure answers internal_error
  // instead of crashing the service (delay stalls admission; kill — a
  // simulated service crash — propagates to the caller).
  Status refusal;
  try {
    fault::Injector::instance().check("svc.admission");
  } catch (const IoError& e) {
    refusal = {StatusCode::internal_error, e.what()};
  }
  {
    const std::lock_guard<std::mutex> lock(metrics_mu_);
    ++submitted_;
    if (!request.tenant.empty()) {
      ++tenant_counters(request.tenant).submitted;
    }
  }
  admission_.submit(std::move(request), std::move(done), std::move(refusal));
}

json::Value Service::stats_json() const {
  json::Object obj;
  obj["dataset"] = json::Value(path_);
  obj["service"] = metrics().to_json();
  obj["reshard"] = reshard_stats().to_json();
  // The serving shard-map epoch, top-level so the gs::ctrl actuator can
  // confirm convergence with one stats round-trip (0 = unsharded).
  obj["epoch"] = json::Value(static_cast<std::int64_t>(shard_epoch()));
  return json::Value(std::move(obj));
}

void Service::process(Job job) {
  const auto dequeued = SteadyClock::now();

  Response response;
  response.id = job.request.id;
  response.verb = verb_of(job.request.body);
  response.queue_seconds =
      std::chrono::duration<double>(dequeued - job.submitted_at).count();

  if (config_.before_execute) config_.before_execute(job.request);

  const double timeout = job.request.timeout_seconds;
  const bool has_deadline = timeout != 0.0;
  const auto deadline = job.submitted_at +
                        std::chrono::duration_cast<SteadyClock::duration>(
                            std::chrono::duration<double>(timeout));
  const auto exec_start = SteadyClock::now();
  Status status;
  if (has_deadline && exec_start >= deadline) {
    status = {StatusCode::deadline_exceeded,
              "deadline expired before execution"};
  } else {
    try {
      response.body = execute(job.request, response);
    } catch (const shard::StaleEpochError& e) {
      status = {StatusCode::stale_epoch, e.what()};
    } catch (const gs::Error& e) {
      status = {StatusCode::bad_request, e.what()};
    } catch (const std::exception& e) {
      status = {StatusCode::internal_error, e.what()};
    }
    if (status.ok() && has_deadline && SteadyClock::now() > deadline) {
      status = {StatusCode::deadline_exceeded,
                "deadline expired during execution"};
    }
  }
  const auto exec_end = SteadyClock::now();
  if (!status.ok()) {
    response.body = std::monostate{};
    response.partial.reset();
  }
  response.status = std::move(status);
  response.exec_seconds =
      std::chrono::duration<double>(exec_end - exec_start).count();
  response.latency_seconds =
      std::chrono::duration<double>(exec_end - job.submitted_at).count();

  if (config_.profiler != nullptr) {
    prof::Span span;
    span.name = std::string("svc.") + to_string(response.verb);
    span.kind = prof::SpanKind::io_read;
    span.t0 = since_epoch(exec_start);
    span.t1 = since_epoch(exec_end);
    // Cache behavior mapped onto the counter schema: hits/misses of the
    // block cache, bytes actually fetched from subfiles.
    span.counters.tcc_hits = response.cache_hits;
    span.counters.tcc_misses = response.cache_misses;
    span.counters.fetch_bytes = response.disk_bytes;
    config_.profiler->record(std::move(span));
  }

  count_outcome(response.verb, response.status.code,
                response.latency_seconds, job.request.tenant);
  {
    const std::lock_guard<std::mutex> lock(metrics_mu_);
    if (response.degraded) ++degraded_;
    bytes_scanned_total_ += response.bytes_scanned;
    exec_seconds_total_ += response.exec_seconds;
  }
  job.done(std::move(response));
}

ResponseBody Service::execute(const Request& request, Response& response) {
  // A shard sub-query answers for the blocks its act_as owns under the
  // epoch it pins and reports them in PartialMeta; a plain query owns
  // every block, and the whole-array verbs count the cells no readable
  // block holds (a damaged block's) as zeros, the value a zero-filled
  // read of the whole array gives them.
  std::optional<ShardEpoch> ep;
  PartialMeta meta;
  if (request.shard.has_value()) {
    ep = pin_epoch(*request.shard);
    GS_REQUIRE(ep->map->find(request.shard->act_as) != nullptr,
               "unknown shard '" << request.shard->act_as
                                 << "' in sub-query");
    meta.epoch = ep->map->epoch();
  }
  const auto owned_block = [&](const std::string& variable,
                               std::int64_t step)
      -> std::function<bool(std::size_t)> {
    if (!ep) return [](std::size_t) { return true; };
    return [&, variable, step](std::size_t block) {
      return ep->ring->owner(shard::Ring::block_key(variable, step,
                                                    block)) ==
             request.shard->act_as;
    };
  };
  const auto unread_cells = [&](const std::string& variable,
                                std::int64_t read) -> std::uint64_t {
    if (ep) return 0;  // the other shards hold the rest
    const std::int64_t volume = reader_.info(variable).shape.volume();
    GS_REQUIRE(read <= volume, "blocks of \"" << variable
                                               << "\" hold more cells "
                                                  "than its shape");
    return static_cast<std::uint64_t>(volume - read);
  };
  ResponseBody body = std::visit(
      overloaded{
          [&](const ListVariablesQ&) -> ResponseBody {
            // The listing is metadata every shard holds whole; no block
            // filtering, the router cross-checks the copies instead.
            ListVariablesR r;
            r.n_steps = reader_.n_steps();
            for (const auto& name : reader_.variable_names()) {
              const auto info = reader_.info(name);
              r.variables.push_back(VarEntry{info.name, info.type, info.shape,
                                             info.steps, info.min, info.max});
            }
            return r;
          },
          [&](const FieldStatsQ& q) -> ResponseBody {
            ExactStats acc;
            std::int64_t read = 0;
            meta.total_blocks = scan_blocks(
                q.variable, q.step, owned_block(q.variable, q.step),
                [&](const BlockRef& ref) {
                  acc.merge(analysis::exact_stats(ref.data));
                  read += static_cast<std::int64_t>(ref.data.size());
                  ++meta.covered_blocks;
                },
                response);
            meta.stats = acc;
            acc.merge(ExactStats::from_parts(unread_cells(q.variable, read),
                                             0.0, 0.0, {}, {}));
            return FieldStatsR{analysis::stats_from_exact(acc)};
          },
          [&](const HistogramQ& q) -> ResponseBody {
            GS_REQUIRE(q.bins >= 1 && q.bins <= (1u << 20),
                       "histogram bins " << q.bins << " out of range");
            GS_REQUIRE(q.has_range || !ep,
                       "shard histogram sub-query needs an explicit "
                       "non-empty range");
            GS_REQUIRE(!q.has_range || q.hi > q.lo,
                       "histogram range [" << q.lo << "," << q.hi
                                           << ") empty");
            std::vector<BlockRef> refs;
            std::int64_t read = 0;
            meta.total_blocks = scan_blocks(
                q.variable, q.step, owned_block(q.variable, q.step),
                [&](const BlockRef& ref) {
                  refs.push_back(ref);
                  read += static_cast<std::int64_t>(ref.data.size());
                  ++meta.covered_blocks;
                },
                response);
            const std::uint64_t zeros = unread_cells(q.variable, read);
            double lo = q.lo;
            double hi = q.hi;
            if (!q.has_range) {
              // The two passes of field_histogram over the blocks: the
              // global range first, then every block binned against it.
              bool first = true;
              const auto widen = [&](std::pair<double, double> range) {
                lo = first ? range.first : std::min(lo, range.first);
                hi = first ? range.second : std::max(hi, range.second);
                first = false;
              };
              for (const BlockRef& ref : refs) {
                widen(analysis::field_range(ref.data));
              }
              if (zeros > 0) widen({0.0, 0.0});
              std::tie(lo, hi) = analysis::histogram_range(lo, hi);
            }
            Histogram h(lo, hi, q.bins);
            for (const BlockRef& ref : refs) {
              h.merge(analysis::field_histogram(ref.data, q.bins, lo, hi));
            }
            if (zeros > 0) h.add(0.0, zeros);
            return merge::histogram_response(h);
          },
          [&](const Slice2DQ& q) -> ResponseBody {
            const Box3 plane = slice_plane(q);
            const auto values =
                read_selection(q.variable, q.step, plane,
                               owned_block(q.variable, q.step), meta,
                               response);
            return Slice2DR{
                analysis::extract_slice(values, plane.count, q.axis, 0)};
          },
          [&](const ReadBoxQ& q) -> ResponseBody {
            auto values = read_selection(q.variable, q.step, q.box,
                                         owned_block(q.variable, q.step),
                                         meta, response);
            return ReadBoxR{q.box, std::move(values)};
          }},
      request.body);
  if (ep) response.partial = std::move(meta);
  return body;
}

Box3 Service::slice_plane(const Slice2DQ& q) const {
  GS_REQUIRE(q.axis >= 0 && q.axis < 3, "axis must be 0..2");
  const auto info = reader_.info(q.variable);
  GS_REQUIRE(q.coord >= 0 && q.coord < info.shape[q.axis],
             "slice coordinate " << q.coord << " outside axis extent "
                                 << info.shape[q.axis]);
  Box3 plane{{0, 0, 0}, info.shape};
  plane.start.axis(q.axis) = q.coord;
  plane.count.axis(q.axis) = 1;
  return plane;
}

Service::ShardEpoch Service::pin_epoch(const ShardSelector& sel) const {
  ShardEpoch ep;
  {
    const std::lock_guard<std::mutex> lock(shard_mu_);
    GS_REQUIRE(shard_current_.map != nullptr,
               "shard sub-query to a daemon without a shard map");
    if (sel.epoch == shard_current_.map->epoch()) {
      ep = shard_current_;
    } else if (shard_prev_.map != nullptr &&
               sel.epoch == shard_prev_.map->epoch() &&
               SteadyClock::now() < prev_expires_) {
      ep = shard_prev_;
    } else {
      GS_THROW(shard::StaleEpochError,
               "sub-query pins epoch " << sel.epoch << ", daemon serves "
                                       << shard_current_.map->epoch());
    }
  }
  // Same epoch, different ring: two maps claim the same epoch number —
  // split-brain placement, final refusal, NOT a retryable flip.
  GS_REQUIRE(sel.ring_crc == ep.map->ring_crc(),
             "shard map mismatch: daemon has epoch "
                 << ep.map->epoch() << "/ring " << ep.map->ring_crc()
                 << ", request carries epoch " << sel.epoch << "/ring "
                 << sel.ring_crc);
  return ep;
}

std::vector<BlockId> dataset_blocks(const bp::Reader& reader) {
  std::vector<BlockId> ids;
  for (const auto& name : reader.variable_names()) {
    const auto info = reader.info(name);
    for (std::int64_t step = 0; step < info.steps; ++step) {
      std::size_t n_blocks = 0;
      try {
        n_blocks = reader.blocks(name, step).size();
      } catch (const gs::Error&) {
        continue;  // scalar variable: no block layout
      }
      for (std::size_t b = 0; b < n_blocks; ++b) {
        ids.push_back(BlockId{name, step, b});
      }
    }
  }
  return ids;
}

shard::ReplacementStats Service::reload_shard_map(
    std::shared_ptr<const shard::ShardMap> next) {
  GS_REQUIRE(next != nullptr, "reload_shard_map needs a map");
  const std::lock_guard<std::mutex> rlock(reload_mu_);

  ShardEpoch current;
  {
    const std::lock_guard<std::mutex> lock(shard_mu_);
    current = shard_current_;
  }
  GS_REQUIRE(current.map != nullptr,
             "daemon without a shard map cannot adopt one by reload");
  shard::validate_successor(*current.map, *next);
  auto next_ring = std::make_shared<const shard::Ring>(*next);

  shard::ReplacementStats stats;
  stats.epoch_from = current.map->epoch();
  stats.epoch_to = next->epoch();

  // Replacement plan: exactly the blocks the new ring assigns to THIS
  // daemon that the old ring assigned elsewhere — the ring's minimal
  // movement, per owner.
  std::vector<BlockId> gained;
  if (!config_.shard_id.empty() && next->find(config_.shard_id) != nullptr) {
    for (BlockId& id : dataset_blocks(reader_)) {
      const std::string key =
          shard::Ring::block_key(id.variable, id.step, id.block);
      if (next_ring->owner(key) == config_.shard_id &&
          current.ring->owner(key) != config_.shard_id) {
        gained.push_back(std::move(id));
      }
    }
  }
  stats.blocks_planned = gained.size();

  // Atomic flip: the new epoch starts answering immediately; the old one
  // stays answerable for the grace window so routers can finish their
  // staggered flip without a single wrong or refused answer.
  const auto t0 = SteadyClock::now();
  {
    const std::lock_guard<std::mutex> lock(shard_mu_);
    shard_prev_ = std::move(shard_current_);
    shard_current_ = ShardEpoch{next, next_ring};
    prev_expires_ =
        t0 + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(config_.reload_grace_seconds));
  }

  // REPLACING: warm every gained block through the CRC-verified read
  // path into the cache/mmap tier. A block that fails stays degraded-
  // not-wrong — queries salvage around it exactly as for damage.
  for (const BlockId& g : gained) {
    try {
      fault::Injector::instance().check("shard.replace");
      Response scratch;
      const BlockRef ref =
          fetch_block_ref(g.variable, g.step, g.block, scratch);
      if (!ref.ok()) {
        ++stats.blocks_failed;
        continue;
      }
      stats.bytes_moved += ref.data.size() * sizeof(double);
      ++stats.blocks_moved;
    } catch (const IoError& e) {
      ++stats.blocks_failed;
      GS_WARN("svc: replacement of block " << g.block << " of " << g.variable
                                           << " step " << g.step
                                           << " failed: " << e.what());
    }
  }
  stats.seconds =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  {
    const std::lock_guard<std::mutex> lock(shard_mu_);
    reshard_stats_ = stats;
  }
  GS_INFO("svc: adopted shard map epoch "
          << stats.epoch_to << " (from " << stats.epoch_from << "): "
          << stats.blocks_moved << "/" << stats.blocks_planned
          << " blocks warmed, " << stats.blocks_failed << " failed");
  return stats;
}

shard::ReplacementStats Service::reshard_stats() const {
  const std::lock_guard<std::mutex> lock(shard_mu_);
  return reshard_stats_;
}

std::uint64_t Service::shard_epoch() const {
  const std::lock_guard<std::mutex> lock(shard_mu_);
  return shard_current_.map ? shard_current_.map->epoch() : 0;
}

std::vector<double> Service::read_selection(
    const std::string& variable, std::int64_t step, const Box3& selection,
    const std::function<bool(std::size_t)>& owned, PartialMeta& meta,
    Response& response) {
  GS_REQUIRE(!selection.empty(), "empty selection");
  const auto info = reader_.info(variable);
  GS_REQUIRE(selection.start.i >= 0 && selection.start.j >= 0 &&
                 selection.start.k >= 0 &&
                 selection.end().i <= info.shape.i &&
                 selection.end().j <= info.shape.j &&
                 selection.end().k <= info.shape.k,
             "selection " << selection << " outside shape " << info.shape);
  const auto blks = reader_.blocks(variable, step);  // rejects scalars
  meta.total_blocks = blks.size();

  std::vector<double> out(static_cast<std::size_t>(selection.volume()), 0.0);
  for (std::size_t b = 0; b < blks.size(); ++b) {
    if (!owned(b)) continue;
    const Box3 overlap = blks[b].box.intersect(selection);
    if (overlap.empty()) {
      // Owned but outside the selection: covered, nothing to copy.
      ++meta.covered_blocks;
      continue;
    }
    const BlockRef ref = fetch_block_ref(variable, step, b, response);
    if (!ref.ok()) continue;  // damaged: its cells stay zero, uncovered
    bp::copy_overlap(ref.data, blks[b].box, selection, out);
    meta.coverage.push_back(
        Box3{overlap.start - selection.start, overlap.count});
    ++meta.covered_blocks;
  }
  return out;
}

BlockData Service::fetch_block(const std::string& variable, std::int64_t step,
                               std::size_t block, Response& response) {
  BlockData data;
  bool hit = false;
  try {
    if (config_.cache_enabled) {
      data = cache_->get_or_load(
          BlockKey{path_, variable, step, static_cast<std::int32_t>(block)},
          [&] { return reader_.read_block(variable, step, block); }, &hit);
    } else {
      data = std::make_shared<const std::vector<double>>(
          reader_.read_block(variable, step, block));
    }
  } catch (const IoError& e) {
    // Salvage: a damaged block degrades the answer (its cells stay
    // zero) instead of failing the whole request. fault::Kill is not
    // an IoError and still crashes the request.
    response.degraded = true;
    ++response.bad_blocks;
    GS_WARN("svc: skipping damaged block " << block << " of " << variable
                                           << " step " << step << ": "
                                           << e.what());
    return nullptr;
  }
  if (hit) {
    ++response.cache_hits;
  } else {
    ++response.cache_misses;
    response.disk_bytes += data->size() * sizeof(double);
  }
  return data;
}

Service::BlockRef Service::fetch_block_ref(const std::string& variable,
                                           std::int64_t step,
                                           std::size_t block,
                                           Response& response) {
  BlockRef ref;
  if (reader_.mmap_enabled()) {
    bool first_touch = false;
    if (auto view = reader_.try_map_block(variable, step, block,
                                          &first_touch)) {
      ref.data = view->data;
      ref.hold = std::move(view->hold);
      const std::uint64_t bytes = ref.data.size() * sizeof(double);
      // First touch pays the CRC scan over cold pages — a disk read's
      // worth of I/O. Later views of the same block are served from the
      // shared mapping without touching the cache or the disk.
      if (first_touch) {
        ++response.cache_misses;
        response.disk_bytes += bytes;
      } else {
        ++response.cache_hits;
      }
      response.bytes_scanned += bytes;
      return ref;
    }
  }
  const BlockData data = fetch_block(variable, step, block, response);
  if (!data) return ref;  // damaged: fetch_block flagged the response
  ref.data = *data;
  ref.owned = data;
  response.bytes_scanned += ref.data.size() * sizeof(double);
  return ref;
}

std::size_t Service::scan_blocks(
    const std::string& variable, std::int64_t step,
    const std::function<bool(std::size_t)>& owned,
    const std::function<void(const BlockRef&)>& visit, Response& response) {
  const std::size_t n_blocks = reader_.blocks(variable, step).size();
  for (std::size_t b = 0; b < n_blocks; ++b) {
    if (!owned(b)) continue;
    const BlockRef ref = fetch_block_ref(variable, step, b, response);
    if (ref.ok()) visit(ref);
  }
  return n_blocks;
}

void Service::count_outcome(Verb verb, StatusCode code,
                            double latency_seconds,
                            const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(metrics_mu_);
  ++by_verb_outcome_[static_cast<std::size_t>(verb)]
                    [static_cast<std::size_t>(code)];
  if (code == StatusCode::ok) ok_latencies_.add(latency_seconds);
  if (!tenant.empty()) {
    TenantCounters& tc = tenant_counters(tenant);
    if (code == StatusCode::ok) {
      ++tc.completed_ok;
      tc.latencies.add(latency_seconds);
      if (config_.slo_seconds > 0.0 &&
          latency_seconds > config_.slo_seconds) {
        ++tc.slo_violations;
      }
    } else {
      ++tc.errors;
    }
  }
}

Service::TenantCounters& Service::tenant_counters(const std::string& tenant) {
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  if (tenants_.size() < kMaxTenants) return tenants_[tenant];
  return tenants_[kOtherTenant];
}

MetricsSnapshot Service::metrics() const {
  MetricsSnapshot m;
  m.queue_capacity = config_.queue_capacity;
  m.queue_depth = admission_.depth();
  m.max_queue_depth = admission_.max_depth();
  {
    const std::lock_guard<std::mutex> lock(metrics_mu_);
    m.submitted = submitted_;
    m.degraded = degraded_;
    m.bytes_scanned = bytes_scanned_total_;
    m.exec_seconds_total = exec_seconds_total_;
    m.by_verb_outcome = by_verb_outcome_;
    m.latency = ok_latencies_.summary();
    for (const auto& [name, tc] : tenants_) {
      m.tenants[name] = TenantMetrics{tc.submitted, tc.completed_ok,
                                      tc.errors, tc.slo_violations,
                                      tc.latencies.summary()};
    }
  }
  for (int v = 0; v < kNumVerbs; ++v) {
    const auto& row = m.by_verb_outcome[static_cast<std::size_t>(v)];
    m.completed_ok += row[static_cast<std::size_t>(StatusCode::ok)];
    m.rejected_busy += row[static_cast<std::size_t>(StatusCode::server_busy)];
    m.rejected_shutdown +=
        row[static_cast<std::size_t>(StatusCode::shutting_down)];
    m.deadline_exceeded +=
        row[static_cast<std::size_t>(StatusCode::deadline_exceeded)];
    m.bad_request += row[static_cast<std::size_t>(StatusCode::bad_request)];
    m.internal_error +=
        row[static_cast<std::size_t>(StatusCode::internal_error)];
    m.stale_epoch += row[static_cast<std::size_t>(StatusCode::stale_epoch)];
  }
  m.cache = cache_->stats();
  return m;
}

// --------------------------------------------------------- MetricsSnapshot

json::Value MetricsSnapshot::to_json() const {
  json::Object o;
  o["submitted"] = json::Value(submitted);
  o["completed_ok"] = json::Value(completed_ok);
  o["rejected_busy"] = json::Value(rejected_busy);
  o["rejected_shutdown"] = json::Value(rejected_shutdown);
  o["deadline_exceeded"] = json::Value(deadline_exceeded);
  o["bad_request"] = json::Value(bad_request);
  o["internal_error"] = json::Value(internal_error);
  o["stale_epoch"] = json::Value(stale_epoch);
  o["degraded"] = json::Value(degraded);

  json::Object verbs;
  for (int v = 0; v < kNumVerbs; ++v) {
    json::Object outcomes;
    for (int c = 0; c < kNumStatusCodes; ++c) {
      const std::uint64_t n = by_verb_outcome[static_cast<std::size_t>(v)]
                                             [static_cast<std::size_t>(c)];
      if (n != 0) {
        outcomes[to_string(static_cast<StatusCode>(c))] = json::Value(n);
      }
    }
    if (!outcomes.empty()) {
      verbs[to_string(static_cast<Verb>(v))] = json::Value(outcomes);
    }
  }
  o["by_verb"] = json::Value(verbs);

  json::Object queue;
  queue["depth"] = json::Value(static_cast<std::int64_t>(queue_depth));
  queue["max_depth"] = json::Value(static_cast<std::int64_t>(max_queue_depth));
  queue["capacity"] = json::Value(static_cast<std::int64_t>(queue_capacity));
  o["queue"] = json::Value(queue);

  json::Object lat;
  put_latency_s(lat, "", latency);
  o["latency"] = json::Value(lat);

  json::Object c;
  c["hits"] = json::Value(cache.hits);
  c["misses"] = json::Value(cache.misses);
  c["evictions"] = json::Value(cache.evictions);
  c["bytes"] = json::Value(cache.bytes);
  c["capacity_bytes"] = json::Value(cache.capacity_bytes);
  c["entries"] = json::Value(static_cast<std::int64_t>(cache.entries));
  c["hit_rate"] = json::Value(cache.hit_rate());
  o["cache"] = json::Value(c);

  json::Object io;
  io["bytes_scanned"] = json::Value(bytes_scanned);
  io["exec_seconds"] = json::Value(exec_seconds_total);
  io["effective_gbps"] =
      json::Value(exec_seconds_total > 0.0
                      ? static_cast<double>(bytes_scanned) /
                            exec_seconds_total / 1.0e9
                      : 0.0);
  o["io"] = json::Value(io);

  if (!tenants.empty()) {
    json::Object ts;
    for (const auto& [name, tm] : tenants) {
      json::Object entry;
      entry["submitted"] = json::Value(tm.submitted);
      entry["completed_ok"] = json::Value(tm.completed_ok);
      entry["errors"] = json::Value(tm.errors);
      entry["slo_violations"] = json::Value(tm.slo_violations);
      put_latency_s(entry, "latency_", tm.latency);
      ts[name] = json::Value(entry);
    }
    o["tenants"] = json::Value(ts);
  }
  return json::Value(o);
}

std::string MetricsSnapshot::report() const {
  TableFormatter t({"verb", "ok", "busy", "deadline", "bad", "shutdown",
                    "error", "stale"});
  for (int v = 0; v < kNumVerbs; ++v) {
    const auto& row = by_verb_outcome[static_cast<std::size_t>(v)];
    const auto cell = [&row](StatusCode c) {
      return std::to_string(row[static_cast<std::size_t>(c)]);
    };
    t.row({to_string(static_cast<Verb>(v)), cell(StatusCode::ok),
           cell(StatusCode::server_busy), cell(StatusCode::deadline_exceeded),
           cell(StatusCode::bad_request), cell(StatusCode::shutting_down),
           cell(StatusCode::internal_error), cell(StatusCode::stale_epoch)});
  }
  std::ostringstream oss;
  oss << t.str();
  oss << "submitted " << submitted << ", accounted " << accounted()
      << ", degraded " << degraded
      << ", queue depth " << queue_depth << " (max " << max_queue_depth
      << ", capacity "
      << (queue_capacity == 0 ? std::string("unbounded")
                              : std::to_string(queue_capacity))
      << ")\n";
  oss << "latency (n=" << latency.count
      << "): p50 " << format_seconds(latency.p50) << ", p95 "
      << format_seconds(latency.p95) << ", p99 "
      << format_seconds(latency.p99) << ", mean "
      << format_seconds(latency.mean) << "\n";
  oss << "cache: " << cache.hits << " hit / " << cache.misses << " miss ("
      << format_fixed(cache.hit_rate() * 100.0, 1) << "%), "
      << format_bytes(cache.bytes) << " resident of "
      << format_bytes(cache.capacity_bytes) << " budget, " << cache.evictions
      << " evictions\n";
  oss << "io: " << format_bytes(bytes_scanned) << " scanned in "
      << format_seconds(exec_seconds_total) << " exec";
  if (exec_seconds_total > 0.0) {
    oss << " ("
        << format_fixed(static_cast<double>(bytes_scanned) /
                            exec_seconds_total / 1.0e9,
                        2)
        << " GB/s effective)";
  }
  oss << "\n";
  for (const auto& [name, tm] : tenants) {
    oss << "tenant " << name << ": " << tm.completed_ok << " ok, "
        << tm.errors << " error, " << tm.slo_violations
        << " SLO violations, p50 " << format_seconds(tm.latency.p50)
        << ", p99 " << format_seconds(tm.latency.p99) << "\n";
  }
  return oss.str();
}

// ------------------------------------------------------------------ Client

Response& Client::exchange(QueryBody body) {
  Request request;
  request.body = std::move(body);
  request.timeout_seconds = timeout_;
  request.tenant = tenant_;
  last_ = service_->call(std::move(request));
  return last_;
}

}  // namespace gs::svc
