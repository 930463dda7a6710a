// gs::svc service core — a concurrent dataset-analysis server over a
// BP-mini dataset: the consumer side of the paper's workflow (Figure 9)
// turned into a load-bearing serving layer, the way many analysts hammer
// one shared simulation output.
//
// Architecture:
//   * a pool of worker threads pulls requests from a bounded admission
//     queue (svc::Admission, behind the svc::Handler interface); when the queue is full, submit() answers ServerBusy
//     immediately (backpressure — rejects are counted, never lost, and
//     nobody blocks or crashes);
//   * every request carries an optional deadline, enforced when a worker
//     dequeues it and again after execution (DeadlineExceeded);
//   * block loads go through a sharded LRU BlockCache so repeated
//     slice/stats queries stop re-reading subfiles from disk; cached and
//     uncached paths assemble bitwise-identical answers;
//   * shutdown() drains: queued and in-flight requests complete, new
//     submissions are refused with ShuttingDown;
//   * observability: each request is recorded as a span in a shared
//     gs::prof::Profiler (Chrome trace with one lane per worker thread)
//     and aggregated into a MetricsSnapshot (per-verb/outcome counts,
//     p50/p95/p99 latency, queue depth, rejects, cache hit rate).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bp/reader.h"
#include "common/stats.h"
#include "config/json.h"
#include "prof/profiler.h"
#include "shard/map.h"
#include "shard/reshard.h"
#include "svc/admission.h"
#include "svc/cache.h"
#include "svc/query.h"

namespace gs::svc {

struct ServiceConfig {
  /// Request-handling worker threads, the service's only parallel axis:
  /// each runs its gs::par regions inline (svc::Admission), so answers
  /// stay bitwise identical and throughput scales with this count.
  std::size_t threads = 2;
  /// Admission-queue bound; 0 disables admission control (unbounded).
  std::size_t queue_capacity = 64;
  std::uint64_t cache_bytes = 64ull << 20;
  std::size_t cache_shards = 8;
  bool cache_enabled = true;
  /// Serve uncompressed double blocks as zero-copy spans over mmap'd
  /// subfiles (bp::Reader::try_map_block) instead of heap copies through
  /// the block cache. Answers are bitwise-identical either way; blocks
  /// the mmap path cannot serve (compressed, float, damaged, no mmap on
  /// the platform) fall back to the copying route per fetch. Off forces
  /// every fetch through the copying/cached path — tests asserting exact
  /// BlockCache counters set this to false.
  bool mmap_reads = true;
  /// Shared trace sink; may be null. Safe to share across services —
  /// Profiler::record is thread-safe.
  prof::Profiler* profiler = nullptr;
  /// Instrumentation hook, invoked on the worker thread right before an
  /// admitted request executes (tests use it to park workers; telemetry
  /// can use it to sample queue states). Must be thread-safe.
  std::function<void(const Request&)> before_execute;
  /// Latency SLO for ok() responses, seconds (0 = no SLO). Completed
  /// requests slower than this bump the owning tenant's slo_violations
  /// counter — the service keeps answering; the counter is the signal.
  double slo_seconds = 0.0;
  /// Cluster membership (gsserved --shard-map). When set, requests that
  /// carry a ShardSelector are answered PARTIALLY — only the blocks the
  /// selector's `act_as` shard owns under this map — with PartialMeta
  /// attached for the router's exact merge. Requests without a selector
  /// are served whole, exactly as on a non-member daemon.
  std::shared_ptr<const shard::ShardMap> shard_map;
  /// This daemon's own id within shard_map (gsserved --shard-id). Used
  /// during an epoch handover to warm exactly the blocks the new ring
  /// newly assigns to this daemon; empty skips replacement warming.
  std::string shard_id;
  /// After reload_shard_map flips to a new epoch, sub-queries pinning the
  /// PREVIOUS epoch stay answerable for this long (the routers' staggered
  /// flip window). Past it they refuse with stale_epoch.
  double reload_grace_seconds = 2.0;
};

/// The tenant tag is untrusted wire input: only the first kMaxTenants
/// distinct tags get an entry; every later new tag books under kOtherTenant.
inline constexpr std::size_t kMaxTenants = 64;
inline constexpr const char* kOtherTenant = "(other)";

/// Per-tenant slice of the service metrics (requests tagged with
/// Request::tenant; untagged traffic is not attributed), bounded at
/// kMaxTenants entries plus kOtherTenant.
struct TenantMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t errors = 0;  ///< every non-ok final status
  /// ok() responses whose latency exceeded ServiceConfig::slo_seconds.
  std::uint64_t slo_violations = 0;
  LatencySummary latency;  ///< ok() responses, seconds
};

/// Point-in-time service metrics (counters are cumulative since start).
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t rejected_busy = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t internal_error = 0;
  /// Sub-queries refused because they pinned an epoch this daemon no
  /// longer (or not yet) serves — retryable, the routers' signal.
  std::uint64_t stale_epoch = 0;
  /// ok() responses that skipped damaged blocks (Response::degraded).
  std::uint64_t degraded = 0;

  /// Sum of Response::bytes_scanned over completed requests: payload
  /// bytes examined (mmap views and heap copies, cache hits included).
  std::uint64_t bytes_scanned = 0;
  /// Sum of Response::exec_seconds over completed requests; together
  /// with bytes_scanned this yields the service's effective scan
  /// bandwidth (the "io" object of to_json()).
  double exec_seconds_total = 0.0;

  /// Requests by verb and final status code.
  std::array<std::array<std::uint64_t, kNumStatusCodes>, kNumVerbs>
      by_verb_outcome{};

  std::size_t queue_depth = 0;      ///< at snapshot time
  std::size_t max_queue_depth = 0;  ///< high-water mark
  std::size_t queue_capacity = 0;   ///< 0 = unbounded

  /// Latency of successfully completed requests, seconds.
  LatencySummary latency;

  CacheStats cache;

  /// Per-tenant breakdown, keyed by Request::tenant (sorted by name).
  std::map<std::string, TenantMetrics> tenants;

  /// Every submitted request is accounted for exactly once.
  std::uint64_t accounted() const {
    return completed_ok + rejected_busy + rejected_shutdown +
           deadline_exceeded + bad_request + internal_error + stale_epoch;
  }

  json::Value to_json() const;
  std::string report() const;  ///< human-readable table
};

/// One (variable, step, block) of a dataset's block layout: the unit a
/// shard ring places (shard::Ring::block_key names it).
struct BlockId {
  std::string variable;
  std::int64_t step = 0;
  std::size_t block = 0;
};

/// Every block of `reader`'s dataset, in variable, step, block order.
/// Scalar variables have no block layout and are skipped. The one walk
/// behind replacement warming, gsctl's block-key universe and the
/// benches' ring-movement bounds.
std::vector<BlockId> dataset_blocks(const bp::Reader& reader);

class Service : public Handler {
 public:
  /// Opens the dataset at `path` (throws gs::IoError if absent/corrupt)
  /// and starts the worker pool.
  explicit Service(std::string path, ServiceConfig config = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // svc::Handler -----------------------------------------------------------
  /// Handler::submit. Fault site "svc.admission": an injected IoError is
  /// refused internal_error inline; a fault::Kill propagates.
  void submit(Request request, Done done) override;
  using Handler::submit;
  /// "dataset", the "service" metrics, "reshard" and the serving "epoch".
  json::Value stats_json() const override;
  std::size_t queue_depth() const override { return admission_.depth(); }

  /// Stops admission, drains every queued and in-flight request, joins
  /// the workers. Idempotent; also runs on destruction.
  void shutdown() { admission_.shutdown(); }

  /// Adopts `next` as the serving shard map (the daemon half of an epoch
  /// handover). Validates it against the current epoch (strictly
  /// increasing, sane membership — throws gs::Error and keeps serving the
  /// old epoch otherwise), atomically publishes the new ring while the
  /// old epoch stays answerable for config().reload_grace_seconds, then
  /// warms every block the new ring newly assigns to config().shard_id
  /// through the CRC-verified read path, accounting the cost. Serialized
  /// against concurrent reloads; queries keep flowing throughout.
  /// Fault sites: "shard.reload" (validation), "shard.replace" (per
  /// warmed block).
  shard::ReplacementStats reload_shard_map(
      std::shared_ptr<const shard::ShardMap> next);

  /// The last handover's replacement accounting ("reshard" in the stats
  /// RPC); zero-valued before the first reload.
  shard::ReplacementStats reshard_stats() const;

  /// The shard-map epoch this daemon currently serves ("epoch" in the
  /// stats RPC — how the gs::ctrl actuator observes convergence); 0 when
  /// no map is loaded (unsharded daemon).
  std::uint64_t shard_epoch() const;

  MetricsSnapshot metrics() const;

  const bp::Reader& reader() const { return reader_; }
  const std::string& path() const { return path_; }
  const ServiceConfig& config() const { return config_; }
  BlockCache& cache() { return *cache_; }

 private:
  using SteadyClock = std::chrono::steady_clock;

  /// Serves one admitted request on an Admission worker.
  void process(Job job);
  /// Executes the verb (cached reads); throws gs::Error for bad input.
  /// A shard sub-query (`request.shard`) answers only for the blocks its
  /// act_as owns under the pinned epoch and attaches PartialMeta.
  ResponseBody execute(const Request& request, Response& response);
  /// One epoch's placement: the map and its ring, swapped as a unit.
  struct ShardEpoch {
    std::shared_ptr<const shard::ShardMap> map;
    std::shared_ptr<const shard::Ring> ring;
  };
  /// Resolves the epoch a sub-query pins: the current one, or the
  /// previous one within its grace window. Throws StaleEpochError
  /// (-> stale_epoch, retryable) when the pinned epoch is neither;
  /// throws gs::Error (-> BadRequest, final) on same-epoch ring_crc
  /// disagreement — that is split-brain, not a flip in progress.
  ShardEpoch pin_epoch(const ShardSelector& sel) const;
  /// The plane a Slice2DQ reads, after checking its axis and coordinate
  /// against the variable's shape.
  Box3 slice_plane(const Slice2DQ& q) const;
  /// Selection read through the block cache over the blocks `owned(b)`
  /// accepts: with every block owned, bitwise-identical to
  /// bp::Reader::read on the same selection. Unowned and damaged blocks'
  /// cells stay zero. `meta` gets the step's block count, the owned
  /// blocks covered and their coverage boxes (selection-local) for the
  /// router's overlay merge. A daemon without a shard role owns every
  /// block.
  std::vector<double> read_selection(
      const std::string& variable, std::int64_t step, const Box3& selection,
      const std::function<bool(std::size_t)>& owned, PartialMeta& meta,
      Response& response);
  /// One cached/salvaged block fetch; nullptr means the block is damaged
  /// (the response has been flagged degraded and the block counted).
  BlockData fetch_block(const std::string& variable, std::int64_t step,
                        std::size_t block, Response& response);
  /// One block payload for query execution: a span over either a
  /// zero-copy mmap view (`hold` pins the mapping) or a cached/owned
  /// heap copy (`owned` pins the copy). !ok() = damaged block, already
  /// accounted on the response by fetch_block.
  struct BlockRef {
    std::span<const double> data;
    BlockData owned;
    std::shared_ptr<const bp::MappedFile> hold;
    bool ok() const { return owned != nullptr || hold != nullptr; }
  };
  /// fetch_block with the zero-copy fast path: tries the Reader's mmap
  /// view first (config_.mmap_reads), falls back to the cached copying
  /// route. Maintains the response's fetch counters on both routes.
  BlockRef fetch_block_ref(const std::string& variable, std::int64_t step,
                           std::size_t block, Response& response);
  /// The per-block loop of the whole-array verbs: fetches, once each and
  /// in block order, the blocks of variable/step that `owned(b)` accepts
  /// and calls `visit(ref)` on each readable one. A damaged block is
  /// skipped (fetch_block_ref has flagged the response). Returns the
  /// step's block count. A daemon without a shard role owns every block.
  std::size_t scan_blocks(const std::string& variable, std::int64_t step,
                          const std::function<bool(std::size_t)>& owned,
                          const std::function<void(const BlockRef&)>& visit,
                          Response& response);
  void count_outcome(Verb verb, StatusCode code, double latency_seconds,
                     const std::string& tenant);
  double since_epoch(SteadyClock::time_point tp) const;

  std::string path_;
  bp::Reader reader_;
  ServiceConfig config_;
  std::unique_ptr<BlockCache> cache_;
  SteadyClock::time_point epoch_;

  // Shard placement (all null/zero on non-member daemons). shard_mu_
  // guards the epoch pair; workers snapshot the shared_ptrs and drop the
  // lock, so a reload never blocks behind a long query.
  mutable std::mutex shard_mu_;
  ShardEpoch shard_current_;
  ShardEpoch shard_prev_;
  SteadyClock::time_point prev_expires_{};
  shard::ReplacementStats reshard_stats_;
  std::mutex reload_mu_;  ///< serializes concurrent reload_shard_map calls

  // Metrics (workers update while clients snapshot).
  mutable std::mutex metrics_mu_;
  std::uint64_t submitted_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t bytes_scanned_total_ = 0;
  double exec_seconds_total_ = 0.0;
  std::array<std::array<std::uint64_t, kNumStatusCodes>, kNumVerbs>
      by_verb_outcome_{};
  LatencyHistogram ok_latencies_;
  struct TenantCounters {
    std::uint64_t submitted = 0;
    std::uint64_t completed_ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t slo_violations = 0;
    LatencyHistogram latencies;
  };
  std::map<std::string, TenantCounters> tenants_;
  /// The entry that books `tenant`: its own while the table has room, else
  /// kOtherTenant (TenantMetrics). Caller holds metrics_mu_.
  TenantCounters& tenant_counters(const std::string& tenant);

  // Last, so it is destroyed first: its workers call process(), and they
  // drain and stop before the members above go.
  Admission admission_;
};

/// Typed in-process client: one call per verb, each returning a typed
/// Expected (the payload, or the Status the service answered with).
/// Thin and stateless — many clients can share one Service.
class Client : public TypedVerbs<Client> {
 public:
  /// `default_timeout_seconds` is attached to every request (0 = none);
  /// `tenant` tags every request for per-tenant metrics ("" = untagged).
  explicit Client(Service& service, double default_timeout_seconds = 0.0,
                  std::string tenant = "")
      : service_(&service),
        timeout_(default_timeout_seconds),
        tenant_(std::move(tenant)) {}

  /// The raw Response of the last call (timings, cache counters).
  const Response& last_response() const { return last_; }

 private:
  friend class TypedVerbs<Client>;
  Response& exchange(QueryBody body);

  Service* service_;
  double timeout_;
  std::string tenant_;
  Response last_;
};

}  // namespace gs::svc
