// gs::svc query model — the typed verbs of the paper's interactive
// analysis session (Figure 9): a JupyterHub/Makie notebook listing the
// dataset, pulling per-step statistics and histograms, rendering 2-D
// slices, and issuing box-selection reads. Each request carries an id and
// a deadline; each response is a typed Expected that either holds the
// verb's payload or a Status explaining why the service refused it
// (admission control, deadline, bad input).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "analysis/analysis.h"
#include "common/error.h"
#include "common/stats.h"
#include "grid/box.h"

namespace gs::svc {

// ---- verbs ---------------------------------------------------------------

enum class Verb {
  list_variables,
  field_stats,
  histogram,
  slice2d,
  read_box,
};
inline constexpr int kNumVerbs = 5;

const char* to_string(Verb verb);

// ---- status --------------------------------------------------------------

enum class StatusCode {
  ok,
  server_busy,        ///< admission queue full — request rejected, not lost
  deadline_exceeded,  ///< the request's deadline expired before completion
  bad_request,        ///< invalid variable/step/box/bins
  shutting_down,      ///< service no longer accepts work
  internal_error,     ///< unexpected failure while executing
  /// Sub-query pinned an epoch this daemon no longer (or not yet)
  /// serves. RETRYABLE — the router tries a replica or degrades
  /// explicitly; distinct from bad_request, which is final.
  stale_epoch,
};
inline constexpr int kNumStatusCodes = 7;

const char* to_string(StatusCode code);

struct Status {
  StatusCode code = StatusCode::ok;
  std::string message;

  bool ok() const { return code == StatusCode::ok; }
};

/// Either a verb's typed payload or the Status that prevented it.
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}
  Expected(Status error) : status_(std::move(error)) {
    GS_ASSERT(!status_.ok(), "Expected error must carry a non-ok status");
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Status& status() const { return status_; }

  const T& value() const {
    GS_ASSERT(ok(), "Expected::value() on error response");
    return *value_;
  }
  T& value() {
    GS_ASSERT(ok(), "Expected::value() on error response");
    return *value_;
  }

 private:
  Status status_;
  std::optional<T> value_;
};

// ---- requests ------------------------------------------------------------

struct ListVariablesQ {};

struct FieldStatsQ {
  std::string variable;
  std::int64_t step = 0;
};

struct HistogramQ {
  std::string variable;
  std::int64_t step = 0;
  std::size_t bins = 32;
  /// Explicit bin range. Without it the service bins over the data's own
  /// [min, max]; the shard router's two-phase histogram sets it so every
  /// shard bins its partial counts against the globally-agreed range.
  bool has_range = false;
  double lo = 0.0;
  double hi = 0.0;
};

struct Slice2DQ {
  std::string variable;
  std::int64_t step = 0;
  int axis = 2;
  std::int64_t coord = 0;
};

struct ReadBoxQ {
  std::string variable;
  std::int64_t step = 0;
  Box3 box;
};

using QueryBody =
    std::variant<ListVariablesQ, FieldStatsQ, HistogramQ, Slice2DQ, ReadBoxQ>;

Verb verb_of(const QueryBody& body);

/// Attached by the gs::shard router to a scattered sub-query: "answer
/// only for the blocks shard `act_as` owns under this placement". A
/// daemon may be asked to act as a DIFFERENT member (failover: every
/// shard opens the same dataset directory, so a replica can serve a dead
/// owner's blocks bit-exactly). The epoch/ring_crc pair guards against
/// split-brain placement: a daemon whose shard map disagrees refuses the
/// sub-query with BadRequest instead of silently answering for the wrong
/// block set.
struct ShardSelector {
  std::uint64_t epoch = 0;
  std::uint32_t ring_crc = 0;
  std::string act_as;
};

/// Partial-answer metadata attached to a shard's sub-response. Block
/// counts cover ALL blocks of (variable, step) — `covered` is how many
/// this shard owns and answered for — so the router can verify the
/// scatter covered every block exactly once. `coverage` boxes are in
/// selection-local coordinates for slice/read reassembly, and
/// field-stats partials carry the exact accumulator so merged moments
/// are bitwise those of a single-daemon scan.
struct PartialMeta {
  std::uint64_t epoch = 0;
  std::uint64_t covered_blocks = 0;
  std::uint64_t total_blocks = 0;
  std::vector<Box3> coverage;
  std::optional<ExactStats> stats;
};

struct Request {
  /// Assigned by the service at submit time (unique per service instance).
  std::uint64_t id = 0;
  QueryBody body;
  /// Relative deadline: > 0 enforces `now + timeout_seconds`; 0 means no
  /// deadline; < 0 means already expired (callers propagating an exhausted
  /// budget — the request is admitted but answered DeadlineExceeded).
  double timeout_seconds = 0.0;
  /// Multi-tenant attribution tag ("" = untagged). The service keeps
  /// per-tenant latency/outcome metrics and SLO-violation counters keyed
  /// by this name; it grants no privileges and never changes an answer.
  std::string tenant;
  /// Present only on router -> shard sub-queries.
  std::optional<ShardSelector> shard;
};

// ---- responses -----------------------------------------------------------

struct VarEntry {
  std::string name;
  std::string type;
  Index3 shape;
  std::int64_t steps = 0;
  double min = 0.0;
  double max = 0.0;
};

struct ListVariablesR {
  std::int64_t n_steps = 0;
  std::vector<VarEntry> variables;
};

struct FieldStatsR {
  analysis::FieldStats stats;
};

struct HistogramR {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::size_t> counts;
  std::size_t total = 0;
};

struct Slice2DR {
  analysis::Slice2D slice;
};

struct ReadBoxR {
  Box3 box;
  std::vector<double> values;  ///< column-major over box.count
};

using ResponseBody = std::variant<std::monostate, ListVariablesR, FieldStatsR,
                                  HistogramR, Slice2DR, ReadBoxR>;

/// The service's answer to one Request. `body` holds the verb's payload
/// only when `status.ok()`.
struct Response {
  std::uint64_t id = 0;
  Verb verb = Verb::list_variables;
  Status status;
  ResponseBody body;

  /// Salvage flag: the answer is ok() but one or more corrupted/unreadable
  /// blocks were skipped (their cells read as zeros). A partial answer
  /// beats failing the whole request when one OST ate a block.
  bool degraded = false;
  std::size_t bad_blocks = 0;  ///< damaged blocks skipped while answering

  /// Present only on shard sub-responses (requests that carried a
  /// ShardSelector). Absent on every client-facing answer: the router
  /// consumes it while merging, so a routed response is indistinguishable
  /// from a single-daemon one.
  std::optional<PartialMeta> partial;

  // Request tracing: where the time went and what the cache did.
  double queue_seconds = 0.0;    ///< admission queue wait
  double exec_seconds = 0.0;     ///< execution on the worker
  double latency_seconds = 0.0;  ///< submit -> completion
  /// Block fetches served without new I/O: a block-cache hit, or an
  /// mmap view whose CRC already passed on an earlier touch.
  std::size_t cache_hits = 0;
  /// Block fetches that paid I/O: a disk read, or the first-touch CRC
  /// scan of a freshly mapped block (cold page-cache faults).
  std::size_t cache_misses = 0;
  std::uint64_t disk_bytes = 0;  ///< payload bytes a cache_miss fetched
  /// Payload bytes examined to produce the answer, across EVERY block
  /// fetch — hits included. bytes_scanned / exec_seconds is the query's
  /// effective scan bandwidth (gsquery --stats-json).
  std::uint64_t bytes_scanned = 0;
};

/// One typed method per verb, shared by the in-process svc::Client and
/// the remote rpc::Client. `Caller::exchange(QueryBody)` sends the query
/// and returns the raw Response it keeps as last_response(); each verb
/// moves its payload out of it, or returns the Status answered instead.
template <typename Caller>
class TypedVerbs {
 public:
  Expected<ListVariablesR> list_variables() {
    return ask<ListVariablesR>(ListVariablesQ{});
  }
  Expected<FieldStatsR> field_stats(const std::string& variable,
                                    std::int64_t step) {
    return ask<FieldStatsR>(FieldStatsQ{variable, step});
  }
  Expected<HistogramR> histogram(const std::string& variable,
                                 std::int64_t step, std::size_t bins) {
    return ask<HistogramR>(HistogramQ{variable, step, bins});
  }
  Expected<Slice2DR> slice2d(const std::string& variable, std::int64_t step,
                             int axis, std::int64_t coord) {
    return ask<Slice2DR>(Slice2DQ{variable, step, axis, coord});
  }
  Expected<ReadBoxR> read_box(const std::string& variable, std::int64_t step,
                              const Box3& box) {
    return ask<ReadBoxR>(ReadBoxQ{variable, step, box});
  }

 private:
  template <typename R>
  Expected<R> ask(QueryBody body) {
    Response& response = static_cast<Caller&>(*this).exchange(std::move(body));
    if (!response.status.ok()) return Expected<R>(response.status);
    R* payload = std::get_if<R>(&response.body);
    GS_REQUIRE(payload != nullptr, "response body does not match its verb");
    return Expected<R>(std::move(*payload));
  }
};

}  // namespace gs::svc
