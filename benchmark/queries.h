// The analyst's side of gsbench: the seeded query space, the in-process
// ground truth every remote answer is checked against, and the traced
// in-process replay that times svc, bp and the rpc codecs one query at a
// time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gsbench.h"
#include "grid/box.h"
#include "svc/query.h"
#include "svc/service.h"

namespace gsbench {

/// splitmix64 stream: seeds fan out into independent streams by mixing.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Fisher-Yates with `rng`.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Distinct queries per workload.
inline constexpr std::size_t kQuerySpace = 64;

struct Query {
  gs::svc::Request request;
  std::string variable;
  std::int64_t step = 0;
  /// The cells the answer reads (bp::Reader::read replays this).
  gs::Box3 selection;
};

/// 64 distinct queries over an L^3 dataset with `n_steps` output steps:
/// 19 field_stats, 13 histogram (32 bins), 19 slice2d and 13 read_box (an
/// L/2-edge cube at a seeded offset) — 30/20/30/20%. Each reads U or V at
/// a uniformly drawn step; the 32 whole-array queries read distinct
/// variable-steps (cycling when the dataset has fewer), and slices and
/// boxes read within those.
std::vector<Query> make_queries(std::uint64_t seed, std::int64_t L,
                                std::int64_t n_steps);

/// CRC of the answer identity (verb, status, body), without ids/timings.
std::uint32_t identity_crc(const gs::svc::Response& response);

/// gsserved's service configuration with a `cache_mb` block cache.
gs::svc::ServiceConfig served_config(std::uint64_t cache_mb);

/// The identity CRC of every query, answered in-process. Throws unless
/// every answer is ok.
std::vector<std::uint32_t> ground_truth(gs::svc::Service& service,
                                        const std::vector<Query>& queries);

/// What one answer's server-side stamps say, plus the client's latency.
struct Answer {
  double latency = 0.0;  ///< client: call -> decoded answer, s
  double server = 0.0;   ///< Response::latency_seconds
  double queue = 0.0;
  double exec = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t disk_bytes = 0;
  std::uint64_t scanned = 0;
};
Answer answer_of(const gs::svc::Response& response, double latency);

/// svc.queue_p50/p95_ms, svc.exec_p50_ms, svc.scan_GBps,
/// svc.cache_hit_ratio and bp.disk_mb_per_req over `answers`.
void add_stamp_metrics(const std::vector<Answer>& answers,
                       std::vector<Metric>& out);

/// Traced in-process replay: each query once through svc::Service::call
/// ("svc.call"), the four rpc codecs ("rpc.codec") and bp::Reader::read
/// of its selection ("bp.read"), every answer checked. Returns the
/// in-process answers.
std::vector<Answer> replay(gs::svc::Service& service,
                           const std::vector<Query>& queries,
                           const std::vector<std::uint32_t>& expected);

/// p50 of the recorded spans named `name`, in `scale` units per second.
double span_p50(const std::string& name, double scale);

}  // namespace gsbench
