#include "queries.h"

#include <algorithm>
#include <future>
#include <set>

#include "common/checksum.h"
#include "rpc/wire.h"
#include "trace.h"

namespace gsbench {

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return Rng(a ^ (b * 0xd1b54a32d192ed03ull)).next();
}

std::vector<Query> make_queries(std::uint64_t seed, std::int64_t L,
                                std::int64_t n_steps) {
  // Every seed gets the same amount of work, so that seeds differ in which
  // queries run, not in how much they cost: fixed counts per verb, and the
  // whole-array queries read distinct variable-steps, so the data the
  // queries touch has the same size for every seed.
  constexpr std::size_t kStats = 19, kHistograms = 13, kSlices = 19;
  const auto u64 = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  Rng rng(mix(seed, 0x51u));
  std::vector<std::pair<char, std::int64_t>> var_steps;
  for (const char v : {'U', 'V'}) {
    for (std::int64_t s = 0; s < n_steps; ++s) var_steps.emplace_back(v, s);
  }
  shuffle(var_steps, rng);
  const std::size_t touched = std::min(kStats + kHistograms, var_steps.size());
  const auto query_at = [&](std::size_t k) {
    Query q;
    q.variable.assign(1, var_steps[k].first);
    q.step = var_steps[k].second;
    q.selection = gs::Box3{{0, 0, 0}, {L, L, L}};
    return q;
  };

  std::vector<Query> out;
  for (std::size_t i = 0; i < kStats + kHistograms; ++i) {
    Query q = query_at(i % var_steps.size());
    if (i < kStats) {
      q.request.body = gs::svc::FieldStatsQ{q.variable, q.step};
    } else {
      q.request.body = gs::svc::HistogramQ{q.variable, q.step, 32};
    }
    out.push_back(std::move(q));
  }
  // Slices (cycling through the three axes) and boxes read parts of the
  // same variable-steps. A repeat is drawn again (a CRC collision only
  // costs one extra draw).
  std::set<std::uint32_t> seen;
  while (out.size() < kQuerySpace) {
    Query q = query_at(rng.below(touched));
    if (out.size() < kStats + kHistograms + kSlices) {
      const int axis = static_cast<int>(out.size() % 3);
      const auto coord = static_cast<std::int64_t>(rng.below(u64(L)));
      q.selection.start.axis(axis) = coord;
      q.selection.count.axis(axis) = 1;
      q.request.body = gs::svc::Slice2DQ{q.variable, q.step, axis, coord};
    } else {
      for (int axis = 0; axis < 3; ++axis) {
        q.selection.start.axis(axis) =
            static_cast<std::int64_t>(rng.below(u64(L / 2) + 1));
        q.selection.count.axis(axis) = L / 2;
      }
      q.request.body = gs::svc::ReadBoxQ{q.variable, q.step, q.selection};
    }
    if (seen.insert(gs::crc32(gs::rpc::encode_request(q.request))).second) {
      out.push_back(std::move(q));
    }
  }
  return out;
}

std::uint32_t identity_crc(const gs::svc::Response& response) {
  const auto bytes = gs::rpc::encode_answer_identity(response);
  return gs::crc32(std::span<const std::byte>(bytes.data(), bytes.size()));
}

gs::svc::ServiceConfig served_config(std::uint64_t cache_mb) {
  gs::svc::ServiceConfig config;  // gsserved: --threads 2 --cache-mb 64
  config.threads = 2;
  config.cache_bytes = cache_mb << 20;
  return config;
}

std::vector<std::uint32_t> ground_truth(gs::svc::Service& service,
                                        const std::vector<Query>& queries) {
  std::vector<std::future<gs::svc::Response>> pending;
  for (const Query& q : queries) pending.push_back(service.submit(q.request));
  std::vector<std::uint32_t> crcs;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const gs::svc::Response r = pending[i].get();
    if (!r.status.ok()) {
      throw std::runtime_error("ground-truth query " + std::to_string(i) +
                               " failed: " + r.status.message);
    }
    crcs.push_back(identity_crc(r));
  }
  return crcs;
}

Answer answer_of(const gs::svc::Response& r, double latency) {
  return Answer{latency,      r.latency_seconds, r.queue_seconds,
                r.exec_seconds, r.cache_hits,    r.cache_misses,
                r.disk_bytes,   r.bytes_scanned};
}

void add_stamp_metrics(const std::vector<Answer>& answers,
                       std::vector<Metric>& out) {
  std::vector<double> queue, exec;
  double exec_sum = 0.0, scanned = 0.0, disk = 0.0, hits = 0.0, fetches = 0.0;
  for (const Answer& a : answers) {
    queue.push_back(a.queue);
    exec.push_back(a.exec);
    exec_sum += a.exec;
    scanned += static_cast<double>(a.scanned);
    disk += static_cast<double>(a.disk_bytes);
    hits += static_cast<double>(a.hits);
    fetches += static_cast<double>(a.hits + a.misses);
  }
  const double n = std::max<double>(1.0, static_cast<double>(answers.size()));
  out.push_back({"svc.queue_p50_ms", percentile(queue, 50) * 1e3, "ms"});
  out.push_back({"svc.queue_p95_ms", percentile(queue, 95) * 1e3, "ms"});
  out.push_back({"svc.exec_p50_ms", percentile(exec, 50) * 1e3, "ms"});
  out.push_back({"svc.scan_GBps", exec_sum > 0 ? scanned / exec_sum / 1e9 : 0.0,
                 "GB/s"});
  out.push_back(
      {"svc.cache_hit_ratio", fetches > 0 ? hits / fetches : 0.0, "fraction"});
  out.push_back({"bp.disk_mb_per_req", disk / n / 1e6, "MB"});
}

std::vector<Answer> replay(gs::svc::Service& service,
                           const std::vector<Query>& queries,
                           const std::vector<std::uint32_t>& expected) {
  std::vector<Answer> answers;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const std::uint64_t rid = (1ull << 48) | i;
    const trace::Span parent("replay", 0, rid);
    gs::svc::Response response;
    {
      trace::Span span("svc.call", parent.id(), rid);
      response = service.call(q.request);
      answers.push_back(answer_of(response, span.seconds()));
    }
    std::vector<std::byte> request_bytes;
    gs::svc::Request request;
    gs::svc::Response decoded;
    {
      trace::Span span("rpc.codec", parent.id(), rid);
      request_bytes = gs::rpc::encode_request(q.request);
      request = gs::rpc::decode_request(request_bytes);
      decoded = gs::rpc::decode_response(gs::rpc::encode_response(response));
    }
    if (gs::rpc::encode_request(request) != request_bytes) {
      throw WrongAnswer("request codec round trip of query " +
                        std::to_string(i) + " is not exact");
    }
    {
      trace::Span span("bp.read", parent.id(), rid);
      const auto cells =
          service.reader().read(q.variable, q.step, q.selection);
      if (cells.size() != static_cast<std::size_t>(q.selection.volume())) {
        throw WrongAnswer("bp::Reader::read of query " + std::to_string(i) +
                          " returned a short selection");
      }
    }
    if (identity_crc(response) != expected[i] ||
        identity_crc(decoded) != expected[i]) {
      throw WrongAnswer("in-process replay of query " + std::to_string(i) +
                        " differs from the ground truth");
    }
  }
  return answers;
}

double span_p50(const std::string& name, double scale) {
  return percentile(trace::durations(name), 50) * scale;
}

}  // namespace gsbench
