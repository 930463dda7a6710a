// The query workloads: a generated dataset served by the real gsserved
// (and, for query_routed, gsrouter) binaries over TCP loopback, driven by
// closed-loop clients from this process, every answer checked against
// the in-process ground truth.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "config/json.h"
#include "procs.h"
#include "queries.h"
#include "rpc/client.h"
#include "shard/map.h"
#include "shard/router.h"
#include "solve.h"
#include "trace.h"

namespace gsbench {

namespace {

constexpr int kClients = 4;  // phase B; the sandbox has 4 cores

struct Spec {
  bool compress = false;
  /// Block cache of the daemons. query_cold's queries read about eight
  /// times its 8 MB, so most fetches miss; a full-size cache would need a
  /// dataset too large to generate three times per run.
  std::uint64_t cache_mb = 64;
  /// 0: one unsharded gsserved. Else shards behind one gsrouter.
  int shards = 0;
};

Spec spec_of(const std::string& workload) {
  if (workload == "query_cold") return {true, 8, 0};
  if (workload == "query_routed") return {false, 64, 3};
  return {};
}

// Every query workload serves an L=64 dataset of 20 output steps from 8
// ranks, so a variable-step has 8 blocks (81 MB uncompressed).
constexpr std::int64_t kL = 64;
constexpr std::int64_t kOutputs = 20;

Producer query_producer(std::uint64_t seed, bool compress,
                        const std::string& output) {
  Producer p;
  p.settings.L = kL;
  p.settings.steps = 100;
  p.settings.plotgap = 100 / kOutputs;
  p.settings.backend = gs::KernelBackend::host_reference;
  p.settings.ranks_per_node = 4;
  p.settings.compress = compress;
  p.settings.seed = seed;
  p.settings.output = output;
  p.ranks = 8;
  return p;
}

/// Runs `n` threads of `body(i)` and rethrows the first exception any of
/// them threw; `stop` is raised on the first one so the others wind down.
template <typename Body>
void run_threads(int n, std::atomic<bool>& stop, Body&& body) {
  std::mutex mu;
  std::exception_ptr first;
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
        stop = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first) std::rethrow_exception(first);
  check_interrupted();
}

void check_identity(const gs::svc::Response& r, std::size_t q,
                    const std::vector<std::uint32_t>& expected,
                    const char* where) {
  if (identity_crc(r) != expected[q]) {
    throw WrongAnswer(std::string(where) + ": answer to query " +
                      std::to_string(q) + " differs from the ground truth");
  }
}

std::string write_map(const std::string& path, const gs::shard::ShardMap& map) {
  std::ofstream(path) << map.to_json().dump(2) << "\n";
  return path;
}

/// One set-up: the generated dataset, the daemons serving it, the
/// in-process ground truth (a svc::Service configured like gsserved),
/// and one warm-up pass of every query through the served endpoint.
class Deployment {
 public:
  Deployment(const Spec& spec, const Options& options,
             const std::vector<Query>& queries, std::string dir)
      : dir_(std::move(dir)) {
    const auto t0 = Clock::now();
    std::filesystem::create_directories(dir_);
    const std::string data = dir_ + "/data.bp";
    const Producer producer = query_producer(options.seed, spec.compress, data);
    mcups = producer.mcells() / produce(producer, options.traced(), 0);

    const auto served = [&](const std::string& name,
                            std::vector<std::string> extra) {
      std::vector<std::string> argv = {GSBENCH_GSSERVED, "--dataset", data,
                                       "--listen", "127.0.0.1:0",
                                       "--ready-file", dir_ + "/" + name + ".ready"};
      argv.insert(argv.end(), extra.begin(), extra.end());
      daemons_.push_back(
          std::make_unique<Daemon>(name, argv, dir_ + "/" + name + ".log"));
    };
    if (spec.shards == 0) {
      served("gsserved", {"--cache-mb", std::to_string(spec.cache_mb)});
      endpoint_ = daemons_[0]->wait_ready(dir_ + "/gsserved.ready");
    } else {
      // The shards' own map carries placeholder endpoints (ports are not
      // known before they bind, and ring_crc() ignores endpoints); the
      // router's map carries the real ones.
      std::vector<gs::shard::ShardInfo> members;
      for (int s = 0; s < spec.shards; ++s) {
        members.push_back({std::string("s") + std::to_string(s), "127.0.0.1:1"});
      }
      const std::string shard_map =
          write_map(dir_ + "/shards.json", gs::shard::ShardMap(1, 64, members));
      for (const auto& m : members) {
        served(m.id, {"--cache-mb", std::to_string(spec.cache_mb),
                      "--shard-map", shard_map, "--shard-id", m.id});
      }
      for (int s = 0; s < spec.shards; ++s) {
        members[s].endpoint =
            daemons_[s]->wait_ready(dir_ + "/" + members[s].id + ".ready");
      }
      router_map = std::make_shared<const gs::shard::ShardMap>(1, 64, members);
      daemons_.push_back(std::make_unique<Daemon>(
          "gsrouter",
          std::vector<std::string>{GSBENCH_GSROUTER, "--map",
                                   write_map(dir_ + "/router.json", *router_map),
                                   "--listen", "127.0.0.1:0", "--ready-file",
                                   dir_ + "/gsrouter.ready"},
          dir_ + "/gsrouter.log"));
      endpoint_ = daemons_.back()->wait_ready(dir_ + "/gsrouter.ready");
    }

    truth_ = std::make_unique<gs::svc::Service>(data,
                                                served_config(spec.cache_mb));
    expected = ground_truth(*truth_, queries);

    std::atomic<bool> stop{false};
    run_threads(kClients, stop, [&](int c) {
      gs::rpc::Client client(gs::rpc::Endpoint::parse(endpoint_));
      for (std::size_t q = c; q < queries.size() && !stop; q += kClients) {
        const gs::svc::Response r = client.call(queries[q].request);
        if (!r.status.ok()) {
          throw std::runtime_error("warm-up query " + std::to_string(q) +
                                   " failed: " + r.status.message);
        }
        check_identity(r, q, expected, "warm-up");
      }
    });
    setup_seconds = since(t0);
  }

  /// Stops the router, then the shards; each must drain to exit 0. Then
  /// removes the dataset.
  void shutdown() {
    for (auto it = daemons_.rbegin(); it != daemons_.rend(); ++it) (*it)->stop();
    truth_.reset();
    std::filesystem::remove_all(dir_);
  }

  const std::string& endpoint() const { return endpoint_; }
  gs::svc::Service& truth() { return *truth_; }
  /// The client-facing daemon: gsrouter if there is one.
  Daemon& front() { return *daemons_.back(); }

  double peak_rss_mb() const {
    double total = 0.0;
    for (const auto& d : daemons_) total += d->peak_rss_mb();
    return total;
  }

  double setup_seconds = 0.0;
  double mcups = 0.0;
  std::vector<std::uint32_t> expected;
  /// query_routed only: the map gsrouter routes by.
  std::shared_ptr<const gs::shard::ShardMap> router_map;

 private:
  std::string dir_;
  std::string endpoint_;
  std::unique_ptr<gs::svc::Service> truth_;
  std::vector<std::unique_ptr<Daemon>> daemons_;  // shards, then gsrouter
};

struct Phase {
  double elapsed = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< non-ok status, or IoError after retries
  std::vector<Answer> answers;
  /// --trace: every other request records an "rpc.call" span; these are
  /// the latencies of the recorded and of the unrecorded ones.
  std::vector<double> traced;
  std::vector<double> plain;

  std::vector<double> latencies() const {
    std::vector<double> out;
    for (const Answer& a : answers) out.push_back(a.latency);
    return out;
  }
};

/// Closed loop: `clients` threads, one connection each, each sending its
/// next query once the previous answer arrived and checked out, until
/// `seconds` have passed. Each client walks seeded permutations of the
/// query space, so every query is equally frequent; with `whole_passes`
/// it stops only at the end of a permutation, so the phase's mix is
/// exactly the query space's.
Phase run_phase(const char* name, const std::string& endpoint, int clients,
                double seconds, bool whole_passes, std::uint64_t stream,
                const std::vector<Query>& queries,
                const std::vector<std::uint32_t>& expected) {
  const trace::Span phase(name, 0, 0);
  std::vector<Phase> per(clients);
  std::atomic<bool> stop{false};
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  run_threads(clients, stop, [&](int c) {
    gs::rpc::Client client(gs::rpc::Endpoint::parse(endpoint));
    Rng rng(mix(stream, static_cast<std::uint64_t>(c)));
    std::vector<std::size_t> order(queries.size());
    std::iota(order.begin(), order.end(), 0);
    std::size_t next = order.size();
    Phase& mine = per[c];
    for (std::uint64_t seq = 0; !stop && !interrupted(); ++seq) {
      const bool late = Clock::now() >= deadline;
      if (next == order.size()) {
        if (late) break;
        shuffle(order, rng);
        next = 0;
      } else if (late && !whole_passes) {
        break;
      }
      const std::size_t q = order[next++];
      const bool recorded = seq % 2 == 0;
      ++mine.attempted;
      gs::svc::Response r;
      const auto a = Clock::now();
      try {
        const trace::Span span(
            "rpc.call", phase.id(),
            (phase.id() << 40) | (std::uint64_t(c) << 32) | seq, recorded);
        r = client.call(queries[q].request);
      } catch (const gs::IoError&) {
        ++mine.failed;
        continue;
      }
      const double latency = since(a);
      if (!r.status.ok()) {
        ++mine.failed;
        continue;
      }
      check_identity(r, q, expected, "measured phase");
      mine.answers.push_back(answer_of(r, latency));
      (recorded ? mine.traced : mine.plain).push_back(latency);
    }
  });
  Phase out;
  out.elapsed = since(t0);
  for (Phase& p : per) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.answers.insert(out.answers.end(), p.answers.begin(), p.answers.end());
    out.traced.insert(out.traced.end(), p.traced.begin(), p.traced.end());
    out.plain.insert(out.plain.end(), p.plain.begin(), p.plain.end());
  }
  return out;
}

gs::json::Value server_stats(const std::string& endpoint) {
  return gs::rpc::Client(gs::rpc::Endpoint::parse(endpoint)).server_stats();
}

double counter_delta(const gs::json::Value& before,
                     const gs::json::Value& after, const char* section,
                     const char* key) {
  return after.at(section).at(key).as_double() -
         before.at(section).at(key).as_double();
}

}  // namespace

Result run_query(const Options& options) {
  const Spec spec = spec_of(options.workload);
  const std::vector<Query> queries = make_queries(options.seed, kL, kOutputs);
  const TempDir dir;

  // Set up several times; each set-up is complete (its own dataset,
  // daemons, ground truth and warm-up) and the last one is measured.
  std::unique_ptr<Deployment> live;
  std::vector<double> setup, mcups;
  std::vector<std::uint32_t> first;
  for (int i = 0; i < options.setups(); ++i) {
    if (live) live->shutdown();
    live = std::make_unique<Deployment>(spec, options, queries,
                                        dir / ("setup" + std::to_string(i)));
    setup.push_back(live->setup_seconds);
    mcups.push_back(live->mcups);
    if (i == 0) first = live->expected;
    if (live->expected != first) {
      throw WrongAnswer("set-up " + std::to_string(i) +
                        " answers differently from set-up 0 (same seed)");
    }
  }
  Deployment& d = *live;
  const std::vector<std::uint32_t>& expected = d.expected;

  const Phase a =
      run_phase("phase.A", d.endpoint(), 1, options.phase_a(), !options.quick,
                mix(options.seed, 0xA), queries, expected);
  gs::json::Value before;
  if (options.traced()) before = server_stats(d.endpoint());
  const Phase b = run_phase("phase.B", d.endpoint(), kClients,
                            options.phase_b(a.elapsed), false,
                            mix(options.seed, 0xB), queries, expected);

  Result result;
  result.attempted = a.attempted + b.attempted;
  result.failed = a.failed + b.failed;
  const std::vector<double> lat_b = b.latencies();
  const double p50 = percentile(lat_b, 50);
  std::fprintf(stderr,
               "%s: phase A %zu answers in %.2f s, phase B %zu answers in "
               "%.2f s (~%zu beyond p95), %llu failed, %d set-ups\n",
               options.workload.c_str(), a.answers.size(), a.elapsed,
               b.answers.size(), b.elapsed, b.answers.size() / 20,
               (unsigned long long)result.failed, options.setups());

  if (!options.traced()) {
    result.metrics = {
        {"qps", static_cast<double>(b.answers.size()) / b.elapsed, "req/s"},
        {"p50_ms", p50 * 1e3, "ms"},
        {"p95_ms", percentile(lat_b, 95) * 1e3, "ms"},
        {"idle_p50_ms", percentile(a.latencies(), 50) * 1e3, "ms"},
        {"solve_mcups", median(mcups), "Mcell-updates/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", d.peak_rss_mb(), "MB"},
    };
    d.shutdown();
    return result;
  }

  const gs::json::Value after = server_stats(d.endpoint());
  const bool routed = spec.shards > 0;
  const double router_threads = routed ? d.front().threads() : 0.0;
  std::vector<Metric>& m = result.metrics;

  // Everything outside the answering service: both codecs, sockets, the
  // wire — and, through gsrouter, which stamps no service times, the
  // routing tier too.
  std::vector<double> transport;
  for (const Answer& x : b.answers) transport.push_back(x.latency - x.server);
  m.push_back({"rpc.transport_p50_ms", percentile(transport, 50) * 1e3, "ms"});
  m.push_back({"rpc.bytes_out_per_req",
               counter_delta(before, after, "rpc", "bytes_out") /
                   counter_delta(before, after, "rpc", "responses"),
               "bytes"});
  add_stamp_metrics(b.answers, m);

  // In-process replay of each query against the live data.
  replay(d.truth(), queries, expected);
  m.push_back({"svc.call_p50_ms", span_p50("svc.call", 1e3), "ms"});
  m.push_back({"bp.read_p50_ms", span_p50("bp.read", 1e3), "ms"});
  m.push_back({"rpc.codec_p50_us", span_p50("rpc.codec", 1e6), "us"});
  add_producer_metrics(kL, m);

  double subcalls = 0.0, sub_p50 = 0.0, router_call = 0.0, overhead = 0.0;
  if (routed) {
    subcalls = counter_delta(before, after, "router", "subqueries") /
               counter_delta(before, after, "router", "queries");
    for (const auto& s : after.at("router").at("shards").as_array()) {
      sub_p50 = std::max(sub_p50, s.at("latency_p50").as_double() * 1e3);
    }
    gs::shard::Router router(d.router_map);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      gs::svc::Response r;
      {
        const trace::Span span("shard.router_call", 0, (2ull << 48) | q);
        r = router.call(queries[q].request);
      }
      check_identity(r, q, expected, "in-process router");
    }
    router.shutdown();
    router_call = span_p50("shard.router_call", 1e3);
    overhead = p50 * 1e3 - sub_p50;
  }
  m.push_back({"shard.subcalls_per_req", subcalls, "count"});
  m.push_back({"shard.sub_p50_ms", sub_p50, "ms"});
  m.push_back({"shard.router_call_p50_ms", router_call, "ms"});
  m.push_back({"shard.overhead_p50_ms", overhead, "ms"});
  m.push_back({"shard.router_threads", router_threads, "count"});
  m.push_back({"trace.overhead_frac",
               percentile(b.traced, 50) / percentile(b.plain, 50) - 1.0,
               "fraction"});
  d.shutdown();
  return result;
}

}  // namespace gsbench
