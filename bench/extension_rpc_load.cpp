// extension_rpc_load — closed-loop load test of the gs::rpc serving
// layer over real loopback sockets: the out-of-process twin of
// extension_service_load. Many remote analysts hammer one gsserved-style
// endpoint through the full wire path (framing, CRC, request-id
// multiplexing, reconnect-and-retry) and every answer is checked against
// the in-process service bit for bit.
//
// Phases:
//   1. generate a real solver dataset (8 ranks through the workflow) and
//      precompute the answer-identity CRC of every query in the request
//      space via the in-process service — the ground truth;
//   2. sweep 1/8/64 concurrent TCP clients, each issuing its
//      deterministic request stream; every remote answer's identity CRC
//      must equal the precomputed one (zero wrong or torn responses);
//   3. chaos pass: random transport faults (torn writes) plus killed
//      connections at accept while 16 clients run — client retry loops
//      must absorb every fault with, again, zero wrong answers;
//   4. drain: after each pass the server shuts down cleanly with no
//      connection left active and every request accounted.
//
// Gates (exit nonzero on violation — a regression gate, not a demo):
//   * zero identity mismatches and zero exhausted-retry failures,
//   * 1-client p50 under 0.9 ms (ROADMAP item 1): one analyst's round
//     trip costs what the service costs. On a 4-vCPU host it reads
//     0.33-0.42 ms (Release, 10 runs) and 0.43-0.70 ms (RelWithDebInfo,
//     11 runs), since each connection's owner thread sends a reply as
//     soon as it is posted. When that thread polled finished requests on
//     a 1 ms tick it read 1.09-1.20 ms (Release, 10 runs), and with a
//     frame's header and payload sent as two segments and no TCP_NODELAY
//     it read 88 ms (Nagle + delayed ACK); both builds fail this gate;
//   * every pass's p99 (the chaos pass included) at most 30 x the same
//     run's 1-client p99 x max(1, clients / service threads). The worst
//     of 10 runs on that host used 0.29 of this bound (a factor of 8.6,
//     in the chaos pass; 6.4 in the clean sweep). The 88 ms build passes
//     this gate: its stall is a flat floor under every pass, so its tails
//     scale less than its base. The gate catches queueing regressions;
//     the p50 gate catches the floor. It replaces max(100 x p50, 1 s),
//     which the stall passed at 88 ms,
//   * chaos pass observed at least one injected fault (else it tested
//     nothing), and the server counted it,
//   * clean drain after every pass.
// Every gate is fatal.
//
// Default scale finishes in seconds (CI smoke); pass a multiplier to
// scale requests per client, e.g. `extension_rpc_load 4`.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/format.h"
#include "fault/fault.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "svc/service.h"

namespace {

namespace bench = gs::bench;

constexpr std::size_t kQuerySpace = 64;  ///< distinct queries in the mix
constexpr std::size_t kServiceThreads = 4;
/// ROADMAP item 1: one analyst on loopback waits under 0.9 ms per
/// query, below the 1 ms of a reply held for one poll tick.
constexpr double kIdleP50Gate = 0.9e-3;
/// A pass's p99 may exceed the same run's 1-client p99, scaled by its
/// queueing depth (clients / service threads), by at most this factor.
constexpr double kTailFactor = 30.0;

/// The p99 ceiling of an n-client pass: the 1-client p99 times the
/// queueing depth (clients per service worker, at least 1) times the
/// allowed tail factor.
double tail_bound(double idle_p99, std::size_t n_clients) {
  const double depth = std::max(
      1.0, static_cast<double>(n_clients) / static_cast<double>(kServiceThreads));
  return kTailFactor * idle_p99 * depth;
}

/// The tail gate of one pass: its p99 within tail_bound().
void check_tail(bench::Gates& gates, const std::string& pass,
                std::size_t n_clients, double p99, double idle_p99) {
  gates.check(pass + " p99 within the tail bound",
              p99 <= tail_bound(idle_p99, n_clients),
              bench::fmt("p99 %.3f ms exceeds %.0f x 1-client p99 (%.3f ms) "
                         "x max(1, %zu / %zu)",
                         p99 * 1e3, kTailFactor, idle_p99 * 1e3, n_clients,
                         kServiceThreads));
}

/// Deterministic query q -> request body, shared by the ground-truth
/// pass and every client (same q, same bytes expected back). Its own
/// 4-verb query space, not the harness's 5-verb mix.
gs::svc::Request make_query(std::size_t q, std::int64_t n_steps,
                            std::int64_t L) {
  bench::Lcg rng{0xABCDEF12345678ull ^ (q * 2654435761ull)};
  const std::int64_t step = static_cast<std::int64_t>(rng.next() %
                                                      static_cast<std::uint64_t>(n_steps));
  gs::svc::Request request;
  switch (q % 4) {
    case 0:
      request.body = gs::svc::FieldStatsQ{"U", step};
      break;
    case 1:
      request.body = gs::svc::HistogramQ{"V", step, 32};
      break;
    case 2:
      request.body = gs::svc::Slice2DQ{
          "U", step, 2,
          static_cast<std::int64_t>(rng.next() %
                                    static_cast<std::uint64_t>(L))};
      break;
    default: {
      const std::int64_t half = L / 2;
      request.body = gs::svc::ReadBoxQ{
          "V", step,
          gs::Box3{{0, 0, static_cast<std::int64_t>(
                              rng.next() % static_cast<std::uint64_t>(half))},
                   {half, half, half}}};
      break;
    }
  }
  return request;
}

struct Pass {
  double elapsed = 0.0;
  bench::PassResult r;
};

/// One closed-loop pass of `n_clients` rpc::Clients against `endpoint`.
Pass run_pass(const gs::rpc::Endpoint& endpoint, std::size_t n_clients,
              std::size_t reqs_per_client,
              const std::vector<std::uint32_t>& expected,
              const bench::Dataset& ds) {
  std::vector<bench::PassResult> per(n_clients);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      gs::rpc::ClientConfig config;
      config.retries = 6;
      config.backoff_ms = 1.0;
      gs::rpc::Client client(endpoint, config);
      bench::Lcg rng{0x9e3779b97f4a7c15ull ^ (c + 1)};
      for (std::size_t r = 0; r < reqs_per_client; ++r) {
        const std::size_t q = rng.next() % kQuerySpace;
        const auto a = std::chrono::steady_clock::now();
        try {
          const gs::svc::Response response =
              client.call(make_query(q, ds.n_steps, ds.L));
          per[c].add(response, expected, q,
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - a)
                         .count());
        } catch (const gs::IoError&) {
          ++per[c].failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Pass result;
  result.elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& p : per) result.r.merge(p);
  return result;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::size_t scale = argc >= 2 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const std::size_t reqs_per_client = 16 * (scale ? scale : 1);

  std::printf("==============================================================\n");
  std::printf("Extension — gs::rpc remote-serving load over loopback TCP\n");
  std::printf("==============================================================\n\n");

  // Phase 1: real dataset + in-process ground truth.
  const bench::ScratchDir scratch("rpc_load");
  const bench::Dataset ds = bench::make_dataset(scratch.file("data.bp"));
  bench::Gates gates("rpc_load");

  gs::svc::ServiceConfig svc_config;
  svc_config.threads = kServiceThreads;
  gs::svc::Service service(ds.path, std::move(svc_config));
  const std::vector<std::uint32_t> expected = bench::ground_truth(
      service, kQuerySpace,
      [&](std::size_t q) { return make_query(q, ds.n_steps, ds.L); }, gates);
  if (expected.empty()) return gates.report();
  std::printf("dataset: %s  (%zu-query ground truth precomputed)\n\n",
              ds.path.c_str(), kQuerySpace);

  // Phase 2: clean client sweep. The 1-client pass comes first: its p99
  // is the same-run base of every later pass's tail gate.
  gs::TableFormatter table({"clients", "req/s", "p50", "p95", "p99",
                            "p99/bound", "wrong", "failed"});
  double idle_p99 = 0.0;
  for (const std::size_t n_clients : {1u, 8u, 64u}) {
    gs::rpc::ServerConfig config;
    config.max_connections = 128;
    gs::rpc::Server server(service, config);
    const auto [elapsed, r] = run_pass(server.endpoint(), n_clients,
                                       reqs_per_client, expected, ds);
    server.shutdown();
    const auto stats = server.stats();
    const double p50 = r.latencies.percentile(50);
    const double p99 = r.latencies.percentile(99);
    const double rps = elapsed > 0 ? r.exact / elapsed : 0.0;
    if (n_clients == 1) idle_p99 = p99;
    table.row({std::to_string(n_clients), gs::format_fixed(rps, 1),
               gs::format_seconds(p50),
               gs::format_seconds(r.latencies.percentile(95)),
               gs::format_seconds(p99),
               gs::format_fixed(p99 / tail_bound(idle_p99, n_clients), 3),
               std::to_string(r.wrong), std::to_string(r.failed)});
    const std::string pass = std::to_string(n_clients) + "-client";
    gates.check(pass + " pass answers every query exactly",
                r.exact == n_clients * reqs_per_client, r.counts());
    if (n_clients == 1) {
      gates.check("1-client p50 under 0.9 ms", p50 < kIdleP50Gate,
                  bench::fmt("p50 %.3f ms", p50 * 1e3));
      gates.metric("idle_p50_ms", p50 * 1e3);
    }
    gates.metric(bench::fmt("rps_%zu", n_clients), rps, 1);
    gates.metric(bench::fmt("p99_ms_%zu", n_clients), p99 * 1e3);
    check_tail(gates, pass, n_clients, p99, idle_p99);
    gates.check(pass + " pass drains every connection", stats.active == 0,
                bench::fmt("%llu still active",
                           (unsigned long long)stats.active));
  }
  std::printf("%s\n", table.str().c_str());

  // Phase 3: chaos — torn writes on the shared wire path plus killed
  // connections at accept, absorbed by client retry loops.
  {
    gs::rpc::ServerConfig config;
    config.max_connections = 128;
    gs::rpc::Server server(service, config);
    gs::fault::Plan plan;
    plan.arm_random("rpc.write", 0.01, gs::fault::Kind::fail,
                    /*seed=*/42, /*horizon=*/1 << 16, /*budget=*/48);
    plan.kill_at("rpc.accept", 3);
    plan.kill_at("rpc.accept", 11);
    gs::fault::ScopedPlan scoped(plan);

    const auto r = run_pass(server.endpoint(), 16, reqs_per_client, expected,
                            ds).r;
    server.shutdown();
    const auto stats = server.stats();
    const std::uint64_t observed = gs::fault::Injector::instance().injected();
    const double p99 = r.latencies.percentile(99);
    std::printf("chaos: %llu injected faults, server counters: io_errors "
                "%llu, killed %llu, crc %llu; p99 %.3f ms (%.3f of bound)\n",
                (unsigned long long)observed,
                (unsigned long long)stats.io_errors,
                (unsigned long long)stats.killed_connections,
                (unsigned long long)stats.crc_errors, p99 * 1e3,
                p99 / tail_bound(idle_p99, 16));
    check_tail(gates, "chaos", 16, p99, idle_p99);
    gates.check("chaos pass injected a fault", observed != 0,
                "injected nothing: the gate is vacuous");
    gates.check("chaos pass: zero wrong or torn answers", r.wrong == 0,
                r.counts());
    gates.check("chaos pass: retries absorb every fault",
                r.exact == 16 * reqs_per_client, r.counts());
    gates.check("chaos pass drains every connection", stats.active == 0);
  }

  service.shutdown();
  return gates.report();
} catch (const std::exception& e) {
  return gs::bench::uncaught(e);
}
