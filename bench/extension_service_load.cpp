// extension_service_load — closed-loop load test of the gs::svc
// dataset-analysis service, the serving-layer extension of the paper's
// Figure 9 consumer: many analysts hammering one shared Gray-Scott
// output through the admission queue, worker pool, and block cache.
//
// Phases:
//   1. generate a real solver dataset (8 ranks through the workflow),
//      Gorilla-compressed so that every block a query touches is
//      decoded into the block cache (uncompressed blocks are served as
//      mmap views and never enter it);
//   2. sweep 1..64 closed-loop clients, measuring throughput and tail
//      latency on a cold block cache and again on a warm one, and
//      checking the cache's own counters: the cold pass starts empty and
//      every block it holds came in through a miss, the warm pass hits;
//   3. admission control: a 64-client burst against a tiny bounded
//      queue must produce ServerBusy rejects (backpressure) while an
//      unbounded queue absorbs the same burst with none;
//   4. accounting: every submitted request is resolved exactly once.
//
// Exit status is nonzero if the cache counters do not show the cold and
// warm passes above, the warm cache fails to beat the cold pass, or any
// request is dropped — this is a regression gate, not a demo. Every
// gate is fatal.
//
// Default scale finishes in seconds (CI smoke); pass a multiplier to
// scale requests per client, e.g. `extension_service_load 4`.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/format.h"
#include "common/stats.h"
#include "svc/service.h"

namespace {

namespace bench = gs::bench;

struct PassResult {
  double elapsed = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t other = 0;
  gs::Samples latencies;
  double throughput() const { return elapsed > 0 ? ok / elapsed : 0.0; }
};

/// One closed-loop pass: `n_clients` threads, each issuing
/// `reqs_per_client` requests back to back, waiting for each answer.
PassResult run_pass(gs::svc::Service& service, std::size_t n_clients,
                    std::size_t reqs_per_client, std::int64_t n_steps,
                    std::int64_t L) {
  std::vector<gs::Samples> lat(n_clients);
  std::vector<std::uint64_t> ok(n_clients, 0), busy(n_clients, 0),
      other(n_clients, 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      gs::svc::Client client(service);
      bench::Lcg rng{0x9e3779b97f4a7c15ull ^ (c + 1)};
      for (std::size_t r = 0; r < reqs_per_client; ++r) {
        const std::int64_t step =
            static_cast<std::int64_t>(rng.next() % n_steps);
        const auto a = std::chrono::steady_clock::now();
        gs::svc::Status status;
        switch (rng.next() % 4) {
          case 0:
            status = client.field_stats("U", step).status();
            break;
          case 1:
            status = client.histogram("V", step, 32).status();
            break;
          case 2:
            status = client
                         .slice2d("U", step, 2,
                                  static_cast<std::int64_t>(rng.next() %
                                                            static_cast<
                                                                std::uint64_t>(
                                                                L)))
                         .status();
            break;
          default: {
            const std::int64_t half = L / 2;
            const gs::Box3 box{{0, 0, static_cast<std::int64_t>(
                                          rng.next() % half)},
                               {half, half, half}};
            status = client.read_box("V", step, box).status();
            break;
          }
        }
        const auto b = std::chrono::steady_clock::now();
        if (status.code == gs::svc::StatusCode::ok) {
          ++ok[c];
          lat[c].add(std::chrono::duration<double>(b - a).count());
        } else if (status.code == gs::svc::StatusCode::server_busy) {
          ++busy[c];
        } else {
          ++other[c];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  PassResult result;
  result.elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  for (std::size_t c = 0; c < n_clients; ++c) {
    result.ok += ok[c];
    result.busy += busy[c];
    result.other += other[c];
    for (const double x : lat[c].values()) result.latencies.add(x);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::size_t scale = argc >= 2 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const std::size_t reqs_per_client = 16 * (scale ? scale : 1);

  std::printf("==============================================================\n");
  std::printf("Extension — gs::svc concurrent analysis-service load\n");
  std::printf("==============================================================\n\n");

  // Phase 1: a real solver dataset, 8 ranks through the workflow.
  const bench::ScratchDir scratch("svc_load");
  const bench::Dataset ds =
      bench::make_dataset(scratch.file("data.bp"), /*compress=*/true);
  std::printf("dataset: %s  (L=%lld, %lld output steps, 8 blocks/step, "
              "Gorilla-compressed)\n\n",
              ds.path.c_str(), (long long)ds.L, (long long)ds.n_steps);
  bench::Gates gates("service_load");

  // Phase 2: client sweep, cold cache then warm cache per point.
  double cold_total_ok = 0, cold_total_s = 0;
  double warm_total_ok = 0, warm_total_s = 0;
  gs::TableFormatter table({"clients", "pass", "req/s", "p50", "p95", "p99",
                            "cache hit%"});
  for (const std::size_t n_clients : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    gs::svc::ServiceConfig config;
    config.threads = 4;
    config.queue_capacity = 0;  // sweep measures service time, not rejects
    gs::svc::Service service(ds.path, std::move(config));
    const char* names[2] = {"cold", "warm"};
    double cold_hit_rate = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      const gs::svc::CacheStats before = service.metrics().cache;
      const auto r =
          run_pass(service, n_clients, reqs_per_client, ds.n_steps, ds.L);
      const gs::svc::CacheStats after = service.metrics().cache;
      gs::svc::CacheStats delta;
      delta.hits = after.hits - before.hits;
      delta.misses = after.misses - before.misses;
      table.row({std::to_string(n_clients), names[pass],
                 gs::format_fixed(r.throughput(), 1),
                 gs::format_seconds(r.latencies.percentile(50)),
                 gs::format_seconds(r.latencies.percentile(95)),
                 gs::format_seconds(r.latencies.percentile(99)),
                 gs::format_fixed(100.0 * delta.hit_rate(), 1)});
      const std::string counters = bench::fmt(
          "before hits=%llu misses=%llu; pass hits=%llu misses=%llu; "
          "resident entries=%zu",
          (unsigned long long)before.hits, (unsigned long long)before.misses,
          (unsigned long long)delta.hits, (unsigned long long)delta.misses,
          after.entries);
      if (pass == 0) {
        cold_hit_rate = delta.hit_rate();
        gates.check(
            bench::fmt("%zu-client cold pass: cache starts empty, first "
                       "touches miss",
                       n_clients),
            before.hits + before.misses + before.entries == 0 &&
                after.entries > 0 && delta.misses >= after.entries,
            counters);
      } else {
        gates.check(
            bench::fmt("%zu-client warm pass hits the cache", n_clients),
            delta.hits > 0 && delta.hit_rate() > cold_hit_rate,
            counters + bench::fmt("; cold hit rate %.3f", cold_hit_rate));
      }
      gates.check(
          bench::fmt("%zu-client %s sweep drops no request", n_clients,
                     names[pass]),
          r.ok == n_clients * reqs_per_client && !r.busy && !r.other,
          bench::fmt("ok=%llu busy=%llu other=%llu",
                     (unsigned long long)r.ok, (unsigned long long)r.busy,
                     (unsigned long long)r.other));
      if (pass == 0) {
        cold_total_ok += static_cast<double>(r.ok);
        cold_total_s += r.elapsed;
      } else {
        warm_total_ok += static_cast<double>(r.ok);
        warm_total_s += r.elapsed;
      }
    }
  }
  std::printf("%s\n", table.str().c_str());

  const double cold_tput = cold_total_ok / cold_total_s;
  const double warm_tput = warm_total_ok / warm_total_s;
  std::printf("aggregate throughput: cold %.1f req/s, warm %.1f req/s "
              "(x%.2f)\n\n",
              cold_tput, warm_tput, warm_tput / cold_tput);
  gates.check("warm cache beats cold cache", warm_tput > cold_tput,
              bench::fmt("warm %.1f req/s vs cold %.1f", warm_tput,
                         cold_tput));
  gates.metric("cold_rps", cold_tput, 1);
  gates.metric("warm_rps", warm_tput, 1);

  // Phase 3: admission control. A 64-client burst against a tiny queue
  // with few workers must shed load as ServerBusy; the same burst
  // against an unbounded queue must not reject anything.
  for (const std::size_t capacity : {8u, 0u}) {
    gs::svc::ServiceConfig config;
    config.threads = 2;
    config.queue_capacity = capacity;
    gs::svc::Service service(ds.path, std::move(config));
    const auto r = run_pass(service, 64, reqs_per_client, ds.n_steps, ds.L);
    service.shutdown();
    const auto m = service.metrics();
    std::printf("burst, queue capacity %zu: ok %llu, busy %llu "
                "(submitted %llu, accounted %llu)\n",
                capacity, (unsigned long long)r.ok,
                (unsigned long long)r.busy, (unsigned long long)m.submitted,
                (unsigned long long)m.accounted());
    const std::string burst = bench::fmt("burst, capacity %zu: ", capacity);
    gates.check(burst + "no request dropped or unaccounted",
                r.other == 0 && m.submitted == m.accounted());
    if (capacity > 0) {
      gates.check(burst + "bounded queue sheds ServerBusy", r.busy != 0);
    } else {
      gates.check(burst + "unbounded queue rejects nothing", r.busy == 0);
    }
  }
  return gates.report();
} catch (const std::exception& e) {
  return gs::bench::uncaught(e);
}
