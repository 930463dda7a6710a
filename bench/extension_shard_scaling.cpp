// extension_shard_scaling — scaling and correctness gate of the
// gs::shard scatter-gather tier: the cluster twin of extension_rpc_load.
// A real solver dataset is served by 1..8 gsserved-style daemons behind
// a router, and EVERY routed answer is checked bit-for-bit against a
// single daemon scanning the whole dataset — the "byte-identical sharded
// answers" claim as an executable gate, not a demo.
//
// Phases:
//   1. generate a real dataset (8 ranks through the workflow) and
//      precompute the answer-identity CRC of every query in the request
//      space via one in-process service — the ground truth;
//   2. sweep shard counts {1, 2, 3, 5, 8}: in-process daemons on unix
//      sockets + a Router fronted by an rpc::Server, a remote client
//      issues the full query space through the whole wire path; every
//      identity CRC must equal the single-daemon one at every count;
//   3. chaos pass (5 shards): random torn writes on the shared wire
//      path (client->router and router->shard alike) while one shard's
//      daemon is kill'd mid-run — with failover on, every answer must be
//      retried-correct or EXPLICITLY degraded; a wrong answer without
//      the degraded flag fails the gate;
//   4. recovery: the killed daemon restarts on its old endpoint, the
//      router's probe loop must mark it live again, and a final sweep
//      must be 100% exact.
//
// Gates (exit nonzero on violation; every gate is fatal):
//   * zero identity mismatches at every shard count,
//   * consistent-hash reshuffle 4 -> 5 shards moves < 40% of keys (and
//     every moved key moves TO the new shard),
//   * chaos observed >= 1 injected fault and zero silent-wrong answers,
//   * the killed shard is re-marked live and the final sweep is exact.
//
// Default scale finishes in seconds (CI smoke); pass a multiplier to
// scale the per-pass request count, e.g. `extension_shard_scaling 4`.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/format.h"
#include "fault/fault.h"
#include "shard/map.h"
#include "shard/router.h"
#include "svc/service.h"

namespace {

namespace bench = gs::bench;

constexpr std::size_t kQuerySpace = 48;  ///< distinct queries in the mix
constexpr std::uint64_t kQuerySeed = 0x5112ACEB00512ull;

/// The consistent-hash property the tier's elasticity rests on: growing
/// 4 -> 5 shards must move only the new shard's arcs, not reshuffle the
/// cluster.
void check_reshuffle(bench::Gates& gates) {
  const auto mk = [](std::size_t n) {
    std::vector<gs::shard::ShardInfo> infos;
    for (std::size_t i = 0; i < n; ++i) {
      infos.push_back(gs::shard::ShardInfo{
          std::string("s").append(std::to_string(i)), "unused"});
    }
    return gs::shard::ShardMap(1, 64, std::move(infos));
  };
  const gs::shard::ShardMap four = mk(4);
  const gs::shard::ShardMap five = mk(5);
  const gs::shard::Ring before(four);
  const gs::shard::Ring after(five);
  int moved = 0;
  int stolen_by_new = 0;
  const int keys = 1024;
  for (int i = 0; i < keys; ++i) {
    const std::string key = gs::shard::Ring::block_key("U", i % 8, i);
    if (before.owner(key) != after.owner(key)) {
      ++moved;
      if (after.owner(key) == "s4") ++stolen_by_new;
    }
  }
  std::printf("reshuffle 4 -> 5 shards: %d/%d keys moved (%.1f%%), "
              "%d to the new shard\n",
              moved, keys, 100.0 * moved / keys, stolen_by_new);
  if (!gates.check("reshuffle 4 -> 5 moves (0, 40%] of keys",
                   moved != 0 && moved <= keys * 2 / 5,
                   "not consistent hashing")) {
    return;
  }
  gates.check("reshuffle moves keys only to the new shard",
              stolen_by_new == moved,
              bench::fmt("%d keys moved between OLD shards",
                         moved - stolen_by_new));
}

}  // namespace

int main(int argc, char** argv) try {
  const std::size_t scale = argc >= 2 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const std::size_t rounds = 2 * (scale ? scale : 1);
  bench::Gates gates("shard_scaling");

  std::printf("==============================================================\n");
  std::printf("Extension — gs::shard sharded-cluster scaling over unix "
              "sockets\n");
  std::printf("==============================================================\n\n");

  check_reshuffle(gates);
  std::printf("\n");

  // Phase 1: real dataset + single-daemon ground truth.
  const bench::ScratchDir scratch("shard_scaling");
  const bench::Dataset ds = bench::make_dataset(scratch.file("data.bp"));
  const bench::QueryFn query = [&](std::size_t q) {
    return bench::make_query(q, ds.n_steps, ds.L, kQuerySeed);
  };
  std::vector<std::uint32_t> expected;
  {
    gs::svc::Service single(ds.path);
    expected = bench::ground_truth(single, kQuerySpace, query, gates);
  }
  if (expected.empty()) return gates.report();
  std::printf("dataset: %s  (%zu-query ground truth precomputed)\n\n",
              ds.path.c_str(), kQuerySpace);

  // Phase 2: shard-count sweep — every answer must be exact.
  gs::TableFormatter table(
      {"shards", "req/s", "p50", "p95", "p99", "degraded", "wrong"});
  for (const std::size_t n_shards : {1u, 2u, 3u, 5u, 8u}) {
    bench::Fleet cluster(ds.path, scratch.path(), n_shards, n_shards);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r =
        bench::sweep_wire(cluster.front->endpoint(), rounds, expected, query);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double rps = elapsed > 0 ? r.exact / elapsed : 0.0;
    gates.metric(bench::fmt("rps_%zu", n_shards), rps, 1);
    gates.metric(bench::fmt("p99_ms_%zu", n_shards),
                 1e3 * r.latencies.percentile(99), 3);
    table.row({std::to_string(n_shards), gs::format_fixed(rps, 1),
               gs::format_seconds(r.latencies.percentile(50)),
               gs::format_seconds(r.latencies.percentile(95)),
               gs::format_seconds(r.latencies.percentile(99)),
               std::to_string(r.degraded), std::to_string(r.wrong)});
    gates.check(bench::fmt("%zu-shard sweep byte-identical", n_shards),
                r.exact == rounds * kQuerySpace, r.counts());
  }
  std::printf("%s\n", table.str().c_str());

  // Phase 3 + 4: chaos on a 5-shard cluster — torn writes everywhere and
  // one daemon killed mid-run, then restarted.
  {
    gs::shard::RouterConfig router_config;
    router_config.attempts = 3;
    bench::Fleet cluster(ds.path, scratch.path(), 5, 5, router_config);

    gs::fault::Plan plan;
    plan.arm_random("rpc.write", 0.005, gs::fault::Kind::fail,
                    /*seed=*/7, /*horizon=*/1 << 16, /*budget=*/32);
    gs::fault::ScopedPlan scoped(plan);

    std::thread killer([&cluster] {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      cluster.kill(2);
    });
    const auto r = bench::sweep_wire(cluster.front->endpoint(),
                                     std::max<std::size_t>(rounds, 2) * 2,
                                     expected, query);
    killer.join();
    const std::uint64_t observed = gs::fault::Injector::instance().injected();
    std::printf("chaos: %llu injected faults; %s, failovers=%llu\n",
                (unsigned long long)observed, r.counts().c_str(),
                (unsigned long long)cluster.router->stats().failovers);
    gates.check("chaos pass injected a fault", observed != 0,
                "injected nothing: the gate is vacuous");
    gates.check("chaos pass: zero silent wrong answers", r.wrong == 0,
                r.counts());
    gates.check("chaos pass answers exactly at least once", r.exact != 0,
                r.counts());

    // Recovery: restart the killed daemon on its old endpoint; the probe
    // loop must mark it live and the final sweep must be 100%% exact.
    cluster.start(2);
    bool live = false;
    for (int wait = 0; wait < 100; ++wait) {
      if (cluster.router->health().alive("s2")) {
        live = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    gates.check("restarted shard s2 re-marked live", live);
    const auto after =
        bench::sweep_wire(cluster.front->endpoint(), 1, expected, query);
    std::printf("recovery: s2 live again, sweep %s\n", after.counts().c_str());
    gates.check("post-recovery sweep fully exact", after.exact == kQuerySpace,
                after.counts());
  }
  return gates.report();
} catch (const std::exception& e) {
  return gs::bench::uncaught(e);
}
