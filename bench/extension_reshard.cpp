// extension_reshard — the epoch-handover gate of the gs::shard tier:
// live resharding with ZERO wrong answers. A real solver dataset is
// served by up to 5 in-process daemons behind a router, and the cluster
// is grown 4 -> 5 and shrunk 5 -> 3 WHILE clients hammer it, with every
// answer checked bit-for-bit against a single-daemon ground truth.
//
// Phases:
//   1. generate the dataset, precompute the answer-identity CRC of every
//      query in the request space, and enumerate the dataset's block
//      keys (the ring-movement bound is computed from these);
//   2. live grow 4 -> 5: daemons adopt the epoch-2 map first (one shard,
//      s1, deliberately never acks), the router flips last, all while
//      client threads sweep the full query space through the wire path.
//      Gates: zero wrong answers, exact answers on both sides of the
//      flip, the non-acking shard is DEGRADED-NOT-WRONG (failover keeps
//      the fleet exact; a no-failover router names s1 explicitly), and
//      the daemons' summed replacement plans equal the ring's
//      minimal-movement diff exactly;
//   3. shrink 5 -> 3 with a stale-epoch client: a router that never
//      reloads keeps answering exactly inside the daemons' grace window
//      and degrades explicitly - never silently stale - once it closes;
//   4. chaos matrix on the committed map file and the handover itself:
//      a torn map write is rejected (old epoch keeps serving), a kill
//      between staging write and rename leaves exactly ONE committed
//      epoch (recover_map cleans the orphan), a failed block warm
//      (shard.replace) degrades the warm-up but never the answers, and
//      a kill mid-drain (shard.drain) "crashes" the router after
//      publish — the restart recovers from the committed map and the
//      final sweep is 100% exact.
//
// Default scale finishes in seconds (CI smoke); pass a multiplier to
// scale the per-pass request count, e.g. `extension_reshard 4`.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "fault/fault.h"
#include "shard/map.h"
#include "shard/reshard.h"
#include "shard/router.h"
#include "svc/service.h"

namespace {

namespace bench = gs::bench;

constexpr std::size_t kQuerySpace = 48;
constexpr std::uint64_t kQuerySeed = 0xE90C4BADF00Dull;

/// One full sweep of the query space straight through a Router.
bench::PassResult sweep_router(gs::shard::Router& router,
                               const std::vector<std::uint32_t>& expected,
                               const bench::QueryFn& query) {
  bench::PassResult result;
  for (std::size_t q = 0; q < kQuerySpace; ++q) {
    result.add(router.call(query(q)), expected, q);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::size_t scale = argc >= 2 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const std::size_t rounds = 2 * (scale ? scale : 1);

  std::printf("==============================================================\n");
  std::printf("Extension — gs::shard epoch handover: live resharding gate\n");
  std::printf("==============================================================\n\n");

  // Phase 1: dataset, ground truth, and the block-key universe.
  const bench::ScratchDir scratch("reshard");
  const bench::Dataset ds = bench::make_dataset(scratch.file("data.bp"));
  const std::string map_file = scratch.file("map.json");
  const bench::QueryFn query = [&](std::size_t q) {
    return bench::make_query(q, ds.n_steps, ds.L, kQuerySeed);
  };
  bench::Gates gates("reshard");
  std::vector<std::uint32_t> expected;
  {
    gs::svc::Service single(ds.path);
    expected = bench::ground_truth(single, kQuerySpace, query, gates);
  }
  if (expected.empty()) return gates.report();
  const std::vector<std::string> keys = bench::dataset_block_keys(ds.path);
  std::printf("dataset: %s  (%zu queries, %zu block keys)\n\n",
              ds.path.c_str(), kQuerySpace, keys.size());

  bench::Fleet fleet(ds.path, scratch.path(), 5, 4);
  const auto map1 = fleet.initial;          // serving: s0..s3
  const auto map2 = fleet.make_map(2, 5);  // grow:    s0..s4
  const auto map3 = fleet.make_map(3, 3);  // shrink:  s0..s2
  const auto map4 = fleet.make_map(4, 4);  // chaos:   s0..s3

  // Phase 2: live grow 4 -> 5 under client traffic. Daemons flip first
  // (s1 deliberately never acks), the router flips last.
  {
    std::printf("-- live grow 4 -> 5 (epoch 1 -> 2), s1 never acks --\n");
    std::atomic<bool> stop{false};
    std::vector<bench::PassResult> thread_results(2);
    std::vector<std::thread> traffic;
    for (std::size_t t = 0; t < thread_results.size(); ++t) {
      traffic.emplace_back([&, t] {
        while (!stop.load(std::memory_order_acquire)) {
          thread_results[t].merge(
              bench::sweep_wire(fleet.front->endpoint(), 1, expected, query));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::uint64_t planned_sum = 0;
    for (const std::size_t i : {0u, 2u, 3u, 4u}) {
      const auto stats = fleet.reload(i, map2);
      planned_sum += stats.blocks_planned;
      gates.check(bench::fmt("grow: s%zu warms without failures", i),
                  stats.blocks_failed == 0,
                  bench::fmt("%llu blocks failed",
                             (unsigned long long)stats.blocks_failed));
    }
    const auto handover = fleet.router->reload_map(map2);
    std::printf("router: epoch %llu -> %llu, +%zu shards, %s in %.3fs\n",
                (unsigned long long)handover.epoch_from,
                (unsigned long long)handover.epoch_to, handover.shards_added,
                handover.drained ? "drained" : "DRAIN TIMED OUT",
                handover.drain_seconds);
    gates.metric("grow_drain_seconds", handover.drain_seconds, 4);

    for (std::size_t r = 0; r < rounds; ++r) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : traffic) t.join();
    bench::PassResult live;
    for (const auto& r : thread_results) live.merge(r);
    std::printf("live traffic: %s\n", live.counts().c_str());
    gates.check("live grow: zero wrong answers, keeps answering",
                live.wrong == 0 && live.exact != 0, live.counts());
    gates.check("live grow: router drains in-flight queries",
                handover.drained,
                bench::fmt("abandoned %llu",
                           (unsigned long long)handover.inflight_abandoned));

    // Past the grace window, s1 still refuses epoch 2. Failover keeps
    // the fleet exact; a no-failover router must NAME the missing shard.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int>(bench::kReloadGraceSeconds * 1000) + 500));
    const auto fo = sweep_router(*fleet.router, expected, query);
    std::printf("failover sweep past grace: %s (failovers=%llu)\n",
                fo.counts().c_str(),
                (unsigned long long)fleet.router->stats().failovers);
    gates.check("failover keeps a non-acking shard invisible",
                fo.exact == kQuerySpace, fo.counts());
    {
      gs::shard::RouterConfig no_failover;
      no_failover.failover = false;
      no_failover.probe_interval_ms = 0;
      gs::shard::Router blunt(map2, no_failover);
      const auto nf = sweep_router(blunt, expected, query);
      std::printf("no-failover sweep: %s (\"%s\")\n", nf.counts().c_str(),
                  nf.sample_degraded.c_str());
      gates.check("no-failover: non-acking shard degraded-not-wrong, named",
                  nf.wrong == 0 && nf.degraded != 0 &&
                      nf.sample_degraded.find("s1") != std::string::npos,
                  nf.counts());
      blunt.shutdown();
    }

    // s1 finally acks; the fleet must be whole again and the summed
    // replacement plans must equal the ring's minimal-movement diff.
    planned_sum += fleet.reload(1, map2).blocks_planned;
    const auto whole = sweep_router(*fleet.router, expected, query);
    const std::size_t bound =
        gs::shard::moved_keys(gs::shard::Ring(*map1), gs::shard::Ring(*map2),
                              std::span<const std::string>(keys))
            .size();
    std::printf("post-ack sweep: exact=%llu/%zu; replacement plans %llu "
                "blocks vs ring movement bound %zu\n",
                (unsigned long long)whole.exact, kQuerySpace,
                (unsigned long long)planned_sum, bound);
    gates.check("grow: fleet exact after the late ack",
                whole.exact == kQuerySpace, whole.counts());
    gates.check("grow: planned == ring movement bound",
                planned_sum == bound && bound != 0,
                bench::fmt("planned %llu, bound %zu",
                           (unsigned long long)planned_sum, bound));
    std::printf("\n");
  }

  // Phase 3: shrink 5 -> 3 with a stale-epoch client watching.
  {
    std::printf("-- shrink 5 -> 3 (epoch 2 -> 3), stale client pinned to "
                "epoch 2 --\n");
    gs::shard::RouterConfig stale_config;
    stale_config.failover = false;
    stale_config.probe_interval_ms = 0;
    gs::shard::Router stale(map2, stale_config);  // never reloads

    std::uint64_t planned_sum = 0;
    for (const std::size_t i : {0u, 1u, 2u}) {
      planned_sum += fleet.reload(i, map3).blocks_planned;
    }
    // Inside the grace window the stale client still gets exact answers.
    const auto inside = sweep_router(stale, expected, query);
    const auto handover = fleet.router->reload_map(map3);
    std::printf("router: epoch %llu -> %llu, -%zu shards, %s in %.3fs\n",
                (unsigned long long)handover.epoch_from,
                (unsigned long long)handover.epoch_to,
                handover.shards_removed,
                handover.drained ? "drained" : "DRAIN TIMED OUT",
                handover.drain_seconds);
    gates.metric("shrink_drain_seconds", handover.drain_seconds, 4);
    const auto fresh = sweep_router(*fleet.router, expected, query);
    const std::size_t bound =
        gs::shard::moved_keys(gs::shard::Ring(*map2), gs::shard::Ring(*map3),
                              std::span<const std::string>(keys))
            .size();
    std::printf("inside grace: stale client exact=%llu/%zu; fresh router "
                "exact=%llu/%zu; plans %llu vs bound %zu\n",
                (unsigned long long)inside.exact, kQuerySpace,
                (unsigned long long)fresh.exact, kQuerySpace,
                (unsigned long long)planned_sum, bound);
    gates.check("grace window keeps the stale client exact",
                inside.exact == kQuerySpace, inside.counts());
    gates.check("shrunk fleet stays exact", fresh.exact == kQuerySpace,
                fresh.counts());
    gates.check("shrink: planned == ring movement bound",
                planned_sum == bound && bound != 0,
                bench::fmt("planned %llu, bound %zu",
                           (unsigned long long)planned_sum, bound));

    // Past the grace window the stale client must degrade EXPLICITLY —
    // never answer silently stale.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int>(bench::kReloadGraceSeconds * 1000) + 500));
    const auto outside = sweep_router(stale, expected, query);
    std::printf("past grace: stale client %s (\"%s\")\n",
                outside.counts().c_str(), outside.sample_degraded.c_str());
    gates.check("past grace: a stale-epoch client degrades, never lies",
                outside.wrong == 0 && outside.degraded != 0,
                outside.counts());
    stale.shutdown();
    std::printf("\n");
  }

  // Phase 4: chaos on the committed map file and the handover itself.
  {
    std::printf("-- chaos: torn writes, mid-commit and mid-drain kills --\n");
    gs::shard::commit_map(*map3, map_file);  // the committed state: epoch 3

    // (a) Torn write: the corrupted candidate must be REJECTED and the
    // old epoch must keep serving.
    {
      gs::fault::Plan plan;
      plan.arm("shard.reload", 0,
               gs::fault::Injection{gs::fault::Kind::corrupt, 0.0, 0x40, 0});
      gs::fault::ScopedPlan scoped(plan);
      gs::shard::commit_map(*map4, map_file);  // commits torn bytes
    }
    {
      gs::shard::WatcherConfig watch_config;
      watch_config.poll_ms = 0;  // explicit triggers only
      gs::shard::MapWatcher watcher(
          map_file,
          [&](gs::shard::ShardMap next) {
            return fleet.router
                ->reload_map(std::make_shared<const gs::shard::ShardMap>(
                    std::move(next)))
                .to_json();
          },
          watch_config);
      watcher.trigger();
      const auto wstats = watcher.stats();
      std::printf("torn write: watcher rejected=%llu (\"%s\"), router "
                  "epoch=%llu\n",
                  (unsigned long long)wstats.rejected,
                  wstats.last_error.c_str(),
                  (unsigned long long)fleet.router->map()->epoch());
      gates.check("torn map rejected, old epoch serving",
                  wstats.rejected != 0 && fleet.router->map()->epoch() == 3);
    }
    const auto after_torn = sweep_router(*fleet.router, expected, query);
    gates.check("fleet exact after the torn-write rejection",
                after_torn.exact == kQuerySpace, after_torn.counts());

    // (b) Kill between staging write and rename: exactly ONE committed
    // epoch either side of the crash; recover_map removes the orphan.
    gs::shard::commit_map(*map3, map_file);  // restore a clean epoch 3
    bool killed = false;
    try {
      gs::fault::Plan plan;
      plan.arm("shard.reload", 1,
               gs::fault::Injection{gs::fault::Kind::kill});
      gs::fault::ScopedPlan scoped(plan);
      gs::shard::commit_map(*map4, map_file);
    } catch (const gs::fault::Kill&) {
      killed = true;
    }
    const auto committed = gs::shard::ShardMap::from_file(map_file);
    const bool staging_left =
        std::filesystem::exists(map_file + ".staging");
    const bool recovered = gs::shard::recover_map(map_file);
    std::printf("mid-commit kill: killed=%d, committed epoch=%llu, staging "
                "recovered=%d\n",
                killed ? 1 : 0, (unsigned long long)committed.epoch(),
                (staging_left && recovered) ? 1 : 0);
    gates.check("mid-commit crash leaves exactly one committed epoch",
                killed && committed.epoch() == 3 && staging_left &&
                    recovered);

    // (c) Warm-up failure + mid-drain kill. The daemons adopt epoch 4
    // with one block warm FAILING (degrades the warm-up, never the
    // answers); the router is killed between publish and drain, then
    // "restarts" from the committed map. The final sweep must be exact.
    gs::shard::commit_map(*map4, map_file);
    std::uint64_t warm_failures = 0;
    bool drain_killed = false;
    {
      gs::fault::Plan plan;
      plan.arm("shard.replace", 0,
               gs::fault::Injection{gs::fault::Kind::fail});
      plan.arm("shard.drain", 0, gs::fault::Injection{gs::fault::Kind::kill});
      gs::fault::ScopedPlan scoped(plan);
      const auto from_disk = std::make_shared<const gs::shard::ShardMap>(
          gs::shard::ShardMap::from_file(map_file));
      for (const std::size_t i : {0u, 1u, 2u, 3u}) {
        warm_failures += fleet.reload(i, from_disk).blocks_failed;
      }
      try {
        fleet.router->reload_map(from_disk);
      } catch (const gs::fault::Kill&) {
        drain_killed = true;
      }
    }
    // The "crashed" router process restarts from the committed map.
    fleet.front->shutdown();
    fleet.router->shutdown();
    fleet.router = std::make_unique<gs::shard::Router>(
        std::make_shared<const gs::shard::ShardMap>(
            gs::shard::ShardMap::from_file(map_file)),
        gs::shard::RouterConfig{});
    fleet.start_front();
    const auto final_sweep =
        bench::sweep_wire(fleet.front->endpoint(), 1, expected, query);
    std::printf("mid-drain kill: warm failures=%llu, drain killed=%d, "
                "restarted epoch=%llu, final sweep exact=%llu/%zu\n",
                (unsigned long long)warm_failures, drain_killed ? 1 : 0,
                (unsigned long long)fleet.router->map()->epoch(),
                (unsigned long long)final_sweep.exact, kQuerySpace);
    gates.check("the shard.replace fault fired", warm_failures != 0,
                "never fired: the gate is vacuous");
    gates.check("mid-drain crash recovers to the committed epoch, exact",
                drain_killed && fleet.router->map()->epoch() == 4 &&
                    final_sweep.exact == kQuerySpace,
                final_sweep.counts());
  }
  return gates.report();
} catch (const std::exception& e) {
  return gs::bench::uncaught(e);
}
