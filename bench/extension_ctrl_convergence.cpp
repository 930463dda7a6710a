// extension_ctrl_convergence — the gs::ctrl acceptance gate: the
// AUTONOMOUS controller runs a real fleet through a full load cycle and
// every membership change it commits must be invisible to clients.
//
// A real solver dataset is served by 3 in-process daemons (2 standbys
// idle) behind a router; every process adopts epochs through its own
// MapWatcher on the shared committed map file, exactly like production.
// A gs::ctrl::Controller watches the fleet through the real stats RPC —
// reachability and adopted epochs are REAL; only the pressure signal
// (queue depth) is a seeded synthetic ramp, because a CI-sized bench
// cannot genuinely saturate a daemon. Client threads hammer the wire
// path throughout, checking every answer bit-for-bit against
// single-daemon ground-truth identity CRCs.
//
// Phases and gates:
//   1. steady in-band load: the controller must commit ZERO epochs;
//   2. load ramp up: the controller must grow 3 -> 4 -> 5 on its own and
//      report convergence (every member and the router adopt each epoch);
//   3. load ramp down: shrink 5 -> 4 -> 3, same convergence discipline;
//   4. steady again at the final membership: zero further commits.
// Throughout: zero wrong answers (ok + undegraded + mismatched CRC — the
// cardinal sin), total committed epochs within the controller's own
// budget, zero convergence timeouts, and per transition the daemons'
// summed replacement plans (Sigma blocks_planned via their MapWatcher
// reloads) must equal the ring's minimal-movement diff EXACTLY.
//
// GS_BENCH_NONFATAL=1 relaxes the timing- and budget-class gates
// (trajectory deadlines, steady-zero-commits, epoch budget, convergence
// timeouts) for shared CI runners. The correctness gates — zero wrong
// answers, exact warming bounds — stay fatal regardless.
//
// Default scale finishes in well under a minute; pass a multiplier to
// stretch the pass deadlines, e.g. `extension_ctrl_convergence 4`.
#include <atomic>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "ctrl/controller.h"
#include "shard/map.h"
#include "shard/reshard.h"
#include "shard/router.h"
#include "svc/service.h"

namespace {

namespace bench = gs::bench;

constexpr std::size_t kQuerySpace = 48;
constexpr std::uint64_t kQuerySeed = 0xE90C4BADF00Dull;
constexpr int kEpochBudget = 6;  // the run needs 4; 6 is the hard cap

}  // namespace

int main(int argc, char** argv) try {
  const std::size_t scale = argc >= 2 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const double stretch = static_cast<double>(scale ? scale : 1);

  std::printf("==============================================================\n");
  std::printf("Extension — gs::ctrl: autonomous resharding convergence gate\n");
  std::printf("==============================================================\n\n");

  // Phase 0: dataset, ground truth, and the block-key universe.
  const bench::ScratchDir scratch("ctrl_conv");
  const bench::Dataset ds = bench::make_dataset(scratch.file("data.bp"));
  const std::string map_file = scratch.file("map.json");
  const bench::QueryFn query = [&](std::size_t q) {
    return bench::make_query(q, ds.n_steps, ds.L, kQuerySeed);
  };
  bench::Gates gates("ctrl_convergence");
  std::vector<std::uint32_t> expected;
  {
    gs::svc::Service single(ds.path);
    expected = bench::ground_truth(single, kQuerySpace, query, gates);
  }
  if (expected.empty()) return gates.report();
  const std::vector<std::string> keys = bench::dataset_block_keys(ds.path);
  std::printf("dataset: %s  (%zu queries, %zu block keys)\n\n",
              ds.path.c_str(), kQuerySpace, keys.size());

  // The committed-map history and the warming ledger, both filled by the
  // production-path machinery (commit hook / MapWatcher reloads).
  std::mutex ledger_mu;
  std::map<std::uint64_t, std::shared_ptr<const gs::shard::ShardMap>>
      committed;
  std::map<std::uint64_t, std::uint64_t> warmed;  // epoch -> Σ blocks_planned

  bench::Fleet fleet(ds.path, scratch.path(), 5, 3);  // serving: s0..s2
  const auto map1 = fleet.initial;
  committed[1] = map1;
  gs::shard::commit_map(*map1, map_file);

  // Every daemon and the router adopt committed epochs through their own
  // MapWatcher on the shared file — the controller never pushes a map at
  // anyone; it commits and then WATCHES the fleet converge.
  gs::shard::WatcherConfig watcher_config;
  watcher_config.poll_ms = 20;
  std::vector<std::unique_ptr<gs::shard::MapWatcher>> watchers;
  for (std::size_t i = 0; i < fleet.services.size(); ++i) {
    watchers.push_back(std::make_unique<gs::shard::MapWatcher>(
        map_file,
        [&fleet, &ledger_mu, &warmed, i](gs::shard::ShardMap m) {
          const auto stats = fleet.reload(
              i, std::make_shared<const gs::shard::ShardMap>(std::move(m)));
          {
            std::lock_guard<std::mutex> lock(ledger_mu);
            warmed[stats.epoch_to] += stats.blocks_planned;
          }
          return stats.to_json();
        },
        watcher_config));
  }
  watchers.push_back(std::make_unique<gs::shard::MapWatcher>(
      map_file,
      [&fleet](gs::shard::ShardMap m) {
        return fleet.router
            ->reload_map(
                std::make_shared<const gs::shard::ShardMap>(std::move(m)))
            .to_json();
      },
      watcher_config));

  // The controller. Reachability and adopted epochs in every sample are
  // real RPC answers; the pressure signal is overlaid with the seeded
  // synthetic ramp (per-shard share of the offered load).
  double per_shard_load = 1.0;  // refreshed before every controller step
  gs::rpc::ClientConfig stats_client;
  stats_client.connect_timeout_ms = 500;
  stats_client.retries = 1;
  const gs::ctrl::Fetcher base = gs::ctrl::rpc_fetcher(stats_client);
  const gs::ctrl::Fetcher fetcher =
      [&base, &per_shard_load](const gs::shard::ShardInfo& info) {
        gs::ctrl::StatsSample sample = base(info);
        if (sample.reachable && info.id != "router") {
          sample.queue_depth = per_shard_load;
          sample.inflight = 0.0;
        }
        return sample;
      };

  gs::ctrl::ControllerConfig config;
  config.map_path = map_file;
  config.spares = {{"s3", fleet.endpoint(3)}, {"s4", fleet.endpoint(4)}};
  config.router = gs::shard::ShardInfo{"router", fleet.front->endpoint().str()};
  config.block_keys = keys;
  config.converge_timeout_seconds = 30.0 * stretch;
  config.collector.poll_seconds = 0.1;
  config.collector.halflife_seconds = 0.5;
  config.collector.seed = 42;
  config.policy.grow_queue_depth = 2.0;
  config.policy.shrink_queue_depth = 0.25;
  config.policy.sustain_ticks = 2;
  config.policy.min_dwell_seconds = 1.0;
  config.policy.epoch_budget = kEpochBudget;
  config.policy.budget_window_seconds = 600.0;
  config.policy.min_shards = 3;
  config.policy.max_shards = 5;

  const gs::ctrl::CommitHook hook = [&](const gs::shard::ShardMap& m) {
    gs::shard::commit_map(m, map_file);
    std::lock_guard<std::mutex> lock(ledger_mu);
    committed[m.epoch()] = std::make_shared<const gs::shard::ShardMap>(m);
  };
  gs::ctrl::Controller controller(map1, config, fetcher, hook);

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // Client traffic hammers the wire path for the whole run.
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

  double offered_load = 3.0;  // total queue depth across the cluster
  // Ticks the controller until `done` or the deadline; the synthetic
  // per-shard pressure tracks the CURRENT membership, exactly as a real
  // fixed offered load would redistribute over a resized fleet.
  const auto run_until = [&](double deadline, const auto& done) {
    for (;;) {
      per_shard_load =
          offered_load / static_cast<double>(controller.map()->size());
      controller.step(now_s());
      if (done()) return true;
      if (now_s() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };
  const auto settled = [&](std::size_t size) {
    return [&controller, size] {
      const auto stats = controller.stats();
      return controller.map()->size() == size &&
             controller.state() == gs::ctrl::CtrlState::observe &&
             stats.converged == stats.epochs_committed;
    };
  };

  // Pass 1: steady in-band load (1.0 per shard) — the controller must
  // sit on its hands.
  std::printf("-- pass 1: steady load, %zu shards --\n",
              controller.map()->size());
  run_until(now_s() + 3.0 * stretch, [] { return false; });
  {
    const auto stats = controller.stats();
    std::printf("steady: %llu ticks, %llu holds, %llu epochs committed\n",
                (unsigned long long)stats.ticks,
                (unsigned long long)stats.holds,
                (unsigned long long)stats.epochs_committed);
    gates.relaxable("steady in-band load commits zero epochs",
                    stats.epochs_committed == 0);
  }

  // Pass 2: ramp up. 9.6 total = 3.2/shard at 3 (saturated), 2.4 at 4
  // (still saturated), 1.92 at 5 (back inside the band): the controller
  // must grow exactly twice and stop at max_shards.
  std::printf("\n-- pass 2: load ramp up (9.6 total), expect 3 -> 5 --\n");
  offered_load = 9.6;
  const double grow_start = now_s();
  const bool grew = run_until(grow_start + 60.0 * stretch, settled(5));
  const double grow_seconds = now_s() - grow_start;
  {
    const auto stats = controller.stats();
    std::printf("ramp up: %zu shards at epoch %llu, grows=%llu in %.2fs "
                "(last: %s)\n",
                controller.map()->size(),
                (unsigned long long)controller.map()->epoch(),
                (unsigned long long)stats.grows, grow_seconds,
                stats.last_reason.c_str());
    gates.relaxable("grows 3 -> 5 under saturation and converges", grew);
    gates.relaxable("ramp up: zero convergence timeouts",
                    stats.converge_timeouts == 0);
  }

  // Pass 3: ramp down. 0.9 total = 0.18/shard at 5 (idle), 0.225 at 4,
  // 0.3 at 3 (in band): shrink exactly twice, floor at min_shards.
  std::printf("\n-- pass 3: load ramp down (0.9 total), expect 5 -> 3 --\n");
  offered_load = 0.9;
  const double shrink_start = now_s();
  const bool shrank = run_until(shrink_start + 60.0 * stretch, settled(3));
  const double shrink_seconds = now_s() - shrink_start;
  {
    const auto stats = controller.stats();
    std::printf("ramp down: %zu shards at epoch %llu, shrinks=%llu in "
                "%.2fs (last: %s)\n",
                controller.map()->size(),
                (unsigned long long)controller.map()->epoch(),
                (unsigned long long)stats.shrinks, shrink_seconds,
                stats.last_reason.c_str());
    gates.relaxable("shrinks 5 -> 3 when idle and converges", shrank);
    gates.relaxable("ramp down: zero convergence timeouts",
                    stats.converge_timeouts == 0);
  }

  // Pass 4: steady again at the final membership — quiet means quiet.
  std::printf("\n-- pass 4: steady load at final membership --\n");
  offered_load = 3.0;
  const std::uint64_t epochs_before = controller.stats().epochs_committed;
  run_until(now_s() + 2.0 * stretch, [] { return false; });
  gates.relaxable("steady load after the cycle commits zero epochs",
                  controller.stats().epochs_committed == epochs_before);

  stop.store(true, std::memory_order_release);
  for (auto& t : traffic) t.join();
  bench::PassResult live;
  for (const auto& r : thread_results) live.merge(r);

  // Gate: zero wrong answers across the ENTIRE autonomous cycle. This is
  // the correctness gate — never relaxed.
  std::printf("\nlive traffic: %s\n", live.counts().c_str());
  gates.check("autonomous cycle: zero wrong answers, keeps answering",
              live.wrong == 0 && live.exact != 0, live.counts());

  // Gate: epoch accounting. Expected trajectory 1 -> 5 (two grows, two
  // shrinks); the budget is the controller's own cap.
  const auto stats = controller.stats();
  std::printf("epochs committed=%llu (grows=%llu shrinks=%llu evicts=%llu), "
              "budget %d; converged=%llu timeouts=%llu\n",
              (unsigned long long)stats.epochs_committed,
              (unsigned long long)stats.grows,
              (unsigned long long)stats.shrinks,
              (unsigned long long)stats.evicts, kEpochBudget,
              (unsigned long long)stats.converged,
              (unsigned long long)stats.converge_timeouts);
  gates.metric("epochs_committed",
               static_cast<double>(stats.epochs_committed), 0);
  // A ramp's convergence time: from the load change until the fleet has
  // settled at the target size with every committed epoch adopted.
  gates.metric("worst_converge_seconds",
               std::max(grow_seconds, shrink_seconds), 2);
  gates.relaxable(
      "epochs committed within the controller's budget",
      stats.epochs_committed <= static_cast<std::uint64_t>(kEpochBudget));

  // Gate: per transition, the daemons' summed replacement plans must
  // equal the ring's minimal-movement diff exactly. Correctness — never
  // relaxed. (Retired daemons and idle standbys plan 0 blocks, so the
  // watcher-fed ledger sums only real ownership changes.)
  {
    std::lock_guard<std::mutex> lock(ledger_mu);
    for (const auto& [epoch, map] : committed) {
      if (epoch == 1) continue;
      const std::string gate =
          bench::fmt("epoch %llu: warmed == ring movement bound",
                     (unsigned long long)epoch);
      const auto prev = committed.find(epoch - 1);
      if (prev == committed.end()) {
        gates.check(gate, false, "committed without a predecessor");
        continue;
      }
      const std::size_t bound =
          gs::shard::moved_keys(gs::shard::Ring(*prev->second),
                                gs::shard::Ring(*map),
                                std::span<const std::string>(keys))
              .size();
      const std::uint64_t planned = warmed.count(epoch) ? warmed[epoch] : 0;
      std::printf("epoch %llu (%zu shards): warmed %llu blocks, ring "
                  "movement bound %zu\n",
                  (unsigned long long)epoch, map->size(),
                  (unsigned long long)planned, bound);
      gates.check(gate, planned == bound && bound != 0,
                  bench::fmt("warmed %llu, bound %zu",
                             (unsigned long long)planned, bound));
    }
  }

  watchers.clear();  // stop adoption before the fleet tears down
  return gates.report();
} catch (const std::exception& e) {
  return gs::bench::uncaught(e);
}
