// gsrouter — the scatter-gather front of a sharded gsserved cluster.
// Loads a shard map, dials the member daemons lazily, and serves the
// SAME wire protocol a single gsserved speaks: gsquery (and any
// rpc::Client) connects to a gsrouter exactly as to one daemon and gets
// byte-identical answers, merged exactly from per-shard partials.
//
//   gsrouter --map cluster.json
//   gsrouter --map cluster.json --listen unix:/tmp/gs-router.sock
//   gsrouter --map cluster.json --ready-file r.txt
//   gsrouter --map cluster.json --no-failover --probe-ms 100
//
// Shutdown: SIGINT/SIGTERM drain gracefully — in-flight scatters finish,
// their answers are delivered, then the process exits 0.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "config/settings.h"
#include "rpc/server.h"
#include "shard/reshard.h"
#include "shard/router.h"
#include "cli_contract.h"
#include "daemon_signals.h"

namespace {

int usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s --map <cluster.json> [options]\n"
      "options:\n"
      "  --listen <addr>        host:port or unix:/path (default\n"
      "                         127.0.0.1:0 = ephemeral)\n"
      "  --ready-file <path>    write the bound endpoint here once serving\n"
      "  --workers <n>          scatter-gather workers (default 4)\n"
      "  --queue <n>            admission queue bound, 0 = unbounded "
      "(default 64)\n"
      "  --attempts <n>         transport attempts per shard candidate "
      "(default 2)\n"
      "  --no-failover          report a dead shard's blocks missing\n"
      "                         instead of asking a replica to act for it\n"
      "  --probe-ms <n>         health-probe period, 0 disables "
      "(default 200)\n"
      "  --io-timeout-ms <n>    per-frame deadline, both sides "
      "(default 5000)\n"
      "  --connect-timeout-ms <n>\n"
      "                         dial deadline toward shards (default 1000)\n"
      "  --max-conns <n>        client connections (default 64)\n"
      "  --backlog <n>          accept backlog (default 64)\n"
      "  --watch-ms <n>         map mtime poll period; 0 disables polling\n"
      "                         (default 500)\n"
      "  --admin-token <tok>    enable the authenticated reload_map admin\n"
      "                         RPC (disabled when unset)\n"
      "  --drain-timeout-ms <n> bound on waiting for old-epoch queries\n"
      "                         after a reload (default 2000)\n"
      "  --metrics              print router + transport stats on exit\n"
      "  --stats-json           one-shot: probe the cluster once, print\n"
      "                         router stats (per-shard health) as JSON\n"
      "                         to stdout, exit 0 — no serving endpoint\n"
      "  --help                 this message\n"
      "%s%s",
      argv0, gs::cli::kReloadTriggers, gs::cli::kExitContract);
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string map_file;
  std::string listen = "127.0.0.1:0";
  std::string ready_file;
  gs::shard::RouterConfig router_config;
  router_config.client.connect_timeout_ms = 1000;
  std::string admin_token;
  std::int64_t max_conns = 64;
  std::int64_t backlog = 64;
  std::int64_t io_timeout_ms = 5000;
  std::int64_t watch_ms = 500;
  bool metrics = false;
  bool stats_json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gsrouter: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--map") {
      map_file = next();
    } else if (arg == "--listen") {
      listen = next();
    } else if (arg == "--ready-file") {
      ready_file = next();
    } else if (arg == "--workers") {
      router_config.workers = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--queue") {
      router_config.queue_capacity =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--attempts") {
      router_config.attempts = std::atoi(next());
    } else if (arg == "--no-failover") {
      router_config.failover = false;
    } else if (arg == "--probe-ms") {
      router_config.probe_interval_ms = std::atoll(next());
    } else if (arg == "--io-timeout-ms") {
      io_timeout_ms = std::atoll(next());
      router_config.client.io_timeout_ms = io_timeout_ms;
    } else if (arg == "--connect-timeout-ms") {
      router_config.client.connect_timeout_ms = std::atoll(next());
    } else if (arg == "--max-conns") {
      max_conns = std::atoll(next());
    } else if (arg == "--backlog") {
      backlog = std::atoll(next());
    } else if (arg == "--watch-ms") {
      watch_ms = std::atoll(next());
    } else if (arg == "--admin-token") {
      admin_token = next();
    } else if (arg == "--drain-timeout-ms") {
      router_config.drain_timeout_ms = std::atoll(next());
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(stdout, argv[0]);
    } else {
      std::fprintf(stderr, "gsrouter: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (map_file.empty()) return usage(stderr, argv[0]);

  std::error_code ec;
  if (!std::filesystem::exists(map_file, ec)) {
    std::fprintf(stderr, "gsrouter: no such shard map: %s\n",
                 map_file.c_str());
    return 1;
  }

  try {
    auto map = std::make_shared<const gs::shard::ShardMap>(
        gs::shard::ShardMap::from_file(map_file));

    if (stats_json) {
      // One-shot advisor mode (mirrors gsquery --stats-json): stand the
      // routing tier up without a serving endpoint, let one fast probe
      // round classify every shard, print the router's stats document —
      // scripts and gsctl --plan read per-shard health from it — and
      // exit 0. An unreachable cluster is still a valid (all-dead)
      // report, not an error.
      if (router_config.probe_interval_ms > 50) {
        router_config.probe_interval_ms = 50;
      }
      gs::shard::Router router(map, router_config);
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      std::printf("%s\n", router.stats_json().dump(2).c_str());
      router.shutdown();
      return 0;
    }

    // Before the router starts its threads, so they inherit the mask.
    const sigset_t signals = gs::cli::block_daemon_signals();
    gs::shard::Router router(map, router_config);

    // Epoch handover: adopt a validated successor map live (mtime poll +
    // SIGHUP + admin RPC), draining old-epoch queries behind the bound.
    gs::shard::WatcherConfig watch_config;
    watch_config.poll_ms = watch_ms;
    gs::shard::MapWatcher watcher(
        map_file,
        [&router](gs::shard::ShardMap next) {
          const auto stats = router.reload_map(
              std::make_shared<const gs::shard::ShardMap>(std::move(next)));
          std::fprintf(stderr,
                       "gsrouter: reloaded shard map, epoch %llu -> %llu "
                       "(+%zu/-%zu shards, %s in %.3fs)\n",
                       (unsigned long long)stats.epoch_from,
                       (unsigned long long)stats.epoch_to, stats.shards_added,
                       stats.shards_removed,
                       stats.drained ? "drained" : "drain timed out",
                       stats.drain_seconds);
          return stats.to_json();
        },
        watch_config);

    gs::rpc::ServerConfig rpc_config;
    rpc_config.listen = listen;
    rpc_config.backlog = backlog;
    rpc_config.max_connections = max_conns;
    rpc_config.io_timeout_ms = io_timeout_ms;
    if (!admin_token.empty()) {
      rpc_config.admin_token = admin_token;
      rpc_config.reload_hook = [&watcher] { return watcher.reload_now(); };
    }
    gs::rpc::Server server(router, rpc_config);

    std::fprintf(stderr,
                 "gsrouter: routing %zu shard(s), epoch %llu, on %s\n",
                 map->size(), (unsigned long long)map->epoch(),
                 server.endpoint().str().c_str());
    if (!ready_file.empty()) {
      std::ofstream out(ready_file);
      out << server.endpoint().str() << "\n";
    }

    gs::cli::wait_for_stop(signals, [&watcher] { watcher.trigger(); });
    std::fprintf(stderr, "gsrouter: draining...\n");
    server.shutdown();
    router.shutdown();
    if (metrics) {
      std::fprintf(stderr, "%s\n%s", server.stats().report().c_str(),
                   router.stats_json().dump(2).c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsrouter: %s\n", e.what());
    return 1;
  }
}
