// gsserved — the serving daemon of the end-to-end workflow: exposes a
// BP-mini dataset over the gs::rpc wire protocol so out-of-process
// clients (gsquery --connect, rpc::Client) run the same queries a local
// gs::svc session would, with bitwise-identical answers. Optionally
// follows a live simulation: with --follow-stream it runs the Gray-Scott
// solver in-process and fans its output steps out to subscribed clients
// while they also query the on-disk dataset.
//
//   gsserved --dataset run.bp
//   gsserved --dataset run.bp --listen 0.0.0.0:7544 --max-conns 128
//   gsserved --dataset run.bp --listen unix:/tmp/gs.sock --ready-file r.txt
//   gsserved --dataset run.bp --follow-stream settings.json
//
// Shutdown: SIGINT/SIGTERM drain gracefully — in-flight requests are
// answered, subscribers get a stream_end frame, then sockets close and
// the process exits 0.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bp/stream.h"
#include "common/log.h"
#include "config/settings.h"
#include "core/sim.h"
#include "mpi/runtime.h"
#include "rpc/server.h"
#include "shard/map.h"
#include "shard/reshard.h"
#include "svc/service.h"
#include "cli_contract.h"
#include "daemon_signals.h"

namespace {

int usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s --dataset <dir.bp> [options]\n"
      "options:\n"
      "  --listen <addr>        host:port or unix:/path (default\n"
      "                         127.0.0.1:<rpc_port> from settings/env;\n"
      "                         port 0 = ephemeral)\n"
      "  --max-conns <n>        concurrent connections (default 64)\n"
      "  --backlog <n>          accept backlog (default 64)\n"
      "  --io-timeout-ms <n>    per-frame read/write deadline (default 5000)\n"
      "  --threads <n>          service worker threads (default 2)\n"
      "  --cache-mb <n>         block cache budget in MB, 0 disables "
      "(default 64)\n"
      "  --ready-file <path>    write the bound endpoint here once serving\n"
      "  --shard-map <file>     join the sharded cluster described by this\n"
      "                         map (see gsrouter); requires --shard-id\n"
      "  --shard-id <id>        this daemon's shard id in the map\n"
      "  --watch-ms <n>         shard-map mtime poll period; 0 disables\n"
      "                         polling (default 500 with --shard-map)\n"
      "  --admin-token <tok>    enable the authenticated reload_map admin\n"
      "                         RPC (disabled when unset)\n"
      "  --reload-grace-ms <n>  keep the previous epoch answerable this\n"
      "                         long after a reload (default 2000)\n"
      "  --follow-stream <settings.json>\n"
      "                         run the simulation described by the settings\n"
      "                         file and stream its steps to subscribers\n"
      "  --stream-ranks <n>     simulated ranks for --follow-stream "
      "(default 4)\n"
      "  --metrics              print transport + service metrics on exit\n"
      "  --help                 this message\n"
      "%s%s",
      argv0, gs::cli::kReloadTriggers, gs::cli::kExitContract);
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset;
  std::string listen;
  std::string ready_file;
  std::string shard_map_file;
  std::string shard_id;
  std::string stream_settings;
  std::string admin_token;
  std::int64_t stream_ranks = 4;
  std::int64_t watch_ms = 500;
  std::int64_t reload_grace_ms = 2000;
  std::size_t threads = 2;
  std::uint64_t cache_mb = 64;
  bool metrics = false;

  gs::Settings defaults;
  try {
    defaults.apply_env_overrides();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsserved: %s\n", e.what());
    return 1;
  }
  std::int64_t max_conns = defaults.rpc_max_connections;
  std::int64_t backlog = defaults.rpc_backlog;
  std::int64_t io_timeout_ms = defaults.rpc_io_timeout_ms;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gsserved: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--listen") {
      listen = next();
    } else if (arg == "--max-conns") {
      max_conns = std::atoll(next());
    } else if (arg == "--backlog") {
      backlog = std::atoll(next());
    } else if (arg == "--io-timeout-ms") {
      io_timeout_ms = std::atoll(next());
    } else if (arg == "--threads") {
      threads = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--cache-mb") {
      cache_mb = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--ready-file") {
      ready_file = next();
    } else if (arg == "--shard-map") {
      shard_map_file = next();
    } else if (arg == "--shard-id") {
      shard_id = next();
    } else if (arg == "--watch-ms") {
      watch_ms = std::atoll(next());
    } else if (arg == "--admin-token") {
      admin_token = next();
    } else if (arg == "--reload-grace-ms") {
      reload_grace_ms = std::atoll(next());
    } else if (arg == "--follow-stream") {
      stream_settings = next();
    } else if (arg == "--stream-ranks") {
      stream_ranks = std::atoll(next());
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(stdout, argv[0]);
    } else {
      std::fprintf(stderr, "gsserved: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (dataset.empty()) return usage(stderr, argv[0]);
  if (listen.empty()) {
    listen = "127.0.0.1:" + std::to_string(defaults.rpc_port);
  }

  std::error_code ec;
  if (!std::filesystem::exists(dataset, ec)) {
    std::fprintf(stderr, "gsserved: no such dataset: %s\n", dataset.c_str());
    return 1;
  }
  if (!std::filesystem::exists(dataset + "/md.idx", ec)) {
    std::fprintf(stderr,
                 "gsserved: not a bp-mini dataset (missing %s/md.idx)\n",
                 dataset.c_str());
    return 1;
  }

  if (shard_map_file.empty() != shard_id.empty()) {
    std::fprintf(stderr,
                 "gsserved: --shard-map and --shard-id go together\n");
    return 2;
  }

  try {
    gs::svc::ServiceConfig svc_config;
    svc_config.threads = std::max<std::size_t>(threads, 1);
    svc_config.cache_enabled = cache_mb > 0;
    svc_config.cache_bytes = cache_mb << 20;
    svc_config.reload_grace_seconds = reload_grace_ms / 1000.0;
    if (!shard_map_file.empty()) {
      auto map = std::make_shared<const gs::shard::ShardMap>(
          gs::shard::ShardMap::from_file(shard_map_file));
      if (map->find(shard_id) == nullptr) {
        std::fprintf(stderr, "gsserved: shard id '%s' is not in %s\n",
                     shard_id.c_str(), shard_map_file.c_str());
        return 2;
      }
      svc_config.shard_map = std::move(map);
      svc_config.shard_id = shard_id;
    }
    // Before the service starts its workers, so they inherit the mask.
    const sigset_t signals = gs::cli::block_daemon_signals();
    gs::svc::Service service(dataset, std::move(svc_config));

    // Epoch handover: watch the map file (mtime poll + SIGHUP + admin
    // RPC) and adopt validated successors live. Only with --shard-map.
    std::unique_ptr<gs::shard::MapWatcher> watcher;
    if (!shard_map_file.empty()) {
      gs::shard::WatcherConfig watch_config;
      watch_config.poll_ms = watch_ms;
      watcher = std::make_unique<gs::shard::MapWatcher>(
          shard_map_file,
          [&service, &shard_id](gs::shard::ShardMap map) {
            auto next = std::make_shared<const gs::shard::ShardMap>(
                std::move(map));
            const auto stats = service.reload_shard_map(next);
            std::fprintf(stderr,
                         "gsserved: reloaded shard map, epoch %llu -> %llu "
                         "(%llu/%llu blocks warmed for %s)\n",
                         (unsigned long long)stats.epoch_from,
                         (unsigned long long)stats.epoch_to,
                         (unsigned long long)stats.blocks_moved,
                         (unsigned long long)stats.blocks_planned,
                         shard_id.c_str());
            return stats.to_json();
          },
          watch_config);
    }

    gs::rpc::ServerConfig rpc_config;
    rpc_config.listen = listen;
    rpc_config.backlog = backlog;
    rpc_config.max_connections = max_conns;
    rpc_config.io_timeout_ms = io_timeout_ms;
    if (watcher != nullptr && !admin_token.empty()) {
      rpc_config.admin_token = admin_token;
      rpc_config.reload_hook = [&watcher] { return watcher->reload_now(); };
    }

    gs::bp::Stream stream(/*capacity=*/2);
    const bool follow = !stream_settings.empty();
    gs::rpc::Server server(service, rpc_config, follow ? &stream : nullptr);

    std::fprintf(stderr, "gsserved: serving %s on %s\n", dataset.c_str(),
                 server.endpoint().str().c_str());
    if (!ready_file.empty()) {
      std::ofstream out(ready_file);
      out << server.endpoint().str() << "\n";
    }

    // Live producer: the simulation streams complete steps through the
    // in-memory queue; the server's bridge fans them out to subscribers.
    std::thread sim_thread;
    if (follow) {
      const gs::Settings sim_settings =
          gs::Settings::from_file(stream_settings);
      sim_thread = std::thread([&stream, sim_settings, stream_ranks] {
        try {
          gs::mpi::run(static_cast<int>(stream_ranks),
                       [&](gs::mpi::Comm& world) {
            gs::core::Simulation sim(sim_settings, world);
            gs::bp::StreamWriter writer(stream, world);
            const std::int64_t outputs =
                sim_settings.steps / sim_settings.plotgap;
            const std::int64_t L = sim_settings.L;
            for (std::int64_t out = 0; out < outputs; ++out) {
              sim.run_steps(static_cast<int>(sim_settings.plotgap));
              sim.sync_host();
              writer.begin_step();
              writer.put("U", {L, L, L}, sim.local_box(),
                         sim.u_host().interior_copy());
              writer.put("V", {L, L, L}, sim.local_box(),
                         sim.v_host().interior_copy());
              writer.put_scalar("step", sim.current_step());
              writer.end_step();
            }
            writer.close();
          });
        } catch (const gs::IoError& e) {
          // Expected at shutdown: the server abandons the stream and a
          // producer blocked on backpressure unblocks with this error.
          GS_INFO("gsserved: stream producer stopped: " << e.what());
        } catch (const std::exception& e) {
          // Anything else escaping this thread would std::terminate the
          // daemon; report, end the stream so subscribers get a
          // stream_end, and keep serving queries.
          GS_WARN("gsserved: stream producer failed: " << e.what());
          stream.abandon(std::string("producer failed: ") + e.what());
        }
      });
    }

    gs::cli::wait_for_stop(signals, [&watcher] {
      if (watcher != nullptr) watcher->trigger();
    });
    std::fprintf(stderr, "gsserved: draining...\n");
    server.shutdown();
    if (sim_thread.joinable()) sim_thread.join();
    service.shutdown();
    if (metrics) {
      std::fprintf(stderr, "%s%s", server.stats().report().c_str(),
                   service.metrics().report().c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsserved: %s\n", e.what());
    return 1;
  }
}
