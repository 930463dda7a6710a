// gsctl — the autonomous resharding controller (gs::ctrl) as a tool.
// Watches a sharded cluster's load and health through the same stats RPC
// gsquery --stats-json reads, and either advises or acts:
//
//   gsctl --map cluster.json --plan                  # one-shot advisor
//   gsctl --map cluster.json --plan grow --spare s3=127.0.0.1:7547
//   gsctl --map cluster.json --watch --spare s3=unix:/tmp/gs-s3.sock
//         --dataset run.bp
//
// --plan polls every shard once, prints the proposed successor map plus
// its cost accounting (moved blocks, projected warming seconds, the
// cost-veto verdict) as one JSON document on stdout, and exits WITHOUT
// committing anything — the printed map has already passed
// validate_successor. --watch runs the closed loop: decide, commit via
// the fsync'd staging+rename discipline, verify fleet convergence, obey
// dwell/budget/hysteresis. SIGINT/SIGTERM exit cleanly.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "bp/reader.h"
#include "ctrl/controller.h"
#include "shard/map.h"
#include "svc/service.h"
#include "cli_contract.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

int usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s --map <cluster.json> (--plan [auto|grow|shrink|evict=<id>]"
      " | --watch) [options]\n"
      "modes:\n"
      "  --plan [dir]           one-shot advisor: poll once, print the\n"
      "                         proposed successor map + cost accounting\n"
      "                         as JSON, exit without committing\n"
      "                         (dir: auto (default), grow, shrink,\n"
      "                         evict=<id>)\n"
      "  --watch                closed loop: observe, decide, commit,\n"
      "                         verify convergence, repeat until signaled\n"
      "options:\n"
      "  --spare <id>=<addr>    standby daemon grow may draft (repeat;\n"
      "                         preference order)\n"
      "  --router <addr>        also require this router to adopt each\n"
      "                         committed epoch before calling it\n"
      "                         converged\n"
      "  --dataset <path>       enumerate the dataset's block keys for\n"
      "                         exact movement planning (without it the\n"
      "                         warming cost is unknown and priced 0)\n"
      "  --interval-ms <n>      controller tick period in --watch\n"
      "                         (default 1000)\n"
      "  --poll-s <x>           per-shard stats poll period (default 1)\n"
      "  --halflife-s <x>       load-estimate half-life (default 5)\n"
      "  --grow <x>             mean per-shard load to grow at (default 2)\n"
      "  --shrink <x>           mean per-shard load to shrink at\n"
      "                         (default 0.25)\n"
      "  --sustain <n>          ticks a signal must persist (default 3)\n"
      "  --dwell-s <x>          min quiet time between epochs (default 10)\n"
      "  --budget <n>           max epochs per window (default 4)\n"
      "  --budget-window-s <x>  the window (default 120)\n"
      "  --min-shards <n>       never shrink below (default 1)\n"
      "  --max-shards <n>       never grow above (default 8)\n"
      "  --converge-timeout-s <x>\n"
      "                         bound on watching adoption (default 10)\n"
      "  --dry-run              --watch that plans and logs but never\n"
      "                         commits\n"
      "  --metrics              print controller stats on exit\n"
      "  --help                 this message\n"
      "%s",
      argv0, gs::cli::kExitContract);
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string map_file;
  std::string dataset;
  bool plan_mode = false;
  bool watch_mode = false;
  std::optional<gs::ctrl::Action> forced;
  std::string evict_id;
  std::int64_t interval_ms = 1000;
  bool metrics = false;
  gs::ctrl::ControllerConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gsctl: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--map") {
      map_file = next();
    } else if (arg == "--plan") {
      plan_mode = true;
      // Optional direction argument (not another flag).
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        const std::string dir = argv[++i];
        if (dir == "auto") {
          // policy decides
        } else if (dir == "grow") {
          forced = gs::ctrl::Action::grow;
        } else if (dir == "shrink") {
          forced = gs::ctrl::Action::shrink;
        } else if (dir.rfind("evict=", 0) == 0) {
          forced = gs::ctrl::Action::evict;
          evict_id = dir.substr(6);
        } else {
          std::fprintf(stderr, "gsctl: bad --plan direction %s\n",
                       dir.c_str());
          return 2;
        }
      }
    } else if (arg == "--watch") {
      watch_mode = true;
    } else if (arg == "--spare") {
      const std::string spec = next();
      const auto eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        std::fprintf(stderr, "gsctl: --spare wants <id>=<addr>, got %s\n",
                     spec.c_str());
        return 2;
      }
      config.spares.push_back(
          {spec.substr(0, eq), spec.substr(eq + 1)});
    } else if (arg == "--router") {
      config.router = gs::shard::ShardInfo{"router", next()};
    } else if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--interval-ms") {
      interval_ms = std::atoll(next());
    } else if (arg == "--poll-s") {
      config.collector.poll_seconds = std::atof(next());
    } else if (arg == "--halflife-s") {
      config.collector.halflife_seconds = std::atof(next());
    } else if (arg == "--grow") {
      config.policy.grow_queue_depth = std::atof(next());
    } else if (arg == "--shrink") {
      config.policy.shrink_queue_depth = std::atof(next());
    } else if (arg == "--sustain") {
      config.policy.sustain_ticks = std::atoi(next());
    } else if (arg == "--dwell-s") {
      config.policy.min_dwell_seconds = std::atof(next());
    } else if (arg == "--budget") {
      config.policy.epoch_budget = std::atoi(next());
    } else if (arg == "--budget-window-s") {
      config.policy.budget_window_seconds = std::atof(next());
    } else if (arg == "--min-shards") {
      config.policy.min_shards = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--max-shards") {
      config.policy.max_shards = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--converge-timeout-s") {
      config.converge_timeout_seconds = std::atof(next());
    } else if (arg == "--dry-run") {
      config.dry_run = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(stdout, argv[0]);
    } else {
      std::fprintf(stderr, "gsctl: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (map_file.empty() || plan_mode == watch_mode) {
    return usage(stderr, argv[0]);
  }

  std::error_code ec;
  if (!std::filesystem::exists(map_file, ec)) {
    std::fprintf(stderr, "gsctl: no such shard map: %s\n", map_file.c_str());
    return 1;
  }

  try {
    config.map_path = map_file;
    auto map = std::make_shared<const gs::shard::ShardMap>(
        gs::shard::ShardMap::from_file(map_file));
    if (!dataset.empty()) {
      const gs::bp::Reader reader(dataset);
      for (const auto& id : gs::svc::dataset_blocks(reader)) {
        config.block_keys.push_back(
            gs::shard::Ring::block_key(id.variable, id.step, id.block));
      }
      std::fprintf(stderr, "gsctl: %zu block keys from %s\n",
                   config.block_keys.size(), dataset.c_str());
    }

    gs::rpc::ClientConfig client_config;
    client_config.connect_timeout_ms = 1000;
    client_config.retries = 1;
    gs::ctrl::Fetcher fetcher = gs::ctrl::rpc_fetcher(client_config);

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const auto now_s = [&] {
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    gs::ctrl::Controller controller(map, config, fetcher);

    if (plan_mode) {
      gs::ctrl::PlanReport report =
          controller.plan_once(now_s(), forced, evict_id);
      std::printf("%s\n", report.to_json().dump(2).c_str());
      if (report.next == nullptr) {
        std::fprintf(stderr, "gsctl: no actionable plan: %s\n",
                     report.reason.c_str());
      } else {
        std::fprintf(
            stderr,
            "gsctl: proposed epoch %llu (%zu shards), %zu block(s) move, "
            "est warming %.3fs — NOT committed (advisory mode)\n",
            (unsigned long long)report.next->epoch(), report.next->size(),
            report.moved_blocks, report.est_warm_seconds);
      }
      return 0;
    }

    // --watch: the closed loop.
    struct sigaction sa{};
    sa.sa_handler = handle_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    std::fprintf(stderr,
                 "gsctl: watching %zu shard(s), epoch %llu, %zu spare(s)%s\n",
                 map->size(), (unsigned long long)map->epoch(),
                 config.spares.size(),
                 config.dry_run ? " [dry-run]" : "");
    std::string last_logged;
    while (g_stop == 0) {
      const gs::ctrl::StepReport report = controller.step(now_s());
      // Log transitions and commits, not every quiet tick.
      if (report.committed || report.reason != last_logged) {
        std::fprintf(stderr, "gsctl: [%s] %s\n",
                     gs::ctrl::to_string(report.state),
                     report.reason.c_str());
        last_logged = report.reason;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    if (metrics) {
      std::fprintf(stderr, "%s\n",
                   controller.stats().to_json().dump(2).c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsctl: %s\n", e.what());
    return 1;
  }
}
