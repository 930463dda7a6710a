#include "ctrl/sim.h"

#include <memory>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "shard/map.h"

namespace gs::ctrl {

namespace {

/// splitmix64 finisher: the deterministic per-(shard, tick) jitter
/// stream. No global RNG state — a pure function of its inputs.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double jitter(std::uint64_t seed, const std::string& id, std::uint64_t tick,
              double noise) {
  const std::uint64_t h = mix(seed ^ shard::hash64(id) ^ (tick * 0x9e37ull));
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
  return 1.0 - noise + 2.0 * noise * u;
}

/// The synthetic fleet the fetcher answers for.
struct SimFleet {
  std::shared_ptr<const shard::ShardMap> adopted;  ///< epoch the fleet serves
  std::shared_ptr<const shard::ShardMap> pending;  ///< committed, not adopted
  std::size_t adopt_countdown = 0;
  double now = 0.0;
  std::uint64_t tick = 0;
  double total_load = 0.0;
  const SimConfig* config = nullptr;

  bool dead(const std::string& id) const {
    const auto it = config->die_at.find(id);
    return it != config->die_at.end() && now >= it->second;
  }
};

}  // namespace

std::string SimResult::trace() const {
  std::ostringstream os;
  for (const std::string& e : events) os << e << "\n";
  return os.str();
}

SimResult run_sim(const SimConfig& config) {
  GS_REQUIRE(config.initial_shards >= 1, "sim needs at least one shard");
  GS_REQUIRE(!config.load.empty(), "sim needs a load trace");

  // Fleet: members s0..s{n-1}, spares continuing the numbering. All
  // endpoints are fake — nothing dials them.
  std::vector<shard::ShardInfo> members;
  for (std::size_t i = 0; i < config.initial_shards; ++i) {
    const std::string id = std::string("s").append(std::to_string(i));
    members.push_back({id, "sim:" + id});
  }
  std::vector<shard::ShardInfo> spares;
  for (std::size_t i = 0; i < config.spare_count; ++i) {
    const std::string id =
        std::string("s").append(std::to_string(config.initial_shards + i));
    spares.push_back({id, "sim:" + id});
  }
  auto initial = std::make_shared<const shard::ShardMap>(
      /*epoch=*/1, /*vnodes=*/64, members);

  auto fleet = std::make_shared<SimFleet>();
  fleet->adopted = initial;
  fleet->config = &config;

  const Fetcher fetcher = [fleet, &config](const shard::ShardInfo& info) {
    StatsSample s;
    if (fleet->dead(info.id)) return s;  // unreachable
    s.reachable = true;
    s.epoch = fleet->adopted->epoch();
    // Live members split the offered load; spares (and members not yet
    // adopted) idle at zero.
    if (fleet->adopted->find(info.id) != nullptr) {
      std::size_t live = 0;
      for (const shard::ShardInfo& m : fleet->adopted->shards()) {
        if (!fleet->dead(m.id)) ++live;
      }
      if (live > 0) {
        s.queue_depth = fleet->total_load / static_cast<double>(live) *
                        jitter(config.seed, info.id, fleet->tick,
                               config.noise);
      }
      s.rate_rps = s.queue_depth * 4.0;  // an arbitrary consistent scale
    }
    return s;
  };

  SimResult result;
  const CommitHook commit = [fleet, &config,
                             &result](const shard::ShardMap& map) {
    fleet->pending = std::make_shared<const shard::ShardMap>(
        map.epoch(), map.vnodes(), map.shards());
    fleet->adopt_countdown = config.adopt_ticks;
    std::ostringstream os;
    os << "t=" << fleet->now << " committed epoch " << map.epoch() << " ("
       << map.size() << " shards)";
    result.events.push_back(os.str());
  };

  ControllerConfig ctrl_config;
  ctrl_config.collector = config.collector;
  ctrl_config.policy = config.policy;
  ctrl_config.spares = spares;
  ctrl_config.converge_timeout_seconds =
      static_cast<double>(config.adopt_ticks + 8) * config.tick_seconds;
  for (std::size_t b = 0; b < config.blocks; ++b) {
    ctrl_config.block_keys.push_back(shard::Ring::block_key("u", 0, b));
  }

  Controller controller(initial, ctrl_config, fetcher, commit);

  result.max_shards = config.initial_shards;
  result.min_shards_after_max = config.initial_shards;

  std::size_t phase = 0;
  for (std::uint64_t tick = 0; tick < config.ticks; ++tick) {
    const double now = static_cast<double>(tick) * config.tick_seconds;
    fleet->now = now;
    fleet->tick = tick;
    while (phase + 1 < config.load.size() &&
           now >= config.load[phase].until_seconds) {
      ++phase;
    }
    fleet->total_load = config.load[phase].total_load;

    if (fleet->pending != nullptr) {
      if (fleet->adopt_countdown == 0) {
        fleet->adopted = fleet->pending;
        fleet->pending = nullptr;
        std::ostringstream os;
        os << "t=" << now << " fleet adopted epoch "
           << fleet->adopted->epoch();
        result.events.push_back(os.str());
      } else {
        --fleet->adopt_countdown;
      }
    }

    const StepReport report = controller.step(now);
    if (report.committed) {
      std::ostringstream os;
      os << "t=" << now << " " << to_string(report.action) << ": "
         << report.reason;
      result.events.push_back(os.str());
    }
    const std::size_t n = controller.map()->size();
    if (n > result.max_shards) {
      result.max_shards = n;
      result.min_shards_after_max = n;
    }
    if (n < result.min_shards_after_max) result.min_shards_after_max = n;
  }

  result.final_shards = controller.map()->size();
  result.stats = controller.stats();
  result.epochs_committed = result.stats.epochs_committed;
  return result;
}

}  // namespace gs::ctrl
