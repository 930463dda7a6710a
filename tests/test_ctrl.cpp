// Tests for gs::ctrl — the autonomous resharding controller. The policy
// rules are exercised as pure unit tests on hand-built cluster views
// (hysteresis, sustain, dwell, budget, health-overrides-dwell, the cost
// veto), the planner's successor synthesis is checked against the exact
// ring movement, the collector's decayed estimation and deterministic
// poll schedule run on a fake clock with scripted fetchers, and the
// closed loop runs end-to-end through the seeded simulation harness:
// grow under a ramp, shrink after it, zero commits under steady load,
// byte-identical replay.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "config/json.h"
#include "ctrl/collector.h"
#include "ctrl/controller.h"
#include "ctrl/planner.h"
#include "ctrl/policy.h"
#include "ctrl/sim.h"
#include "shard/map.h"
#include "shard/reshard.h"

namespace {

namespace ctrl = gs::ctrl;
namespace shard = gs::shard;
namespace json = gs::json;
using gs::DecayedRate;

shard::ShardMap make_map(std::size_t n, std::uint64_t epoch = 1) {
  std::vector<shard::ShardInfo> shards;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string id = std::string("s").append(std::to_string(i));
    shards.push_back(shard::ShardInfo{id, "sim:" + id});
  }
  return shard::ShardMap(epoch, 64, std::move(shards));
}

std::shared_ptr<const shard::ShardMap> make_map_ptr(std::size_t n,
                                                    std::uint64_t epoch = 1) {
  return std::make_shared<const shard::ShardMap>(make_map(n, epoch));
}

/// A view with `n` reachable shards each carrying `per_shard_load`.
ctrl::ClusterView make_view(std::size_t n, double per_shard_load) {
  ctrl::ClusterView v;
  for (std::size_t i = 0; i < n; ++i) {
    ctrl::ShardEstimate e;
    e.id = std::string("s").append(std::to_string(i));
    e.endpoint = "sim:" + e.id;
    e.reachable = true;
    e.epoch = 1;
    e.queue_depth = per_shard_load;
    v.shards.push_back(e);
  }
  v.reachable = n;
  v.epoch = 1;
  v.mean_queue_depth = per_shard_load;
  return v;
}

std::vector<std::string> make_keys(std::size_t n) {
  std::vector<std::string> keys;
  for (std::size_t b = 0; b < n; ++b) {
    keys.push_back(shard::Ring::block_key("u", 0, b));
  }
  return keys;
}

// ---- DecayedRate ---------------------------------------------------------

TEST(DecayedRateTest, SteadyStreamConvergesToTheTrueRate) {
  // r events/sec into a half-life h settles at count = r * h / ln 2.
  const double h = 5.0;
  const double r = 10.0;
  DecayedRate d(h);
  for (int i = 0; i < 2000; ++i) {
    d.add(static_cast<double>(i) * 0.1, r * 0.1);
  }
  const double now = 200.0;
  EXPECT_NEAR(d.rate(now), r, r * 0.05);
  EXPECT_NEAR(d.count(now), r * h / M_LN2, r * h / M_LN2 * 0.05);
}

TEST(DecayedRateTest, CountHalvesPerHalfLifeAndNeverAmplifies) {
  DecayedRate d(10.0);
  d.add(0.0, 8.0);
  EXPECT_NEAR(d.count(10.0), 4.0, 1e-9);
  EXPECT_NEAR(d.count(30.0), 1.0, 1e-9);
  // Time running backwards is clamped: decay never amplifies.
  EXPECT_LE(d.count(-100.0), 8.0 + 1e-9);
}

TEST(DecayedRateTest, ObserveIsAHalfLifeEwmaSeededByTheFirstSample) {
  DecayedRate d(10.0);
  d.observe(0.0, 6.0);
  EXPECT_DOUBLE_EQ(d.level(), 6.0) << "first observation seeds the level";
  // One half-life later the level lands halfway to the new value.
  d.observe(10.0, 2.0);
  EXPECT_NEAR(d.level(), 4.0, 1e-9);
  // Long-idle then a new value: history is nearly fully decayed away.
  d.observe(1000.0, 9.0);
  EXPECT_NEAR(d.level(), 9.0, 1e-6);
}

// ---- parse_stats ---------------------------------------------------------

TEST(ParseStats, ReadsDaemonAndRouterShapedDocuments) {
  json::Object rpc;
  rpc["queue_depth"] = json::Value(std::int64_t{3});
  rpc["inflight"] = json::Value(std::int64_t{2});
  rpc["rate_rps"] = json::Value(40.0);
  rpc["latency_p99"] = json::Value(0.004);
  rpc["requests"] = json::Value(std::int64_t{100});
  rpc["crc_errors"] = json::Value(std::int64_t{1});
  rpc["io_errors"] = json::Value(std::int64_t{2});
  json::Object reshard;
  reshard["epoch_to"] = json::Value(std::int64_t{2});
  reshard["blocks_moved"] = json::Value(std::int64_t{10});
  reshard["seconds"] = json::Value(0.05);

  json::Object daemon;
  daemon["epoch"] = json::Value(std::int64_t{2});
  daemon["rpc"] = json::Value(rpc);
  daemon["reshard"] = json::Value(reshard);
  const ctrl::StatsSample s = ctrl::parse_stats(json::Value(daemon));
  EXPECT_TRUE(s.reachable);
  EXPECT_EQ(s.epoch, 2u);
  EXPECT_DOUBLE_EQ(s.queue_depth, 3.0);
  EXPECT_DOUBLE_EQ(s.inflight, 2.0);
  EXPECT_DOUBLE_EQ(s.rate_rps, 40.0);
  EXPECT_EQ(s.requests, 100u);
  EXPECT_EQ(s.errors, 3u);
  EXPECT_EQ(s.warm_epoch_to, 2u);
  EXPECT_EQ(s.warm_blocks, 10u);
  EXPECT_DOUBLE_EQ(s.warm_seconds, 0.05);

  // The router document carries its epoch under "router".
  json::Object router_inner;
  router_inner["epoch"] = json::Value(std::int64_t{5});
  json::Object router;
  router["router"] = json::Value(router_inner);
  EXPECT_EQ(ctrl::parse_stats(json::Value(router)).epoch, 5u);

  // A non-object is the unreachable sample.
  EXPECT_FALSE(ctrl::parse_stats(json::Value()).reachable);
}

// ---- collector -----------------------------------------------------------

TEST(Collector, PollScheduleIsJitteredDeterministicAndReplayable) {
  ctrl::CollectorConfig config;
  config.poll_seconds = 1.0;
  config.poll_jitter_cap = 1.5;
  config.seed = 7;
  const ctrl::Fetcher fetcher = [](const shard::ShardInfo&) {
    ctrl::StatsSample s;
    s.reachable = true;
    s.epoch = 1;
    return s;
  };

  const auto poll_times = [&] {
    ctrl::Collector c(make_map_ptr(1), config, fetcher);
    std::vector<double> times;
    for (double now = 0.0; now < 30.0; now += 0.05) {
      if (c.poll_due(now) > 0) times.push_back(now);
    }
    return times;
  };
  const std::vector<double> a = poll_times();
  const std::vector<double> b = poll_times();
  EXPECT_EQ(a, b) << "the same seed must replay the same schedule";
  ASSERT_GE(a.size(), 10u);
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double gap = a[i] - a[i - 1];
    EXPECT_GE(gap, 1.0 - 1e-9) << "gap below the base poll period";
    EXPECT_LE(gap, 1.5 + 0.05 + 1e-9) << "gap above the jitter cap";
  }

  // A different seed draws a different (still valid) schedule.
  config.seed = 8;
  EXPECT_NE(poll_times(), a);
}

TEST(Collector, UnreachableShardsNeitherDiluteMeansNorDecideTheEpoch) {
  ctrl::CollectorConfig config;
  const ctrl::Fetcher fetcher = [](const shard::ShardInfo& info) {
    ctrl::StatsSample s;
    if (info.id == "s1") return s;  // unreachable
    s.reachable = true;
    s.epoch = 3;
    s.queue_depth = 4.0;
    s.inflight = 1.0;
    return s;
  };
  ctrl::Collector c(make_map_ptr(2, 3), config, fetcher);
  for (int i = 0; i < 4; ++i) c.poll_all(static_cast<double>(i));

  const ctrl::ClusterView v = c.view(4.0);
  EXPECT_EQ(v.reachable, 1u);
  EXPECT_EQ(v.epoch, 3u) << "the reachable shard's epoch decides";
  EXPECT_NEAR(v.mean_queue_depth, 4.0, 1e-9)
      << "means are over reachable shards only";
  EXPECT_NEAR(v.mean_load(), 5.0, 1e-9);
  ASSERT_EQ(v.shards.size(), 2u);
  EXPECT_EQ(v.shards[1].unreachable_streak, 4);
}

TEST(Collector, DisagreeingEpochsReadAsZeroMidHandover) {
  const ctrl::Fetcher fetcher = [](const shard::ShardInfo& info) {
    ctrl::StatsSample s;
    s.reachable = true;
    s.epoch = info.id == "s0" ? 1 : 2;
    return s;
  };
  ctrl::Collector c(make_map_ptr(2), ctrl::CollectorConfig{}, fetcher);
  c.poll_all(0.0);
  EXPECT_EQ(c.view(0.0).epoch, 0u);
}

TEST(Collector, FlappingAccumulatesTransitionsTowardTheEvictThreshold) {
  bool up = false;
  const ctrl::Fetcher fetcher = [&up](const shard::ShardInfo&) {
    ctrl::StatsSample s;
    s.reachable = up;
    s.epoch = 1;
    return s;
  };
  ctrl::Collector c(make_map_ptr(1), ctrl::CollectorConfig{}, fetcher);
  // Down, up, down, up, down: five transitions from the optimistic
  // start within a fraction of the 60 s flap half-life.
  for (int i = 0; i < 5; ++i) {
    up = (i % 2) == 1;
    c.poll_all(static_cast<double>(i));
  }
  EXPECT_GE(c.view(5.0).shards[0].recent_flaps, 4.0);
}

TEST(Collector, SetMapCarriesRetainedEstimatesAndStartsNewOnesFresh) {
  const ctrl::Fetcher fetcher = [](const shard::ShardInfo&) {
    ctrl::StatsSample s;
    s.reachable = true;
    s.epoch = 1;
    s.queue_depth = 2.0;
    return s;
  };
  ctrl::Collector c(make_map_ptr(2), ctrl::CollectorConfig{}, fetcher);
  for (int i = 0; i < 3; ++i) c.poll_all(static_cast<double>(i));

  // Successor keeps s0, drops s1, adds s2.
  std::vector<shard::ShardInfo> shards = {{"s0", "sim:s0"}, {"s2", "sim:s2"}};
  c.set_map(std::make_shared<const shard::ShardMap>(2, 64, shards));
  const ctrl::ClusterView v = c.view(3.0);
  ASSERT_EQ(v.shards.size(), 2u);
  EXPECT_EQ(v.shards[0].id, "s0");
  EXPECT_EQ(v.shards[0].polls, 3u) << "retained estimate must carry over";
  EXPECT_GT(v.shards[0].queue_depth, 0.0);
  EXPECT_EQ(v.shards[1].id, "s2");
  EXPECT_EQ(v.shards[1].polls, 0u) << "added shard starts fresh";
}

TEST(Collector, LearnsWarmingCostFromObservedHandovers) {
  std::uint64_t epoch_to = 0;
  std::uint64_t blocks = 0;
  double seconds = 0.0;
  const ctrl::Fetcher fetcher = [&](const shard::ShardInfo&) {
    ctrl::StatsSample s;
    s.reachable = true;
    s.epoch = 1;
    s.warm_epoch_to = epoch_to;
    s.warm_blocks = blocks;
    s.warm_seconds = seconds;
    return s;
  };
  ctrl::CollectorConfig config;
  config.default_warm_seconds_per_block = 0.005;
  ctrl::Collector c(make_map_ptr(1), config, fetcher);

  c.poll_all(0.0);
  EXPECT_DOUBLE_EQ(c.warm_seconds_per_block(), 0.005)
      << "prior before any observed handover";

  epoch_to = 2;
  blocks = 10;
  seconds = 0.1;  // 0.01 s/block
  c.poll_all(1.0);
  EXPECT_DOUBLE_EQ(c.warm_seconds_per_block(), 0.01);
  // The same handover reported again teaches nothing new.
  c.poll_all(2.0);
  EXPECT_DOUBLE_EQ(c.warm_seconds_per_block(), 0.01);
  // A second handover: EWMA of the two observations.
  epoch_to = 3;
  seconds = 0.3;  // 0.03 s/block
  c.poll_all(3.0);
  EXPECT_DOUBLE_EQ(c.warm_seconds_per_block(), 0.02);
}

// ---- policy --------------------------------------------------------------

ctrl::PolicyConfig fast_policy() {
  ctrl::PolicyConfig p;
  p.sustain_ticks = 1;
  p.min_dwell_seconds = 0.0;
  p.epoch_budget = 100;
  p.budget_window_seconds = 1000.0;
  return p;
}

TEST(Policy, GrowNeedsSustainedSaturationAndASpikeResetsTheStreak) {
  ctrl::PolicyConfig config = fast_policy();
  config.sustain_ticks = 3;
  ctrl::Policy policy(config);

  const ctrl::ClusterView hot = make_view(3, 4.0);
  const ctrl::ClusterView calm = make_view(3, 1.0);
  EXPECT_EQ(policy.decide(hot, 0.0).action, ctrl::Action::hold);
  EXPECT_EQ(policy.decide(hot, 1.0).action, ctrl::Action::hold);
  // One calm tick resets the streak: a spike is not saturation.
  EXPECT_EQ(policy.decide(calm, 2.0).action, ctrl::Action::hold);
  EXPECT_EQ(policy.decide(hot, 3.0).action, ctrl::Action::hold);
  EXPECT_EQ(policy.decide(hot, 4.0).action, ctrl::Action::hold);
  const ctrl::Decision d = policy.decide(hot, 5.0);
  EXPECT_EQ(d.action, ctrl::Action::grow);
  EXPECT_EQ(d.target_shards, 4u);
  EXPECT_NE(d.reason.find("grow 3 -> 4"), std::string::npos) << d.reason;
}

TEST(Policy, ShrinkNeedsIdleLoadHeadroomAndStopsAtMinShards) {
  ctrl::PolicyConfig config = fast_policy();
  config.min_shards = 2;
  ctrl::Policy policy(config);

  // Idle enough, and the survivors stay far from the grow threshold.
  ctrl::Decision d = policy.decide(make_view(4, 0.1), 0.0);
  EXPECT_EQ(d.action, ctrl::Action::shrink);
  EXPECT_EQ(d.target_shards, 3u);

  // At min_shards the idle signal holds.
  d = policy.decide(make_view(2, 0.1), 1.0);
  EXPECT_EQ(d.action, ctrl::Action::hold);
  EXPECT_NE(d.reason.find("min_shards"), std::string::npos) << d.reason;

  // Post-shrink projection above the headroom refuses the oscillation:
  // 2 shards at 1.2 would leave one survivor at 2.4 >= 0.7 * grow.
  ctrl::PolicyConfig wide = fast_policy();
  wide.shrink_queue_depth = 1.5;
  ctrl::Policy headroom(wide);
  d = headroom.decide(make_view(2, 1.2), 0.0);
  EXPECT_EQ(d.action, ctrl::Action::hold);
  EXPECT_NE(d.reason.find("headroom"), std::string::npos) << d.reason;
}

TEST(Policy, HysteresisBandAlonePreventsFlapAtTheGrowThreshold) {
  // Dwell disabled, sustain 1: the band is the only stabilizer left.
  ctrl::Policy policy(fast_policy());

  // Load sits exactly at the grow threshold: grow fires.
  ctrl::Decision d = policy.decide(make_view(3, 2.0), 0.0);
  ASSERT_EQ(d.action, ctrl::Action::grow);
  policy.note_commit(0.0);

  // After the grow the same offered load spreads over 4 shards: 1.5 per
  // shard — far above the shrink threshold, inside the band. However
  // long it persists, the cluster must NOT shrink straight back.
  for (int i = 1; i <= 50; ++i) {
    d = policy.decide(make_view(4, 1.5), static_cast<double>(i));
    ASSERT_EQ(d.action, ctrl::Action::hold)
        << "tick " << i << ": " << d.reason;
    EXPECT_NE(d.reason.find("steady"), std::string::npos) << d.reason;
  }
}

TEST(Policy, DwellAlonePreventsFlapWhenTheBandIsCollapsed) {
  // Degenerate band (shrink just under grow) — oscillation at the grow
  // threshold would flap on thresholds alone. Dwell must hold the line.
  ctrl::PolicyConfig config = fast_policy();
  config.shrink_queue_depth = 1.9;
  config.min_dwell_seconds = 100.0;
  ctrl::Policy policy(config);

  ctrl::Decision d = policy.decide(make_view(3, 2.0), 0.0);
  ASSERT_EQ(d.action, ctrl::Action::grow);
  policy.note_commit(0.0);

  // Post-grow load 1.5 <= shrink 1.9: an immediate shrink signal. Every
  // decision inside the dwell window must hold anyway.
  for (int i = 1; i <= 99; ++i) {
    d = policy.decide(make_view(4, 1.5), static_cast<double>(i));
    ASSERT_EQ(d.action, ctrl::Action::hold)
        << "tick " << i << ": " << d.reason;
    EXPECT_NE(d.reason.find("dwell"), std::string::npos) << d.reason;
  }
}

TEST(Policy, DeadShardIsEvictedDuringDwellButNeverPastTheBudget) {
  ctrl::PolicyConfig config = fast_policy();
  config.min_dwell_seconds = 100.0;
  config.dead_ticks = 3;
  ctrl::Policy policy(config);
  policy.note_commit(0.0);  // dwell is running

  ctrl::ClusterView view = make_view(3, 1.0);
  view.shards[1].reachable = false;
  view.shards[1].unreachable_streak = 3;
  view.reachable = 2;

  const ctrl::Decision d = policy.decide(view, 1.0);
  EXPECT_EQ(d.action, ctrl::Action::evict);
  EXPECT_EQ(d.evict_id, "s1");
  EXPECT_NE(d.reason.find("health overrides dwell"), std::string::npos)
      << d.reason;

  // The budget still binds: with it exhausted, even an eviction waits.
  ctrl::PolicyConfig tight = config;
  tight.epoch_budget = 1;
  tight.budget_window_seconds = 1000.0;
  ctrl::Policy broke(tight);
  broke.note_commit(0.0);
  const ctrl::Decision held = broke.decide(view, 1.0);
  EXPECT_EQ(held.action, ctrl::Action::hold);
  EXPECT_NE(held.reason.find("budget"), std::string::npos) << held.reason;
  EXPECT_NE(held.reason.find("s1"), std::string::npos)
      << "the pending eviction must be named: " << held.reason;
}

TEST(Policy, FlappingShardIsEvicted) {
  ctrl::Policy policy(fast_policy());
  ctrl::ClusterView view = make_view(3, 1.0);
  view.shards[2].recent_flaps = 4.5;  // >= flap_threshold 4.0
  const ctrl::Decision d = policy.decide(view, 0.0);
  EXPECT_EQ(d.action, ctrl::Action::evict);
  EXPECT_EQ(d.evict_id, "s2");
  EXPECT_NE(d.reason.find("flapping"), std::string::npos) << d.reason;
}

TEST(Policy, EpochBudgetRateLimitsAndReArmsWhenTheWindowPasses) {
  ctrl::PolicyConfig config = fast_policy();
  config.epoch_budget = 2;
  config.budget_window_seconds = 100.0;
  ctrl::Policy policy(config);
  policy.note_commit(0.0);
  policy.note_commit(1.0);

  const ctrl::ClusterView hot = make_view(3, 4.0);
  ctrl::Decision d = policy.decide(hot, 2.0);
  EXPECT_EQ(d.action, ctrl::Action::hold);
  EXPECT_NE(d.reason.find("budget"), std::string::npos) << d.reason;
  EXPECT_TRUE(policy.budget_exhausted(2.0));

  // Outside the window the budget re-arms and the (still sustained)
  // saturation acts immediately.
  EXPECT_FALSE(policy.budget_exhausted(102.0));
  d = policy.decide(hot, 102.0);
  EXPECT_EQ(d.action, ctrl::Action::grow);
}

TEST(Policy, CostVetoRefusesMovesWhoseWarmingExceedsTheirBenefit) {
  ctrl::Policy policy(fast_policy());  // horizon 60 s, grow threshold 2

  // A marginal grow (load exactly at the threshold) has zero projected
  // benefit: any nonzero warming cost is vetoed.
  ctrl::PlanReport plan;
  plan.action = ctrl::Action::grow;
  plan.moved_blocks = 16;
  plan.est_warm_seconds = 0.08;
  std::string reason;
  EXPECT_FALSE(policy.approve_plan(make_view(3, 2.0), plan, &reason));
  EXPECT_DOUBLE_EQ(plan.projected_benefit_seconds, 0.0);
  EXPECT_NE(reason.find("veto grow"), std::string::npos) << reason;

  // Twice the threshold projects a whole horizon of benefit.
  EXPECT_TRUE(policy.approve_plan(make_view(3, 4.0), plan, &reason));
  EXPECT_DOUBLE_EQ(plan.projected_benefit_seconds, 60.0);

  // Shrink benefit is one shard's worth of fleet-seconds.
  ctrl::PlanReport shrink;
  shrink.action = ctrl::Action::shrink;
  shrink.est_warm_seconds = 100.0;
  EXPECT_FALSE(policy.approve_plan(make_view(4, 0.1), shrink, &reason));
  EXPECT_DOUBLE_EQ(shrink.projected_benefit_seconds, 15.0);
  shrink.est_warm_seconds = 1.0;
  EXPECT_TRUE(policy.approve_plan(make_view(4, 0.1), shrink, &reason));

  // Evictions are never vetoed: correctness beats cost.
  ctrl::PlanReport evict;
  evict.action = ctrl::Action::evict;
  evict.est_warm_seconds = 1e9;
  EXPECT_TRUE(policy.approve_plan(make_view(3, 1.0), evict, &reason));
}

// ---- planner -------------------------------------------------------------

TEST(Planner, GrowDraftsTheFirstFreeSpareWithExactMovementAccounting) {
  const shard::ShardMap current = make_map(3);
  const std::vector<std::string> keys = make_keys(64);
  ctrl::Planner planner({{"s0", "sim:s0"}, {"s3", "sim:s3"}});

  ctrl::Decision d;
  d.action = ctrl::Action::grow;
  d.reason = "grow 3 -> 4";
  const ctrl::PlanReport plan =
      planner.plan(current, make_view(3, 4.0), d, keys, 0.01, 1);
  ASSERT_NE(plan.next, nullptr) << plan.reason;
  EXPECT_EQ(plan.next->epoch(), 2u);
  EXPECT_EQ(plan.next->vnodes(), current.vnodes());
  EXPECT_EQ(plan.next->size(), 4u);
  EXPECT_EQ(plan.added_id, "s3") << "s0 is already a member; skip it";

  // The movement figure is the exact ring diff, priced per block.
  const std::size_t moved =
      shard::moved_keys(shard::Ring(current), shard::Ring(*plan.next), keys)
          .size();
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(plan.moved_blocks, moved);
  EXPECT_TRUE(plan.moved_exact);
  EXPECT_DOUBLE_EQ(plan.est_warm_seconds,
                   static_cast<double>(moved) * 0.01);

  // The candidate passes the same gate a commit would.
  EXPECT_NO_THROW(shard::validate_successor(current, *plan.next));

  // No free spare left: the plan aborts with a reason, not a bad map.
  ctrl::Planner empty(std::vector<shard::ShardInfo>{{"s0", "sim:s0"}});
  const ctrl::PlanReport aborted =
      empty.plan(current, make_view(3, 4.0), d, keys, 0.01, 1);
  EXPECT_EQ(aborted.next, nullptr);
  EXPECT_NE(aborted.reason.find("no spare"), std::string::npos)
      << aborted.reason;
}

TEST(Planner, ShrinkRetiresTheLeastLoadedShard) {
  const shard::ShardMap current = make_map(3);
  ctrl::Planner planner({});
  ctrl::ClusterView view = make_view(3, 1.0);
  view.shards[0].queue_depth = 3.0;
  view.shards[1].queue_depth = 0.2;  // the idlest
  view.shards[2].queue_depth = 2.0;

  ctrl::Decision d;
  d.action = ctrl::Action::shrink;
  d.reason = "shrink";
  const ctrl::PlanReport plan = planner.plan(current, view, d, {}, 0.01, 1);
  ASSERT_NE(plan.next, nullptr) << plan.reason;
  EXPECT_EQ(plan.removed_id, "s1");
  EXPECT_EQ(plan.next->size(), 2u);
  EXPECT_EQ(plan.next->find("s1"), nullptr);
  EXPECT_FALSE(plan.moved_exact) << "no block keys -> no exact accounting";
  EXPECT_DOUBLE_EQ(plan.est_warm_seconds, 0.0);

  // Shrinking at min_shards aborts.
  const ctrl::PlanReport blocked =
      planner.plan(current, view, d, {}, 0.01, 3);
  EXPECT_EQ(blocked.next, nullptr);
}

TEST(Planner, EvictRemovesTheVictimAndBackfillsBelowMinShards) {
  const shard::ShardMap current = make_map(3);
  ctrl::Planner planner(std::vector<shard::ShardInfo>{{"s3", "sim:s3"}});
  ctrl::Decision d;
  d.action = ctrl::Action::evict;
  d.evict_id = "s1";
  d.reason = "evict s1";

  // min_shards 1: plain removal.
  ctrl::PlanReport plan =
      planner.plan(current, make_view(3, 1.0), d, {}, 0.01, 1);
  ASSERT_NE(plan.next, nullptr) << plan.reason;
  EXPECT_EQ(plan.next->size(), 2u);
  EXPECT_EQ(plan.next->find("s1"), nullptr);

  // min_shards 3: the eviction drafts the spare to stay at strength.
  plan = planner.plan(current, make_view(3, 1.0), d, {}, 0.01, 3);
  ASSERT_NE(plan.next, nullptr) << plan.reason;
  EXPECT_EQ(plan.next->size(), 3u);
  EXPECT_EQ(plan.next->find("s1"), nullptr);
  EXPECT_NE(plan.next->find("s3"), nullptr);

  // Unknown victim: abort.
  d.evict_id = "nope";
  plan = planner.plan(current, make_view(3, 1.0), d, {}, 0.01, 1);
  EXPECT_EQ(plan.next, nullptr);
}

// ---- controller ----------------------------------------------------------

/// A scripted single-process fleet: every member answers with the epoch
/// in `adopted` and the given per-shard queue depth.
struct FakeFleet {
  std::uint64_t adopted = 1;
  double queue_depth = 0.0;

  ctrl::Fetcher fetcher() {
    return [this](const shard::ShardInfo&) {
      ctrl::StatsSample s;
      s.reachable = true;
      s.epoch = adopted;
      s.queue_depth = queue_depth;
      return s;
    };
  }
};

ctrl::ControllerConfig fast_ctrl_config() {
  ctrl::ControllerConfig config;
  config.policy = fast_policy();
  config.collector.poll_seconds = 0.5;
  config.spares = {{"s3", "sim:s3"}};
  config.converge_timeout_seconds = 5.0;
  return config;
}

TEST(Controller, DryRunPlansEverythingAndCommitsNothing) {
  FakeFleet fleet;
  fleet.queue_depth = 4.0;
  ctrl::ControllerConfig config = fast_ctrl_config();
  config.dry_run = true;
  ctrl::Controller controller(
      make_map_ptr(3), config, fleet.fetcher(),
      [](const shard::ShardMap&) { FAIL() << "dry-run must never commit"; });

  const ctrl::StepReport report = controller.step(0.0);
  EXPECT_FALSE(report.committed);
  EXPECT_NE(report.reason.find("dry-run"), std::string::npos)
      << report.reason;
  EXPECT_EQ(controller.stats().epochs_committed, 0u);
  EXPECT_EQ(controller.map()->epoch(), 1u);
  EXPECT_EQ(controller.state(), ctrl::CtrlState::observe);
}

TEST(Controller, CommitEntersConvergeAndObservesAdoption) {
  FakeFleet fleet;
  fleet.queue_depth = 4.0;
  std::uint64_t committed_epoch = 0;
  ctrl::Controller controller(
      make_map_ptr(3), fast_ctrl_config(), fleet.fetcher(),
      [&](const shard::ShardMap& map) { committed_epoch = map.epoch(); });

  ctrl::StepReport report = controller.step(0.0);
  EXPECT_TRUE(report.committed);
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_EQ(committed_epoch, 2u);
  EXPECT_EQ(controller.map()->size(), 4u);
  EXPECT_EQ(controller.state(), ctrl::CtrlState::converge);

  // The fleet still serves epoch 1: converge keeps watching (and takes
  // no new decision — one membership change in flight at a time).
  report = controller.step(1.0);
  EXPECT_FALSE(report.committed);
  EXPECT_EQ(report.reason, "converging");
  EXPECT_EQ(controller.state(), ctrl::CtrlState::converge);

  // Adoption: the next step sees every member on the target epoch.
  fleet.adopted = 2;
  report = controller.step(2.0);
  EXPECT_EQ(controller.state(), ctrl::CtrlState::observe);
  EXPECT_NE(report.reason.find("converged"), std::string::npos)
      << report.reason;
  EXPECT_EQ(controller.stats().converged, 1u);
  EXPECT_EQ(controller.stats().converge_timeouts, 0u);
}

TEST(Controller, ConvergeTimeoutGivesUpWatchingButKeepsTheMap) {
  FakeFleet fleet;
  fleet.queue_depth = 4.0;
  ctrl::Controller controller(make_map_ptr(3), fast_ctrl_config(),
                              fleet.fetcher(),
                              [](const shard::ShardMap&) {});
  ASSERT_TRUE(controller.step(0.0).committed);
  // The fleet never adopts (stays on epoch 1); past the 5 s deadline the
  // controller stops watching, counts the timeout, keeps the map.
  controller.step(1.0);
  const ctrl::StepReport report = controller.step(6.0);
  EXPECT_EQ(controller.state(), ctrl::CtrlState::observe);
  EXPECT_NE(report.reason.find("timeout"), std::string::npos)
      << report.reason;
  EXPECT_EQ(controller.stats().converge_timeouts, 1u);
  EXPECT_EQ(controller.map()->epoch(), 2u);
}

TEST(Controller, PlanOnceScoresButNeverCommitsEvenWhenVetoed) {
  FakeFleet fleet;
  fleet.queue_depth = 0.0;  // idle: a forced grow has zero benefit
  ctrl::ControllerConfig config = fast_ctrl_config();
  config.block_keys = make_keys(64);
  bool committed = false;
  ctrl::Controller controller(
      make_map_ptr(3), config, fleet.fetcher(),
      [&](const shard::ShardMap&) { committed = true; });

  const ctrl::PlanReport plan =
      controller.plan_once(0.0, ctrl::Action::grow);
  EXPECT_FALSE(committed);
  ASSERT_NE(plan.next, nullptr) << plan.reason;
  EXPECT_EQ(plan.next->epoch(), 2u);
  EXPECT_TRUE(plan.moved_exact);
  EXPECT_GT(plan.moved_blocks, 0u);
  EXPECT_FALSE(plan.approved) << "zero-benefit grow must carry the veto";
  EXPECT_NE(plan.veto_reason.find("veto"), std::string::npos)
      << plan.veto_reason;
  // The printed candidate passes validate_successor verbatim.
  EXPECT_NO_THROW(
      shard::validate_successor(*controller.map(), *plan.next));
  // And the report document carries the map + the accounting.
  const json::Value doc = plan.to_json();
  EXPECT_TRUE(doc.at("map").is_object());
  EXPECT_EQ(doc.at("map").at("epoch").as_int(), 2);
  EXPECT_EQ(controller.stats().epochs_committed, 0u);
}

// ---- simulation harness --------------------------------------------------

ctrl::SimConfig ramp_config() {
  ctrl::SimConfig config;
  config.seed = 42;
  config.ticks = 800;
  config.tick_seconds = 0.25;
  config.initial_shards = 3;
  config.spare_count = 2;
  config.blocks = 64;
  config.noise = 0.03;
  config.adopt_ticks = 2;
  // Steady (in-band) -> saturating ramp -> idle tail. 9.6 total over 5
  // shards is 1.92 per shard: just inside the band, so the grown fleet
  // settles; 0.9 over 5 is 0.18: below the shrink threshold with
  // headroom to spare.
  config.load = {{20.0, 3.0}, {120.0, 9.6}, {200.0, 0.9}};
  config.policy.sustain_ticks = 2;
  config.policy.min_dwell_seconds = 3.0;
  config.policy.epoch_budget = 8;
  config.policy.budget_window_seconds = 1000.0;
  config.collector.poll_seconds = 0.25;
  config.collector.halflife_seconds = 1.0;
  return config;
}

TEST(Sim, LoadRampGrowsThenShrinksBackWithinTheEpochBudget) {
  const ctrl::SimResult result = ctrl::run_sim(ramp_config());
  EXPECT_EQ(result.max_shards, 5u) << result.trace();
  EXPECT_EQ(result.final_shards, 3u) << result.trace();
  EXPECT_EQ(result.stats.grows, 2u) << result.trace();
  EXPECT_EQ(result.stats.shrinks, 2u) << result.trace();
  EXPECT_EQ(result.epochs_committed, 4u) << result.trace();
  EXPECT_EQ(result.stats.converge_timeouts, 0u) << result.trace();
  EXPECT_EQ(result.stats.converged, result.epochs_committed)
      << result.trace();
}

TEST(Sim, ReplayIsBitwiseIdentical) {
  const ctrl::SimResult a = ctrl::run_sim(ramp_config());
  const ctrl::SimResult b = ctrl::run_sim(ramp_config());
  EXPECT_EQ(a.trace(), b.trace());
  EXPECT_EQ(a.stats.ticks, b.stats.ticks);
  EXPECT_EQ(a.epochs_committed, b.epochs_committed);

  // A different seed draws different jitter but the same converged
  // behavior — the policy is robust to the noise, not tuned to one draw.
  ctrl::SimConfig other = ramp_config();
  other.seed = 1337;
  const ctrl::SimResult c = ctrl::run_sim(other);
  EXPECT_EQ(c.max_shards, 5u) << c.trace();
  EXPECT_EQ(c.final_shards, 3u) << c.trace();
}

TEST(Sim, SteadyLoadCommitsZeroEpochs) {
  ctrl::SimConfig config = ramp_config();
  config.load = {{1000.0, 3.0}};  // 1.0 per shard: inside the band
  const ctrl::SimResult result = ctrl::run_sim(config);
  EXPECT_EQ(result.epochs_committed, 0u) << result.trace();
  EXPECT_EQ(result.final_shards, 3u);
  EXPECT_EQ(result.stats.grows, 0u);
  EXPECT_EQ(result.stats.shrinks, 0u);
}

TEST(Sim, DeadShardIsEvictedAndBackfilledToMinShards) {
  ctrl::SimConfig config = ramp_config();
  config.load = {{1000.0, 3.0}};  // steady: only health can act
  config.die_at = {{"s1", 10.0}};
  config.policy.min_shards = 3;  // the eviction must draft a spare
  const ctrl::SimResult result = ctrl::run_sim(config);
  EXPECT_EQ(result.stats.evicts, 1u) << result.trace();
  EXPECT_EQ(result.final_shards, 3u) << result.trace();
  bool saw_evict = false;
  for (const std::string& e : result.events) {
    if (e.find("evict") != std::string::npos) saw_evict = true;
  }
  EXPECT_TRUE(saw_evict) << result.trace();
}

}  // namespace
