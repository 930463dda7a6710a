// gs::tenant — partitions, QOS tiers, usage ledger, preemption with
// checkpoint-backed requeue, job arrays, and the Fleet
// campaign -> publish -> serve loop. The preemption round-trip is gated
// bitwise: an evicted-and-resumed functional job must produce exactly
// the dataset an undisturbed run produces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bp/reader.h"
#include "common/error.h"
#include "config/settings.h"
#include "sched/campaign.h"
#include "sched/scheduler.h"
#include "svc/query.h"
#include "tenant/fleet.h"
#include "tenant/ledger.h"
#include "tenant/partition.h"
#include "tenant/qos.h"

namespace sched = gs::sched;
namespace tenant = gs::tenant;
using gs::Settings;
using sched::JobSpec;
using sched::JobState;
using sched::PayloadKind;
using sched::Policy;
using sched::Scheduler;
using sched::SchedulerConfig;

namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  static const std::string pid = std::to_string(::getpid());
  return (fs::path(testing::TempDir()) / ("tenant_" + name + "." + pid))
      .string();
}

JobSpec fixed_job(const std::string& name, const std::string& user,
                  std::int64_t nodes, double duration, double limit,
                  const std::string& qos = "",
                  const std::string& partition = "") {
  JobSpec s;
  s.name = name;
  s.user = user;
  s.nodes = nodes;
  s.walltime_limit = limit;
  s.qos = qos;
  s.partition = partition;
  s.payload.kind = PayloadKind::fixed;
  s.payload.fixed_duration = duration;
  return s;
}

SchedulerConfig tenant_cluster(Policy policy, std::int64_t nodes = 4) {
  SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.cluster.nodes = nodes;
  cfg.qos = tenant::default_qos_tiers();
  return cfg;
}

Settings functional_settings(const std::string& tag) {
  Settings s;
  s.L = 16;
  s.steps = 6;
  s.plotgap = 3;
  s.backend = gs::KernelBackend::host_reference;
  s.ranks_per_node = 2;
  s.checkpoint = true;
  s.checkpoint_freq = 4;
  s.output = temp_path(tag + "_out") + ".bp";
  s.checkpoint_output = temp_path(tag + "_ck") + ".bp";
  fs::remove_all(s.output);
  fs::remove_all(s.checkpoint_output);
  return s;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

// ------------------------------------------------------------------- qos

TEST(TenantQos, SpecParsingAndDefaults) {
  const auto q = tenant::qos_from_spec("high,weight=2000,preempt,grace=60");
  EXPECT_EQ(q.name, "high");
  EXPECT_DOUBLE_EQ(q.priority_weight, 2000.0);
  EXPECT_TRUE(q.preempt);
  EXPECT_FALSE(q.preemptable);
  EXPECT_DOUBLE_EQ(q.grace_seconds, 60.0);

  const auto caps = tenant::qos_from_spec(
      "scavenger,preemptable,max_running=2,max_node_seconds=3600");
  EXPECT_TRUE(caps.preemptable);
  EXPECT_EQ(caps.max_running_per_tenant, 2);
  EXPECT_DOUBLE_EQ(caps.max_node_seconds, 3600.0);

  EXPECT_THROW(tenant::qos_from_spec("x,bogus_key=1"), gs::ParseError);
  EXPECT_THROW(tenant::qos_from_spec(""), gs::Error);

  const tenant::QosTable table(tenant::default_qos_tiers());
  EXPECT_EQ(table.resolve("").name, "high");  // first tier is the default
  EXPECT_EQ(table.resolve("scavenger").priority_weight, 0.0);
  EXPECT_TRUE(table.resolve("high").preempt);
  EXPECT_THROW(table.resolve("no-such-tier"), gs::ParseError);

  const tenant::QosTable empty;  // pre-tenant behavior: one zero tier
  EXPECT_EQ(empty.resolve("").name, "normal");
  EXPECT_EQ(empty.resolve("normal").priority_weight, 0.0);
}

// ------------------------------------------------------------- partitions

TEST(TenantPartition, CarvingAndValidation) {
  const auto p =
      tenant::partition_from_spec("prod,nodes=48,max_walltime=86400");
  EXPECT_EQ(p.name, "prod");
  EXPECT_EQ(p.nodes, 48);
  EXPECT_DOUBLE_EQ(p.max_walltime, 86400.0);

  std::vector<tenant::PartitionSpec> specs = {
      tenant::partition_from_spec("prod,nodes=3"),
      tenant::partition_from_spec("debug,nodes=1,max_nodes_per_job=1"),
  };
  const tenant::PartitionTable table(specs, 4);
  EXPECT_EQ(table.partitions().size(), 2u);
  EXPECT_EQ(table.resolve("prod").lo, 0);
  EXPECT_EQ(table.resolve("prod").hi, 3);
  EXPECT_EQ(table.resolve("debug").lo, 3);
  EXPECT_EQ(table.resolve("debug").hi, 4);
  EXPECT_EQ(table.index_of(""), 0u);  // first partition is the default
  EXPECT_THROW(table.resolve("nope"), gs::ParseError);

  // Counts must sum to the cluster exactly — no silent idle remainder.
  EXPECT_THROW(tenant::PartitionTable(specs, 5), gs::Error);
  EXPECT_THROW(tenant::PartitionTable(specs, 3), gs::Error);

  // Empty config reproduces the whole-cluster partition.
  const tenant::PartitionTable whole({}, 64);
  EXPECT_EQ(whole.partitions().size(), 1u);
  EXPECT_EQ(whole.resolve("").spec.name, "all");
  EXPECT_EQ(whole.resolve("all").hi, 64);
}

// ----------------------------------------------------------------- ledger

TEST(TenantLedger, DecayHalvesAndReleasePointIsStrict) {
  tenant::UsageLedger ledger(100.0);  // halflife 100 s
  ledger.charge("alice", 800.0, 0.0);
  EXPECT_DOUBLE_EQ(ledger.usage("alice", 0.0), 800.0);
  EXPECT_NEAR(ledger.usage("alice", 100.0), 400.0, 1e-9);
  EXPECT_NEAR(ledger.usage("alice", 300.0), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(ledger.usage("bob", 50.0), 0.0);

  const double release = ledger.time_to_decay_below("alice", 200.0, 0.0);
  EXPECT_GT(release, 199.0);  // exact half-life point is 200 s
  EXPECT_LT(ledger.usage("alice", release), 200.0);  // strictly below

  // Already below: release is "now". Unreachable targets: +infinity.
  EXPECT_DOUBLE_EQ(ledger.time_to_decay_below("alice", 1e9, 5.0), 5.0);
  tenant::UsageLedger frozen(0.0);  // no decay
  frozen.charge("alice", 10.0, 0.0);
  EXPECT_TRUE(std::isinf(frozen.time_to_decay_below("alice", 5.0, 0.0)));
  EXPECT_DOUBLE_EQ(frozen.usage("alice", 1e9), 10.0);
}

// ------------------------------------------------------ partitions in sched

TEST(TenantSched, PartitionPlacementAndLimits) {
  SchedulerConfig cfg = tenant_cluster(Policy::backfill, 4);
  cfg.partitions = {
      tenant::partition_from_spec("prod,nodes=3"),
      tenant::partition_from_spec("debug,nodes=1,max_walltime=100"),
  };
  Scheduler s(cfg);
  const auto prod = s.submit(fixed_job("p", "alice", 3, 50, 500, "", "prod"));
  const auto dbg = s.submit(fixed_job("d", "bob", 1, 50, 90, "", "debug"));
  // Too wide for its partition and over its walltime cap: cancelled, not
  // left pending forever.
  const auto wide =
      s.submit(fixed_job("wide", "bob", 2, 10, 90, "", "debug"));
  const auto slow =
      s.submit(fixed_job("slow", "bob", 1, 10, 5000, "", "debug"));
  EXPECT_THROW(
      s.submit(fixed_job("x", "bob", 1, 10, 50, "", "no-such-partition")),
      gs::ParseError);
  s.run();

  // Disjoint partitions run concurrently: both started at t=0.
  EXPECT_EQ(s.job(prod).state, JobState::completed);
  EXPECT_EQ(s.job(dbg).state, JobState::completed);
  EXPECT_DOUBLE_EQ(s.job(prod).start_time, 0.0);
  EXPECT_DOUBLE_EQ(s.job(dbg).start_time, 0.0);
  EXPECT_EQ(s.job(wide).state, JobState::cancelled);
  EXPECT_NE(s.job(wide).reason.find("partition 'debug'"), std::string::npos);
  EXPECT_EQ(s.job(slow).state, JobState::cancelled);
  EXPECT_NE(s.job(slow).reason.find("walltime"), std::string::npos);
}

TEST(TenantSched, QosWeightOrdersTheQueue) {
  SchedulerConfig cfg = tenant_cluster(Policy::backfill, 1);
  Scheduler s(cfg);
  // Both eligible at t=0 on one node; scavenger submitted first but the
  // high tier's +2000 weight wins the tie.
  const auto bg = s.submit(fixed_job("bg", "u", 1, 10, 100, "scavenger"));
  const auto hi = s.submit(fixed_job("hi", "u", 1, 10, 100, "high"));
  s.run();
  EXPECT_DOUBLE_EQ(s.job(hi).start_time, 0.0);
  EXPECT_DOUBLE_EQ(s.job(bg).start_time, 10.0);
}

TEST(TenantSched, MaxRunningPerTenantCapHolds) {
  SchedulerConfig cfg;
  cfg.policy = Policy::backfill;
  cfg.cluster.nodes = 4;
  auto capped = tenant::qos_from_spec("capped,max_running=1");
  cfg.qos = {capped};
  Scheduler s(cfg);
  const auto a = s.submit(fixed_job("a", "alice", 1, 30, 100, "capped"));
  const auto b = s.submit(fixed_job("b", "alice", 1, 30, 100, "capped"));
  // A different tenant is not throttled by alice's cap.
  const auto c = s.submit(fixed_job("c", "bob", 1, 30, 100, "capped"));
  s.run();
  EXPECT_DOUBLE_EQ(s.job(a).start_time, 0.0);
  EXPECT_DOUBLE_EQ(s.job(c).start_time, 0.0);
  EXPECT_DOUBLE_EQ(s.job(b).start_time, 30.0);  // after a's job_end
  EXPECT_EQ(s.stats().completed, 3);
}

TEST(TenantSched, UsageCapReleasesAfterDecay) {
  SchedulerConfig cfg;
  cfg.policy = Policy::backfill;
  cfg.cluster.nodes = 4;
  cfg.usage_halflife = 100.0;
  cfg.qos = {tenant::qos_from_spec("metered,max_node_seconds=150")};
  Scheduler s(cfg);
  // First job charges 4 nodes x 50 s = 200 node-seconds, putting alice
  // over the 150 cap; the second must wait for decay to release it
  // (200 -> 150 takes halflife * log2(200/150) ~ 41.5 s).
  const auto a = s.submit(fixed_job("a", "alice", 4, 50, 200, "metered"));
  const auto b = s.submit(fixed_job("b", "alice", 1, 10, 2000, "metered"));
  s.run();
  EXPECT_EQ(s.job(a).state, JobState::completed);
  EXPECT_EQ(s.job(b).state, JobState::completed);
  EXPECT_GT(s.job(b).start_time, 90.0);   // held past a's end (t=50)
  EXPECT_LT(s.job(b).start_time, 93.0);   // released right at decay
  EXPECT_LT(s.ledger().usage("alice", s.job(b).start_time), 150.0);
}

// -------------------------------------------------------------- preemption

TEST(TenantSched, PreemptionRequeuesVictimAndLosesNoJob) {
  SchedulerConfig cfg = tenant_cluster(Policy::backfill, 4);
  Scheduler s(cfg);
  const auto bg = s.submit(fixed_job("bg", "low", 4, 100, 1000, "scavenger"));
  const auto hi =
      s.submit(fixed_job("hi", "ops", 2, 20, 100, "high"), /*submit_at=*/10);
  s.run();

  // The victim was evicted, requeued, re-run, and completed — never lost.
  EXPECT_EQ(s.job(hi).state, JobState::completed);
  EXPECT_EQ(s.job(bg).state, JobState::completed);
  EXPECT_DOUBLE_EQ(s.job(hi).start_time, 10.0);  // preemption was immediate
  EXPECT_EQ(s.job(bg).preemptions, 1);
  EXPECT_EQ(s.job(bg).attempts, 2);
  EXPECT_EQ(s.job(bg).requeues, 0);  // retry budget untouched
  EXPECT_EQ(s.stats().preemptions, 1);
  EXPECT_EQ(s.stats().completed, 2);
  EXPECT_NE(s.event_log().find("PREEMPT"), std::string::npos);
  // Victim restarts only after the preemptor freed its nodes.
  EXPECT_GE(s.job(bg).start_time, 30.0);
}

TEST(TenantSched, GraceWindowBlocksPreemption) {
  SchedulerConfig cfg = tenant_cluster(Policy::backfill, 4);
  Scheduler s(cfg);
  // "normal" tier: preemptable only after 30 s. The high job arrives at
  // t=10 — inside the grace window — so it must wait, not evict.
  const auto bg = s.submit(fixed_job("bg", "low", 4, 25, 1000, "normal"));
  const auto hi =
      s.submit(fixed_job("hi", "ops", 2, 5, 100, "high"), /*submit_at=*/10);
  s.run();
  EXPECT_EQ(s.job(bg).preemptions, 0);
  EXPECT_EQ(s.stats().preemptions, 0);
  EXPECT_DOUBLE_EQ(s.job(hi).start_time, 25.0);  // after bg finished
}

TEST(TenantSched, PreemptedFunctionalJobResumesBitwiseIdentical) {
  // Reference: the same workflow, never preempted.
  Settings clean = functional_settings("clean");
  SchedulerConfig ref_cfg = tenant_cluster(Policy::backfill, 2);
  Scheduler ref(ref_cfg);
  JobSpec victim;
  victim.name = "victim";
  victim.user = "low";
  victim.nodes = 2;
  victim.ranks_per_node = 2;
  victim.walltime_limit = 1e6;
  victim.qos = "scavenger";
  victim.payload.kind = PayloadKind::functional;
  victim.payload.settings = clean;
  const auto ref_id = ref.submit(victim);
  ref.run();
  ASSERT_EQ(ref.job(ref_id).state, JobState::completed);
  const double duration = ref.job(ref_id).duration;
  ASSERT_GT(duration, 0.0);

  // Preempted run: identical workflow (fresh paths); a high-QOS job
  // lands mid-execution and evicts it; it resumes from its checkpoint.
  Settings pre = functional_settings("pre");
  SchedulerConfig cfg = tenant_cluster(Policy::backfill, 2);
  Scheduler s(cfg);
  victim.payload.settings = pre;
  const auto vid = s.submit(victim);
  const auto hid = s.submit(fixed_job("urgent", "ops", 2, 5, 100, "high"),
                            /*submit_at=*/duration / 2.0);
  s.run();

  ASSERT_EQ(s.job(vid).state, JobState::completed);
  ASSERT_EQ(s.job(hid).state, JobState::completed);
  EXPECT_EQ(s.job(vid).preemptions, 1);
  EXPECT_EQ(s.job(vid).attempts, 2);
  EXPECT_EQ(s.stats().preemptions, 1);

  // The resumed trajectory is bitwise the undisturbed one: final
  // checkpoint state and final output step match exactly. (Step counts
  // may differ — the resumed attempt appends — so compare last steps.)
  const gs::bp::Reader ck_a(clean.checkpoint_output);
  const gs::bp::Reader ck_b(pre.checkpoint_output);
  EXPECT_TRUE(bitwise_equal(ck_a.read_full("U", ck_a.n_steps() - 1),
                            ck_b.read_full("U", ck_b.n_steps() - 1)));
  EXPECT_TRUE(bitwise_equal(ck_a.read_full("V", ck_a.n_steps() - 1),
                            ck_b.read_full("V", ck_b.n_steps() - 1)));
  const gs::bp::Reader out_a(clean.output);
  const gs::bp::Reader out_b(pre.output);
  EXPECT_TRUE(bitwise_equal(out_a.read_full("U", out_a.n_steps() - 1),
                            out_b.read_full("U", out_b.n_steps() - 1)));
  EXPECT_TRUE(bitwise_equal(out_a.read_full("V", out_a.n_steps() - 1),
                            out_b.read_full("V", out_b.n_steps() - 1)));

  for (const auto& set : {clean, pre}) {
    fs::remove_all(set.output);
    fs::remove_all(set.checkpoint_output);
  }
}

// ------------------------------------------------------------------ arrays

TEST(TenantSched, ArraysExpandWithDeterministicNames) {
  SchedulerConfig cfg = tenant_cluster(Policy::backfill, 4);
  Scheduler s(cfg);
  JobSpec spec = fixed_job("sweep", "alice", 1, 10, 100);
  spec.array = 4;
  const auto ids = s.submit_array(spec);
  ASSERT_EQ(ids.size(), 4u);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const auto& j = s.job(ids[k]);
    EXPECT_EQ(j.spec.name, "sweep[" + std::to_string(k) + "]");
    EXPECT_EQ(j.array_task, static_cast<std::int64_t>(k));
  }
  s.run();
  EXPECT_EQ(s.stats().completed, 4);
  // All four fit the cluster: they ran concurrently.
  for (const auto id : ids) {
    EXPECT_DOUBLE_EQ(s.job(id).start_time, 0.0);
  }

  // submit() refuses un-expanded array specs.
  JobSpec raw = fixed_job("raw", "alice", 1, 1, 10);
  raw.array = 2;
  EXPECT_THROW(s.submit(raw), gs::Error);
}

TEST(TenantSched, FunctionalArraysRequirePlaceholder) {
  SchedulerConfig cfg = tenant_cluster(Policy::backfill, 4);
  Scheduler s(cfg);
  JobSpec spec;
  spec.name = "fsweep";
  spec.user = "alice";
  spec.nodes = 1;
  spec.ranks_per_node = 2;
  spec.array = 2;
  spec.payload.kind = PayloadKind::functional;
  spec.payload.settings = functional_settings("arr");
  // No %a in the output path: tasks would clobber each other.
  EXPECT_THROW(s.submit_array(spec), gs::Error);

  spec.payload.settings.output = temp_path("arr_%a") + ".bp";
  spec.payload.settings.checkpoint_output = temp_path("arr_ck_%a") + ".bp";
  const auto ids = s.submit_array(spec);
  EXPECT_EQ(s.job(ids[0]).spec.payload.settings.output,
            temp_path("arr_0") + ".bp");
  EXPECT_EQ(s.job(ids[1]).spec.payload.settings.output,
            temp_path("arr_1") + ".bp");
  s.run();
  EXPECT_EQ(s.stats().completed, 2);
  for (const auto id : ids) {
    fs::remove_all(s.job(id).spec.payload.settings.output);
    fs::remove_all(s.job(id).spec.payload.settings.checkpoint_output);
  }
}

TEST(TenantSched, CampaignArrayDependenciesFanOut) {
  gs::json::Value doc = gs::json::parse(R"({
    "name": "arrcamp", "user": "alice",
    "jobs": [
      { "name": "sweep", "kind": "fixed", "nodes": 1, "duration": 10,
        "walltime": 100, "array": 3 },
      { "name": "merge", "kind": "fixed", "nodes": 1, "duration": 5,
        "walltime": 100,
        "depends": [ { "job": "sweep", "type": "afterok" } ] }
    ]
  })");
  const auto campaign = sched::campaign_from_json(doc);
  SchedulerConfig cfg = tenant_cluster(Policy::backfill, 2);
  Scheduler s(cfg);
  const auto ids = sched::submit_campaign(s, campaign);
  ASSERT_EQ(ids.size(), 4u);  // 3 tasks + merge
  s.run();
  EXPECT_EQ(s.stats().completed, 4);
  // merge depends on EVERY task: it starts only after the last one ends.
  double last_task_end = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    last_task_end = std::max(last_task_end, s.job(ids[k]).end_time);
  }
  EXPECT_GE(s.job(ids[3]).start_time, last_task_end);
}

// ----------------------------------------------------------- determinism

TEST(TenantSched, TenantRunsAreBitIdenticalAcrossRuns) {
  const auto build = [] {
    SchedulerConfig cfg = tenant_cluster(Policy::fair_share, 4);
    cfg.partitions = {tenant::partition_from_spec("prod,nodes=3"),
                      tenant::partition_from_spec("debug,nodes=1")};
    cfg.usage_halflife = 200.0;
    cfg.faults.node_fail_prob = 0.2;
    cfg.faults.max_failures = 3;
    Scheduler s(cfg);
    s.submit(fixed_job("bg", "low", 3, 120, 1000, "scavenger", "prod"));
    s.submit(fixed_job("hi", "ops", 2, 20, 100, "high", "prod"),
             /*submit_at=*/15);
    s.submit(fixed_job("d", "dev", 1, 40, 400, "normal", "debug"));
    JobSpec arr = fixed_job("arr", "alice", 1, 9, 90, "normal", "prod");
    arr.array = 3;
    s.submit_array(arr, 5.0);
    s.run();
    return s.event_log() + s.sacct();
  };
  EXPECT_EQ(build(), build());
}

// ----------------------------------------------------------------- fleet

TEST(TenantFleet, CampaignPublishesDatasetsAndServesTenants) {
  Settings stage = functional_settings("fleet");
  stage.checkpoint = false;

  sched::Campaign campaign;
  campaign.name = "fleetcamp";
  campaign.user = "ops";
  JobSpec sim;
  sim.name = "sim";
  sim.user = "ops";
  sim.nodes = 2;
  sim.ranks_per_node = 2;
  sim.walltime_limit = 1e6;
  sim.payload.kind = PayloadKind::functional;
  sim.payload.settings = stage;
  JobSpec cleanup = fixed_job("cleanup", "ops", 1, 30, 100);
  cleanup.deps.push_back({0, sched::DepType::afterany});
  campaign.jobs = {sim, cleanup};
  campaign.names = {"sim", "cleanup"};

  tenant::FleetConfig fc;
  fc.sched.policy = Policy::backfill;
  fc.sched.cluster.nodes = 2;
  fc.service.threads = 2;
  fc.service.slo_seconds = 30.0;  // generous: violations stay zero
  fc.query_timeout_seconds = 30.0;

  tenant::Fleet fleet(fc);
  fleet.start(campaign);
  ASSERT_TRUE(fleet.wait_for_datasets(1, 120.0));
  ASSERT_EQ(fleet.datasets().size(), 1u);
  const std::string ds = fleet.datasets()[0];
  EXPECT_EQ(ds, stage.output);

  // Two tenants hammer the published dataset concurrently — possibly
  // while the cleanup stage is still running.
  std::atomic<int> ok_total{0};
  const auto tenant_load = [&](const std::string& who) {
    for (int i = 0; i < 8; ++i) {
      const auto r =
          fleet.query(who, ds, gs::svc::FieldStatsQ{"U", 0});
      if (r.status.ok()) ++ok_total;
    }
  };
  std::thread t1(tenant_load, "alice");
  std::thread t2(tenant_load, "bob");
  t1.join();
  t2.join();
  fleet.wait();
  EXPECT_EQ(ok_total.load(), 16);

  // Client-side per-tenant stats: exact counts, sane percentiles.
  const auto stats = fleet.serving_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at("alice").ok, 8u);
  EXPECT_EQ(stats.at("bob").ok, 8u);
  EXPECT_EQ(stats.at("alice").errors, 0u);
  EXPECT_EQ(stats.at("alice").slo_violations, 0u);
  EXPECT_GE(stats.at("alice").latency.p99, stats.at("alice").latency.p50);

  // Server-side per-tenant metrics agree on the counts.
  const auto m = fleet.service_metrics(ds);
  ASSERT_EQ(m.tenants.size(), 2u);
  EXPECT_EQ(m.tenants.at("alice").completed_ok, 8u);
  EXPECT_EQ(m.tenants.at("bob").submitted, 8u);
  EXPECT_EQ(m.tenants.at("bob").slo_violations, 0u);

  // The scheduler side: both stages completed.
  EXPECT_EQ(fleet.scheduler().stats().completed, 2);

  EXPECT_THROW(fleet.query("alice", "nope.bp", gs::svc::ListVariablesQ{}),
               gs::ParseError);

  fs::remove_all(stage.output);
  fs::remove_all(stage.checkpoint_output);
}
