// extension_tenant_slo — multi-tenant simulation-as-a-service gates for
// the gs::tenant control plane: the paper's single-campaign workflow
// promoted to a facility shared by tenants with different QOS tiers,
// where eviction, node loss, and concurrent serving are routine and none
// of them may lose or corrupt a tenant's work.
//
// Phases (every gate enforced; exit is nonzero on any failure):
//   1. preemption identity: a scavenger-tier functional simulation is
//      evicted mid-run by a high-QOS job and resumes from its gs::fault
//      checkpoint; its final checkpoint state and last output step must
//      be bitwise identical to an undisturbed run. The victim must
//      complete with exactly one recorded preemption and an untouched
//      retry budget.
//   2. churn survival: a mixed campaign (partitions, all three QOS
//      tiers, a job array, two tenants) runs under injected node kills;
//      every submitted job must reach COMPLETED — zero lost jobs — and
//      the accounting log must be bit-identical when the scenario is
//      replayed with the same seed.
//   3. serving SLO: a tenant::Fleet campaign publishes its datasets into
//      the in-process serving tier while three tenants hammer them
//      concurrently; every query must succeed, client- and server-side
//      per-tenant counters must agree, and each tenant's p99 latency
//      must stay under the SLO bound. The latency gate alone is relaxed
//      under GS_BENCH_NONFATAL (shared CI runners) — correctness gates
//      never are.
//   4. fair-share: after one tenant burns node-seconds into the decaying
//      usage ledger, a fresh tenant's identical submissions must start
//      no later than the heavy tenant's in the next contention wave.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bp/reader.h"
#include "config/settings.h"
#include "sched/campaign.h"
#include "sched/scheduler.h"
#include "svc/query.h"
#include "tenant/fleet.h"
#include "tenant/qos.h"

namespace {

namespace sched = gs::sched;
namespace tenant = gs::tenant;
using gs::Settings;
using gs::bench::Gates;
using sched::JobSpec;
using sched::JobState;
using sched::PayloadKind;
using sched::Scheduler;
using sched::SchedulerConfig;

std::string work_dir() {
  static const gs::bench::ScratchDir dir("tenant_slo");
  return dir.path();
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

Settings functional_settings(const std::string& tag) {
  Settings s;
  s.L = 16;
  s.steps = 6;
  s.plotgap = 3;
  s.backend = gs::KernelBackend::host_reference;
  s.ranks_per_node = 2;
  s.checkpoint = true;
  s.checkpoint_freq = 4;
  s.output = work_dir() + "/" + tag + "_out.bp";
  s.checkpoint_output = work_dir() + "/" + tag + "_ck.bp";
  return s;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---- phase 1: preemption identity ----------------------------------------

void phase_preemption(Gates& gates) {
  std::printf("phase 1: checkpoint-backed preemption identity\n");

  // Reference: the victim workflow runs undisturbed, which also reveals
  // its simulated duration for placing the preemptor mid-run.
  SchedulerConfig ref_cfg;
  ref_cfg.policy = sched::Policy::backfill;
  ref_cfg.cluster.nodes = 2;
  ref_cfg.qos = tenant::default_qos_tiers();
  Scheduler ref(ref_cfg);
  JobSpec victim;
  victim.name = "victim";
  victim.user = "low";
  victim.nodes = 2;
  victim.ranks_per_node = 2;
  victim.walltime_limit = 1e6;
  victim.qos = "scavenger";
  victim.payload.kind = PayloadKind::functional;
  victim.payload.settings = functional_settings("clean");
  const auto rid = ref.submit(victim);
  ref.run();
  const double duration = ref.job(rid).duration;
  gates.check("reference victim completes",
              ref.job(rid).state == JobState::completed && duration > 0.0,
              "reference run did not complete");

  // Preempted run: identical physics, fresh paths, a high-QOS job lands
  // halfway through and evicts the victim.
  SchedulerConfig cfg = ref_cfg;
  Scheduler s(cfg);
  const Settings clean = victim.payload.settings;
  victim.payload.settings = functional_settings("preempted");
  const Settings pre = victim.payload.settings;
  const auto vid = s.submit(victim);
  const auto hid = s.submit(fixed_job("urgent", "ops", 2, 5.0, 100, "high"),
                            /*submit_at=*/duration / 2.0);
  s.run();

  const auto& v = s.job(vid);
  gates.check("victim evicted exactly once and completed",
              v.state == JobState::completed && v.preemptions == 1 &&
                  v.attempts == 2,
              "state=" + std::string(sched::to_string(v.state)) +
                  " preemptions=" + std::to_string(v.preemptions));
  gates.check("eviction spends no retry budget", v.requeues == 0,
              "requeues=" + std::to_string(v.requeues));
  gates.check("preemptor completed", s.job(hid).state == JobState::completed,
              "preemptor not completed");

  const gs::bp::Reader ck_a(clean.checkpoint_output);
  const gs::bp::Reader ck_b(pre.checkpoint_output);
  gates.check("final checkpoint state bitwise identical",
              bitwise_equal(ck_a.read_full("U", ck_a.n_steps() - 1),
                            ck_b.read_full("U", ck_b.n_steps() - 1)) &&
                  bitwise_equal(ck_a.read_full("V", ck_a.n_steps() - 1),
                                ck_b.read_full("V", ck_b.n_steps() - 1)),
              "resumed checkpoint diverged from the undisturbed run");
  const gs::bp::Reader out_a(clean.output);
  const gs::bp::Reader out_b(pre.output);
  gates.check("final output step bitwise identical",
              bitwise_equal(out_a.read_full("U", out_a.n_steps() - 1),
                            out_b.read_full("U", out_b.n_steps() - 1)),
              "resumed output diverged from the undisturbed run");
}

// ---- phase 2: zero lost jobs under node kills ----------------------------

Scheduler run_churn_scenario() {
  SchedulerConfig cfg;
  cfg.policy = sched::Policy::backfill;
  cfg.cluster.nodes = 8;
  cfg.seed = 1234;
  cfg.faults.node_fail_prob = 0.25;
  cfg.faults.max_failures = 4;
  cfg.partitions = {tenant::partition_from_spec("prod,nodes=6"),
                    tenant::partition_from_spec("debug,nodes=2")};
  cfg.qos = tenant::default_qos_tiers();
  cfg.usage_halflife = 600.0;
  Scheduler s(cfg);

  JobSpec bg = fixed_job("bg", "alice", 2, 300, 2500, "scavenger", "prod");
  bg.array = 3;
  bg.max_retries = 10;
  s.submit_array(bg);
  for (int i = 0; i < 2; ++i) {
    JobSpec j = fixed_job("sim" + std::to_string(i), "bob", 3, 100, 2500,
                          "normal", "prod");
    j.max_retries = 10;
    s.submit(j);
  }
  for (int i = 0; i < 2; ++i) {
    JobSpec j = fixed_job("dbg" + std::to_string(i), "alice", 1, 60, 2500,
                          "normal", "debug");
    j.max_retries = 10;
    s.submit(j);
  }
  JobSpec urgent = fixed_job("urgent", "ops", 4, 50, 2500, "high", "prod");
  urgent.max_retries = 10;
  s.submit(urgent, /*submit_at=*/150.0);
  s.run();
  return s;
}

void phase_churn(Gates& gates) {
  std::printf("\nphase 2: node kills + preemption churn, zero lost jobs\n");
  const Scheduler a = run_churn_scenario();

  const auto st = a.stats();
  int lost = 0;
  for (const auto& j : a.jobs()) {
    if (j.state != JobState::completed) ++lost;
  }
  gates.check("every job completed (zero lost)", lost == 0,
              std::to_string(lost) + " of " + std::to_string(a.jobs().size()) +
                  " jobs not COMPLETED");
  gates.check("node kills actually fired", st.requeues >= 1,
              "no requeue recorded; churn never happened");
  std::printf("  (%zu jobs, %d requeues, %d preemptions, makespan %.0fs)\n",
              a.jobs().size(), st.requeues, st.preemptions, st.makespan);

  const Scheduler b = run_churn_scenario();
  gates.check("accounting log bit-identical on replay",
              a.event_log() == b.event_log() && a.sacct() == b.sacct(),
              "same seed produced a different event log");
}

// ---- phase 3: campaign -> publish -> serve under SLO ---------------------

void phase_serving(Gates& gates) {
  std::printf("\nphase 3: fleet serving SLO while the campaign runs\n");
  constexpr int kQueriesPerTenant = 30;
  constexpr double kSlo = 0.25;  // generous for an in-process service

  Settings stage1 = functional_settings("fleet1");
  stage1.checkpoint = false;
  Settings stage2 = functional_settings("fleet2");
  stage2.checkpoint = false;

  sched::Campaign campaign;
  campaign.name = "facility";
  campaign.user = "ops";
  JobSpec sim;
  sim.name = "sim1";
  sim.user = "ops";
  sim.nodes = 2;
  sim.ranks_per_node = 2;
  sim.walltime_limit = 1e6;
  sim.payload.kind = PayloadKind::functional;
  sim.payload.settings = stage1;
  JobSpec sim2 = sim;
  sim2.name = "sim2";
  sim2.payload.settings = stage2;
  sim2.deps.push_back({0, sched::DepType::afterok});
  JobSpec tail = fixed_job("cleanup", "ops", 1, 50, 500);
  tail.deps.push_back({1, sched::DepType::afterany});
  campaign.jobs = {sim, sim2, tail};
  campaign.names = {"sim1", "sim2", "cleanup"};

  tenant::FleetConfig fc;
  fc.sched.policy = sched::Policy::backfill;
  fc.sched.cluster.nodes = 2;
  fc.service.threads = 2;
  fc.service.slo_seconds = kSlo;
  fc.query_timeout_seconds = 30.0;

  tenant::Fleet fleet(fc);
  fleet.start(campaign);
  if (!fleet.wait_for_datasets(1, 120.0)) {
    fleet.wait();
    gates.check("campaign publishes its first dataset", false,
                "no dataset published within 120s");
    return;
  }

  // Three tenants query whatever is published right now — deliberately
  // racing the still-running campaign.
  const std::vector<std::string> tenants = {"alice", "bob", "carol"};
  std::vector<std::thread> threads;
  for (const auto& who : tenants) {
    threads.emplace_back([&fleet, who] {
      for (int i = 0; i < kQueriesPerTenant; ++i) {
        const auto sets = fleet.datasets();
        const auto& ds = sets[static_cast<std::size_t>(i) % sets.size()];
        (void)fleet.query(who, ds, gs::svc::FieldStatsQ{"U", 0});
      }
    });
  }
  for (auto& t : threads) t.join();
  fleet.wait();

  gates.check("campaign completed all stages",
              fleet.scheduler().stats().completed == 3,
              "stages missing from COMPLETED");
  gates.check("both datasets published", fleet.datasets().size() == 2,
              std::to_string(fleet.datasets().size()) + " published");

  const auto stats = fleet.serving_stats();
  std::uint64_t server_ok = 0;
  for (const auto& ds : fleet.datasets()) {
    for (const auto& [name, tm] : fleet.service_metrics(ds).tenants) {
      (void)name;
      server_ok += tm.completed_ok;
    }
  }
  std::uint64_t client_ok = 0;
  bool p99_ok = true;
  std::string p99_detail;
  for (const auto& who : tenants) {
    const auto it = stats.find(who);
    if (it == stats.end()) continue;
    client_ok += it->second.ok;
    std::printf("  %-8s ok=%llu err=%llu slo_viol=%llu p50=%.1fms "
                "p95=%.1fms p99=%.1fms\n",
                who.c_str(), (unsigned long long)it->second.ok,
                (unsigned long long)it->second.errors,
                (unsigned long long)it->second.slo_violations,
                1e3 * it->second.latency.p50, 1e3 * it->second.latency.p95,
                1e3 * it->second.latency.p99);
    gates.metric("p99_ms_" + who, 1e3 * it->second.latency.p99, 2);
    if (it->second.latency.p99 > kSlo) {
      p99_ok = false;
      p99_detail = who + " p99 " +
                   std::to_string(1e3 * it->second.latency.p99) + "ms > " +
                   std::to_string(1e3 * kSlo) + "ms";
    }
  }
  const std::uint64_t want_ok =
      static_cast<std::uint64_t>(tenants.size()) * kQueriesPerTenant;
  gates.check("every tenant query succeeded", client_ok == want_ok,
              std::to_string(client_ok) + " of " + std::to_string(want_ok));
  gates.check("server-side per-tenant counters agree",
              server_ok == want_ok,
              "server counted " + std::to_string(server_ok));
  gates.relaxable("per-tenant p99 within SLO", p99_ok, p99_detail);
}

// ---- phase 4: fair-share across tenants ----------------------------------

void phase_fairshare(Gates& gates) {
  std::printf("\nphase 4: decaying fair-share orders the contention wave\n");
  SchedulerConfig cfg;
  cfg.policy = sched::Policy::fair_share;
  cfg.cluster.nodes = 4;
  cfg.usage_halflife = 3600.0;
  Scheduler s(cfg);

  // Wave 1: "heavy" burns 800 node-seconds of history.
  std::vector<sched::JobId> w1;
  for (int i = 0; i < 4; ++i) {
    w1.push_back(s.submit(
        fixed_job("burn" + std::to_string(i), "heavy", 1, 200, 2000)));
  }
  // Wave 2 at t=250: both tenants want 2x2 nodes; only half fits.
  std::vector<sched::JobId> heavy2, fresh2;
  for (int i = 0; i < 2; ++i) {
    heavy2.push_back(
        s.submit(fixed_job("h" + std::to_string(i), "heavy", 2, 50, 2000),
                 /*submit_at=*/250.0));
    fresh2.push_back(
        s.submit(fixed_job("f" + std::to_string(i), "fresh", 2, 50, 2000),
                 /*submit_at=*/250.0));
  }
  s.run();

  double heavy_last = 0.0, fresh_last = 0.0;
  bool all_done = true;
  for (const auto id : heavy2) {
    heavy_last = std::max(heavy_last, s.job(id).start_time);
    all_done &= s.job(id).state == JobState::completed;
  }
  for (const auto id : fresh2) {
    fresh_last = std::max(fresh_last, s.job(id).start_time);
    all_done &= s.job(id).state == JobState::completed;
  }
  std::printf("  heavy usage at t=250: %.0f node-s; fresh last start %.0fs,"
              " heavy last start %.0fs\n",
              s.ledger().usage("heavy", 250.0), fresh_last, heavy_last);
  gates.check("wave-2 jobs all completed", all_done, "incomplete wave");
  gates.check("fresh tenant starts strictly before heavy",
              fresh_last < heavy_last, "fresh waited behind the heavy tenant");
}

}  // namespace

int main() try {
  Gates gates("tenant_slo");
  phase_preemption(gates);
  phase_churn(gates);
  phase_serving(gates);
  phase_fairshare(gates);
  return gates.report();
} catch (const std::exception& e) {
  return gs::bench::uncaught(e);
}
