// Extension: campaign scheduling at the resource-manager layer — the
// paper's end-to-end workflows meet Slurm before they meet a GPU, and the
// queueing policy decides how much of the machine the campaigns actually
// get. This harness replays a mixed-width population of simulate ->
// BP-write -> analysis pipeline campaigns (gs::sched::pipeline_campaign)
// through the three policies (FIFO, conservative backfill, fair-share)
// and reports makespan, node utilization, and queue-wait percentiles as
// the user population grows from 1 to 64.
//
// A second section injects node failures and shows the requeue/retry
// machinery absorbing them within the retry budget.
//
// The harness exits nonzero if backfill ever loses to FIFO on
// utilization — that inversion would mean the reservation profile is
// delaying jobs it must not delay.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/format.h"
#include "sched/campaign.h"
#include "sched/scheduler.h"

namespace {

using gs::sched::Campaign;
using gs::sched::Policy;
using gs::sched::SchedStats;
using gs::sched::Scheduler;
using gs::sched::SchedulerConfig;

constexpr std::int64_t kClusterNodes = 64;

/// Mixed-width population: user u's campaign width cycles through the
/// paper's scaling ladder, so narrow notebooks queue behind wide
/// production runs exactly the way backfill is meant to exploit.
std::int64_t campaign_width(int user) {
  static const std::int64_t widths[] = {1, 2, 4, 48, 8, 1, 16, 32};
  return widths[user % 8];
}

SchedStats run_population(Policy policy, int users,
                          const gs::sched::FaultConfig& faults = {}) {
  SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.cluster.nodes = kClusterNodes;
  cfg.faults = faults;
  cfg.seed = 42;
  Scheduler sched(cfg);

  for (int u = 0; u < users; ++u) {
    const std::int64_t nodes = campaign_width(u);
    const Campaign c = gs::sched::pipeline_campaign(
        std::string("c").append(std::to_string(u)),
        std::string("user").append(std::to_string(u)), nodes,
        /*steps=*/20000 + 10000 * (u % 3), /*output_steps=*/10);
    // Near-simultaneous arrivals (one per simulated second): the queue
    // builds a real backlog, so the ordering policies actually diverge.
    gs::sched::submit_campaign(sched, c, 1.0 * u);
  }
  sched.run();
  return sched.stats();
}

void print_row(gs::TableFormatter& t, int users, Policy policy,
               const SchedStats& st) {
  t.row({std::to_string(users), gs::sched::to_string(policy),
         gs::format_seconds(st.makespan),
         gs::format_fixed(100.0 * st.utilization, 1) + "%",
         gs::format_seconds(st.queue_waits.percentile(50)),
         gs::format_seconds(st.queue_waits.percentile(95)),
         std::to_string(st.completed)});
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("Extension — campaign scheduler: policy vs. user population\n");
  std::printf("(%lld-node cluster, mixed-width sim->write->analysis\n",
              (long long)kClusterNodes);
  std::printf("pipelines, deterministic seed)\n");
  std::printf("==============================================================\n\n");

  bool backfill_beats_fifo = true;
  gs::TableFormatter table({"Users", "Policy", "Makespan", "Util",
                            "Wait p50", "Wait p95", "Done"});
  for (int users : {1, 4, 16, 64}) {
    double fifo_util = 0.0;
    for (Policy policy :
         {Policy::fifo, Policy::backfill, Policy::fair_share}) {
      const SchedStats st = run_population(policy, users);
      print_row(table, users, policy, st);
      if (policy == Policy::fifo) fifo_util = st.utilization;
      if (policy == Policy::backfill &&
          st.utilization + 1e-9 < fifo_util) {
        backfill_beats_fifo = false;
      }
    }
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("Backfill slides narrow analysis/cleanup jobs into the\n");
  std::printf("holes FIFO leaves in front of wide reservations; fair-share\n");
  std::printf("trades a little of that packing for per-user fairness.\n\n");

  std::printf("==============================================================\n");
  std::printf("Fault injection — node failures vs. the requeue budget\n");
  std::printf("==============================================================\n\n");

  gs::TableFormatter faults_table({"FailProb", "Budget", "Requeues",
                                   "Done", "Failed", "Makespan", "Util"});
  for (double prob : {0.0, 0.25, 0.75}) {
    gs::sched::FaultConfig fc;
    fc.node_fail_prob = prob;
    fc.max_failures = 12;
    fc.repair_time = 120.0;
    const SchedStats st = run_population(Policy::backfill, 16, fc);
    faults_table.row({gs::format_fixed(prob, 2), "12",
                      std::to_string(st.requeues),
                      std::to_string(st.completed),
                      std::to_string(st.failed),
                      gs::format_seconds(st.makespan),
                      gs::format_fixed(100.0 * st.utilization, 1) + "%"});
  }
  std::printf("%s\n", faults_table.str().c_str());
  std::printf("Failed attempts return to the queue and re-run on repaired\n");
  std::printf("nodes; the campaign completes as long as each job stays\n");
  std::printf("within its retry budget.\n\n");

  if (!backfill_beats_fifo) {
    std::fprintf(stderr,
                 "FAILED: backfill utilization fell below FIFO — the "
                 "reservation profile is delaying jobs it must not delay\n");
    return 1;
  }
  std::printf("OK: backfill utilization >= FIFO at every population size\n");
  return 0;
}
