// Tests for gs::fault — deterministic injection plans, bounded retries,
// crash-consistent BP commits under kills, bitwise checkpoint/restart,
// scheduler resume-from-checkpoint, degraded service responses, and the
// Lustre-model hook. Every scenario is seeded/op-indexed, so a failure
// here replays identically.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/analysis.h"
#include "bp/manifest.h"
#include "bp/reader.h"
#include "bp/writer.h"
#include "common/rng.h"
#include "config/settings.h"
#include "core/workflow.h"
#include "fault/fault.h"
#include "grid/decomp.h"
#include "lustre/lustre_model.h"
#include "mpi/runtime.h"
#include "sched/payload.h"
#include "svc/service.h"

namespace {

namespace fs = std::filesystem;
using gs::Box3;
using gs::Decomposition;
using gs::Index3;
using gs::Settings;
using gs::fault::Injection;
using gs::fault::InjectedFault;
using gs::fault::Injector;
using gs::fault::Kill;
using gs::fault::Kind;
using gs::fault::Plan;
using gs::fault::RetryPolicy;
using gs::fault::ScopedPlan;

std::string temp_path(const std::string& name) {
  // Per-process suffix: ctest -j runs test binaries concurrently.
  static const std::string pid = std::to_string(::getpid());
  return (fs::path(testing::TempDir()) / (name + "." + pid + ".bp"))
      .string();
}

double cell_value(const Index3& g, const Index3& shape, std::int64_t step) {
  return static_cast<double>(gs::linear_index(g, shape)) +
         1e6 * static_cast<double>(step);
}

/// Writes `n_steps` of a global L^3 "U" and "V" with 4 ranks, 2 per node
/// (subfiles data.0 and data.1). Throws whatever the ranks throw.
void write_uv(const std::string& path, std::int64_t L, int n_steps) {
  gs::mpi::run(4, [&](gs::mpi::Comm& world) {
    const Decomposition d = Decomposition::cube(L, world.size());
    const Box3 box = d.local_box(world.rank());
    const Index3 shape{L, L, L};
    gs::bp::Writer w(path, world, /*ranks_per_node=*/2);
    for (int s = 0; s < n_steps; ++s) {
      std::vector<double> block(static_cast<std::size_t>(box.volume()));
      std::size_t n = 0;
      for (std::int64_t k = box.start.k; k < box.end().k; ++k) {
        for (std::int64_t j = box.start.j; j < box.end().j; ++j) {
          for (std::int64_t i = box.start.i; i < box.end().i; ++i) {
            block[n++] = cell_value({i, j, k}, shape, s);
          }
        }
      }
      std::vector<double> vblock(block.size());
      for (std::size_t m = 0; m < block.size(); ++m) vblock[m] = -block[m];
      w.begin_step();
      w.put("U", shape, box, block);
      w.put("V", shape, box, vblock);
      w.put_scalar("step", 10 * s);
      w.end_step();
    }
    w.close();
  });
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bitwise equality of two double fields (no epsilon: restart must be
/// exact, not close).
bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ------------------------------------------------------------ plan/injector

TEST(FaultPlan, ArmedOpsFireAtExactIndices) {
  Plan plan;
  plan.fail_at("unit.site", 2);
  ScopedPlan scoped(plan);
  auto& inj = Injector::instance();
  for (std::uint64_t op = 0; op < 5; ++op) {
    const auto hit = inj.consume("unit.site");
    if (op == 2) {
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->kind, Kind::fail);
    } else {
      EXPECT_FALSE(hit.has_value()) << "op " << op;
    }
  }
  EXPECT_EQ(inj.ops("unit.site"), 5u);
  EXPECT_EQ(inj.injected(), 1u);
  const auto stats = inj.stats();
  ASSERT_TRUE(stats.count("unit.site"));
  EXPECT_EQ(stats.at("unit.site").ops, 5u);
  EXPECT_EQ(stats.at("unit.site").injected, 1u);
}

TEST(FaultPlan, ReinstallResetsCountersAndReplaysIdentically) {
  Plan plan;
  plan.fail_at("replay.site", 3);
  const auto fired_ops = [&] {
    ScopedPlan scoped(plan);
    std::set<std::uint64_t> fired;
    for (std::uint64_t op = 0; op < 6; ++op) {
      if (Injector::instance().consume("replay.site")) fired.insert(op);
    }
    return fired;
  };
  const auto first = fired_ops();
  const auto second = fired_ops();  // same plan, fresh install
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, std::set<std::uint64_t>{3});
  // Uninstalled: the hook is a no-op and counters stay frozen.
  EXPECT_FALSE(Injector::instance().active());
  EXPECT_FALSE(Injector::instance().consume("replay.site").has_value());
  EXPECT_EQ(Injector::instance().ops("replay.site"), 0u);
}

TEST(FaultPlan, ArmRandomIsDeterministicInSeedAndSite) {
  const auto sample = [](std::uint64_t seed) {
    Plan p;
    p.arm_random("rand.site", 0.25, Kind::fail, seed, /*horizon=*/200,
                 /*budget=*/12);
    ScopedPlan scoped(p);
    std::set<std::uint64_t> fired;
    for (std::uint64_t op = 0; op < 200; ++op) {
      if (Injector::instance().consume("rand.site")) fired.insert(op);
    }
    return fired;
  };
  const auto a = sample(99);
  const auto b = sample(99);
  EXPECT_EQ(a, b);                  // pure function of (seed, site)
  EXPECT_FALSE(a.empty());
  EXPECT_LE(a.size(), 12u);         // budget cap
  EXPECT_NE(a, sample(100));        // and the seed actually matters
}

TEST(FaultInjector, CheckActsOnEachKind) {
  static_assert(!std::is_base_of_v<gs::Error, Kill>,
                "Kill must not be absorbable by gs::Error handlers");
  static_assert(std::is_base_of_v<gs::IoError, InjectedFault>,
                "InjectedFault must look like a transient I/O error");

  Plan plan;
  plan.fail_at("k.fail", 0);
  plan.kill_at("k.kill", 0);
  plan.corrupt_at("k.corrupt", 0, /*byte_offset=*/3, /*xor_mask=*/0x80);
  plan.delay_at("k.delay", 0, 1e-6);
  ScopedPlan scoped(plan);
  auto& inj = Injector::instance();

  EXPECT_THROW(inj.check("k.fail"), InjectedFault);
  EXPECT_THROW(inj.check("k.kill"), Kill);

  std::vector<std::byte> payload(8, std::byte{0x11});
  inj.check("k.corrupt", payload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(payload[i], i == 3 ? std::byte{0x91} : std::byte{0x11});
  }
  EXPECT_NO_THROW(inj.check("k.delay"));
  EXPECT_EQ(inj.injected(), 4u);
}

// ------------------------------------------------------------------ retries

TEST(FaultRetry, AbsorbsTransientsUpToBudget) {
  Plan plan;
  plan.fail_at("retry.site", 0);
  plan.fail_at("retry.site", 1);
  ScopedPlan scoped(plan);
  RetryPolicy policy;
  policy.attempts = 3;
  policy.backoff_seconds = 1e-6;
  int calls = 0;
  gs::fault::with_retries(policy, "unit", [&] {
    ++calls;
    Injector::instance().check("retry.site");
  });
  EXPECT_EQ(calls, 3);  // two injected failures, third try clean
}

TEST(FaultRetry, ExhaustedBudgetRethrowsTheIoError) {
  Plan plan;
  for (std::uint64_t op = 0; op < 3; ++op) plan.fail_at("retry.site", op);
  ScopedPlan scoped(plan);
  RetryPolicy policy;
  policy.attempts = 3;
  policy.backoff_seconds = 1e-6;
  int calls = 0;
  EXPECT_THROW(gs::fault::with_retries(policy, "unit",
                                       [&] {
                                         ++calls;
                                         Injector::instance().check(
                                             "retry.site");
                                       }),
               InjectedFault);
  EXPECT_EQ(calls, 3);
}

TEST(FaultRetry, KillIsNeverRetried) {
  Plan plan;
  plan.kill_at("retry.site", 0);
  ScopedPlan scoped(plan);
  RetryPolicy policy;
  policy.attempts = 5;
  policy.backoff_seconds = 1e-6;
  int calls = 0;
  EXPECT_THROW(gs::fault::with_retries(policy, "unit",
                                       [&] {
                                         ++calls;
                                         Injector::instance().check(
                                             "retry.site");
                                       }),
               Kill);
  EXPECT_EQ(calls, 1);  // a crash is not a transient
}

// ------------------------------------------------- writer under transients

TEST(FaultBp, TransientWriteFaultsHealViaRetryBitwise) {
  const std::string clean = temp_path("retry_clean");
  const std::string faulted = temp_path("retry_faulted");
  fs::remove_all(clean);
  fs::remove_all(faulted);
  write_uv(clean, 8, 2);

  Plan plan;
  plan.fail_at("bp.writer.open_subfile/data.1", 0);
  plan.fail_at("bp.writer.write_block/data.0", 1);
  plan.fail_at("bp.writer.write_index", 0);
  std::uint64_t injected = 0;
  {
    ScopedPlan scoped(plan);
    write_uv(faulted, 8, 2);  // default Writer retry budget absorbs all 3
    injected = Injector::instance().injected();
  }
  EXPECT_EQ(injected, 3u);

  const gs::bp::Reader a(clean);
  const gs::bp::Reader b(faulted);
  ASSERT_EQ(b.n_steps(), 2);
  for (std::int64_t s = 0; s < 2; ++s) {
    EXPECT_TRUE(bitwise_equal(a.read_full("U", s), b.read_full("U", s)));
    EXPECT_TRUE(bitwise_equal(a.read_full("V", s), b.read_full("V", s)));
  }
  EXPECT_EQ(gs::bp::validate_against_manifest(faulted), "");
  fs::remove_all(clean);
  fs::remove_all(faulted);
}

// ------------------------------------------------------ reader corruption

TEST(FaultBp, ReadBlockHookDamagesTheStagedCompressedBytes) {
  // The reader stages a block's stored bytes in a buffer it reuses; the
  // read_block hook must still damage exactly the bytes being decoded,
  // the damage must be caught (decoder or CRC over the decoded doubles),
  // and it must not outlive the read that staged it.
  const std::string path = temp_path("staged_corrupt");
  fs::remove_all(path);
  std::vector<double> block(512);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = std::sin(static_cast<double>(i));
  }
  gs::mpi::run(1, [&](gs::mpi::Comm& world) {
    gs::bp::Writer w(path, world, 1);
    w.set_compression(true);
    w.begin_step();
    w.put("U", {8, 8, 8}, Box3{{0, 0, 0}, {8, 8, 8}}, block);
    w.end_step();
    w.close();
  });
  const gs::bp::Reader r(path);
  ASSERT_EQ(r.blocks("U", 0).at(0).codec, "gorilla");

  Plan plan;
  plan.corrupt_at("bp.reader.read_block/data.0", 0, /*byte_offset=*/64);
  {
    ScopedPlan scoped(plan);
    const auto damaged = r.try_read_block("U", 0, 0);
    EXPECT_FALSE(damaged.ok());
    EXPECT_TRUE(damaged.reason == "decompress_failed" ||
                damaged.reason == "crc_mismatch")
        << damaged.reason;
    EXPECT_EQ(Injector::instance().injected(), 1u);
    // Op 1 is not armed: the same buffer, restaged from disk, is clean.
    const auto again = r.try_read_block("U", 0, 0);
    ASSERT_TRUE(again.ok()) << again.detail;
    EXPECT_TRUE(bitwise_equal(again.data, block));
  }
  fs::remove_all(path);
}

// ------------------------------------------------------- kills and recovery

TEST(FaultBp, KillDuringSubfileWriteRollsBack) {
  const std::string path = temp_path("kill_write");
  fs::remove_all(path);
  write_uv(path, 8, 1);  // committed old content

  Plan plan;
  plan.kill_at("bp.writer.write_block/data.0", 0);
  {
    ScopedPlan scoped(plan);
    EXPECT_THROW(write_uv(path, 8, 2), Kill);  // rewrite dies mid-subfile
  }
  EXPECT_TRUE(fs::exists(gs::bp::staging_path(path)));

  const auto res = gs::bp::recover(path);
  EXPECT_EQ(res.action, gs::bp::RecoverAction::rolled_back);
  EXPECT_FALSE(fs::exists(gs::bp::staging_path(path)));

  // Old content survives untouched.
  gs::bp::Reader r(path);
  EXPECT_EQ(r.n_steps(), 1);
  EXPECT_TRUE(r.verify().clean());
  fs::remove_all(path);
}

TEST(FaultBp, KillBeforeManifestRollsBackKillAfterRollsForward) {
  // Kill at the manifest site: the commit point was never reached.
  {
    const std::string path = temp_path("kill_manifest");
    fs::remove_all(path);
    write_uv(path, 8, 1);
    Plan plan;
    plan.kill_at("bp.writer.manifest", 0);
    {
      ScopedPlan scoped(plan);
      EXPECT_THROW(write_uv(path, 8, 2), Kill);
    }
    EXPECT_EQ(gs::bp::recover(path).action,
              gs::bp::RecoverAction::rolled_back);
    gs::bp::Reader r(path);
    EXPECT_EQ(r.n_steps(), 1);  // old content
    fs::remove_all(path);
  }
  // Kill at the promote site: the manifest landed, so the new dataset is
  // logically committed even though promotion never ran.
  {
    const std::string path = temp_path("kill_promote");
    fs::remove_all(path);
    write_uv(path, 8, 1);
    Plan plan;
    plan.kill_at("bp.writer.promote", 0);
    {
      ScopedPlan scoped(plan);
      EXPECT_THROW(write_uv(path, 8, 2), Kill);
    }
    EXPECT_EQ(gs::bp::recover(path).action,
              gs::bp::RecoverAction::rolled_forward);
    gs::bp::Reader r(path);
    EXPECT_EQ(r.n_steps(), 2);  // new content
    EXPECT_TRUE(r.verify().clean());
    fs::remove_all(path);
  }
}

TEST(FaultBp, NextWriterHealsInterruptedCommit) {
  const std::string path = temp_path("heal_on_open");
  fs::remove_all(path);
  write_uv(path, 8, 1);
  Plan plan;
  plan.kill_at("bp.writer.promote", 0);
  {
    ScopedPlan scoped(plan);
    EXPECT_THROW(write_uv(path, 8, 2), Kill);
  }
  // No explicit recover(): the next Writer's constructor must heal the
  // interrupted commit (roll the 2-step dataset forward) before
  // appending to it.
  gs::mpi::run(4, [&](gs::mpi::Comm& world) {
    const Decomposition d = Decomposition::cube(8, world.size());
    const Box3 box = d.local_box(world.rank());
    const Index3 shape{8, 8, 8};
    gs::bp::Writer w(path, world, 2, nullptr, gs::bp::Mode::append);
    std::vector<double> block(static_cast<std::size_t>(box.volume()));
    std::size_t n = 0;
    for (std::int64_t k = box.start.k; k < box.end().k; ++k) {
      for (std::int64_t j = box.start.j; j < box.end().j; ++j) {
        for (std::int64_t i = box.start.i; i < box.end().i; ++i) {
          block[n++] = cell_value({i, j, k}, shape, 2);
        }
      }
    }
    w.begin_step();
    w.put("U", shape, box, block);
    w.end_step();
    w.close();
  });
  gs::bp::Reader r(path);
  EXPECT_EQ(r.n_steps(), 3);  // 2 rolled-forward + 1 appended
  EXPECT_TRUE(r.verify().clean());
  const auto full = r.read_full("U", 2);
  EXPECT_DOUBLE_EQ(full[3], cell_value({3, 0, 0}, {8, 8, 8}, 2));
  fs::remove_all(path);
}

// -------------------------------------------- workflow checkpoint/restart

Settings workflow_settings(const std::string& tag) {
  Settings s;
  s.L = 16;
  s.steps = 12;
  s.plotgap = 4;
  s.backend = gs::KernelBackend::host_reference;
  s.ranks_per_node = 2;
  s.checkpoint = true;
  s.checkpoint_freq = 6;
  s.output = temp_path("wf_out_" + tag);
  s.checkpoint_output = temp_path("wf_ck_" + tag);
  s.io_retry_backoff_ms = 0.01;
  fs::remove_all(s.output);
  fs::remove_all(s.checkpoint_output);
  return s;
}

gs::core::RunReport run_workflow(const Settings& s) {
  gs::core::RunReport root;
  gs::mpi::run(4, [&](gs::mpi::Comm& world) {
    gs::core::Workflow workflow(s, world);
    const auto report = workflow.run();
    if (world.rank() == 0) root = report;
  });
  return root;
}

TEST(FaultWorkflow, KillAndResumeIsBitwiseIdentical) {
  // Reference trajectory, no faults.
  const Settings clean = workflow_settings("clean");
  const auto clean_report = run_workflow(clean);
  EXPECT_EQ(clean_report.checkpoints_written, 2);  // steps 6 and 12

  // Faulted run: die during the SECOND checkpoint's index write (after
  // the step-6 checkpoint committed). md.idx write order in one run:
  // ckpt@6 (op 0), ckpt@12 (op 1), output close (op 2).
  Settings faulted = workflow_settings("faulted");
  Plan plan;
  plan.kill_at("bp.writer.write_index", 1);
  {
    ScopedPlan scoped(plan);
    EXPECT_THROW(run_workflow(faulted), Kill);
  }

  // Resume from the surviving checkpoint. try_restart() heals the torn
  // ckpt@12 staging (rolls back to the committed ckpt@6) on its own.
  Settings resumed = faulted;
  resumed.restart = true;
  resumed.restart_input = faulted.checkpoint_output;
  const auto report = run_workflow(resumed);
  EXPECT_TRUE(report.restarted);
  EXPECT_EQ(report.first_step, 6);
  EXPECT_EQ(report.steps_run, 6);  // 7..12

  // The resumed trajectory equals the uninterrupted one, bitwise: the
  // final checkpoint (state at step 12, stored in double) and the final
  // output step must match exactly.
  const gs::bp::Reader ck_a(clean.checkpoint_output);
  const gs::bp::Reader ck_b(resumed.checkpoint_output);
  ASSERT_EQ(ck_a.n_steps(), 1);
  ASSERT_EQ(ck_b.n_steps(), 1);
  EXPECT_EQ(ck_a.read_scalar("step", 0), 12);
  EXPECT_EQ(ck_b.read_scalar("step", 0), 12);
  EXPECT_TRUE(bitwise_equal(ck_a.read_full("U", 0), ck_b.read_full("U", 0)));
  EXPECT_TRUE(bitwise_equal(ck_a.read_full("V", 0), ck_b.read_full("V", 0)));

  const gs::bp::Reader out_a(clean.output);
  const gs::bp::Reader out_b(resumed.output);
  EXPECT_TRUE(bitwise_equal(out_a.read_full("U", out_a.n_steps() - 1),
                            out_b.read_full("U", out_b.n_steps() - 1)));

  for (const auto& s : {clean, faulted, resumed}) {
    fs::remove_all(s.output);
    fs::remove_all(s.checkpoint_output);
  }
}

TEST(FaultWorkflow, RestartRefusesForeignSeed) {
  const Settings s = workflow_settings("seedcheck");
  run_workflow(s);
  Settings other = s;
  other.restart = true;
  other.restart_input = s.checkpoint_output;
  other.seed = s.seed + 1;  // different noise stream
  EXPECT_THROW(run_workflow(other), gs::Error);
  fs::remove_all(s.output);
  fs::remove_all(s.checkpoint_output);
}

TEST(FaultWorkflow, TransientRestartReadFaultIsRetried) {
  const Settings s = workflow_settings("restart_retry");
  run_workflow(s);
  Settings resumed = s;
  resumed.restart = true;
  resumed.restart_input = s.checkpoint_output;
  fs::remove_all(resumed.output);
  Plan plan;
  // One transient failure at the restart read's first subfile open:
  // whichever rank draws it absorbs the fault through its retry budget.
  plan.fail_at("bp.reader.open_subfile/data.0", 0);
  {
    ScopedPlan scoped(plan);
    const auto report = run_workflow(resumed);
    EXPECT_TRUE(report.restarted);
    EXPECT_EQ(report.first_step, 12);
  }
  fs::remove_all(s.output);
  fs::remove_all(s.checkpoint_output);
}

// ----------------------------------------------------- scheduler resume

TEST(FaultSched, RetryAttemptResumesFromCheckpoint) {
  Settings s;
  s.L = 16;
  s.steps = 6;
  s.plotgap = 3;
  s.backend = gs::KernelBackend::host_reference;
  s.ranks_per_node = 2;
  s.checkpoint = true;
  s.checkpoint_freq = 4;
  s.output = temp_path("sched_out");
  s.checkpoint_output = temp_path("sched_ck");
  fs::remove_all(s.output);
  fs::remove_all(s.checkpoint_output);

  gs::sched::Job job;
  job.spec.nodes = 2;
  job.spec.ranks_per_node = 2;
  job.spec.payload.kind = gs::sched::PayloadKind::functional;
  job.spec.payload.settings = s;

  // Attempt 1: full run from step 0; leaves a checkpoint at step 4.
  job.attempts = 1;
  const auto first = gs::sched::run_payload(job, /*seed=*/1);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.resumed);
  EXPECT_EQ(first.steps_run, 6);

  // Attempt 2 (a retry): resumes from that checkpoint instead of
  // recomputing from step 0.
  job.attempts = 2;
  const auto second = gs::sched::run_payload(job, /*seed=*/1);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.first_step, 4);
  EXPECT_EQ(second.steps_run, 2);  // 5..6

  fs::remove_all(s.output);
  fs::remove_all(s.checkpoint_output);
}

// ------------------------------------------------------------- service

TEST(FaultSvc, AdmissionFaultRejectsJustThatRequest) {
  const std::string path = temp_path("svc_admission");
  fs::remove_all(path);
  write_uv(path, 8, 1);
  gs::svc::Service service(path);

  Plan plan;
  plan.fail_at("svc.admission", 0);
  ScopedPlan scoped(plan);

  gs::svc::Request req;
  req.body = gs::svc::FieldStatsQ{"U", 0};
  const auto rejected = service.call(req);
  EXPECT_EQ(rejected.status.code, gs::svc::StatusCode::internal_error);

  gs::svc::Request again;
  again.body = gs::svc::FieldStatsQ{"U", 0};
  const auto accepted = service.call(again);
  EXPECT_TRUE(accepted.status.ok());
  EXPECT_FALSE(accepted.degraded);
  fs::remove_all(path);
}

/// Physically flips a byte in block 0 of U, step 0.
void corrupt_first_u_block(const std::string& path) {
  gs::bp::Reader r(path);
  const auto blocks = r.blocks("U", 0);
  ASSERT_FALSE(blocks.empty());
  const auto& victim = blocks[0];
  const std::string subfile = gs::bp::subfile_name(victim.subfile);
  std::fstream f(fs::path(path) / subfile,
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(victim.offset) + 8);
  char c;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x20);
  f.seekp(static_cast<std::streamoff>(victim.offset) + 8);
  f.write(&c, 1);
}

TEST(FaultSvc, CorruptBlockYieldsDegradedPartialAnswer) {
  const std::string path = temp_path("svc_degraded");
  fs::remove_all(path);
  write_uv(path, 8, 1);
  ASSERT_NO_FATAL_FAILURE(corrupt_first_u_block(path));

  gs::svc::Service service(path);
  gs::svc::Request req;
  req.body = gs::svc::ReadBoxQ{"U", 0, Box3{{0, 0, 0}, {8, 8, 8}}};
  const auto resp = service.call(req);
  ASSERT_TRUE(resp.status.ok());  // partial answer beats no answer
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.bad_blocks, 1u);
  EXPECT_EQ(service.metrics().degraded, 1u);

  // The undamaged variable still answers clean.
  gs::svc::Request vq;
  vq.body = gs::svc::ReadBoxQ{"V", 0, Box3{{0, 0, 0}, {8, 8, 8}}};
  const auto vresp = service.call(vq);
  ASSERT_TRUE(vresp.status.ok());
  EXPECT_FALSE(vresp.degraded);
  EXPECT_EQ(service.metrics().degraded, 1u);
  fs::remove_all(path);
}

TEST(FaultSvc, DegradedWholeArrayAnswersKeepTheirBytes) {
  // A damaged block's cells count as zeros in field_stats and histogram:
  // the answers are those of the zero-filled salvage read of the array,
  // bit for bit, on the mmap route and on the copying (cached) route.
  const std::string path = temp_path("svc_degraded_whole");
  fs::remove_all(path);
  write_uv(path, 8, 1);
  ASSERT_NO_FATAL_FAILURE(corrupt_first_u_block(path));

  gs::bp::SalvageReport report;
  const auto zero_filled =
      gs::bp::Reader(path).read_full_salvage("U", 0, report);
  ASSERT_EQ(report.bad.size(), 1u);
  const auto want_stats = gs::analysis::compute_stats(zero_filled);
  const auto want_hist = gs::analysis::field_histogram(zero_filled, 16);
  const auto want_ranged =
      gs::analysis::field_histogram(zero_filled, 16, -50.0, 500.0);

  const auto expect_histogram = [](const gs::svc::Response& resp,
                                   const gs::Histogram& want) {
    ASSERT_TRUE(resp.status.ok()) << resp.status.message;
    EXPECT_TRUE(resp.degraded);
    EXPECT_EQ(resp.bad_blocks, 1u);
    const auto& h = std::get<gs::svc::HistogramR>(resp.body);
    EXPECT_EQ(bits_of(h.lo), bits_of(want.bin_lo(0)));
    EXPECT_EQ(bits_of(h.hi), bits_of(want.bin_hi(want.bins() - 1)));
    EXPECT_EQ(h.total, want.total());
    ASSERT_EQ(h.counts.size(), want.bins());
    for (std::size_t b = 0; b < want.bins(); ++b) {
      EXPECT_EQ(h.counts[b], want.count(b)) << "bin " << b;
    }
  };

  for (const bool mmap_reads : {true, false}) {
    SCOPED_TRACE(mmap_reads ? "mmap" : "cache");
    gs::svc::ServiceConfig config;
    config.mmap_reads = mmap_reads;
    gs::svc::Service service(path, config);

    gs::svc::Request stats;
    stats.body = gs::svc::FieldStatsQ{"U", 0};
    const auto sresp = service.call(stats);
    ASSERT_TRUE(sresp.status.ok()) << sresp.status.message;
    EXPECT_TRUE(sresp.degraded);
    EXPECT_EQ(sresp.bad_blocks, 1u);
    const auto& got = std::get<gs::svc::FieldStatsR>(sresp.body).stats;
    EXPECT_EQ(got.count, want_stats.count);
    EXPECT_EQ(bits_of(got.min), bits_of(want_stats.min));
    EXPECT_EQ(bits_of(got.max), bits_of(want_stats.max));
    EXPECT_EQ(bits_of(got.mean), bits_of(want_stats.mean));
    EXPECT_EQ(bits_of(got.stddev), bits_of(want_stats.stddev));

    gs::svc::Request hist;
    hist.body = gs::svc::HistogramQ{"U", 0, 16};
    expect_histogram(service.call(hist), want_hist);

    gs::svc::HistogramQ ranged{"U", 0, 16};
    ranged.has_range = true;
    ranged.lo = -50.0;
    ranged.hi = 500.0;
    gs::svc::Request rhist;
    rhist.body = ranged;
    expect_histogram(service.call(rhist), want_ranged);
  }
  fs::remove_all(path);
}

// ------------------------------------------------------------- lustre

TEST(FaultLustre, DelayFoldsIntoModeledStripeTime) {
  const gs::lustre::LustreModel model;
  gs::Rng rng_a(7);
  const auto clean = model.simulate_write(8, 1 << 20, rng_a);

  Plan plan;
  plan.delay_at("lustre.write", 0, 5.0);
  ScopedPlan scoped(plan);
  gs::Rng rng_b(7);  // same jitter stream
  const auto slow = model.simulate_write(8, 1 << 20, rng_b);
  EXPECT_NEAR(slow.seconds, clean.seconds + 5.0, 1e-9);
  EXPECT_LT(slow.aggregate_bw, clean.aggregate_bw);
}

TEST(FaultLustre, FailThrowsInjectedFault) {
  const gs::lustre::LustreModel model;
  Plan plan;
  plan.fail_at("lustre.write", 0);
  ScopedPlan scoped(plan);
  gs::Rng rng(7);
  EXPECT_THROW(model.simulate_write(8, 1 << 20, rng), InjectedFault);
  // Only op 0 was armed: the next write proceeds.
  gs::Rng rng2(7);
  EXPECT_NO_THROW(model.simulate_write(8, 1 << 20, rng2));
}

// ----------------------------------------------------------- backoff

TEST(FaultBackoff, JitteredScheduleIsDeterministicBoundedAndReplayable) {
  RetryPolicy policy;
  policy.backoff_seconds = 1e-3;
  policy.max_backoff_seconds = 0.05;
  policy.jitter = true;

  gs::fault::Backoff a(policy, /*seed=*/1234);
  gs::fault::Backoff b(policy, /*seed=*/1234);
  std::vector<double> schedule;
  for (int i = 0; i < 32; ++i) {
    const double sleep = a.next();
    EXPECT_EQ(sleep, b.next()) << "same seed, same schedule (step " << i
                               << ")";
    EXPECT_GE(sleep, policy.backoff_seconds) << "step " << i;
    EXPECT_LE(sleep, policy.max_backoff_seconds) << "step " << i;
    schedule.push_back(sleep);
  }
  EXPECT_EQ(schedule.front(), policy.backoff_seconds)
      << "the first retry is prompt and deterministic, jitter or not";

  // reset() rewinds to the first-sleep state AND re-seeds the RNG: the
  // replayed schedule is bitwise the original (how a failing probe run
  // is reproduced).
  a.reset();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.next(), schedule[static_cast<std::size_t>(i)]) << i;
  }

  // Different seeds decorrelate: two callers backing off from the same
  // outage must not march in lockstep (that is the stampede jitter
  // exists to break). The first sleep is shared by design; later ones
  // must diverge somewhere.
  gs::fault::Backoff c(policy, /*seed=*/99);
  bool diverged = false;
  for (int i = 0; i < 32; ++i) {
    if (c.next() != schedule[static_cast<std::size_t>(i)]) diverged = true;
  }
  EXPECT_TRUE(diverged);

  // And the per-site seed derivation feeds that decorrelation: distinct
  // call sites (or distinct jitter_seed mixes) get distinct streams.
  EXPECT_NE(gs::fault::detail::backoff_seed("shard.probe/s0", 0),
            gs::fault::detail::backoff_seed("shard.probe/s1", 0));
  EXPECT_NE(gs::fault::detail::backoff_seed("shard.probe/s0", 0),
            gs::fault::detail::backoff_seed("shard.probe/s0", 1));
}

TEST(FaultBackoff, JitterOffReproducesCappedExponential) {
  RetryPolicy policy;
  policy.backoff_seconds = 1e-3;
  policy.multiplier = 2.0;
  policy.max_backoff_seconds = 0.016;
  policy.jitter = false;

  gs::fault::Backoff backoff(policy, /*seed=*/7);
  double expected = policy.backoff_seconds;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(backoff.next(), expected) << "step " << i;
    expected = std::min(expected * policy.multiplier,
                        policy.max_backoff_seconds);
  }
  // 1e-3 doubles past the cap after 4 retries and then pins there.
  EXPECT_EQ(backoff.next(), policy.max_backoff_seconds);
}

}  // namespace
