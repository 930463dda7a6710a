#include "solve.h"

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "bp/reader.h"
#include "bp/writer.h"
#include "common/checksum.h"
#include "core/sim.h"
#include "core/workflow.h"
#include "mpi/runtime.h"
#include "procs.h"
#include "queries.h"
#include "trace.h"

namespace gsbench {

namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Payload the aggregators wrote in traced end_step calls.
std::atomic<std::uint64_t> g_node_bytes{0};

void produce_traced(const Producer& producer, std::uint64_t request) {
  const gs::Settings& s = producer.settings;
  const gs::Index3 shape{s.L, s.L, s.L};
  gs::mpi::run(producer.ranks, [&](gs::mpi::Comm& world) {
    const bool lead = world.rank() == 0;
    const trace::Span rep("solve.rep", 0, request, lead);
    const std::uint64_t parent = rep.id();
    gs::core::Simulation sim(s, world);
    gs::bp::Writer writer(s.output, world, static_cast<int>(s.ranks_per_node));
    writer.set_compression(s.compress);
    while (sim.current_step() < s.steps) {
      {
        const trace::Span t("core.step", parent, request, lead);
        sim.step();
      }
      const std::int64_t step = sim.current_step();
      if (step % s.plotgap != 0 && step != s.steps) continue;
      std::vector<double> u, v;
      {
        const trace::Span t("core.stage", parent, request, lead);
        sim.sync_host();
        u = sim.u_host().interior_copy();
        v = sim.v_host().interior_copy();
      }
      {
        const trace::Span t("bp.put", parent, request, lead);
        writer.begin_step();
        writer.put("U", shape, sim.local_box(), u);
        writer.put("V", shape, sim.local_box(), v);
        writer.put_scalar("step", step);
      }
      const trace::Span t("bp.end_step", parent, request, lead);
      g_node_bytes += writer.end_step().node_bytes;
    }
    const trace::Span t("bp.close", parent, request, lead);
    writer.close();
  });
}

// solve_write's producer: L=64 on 4 ranks, two per node, 400 steps with
// 10 uncompressed outputs of 4 MB. A repetition takes under a second, so
// each phase of a 15 s window has about ten for its median and p95 (at
// L=128 it would have three or four).
constexpr std::int64_t kOutputs = 10;

Producer solve_producer(std::uint64_t seed, const std::string& output) {
  Producer p;
  p.settings.L = 64;
  p.settings.steps = 400;
  p.settings.plotgap = 40;
  p.settings.backend = gs::KernelBackend::host_reference;
  p.settings.ranks_per_node = 2;
  p.settings.seed = seed;
  p.settings.output = output;
  p.ranks = 4;
  return p;
}

/// Reopens a repetition's dataset; it must hold every output. Returns the
/// CRC of its last step's U and V.
std::uint32_t last_step_crc(const std::string& path) {
  const gs::bp::Reader reader(path);
  if (reader.n_steps() != kOutputs) {
    throw WrongAnswer(path + " holds " + std::to_string(reader.n_steps()) +
                      " steps, not " + std::to_string(kOutputs));
  }
  std::uint32_t crc = 0;
  for (const char* var : {"U", "V"}) {
    const auto cells = reader.read_full(var, kOutputs - 1);
    crc = gs::crc32_update(crc, std::as_bytes(std::span(cells)));
  }
  return crc;
}

double peak_rss_self_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

double Producer::mcells() const {
  const auto L = static_cast<double>(settings.L);
  return L * L * L * static_cast<double>(settings.steps) / 1e6;
}

double produce(const Producer& producer, bool traced, std::uint64_t request) {
  const auto t0 = Clock::now();
  if (traced) {
    produce_traced(producer, request);
  } else {
    gs::mpi::run(producer.ranks, [&](gs::mpi::Comm& world) {
      gs::core::Workflow workflow(producer.settings, world);
      workflow.run();
    });
  }
  return since(t0);
}

void add_producer_metrics(std::int64_t L, std::vector<Metric>& out) {
  const double step_p50 = median(trace::durations("core.step"));
  const double end_step = sum(trace::durations("bp.end_step"));
  const double output = sum(trace::durations("core.stage")) +
                        sum(trace::durations("bp.put")) + end_step +
                        sum(trace::durations("bp.close"));
  const double reps = sum(trace::durations("solve.rep"));
  // Computed from array sizes, not counted: a step reads U and V and
  // writes both (32 bytes per cell), and the arrays fit the last-level
  // cache, so this is not a DRAM bandwidth.
  const double cells = static_cast<double>(L * L * L);
  out.push_back({"core.step_p50_ms", step_p50 * 1e3, "ms"});
  out.push_back({"core.stage_p50_ms", span_p50("core.stage", 1e3), "ms"});
  out.push_back({"core.kernel_GBps_computed",
                 step_p50 > 0 ? cells * 32.0 / step_p50 / 1e9 : 0.0,
                 "GB/s"});
  out.push_back({"solve.io_frac", reps > 0 ? output / reps : 0.0, "fraction"});
  out.push_back({"bp.end_step_p50_ms", span_p50("bp.end_step", 1e3), "ms"});
  out.push_back(
      {"bp.write_GBps",
       end_step > 0 ? static_cast<double>(g_node_bytes) / end_step / 1e9 : 0.0,
       "GB/s"});
  out.push_back({"bp.close_ms", span_p50("bp.close", 1e3), "ms"});
}

Result run_solve_write(const Options& options) {
  const TempDir dir;
  const Producer producer = solve_producer(options.seed, dir / "rep.bp");
  const std::string& output = producer.settings.output;
  Result result;

  // Set-up: warm-up repetitions. The first fixes the reference CRC that
  // the solver's bitwise determinism promises every later repetition.
  std::vector<double> setup;
  std::uint32_t reference = 0;
  for (int i = 0; i < options.setups(); ++i) {
    check_interrupted();
    const auto t0 = Clock::now();
    produce(producer, false, 0);
    const std::uint32_t crc = last_step_crc(output);
    std::filesystem::remove_all(output);
    setup.push_back(since(t0));
    if (i == 0) reference = crc;
    if (crc != reference) {
      throw WrongAnswer("set-up repetition " + std::to_string(i) +
                        " differs from set-up repetition 0");
    }
  }
  // What producing (and reading back) a dataset needs. Taken here, because
  // over the measured window the allocator's free lists — not the
  // program — keep raising the peak, by a different amount in every run.
  const double peak_rss_mb = peak_rss_self_mb();

  std::uint64_t rep = 0;
  const auto repetition = [&](bool traced) {
    check_interrupted();
    std::filesystem::remove_all(output);
    const double seconds = produce(producer, traced, ++rep);
    ++result.attempted;
    if (last_step_crc(output) != reference) {
      throw WrongAnswer("repetition " + std::to_string(rep) +
                        " differs from the warm-up repetition");
    }
    return seconds;
  };
  // A phase repeats until its time is up and it ran `min_reps` times;
  // returns its length.
  const auto phase = [&](double seconds, std::size_t min_reps, auto&& body) {
    const auto t0 = Clock::now();
    for (std::size_t n = 0; n < min_reps || since(t0) < seconds; ++n) body();
    return since(t0);
  };
  if (!options.traced()) {
    // One producer in both phases: a Gray-Scott job already occupies every
    // core, so phase A differs from B only in when it runs, and each gets
    // half the window.
    std::vector<double> a, b;
    const double a_elapsed = phase(options.window() / 2, 1,
                                   [&] { a.push_back(repetition(false)); });
    phase(options.phase_b(a_elapsed), 1,
          [&] { b.push_back(repetition(false)); });
    std::vector<double> all = a;
    all.insert(all.end(), b.begin(), b.end());
    std::fprintf(stderr, "solve_write: %zu + %zu repetitions, %d set-ups\n",
                 a.size(), b.size(), options.setups());
    result.metrics = {
        {"qps", static_cast<double>(b.size()) / sum(b), "req/s"},
        {"p50_ms", median(b) * 1e3, "ms"},
        {"p95_ms", percentile(b, 95) * 1e3, "ms"},
        {"idle_p50_ms", median(a) * 1e3, "ms"},
        {"solve_mcups", producer.mcells() / median(all), "Mcell-updates/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    return result;
  }

  // Traced: untraced (Workflow::run) and traced (gsbench-driven)
  // repetitions alternate, so their medians give the tracing overhead.
  std::vector<double> plain, traced;
  phase(options.window(), 1, [&] {
    plain.push_back(repetition(false));
    traced.push_back(repetition(true));
  });
  // The read side of what was just written, in-process.
  gs::svc::Service service(output, served_config(64));
  const auto queries = make_queries(options.seed, producer.settings.L, kOutputs);
  const auto answers = replay(service, queries, ground_truth(service, queries));
  service.shutdown();

  std::vector<Metric>& m = result.metrics;
  add_producer_metrics(producer.settings.L, m);
  add_stamp_metrics(answers, m);
  m.push_back({"svc.call_p50_ms", span_p50("svc.call", 1e3), "ms"});
  m.push_back({"bp.read_p50_ms", span_p50("bp.read", 1e3), "ms"});
  m.push_back({"rpc.codec_p50_us", span_p50("rpc.codec", 1e6), "us"});
  // Nothing crosses a socket or a router in solve_write.
  for (const char* name : {"rpc.transport_p50_ms", "shard.sub_p50_ms",
                           "shard.router_call_p50_ms", "shard.overhead_p50_ms"}) {
    m.push_back({name, 0.0, "ms"});
  }
  m.push_back({"rpc.bytes_out_per_req", 0.0, "bytes"});
  m.push_back({"shard.subcalls_per_req", 0.0, "count"});
  m.push_back({"shard.router_threads", 0.0, "count"});
  m.push_back({"trace.overhead_frac", median(traced) / median(plain) - 1.0,
               "fraction"});
  return result;
}

}  // namespace gsbench
