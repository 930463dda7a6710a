// gsbench — one end-to-end benchmark of the workflow the paper describes:
// the Gray-Scott solver writes BP output (solve_write), and analysts query
// it through the real gsserved and gsrouter daemons over TCP loopback
// (query_hot, query_cold, query_routed). Every answer is checked against
// in-process ground truth; load comes from this one process.
//
//   gsbench --workload <name> --seed <n> [--seconds <s>] [--quick]
//           [--trace <file.json>] [--record <set.jsonl>]
//   gsbench --compare <setA.jsonl> <setB.jsonl>
//
// The last line of stdout is one JSON object {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}} holding the end-to-end
// metrics, or with --trace the per-layer ones; the metric list and units
// are BENCHMARK.json's. --record appends the run, labelled with its
// workload, seed and mode, to a set that --compare reads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "common/stats.h"
#include "config/json.h"
#include "gsbench.h"
#include "procs.h"
#include "trace.h"

namespace gsbench {

double percentile(const std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  gs::Samples samples;
  for (const double v : values) samples.add(v);
  return samples.percentile(p);
}

namespace {

const std::set<std::string> kWorkloads = {"solve_write", "query_hot",
                                          "query_cold", "query_routed"};

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: gsbench --workload <name> --seed <n> [options]\n"
      "       gsbench --compare <setA.jsonl> <setB.jsonl>\n"
      "workloads: solve_write query_hot query_cold query_routed\n"
      "options:\n"
      "  --seconds <s>        measured window (default 15)\n"
      "  --quick              smoke scale: a 1 s window, one set-up, two\n"
      "                       solve repetitions; never comparable\n"
      "  --trace <file.json>  traced run: per-layer metrics, Chrome trace\n"
      "  --record <set.jsonl> append this run to a set for --compare\n");
  return to == stdout ? 0 : 2;
}

/// The result must carry exactly the metrics BENCHMARK.json declares for
/// the mode, with the declared units and finite values.
void check_declared(const Result& result, bool traced) {
  const auto declared = declared_metrics(traced ? "per_layer" : "end_to_end");
  std::set<std::string> names;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      throw std::logic_error("metric " + m.name + " is not finite");
    }
    names.insert(m.name);
    const auto it = std::find_if(declared.begin(), declared.end(),
                                 [&](const Declared& d) { return d.name == m.name; });
    if (it == declared.end() || it->unit != m.unit) {
      throw std::logic_error("metric " + m.name + " [" + m.unit +
                             "] is not declared in BENCHMARK.json");
    }
  }
  if (names.size() != declared.size() ||
      names.size() != result.metrics.size()) {
    throw std::logic_error("result does not carry each declared metric once");
  }
}

gs::json::Value result_json(const Result& result) {
  gs::json::Object metrics;
  for (const Metric& m : result.metrics) {
    gs::json::Object entry;
    entry["value"] = gs::json::Value(m.value);
    entry["unit"] = gs::json::Value(m.unit);
    metrics[m.name] = gs::json::Value(std::move(entry));
  }
  gs::json::Object out;
  out["correct"] = gs::json::Value(result.correct);
  out["attempted"] = gs::json::Value(result.attempted);
  out["failed"] = gs::json::Value(result.failed);
  out["metrics"] = gs::json::Value(std::move(metrics));
  return gs::json::Value(std::move(out));
}

}  // namespace

}  // namespace gsbench

int main(int argc, char** argv) {
  using namespace gsbench;
  Options options;
  std::string record;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gsbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(next().c_str());
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--trace") {
      options.trace_path = next();
    } else if (arg == "--record") {
      record = next();
    } else if (arg == "--compare") {
      const std::string a = next();
      const std::string b = next();
      try {
        return compare(a, b);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "gsbench: --compare: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      return usage(stdout);
    } else {
      std::fprintf(stderr, "gsbench: unknown option %s\n", arg.c_str());
      return usage(stderr);
    }
  }
  if (kWorkloads.count(options.workload) == 0 || !have_seed ||
      !(options.seconds > 0)) {
    return usage(stderr);
  }

  install_signal_handlers();
  if (options.traced()) trace::enable();
  const std::string run = options.workload + " (seed " +
                          std::to_string(options.seed) + ")";
  try {
    const Result result = options.workload == "solve_write"
                              ? run_solve_write(options)
                              : run_query(options);
    check_declared(result, options.traced());
    if (options.traced()) trace::write_chrome_json(options.trace_path);
    const gs::json::Value line = result_json(result);
    if (!record.empty()) {
      gs::json::Object entry;
      entry["workload"] = gs::json::Value(options.workload);
      entry["seed"] = gs::json::Value(options.seed);
      entry["seconds"] = gs::json::Value(options.seconds);
      entry["quick"] = gs::json::Value(options.quick);
      entry["traced"] = gs::json::Value(options.traced());
      entry["result"] = line;
      std::ofstream(record, std::ios::app)
          << gs::json::Value(std::move(entry)).dump() << "\n";
    }
    for (const Metric& m : result.metrics) {
      std::fprintf(stderr, "  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::printf("%s\n", line.dump().c_str());
    return 0;
  } catch (const Interrupted&) {
    std::fprintf(stderr, "gsbench: %s interrupted\n", run.c_str());
    return 130;
  } catch (const WrongAnswer& e) {
    std::fprintf(stderr, "gsbench: WRONG ANSWER in %s: %s\n", run.c_str(),
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsbench: %s failed: %s\n", run.c_str(), e.what());
    return 1;
  }
}
