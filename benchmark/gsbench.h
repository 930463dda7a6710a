// Shared declarations of gsbench: run options, the result every workload
// returns, and the entry points of the workloads (solve.cpp, queries.cpp)
// and of --compare (compare.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace gsbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured window: phase A (one client) takes at least a fifth and
  /// ends at a whole pass over the query space; phase B (four clients)
  /// takes the rest, at least half. solve_write splits it evenly.
  double seconds = 15.0;
  /// Smoke-test scale: a 1 s window, one set-up, two solve repetitions.
  /// --compare refuses results made with it.
  bool quick = false;
  /// Chrome-trace output; non-empty selects the traced run, which
  /// reports the per-layer metrics instead of the end-to-end ones.
  std::string trace_path;

  bool traced() const { return !trace_path.empty(); }
  double window() const { return quick ? 1.0 : seconds; }
  double phase_a() const { return window() / 5.0; }
  double phase_b(double a_elapsed) const {
    return std::max(window() - a_elapsed, window() / 2.0);
  }
  /// Set-ups per run; setup_s is their median.
  int setups() const { return quick || traced() ? 1 : 3; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A run that returns has checked every answer; a wrong one throws
/// WrongAnswer instead, so `correct` is true whenever a result prints.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// An answer that differs from the in-process ground truth, or a dataset
/// that differs from the reference repetition. Ends the run with exit 1
/// and no result line.
class WrongAnswer : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

Result run_solve_write(const Options& options);
/// query_hot, query_cold and query_routed.
Result run_query(const Options& options);

/// A metric as BENCHMARK.json declares it.
struct Declared {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
  double bound = 0.0;  ///< end_to_end only: tolerated share of the median
};

/// The "end_to_end" or "per_layer" list of BENCHMARK.json.
std::vector<Declared> declared_metrics(const std::string& section);

/// gsbench --compare: prints each workload x end-to-end metric of two
/// record sets and whether they agree within BENCHMARK.json's bounds.
/// Returns 0 when every pair agrees.
int compare(const std::string& set_a, const std::string& set_b);

// ---- time and statistics -------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Seconds since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double percentile(const std::vector<double>& values, double p);
inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

}  // namespace gsbench
