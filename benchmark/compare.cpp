// gsbench --compare: the agreement check between two sets of runs. Each
// metric's bound and direction come from BENCHMARK.json, so bounds are
// defined in one place. Spreads are computed as Python's
// statistics.quantiles(values, n=4) and statistics.median compute them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>

#include "config/json.h"
#include "gsbench.h"

namespace gsbench {

namespace {

/// workload -> metric -> one value per run.
using Set = std::map<std::string, std::map<std::string, std::vector<double>>>;

Set load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Set set;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const gs::json::Value record = gs::json::parse(line);
    if (record.at("quick").as_bool()) {
      throw std::runtime_error(path + " holds --quick runs; they are smoke "
                               "tests, never measurements");
    }
    if (record.at("traced").as_bool()) {
      throw std::runtime_error(path + " holds --trace runs; compare "
                               "untraced runs");
    }
    auto& metrics = set[record.at("workload").as_string()];
    for (const auto& [name, metric] :
         record.at("result").at("metrics").as_object()) {
      metrics[name].push_back(metric.at("value").as_double());
    }
  }
  return set;
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Needs at least two values.
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  const auto cut = [&](long i) {  // statistics.quantiles, method="exclusive"
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4.0;
  };
  const double mid = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  return {cut(1), mid, cut(3)};
}

}  // namespace

std::vector<Declared> declared_metrics(const std::string& section) {
  const gs::json::Value bench = gs::json::parse_file(GSBENCH_BENCHMARK_JSON);
  std::vector<Declared> out;
  for (const auto& m : bench.at(section).as_array()) {
    out.push_back({m.at("name").as_string(), m.at("unit").as_string(),
                   m.at("better").as_string(), m.get_or("bound", 0.0)});
  }
  return out;
}

int compare(const std::string& set_a, const std::string& set_b) {
  const std::vector<Declared> declared = declared_metrics("end_to_end");
  const Set a = load(set_a);
  const Set b = load(set_b);
  std::set<std::string> workloads;
  for (const auto& [w, _] : a) workloads.insert(w);
  for (const auto& [w, _] : b) workloads.insert(w);

  std::printf("%-13s %-12s %28s %28s %8s %7s %6s  %s\n", "workload", "metric",
              "A median [q1, q3] n", "B median [q1, q3] n", "B worse",
              "spread", "bound", "verdict");
  bool agree = true;
  for (const std::string& w : workloads) {
    for (const Declared& d : declared) {
      const auto values = [&](const Set& s) {
        const auto it = s.find(w);
        if (it == s.end() || it->second.count(d.name) == 0) {
          return std::vector<double>{};
        }
        return it->second.at(d.name);
      };
      const std::vector<double> va = values(a);
      const std::vector<double> vb = values(b);
      if (va.size() < 2 || vb.size() < 2) {
        std::printf("%-13s %-12s %28zu %28zu %8s %7s %5.1f%%  UNRESOLVED "
                    "(fewer than 2 runs)\n",
                    w.c_str(), d.name.c_str(), va.size(), vb.size(), "-", "-",
                    d.bound * 100);
        agree = false;
        continue;
      }
      const Quartiles qa = quartiles(va);
      const Quartiles qb = quartiles(vb);
      const double spread = std::max((qa.q3 - qa.q1) / qa.median,
                                     (qb.q3 - qb.q1) / qb.median);
      // How much worse B's median is than A's, in the metric's direction
      // (negative: better).
      const double worse = (qb.median - qa.median) / qa.median *
                           (d.better == "lower" ? 1.0 : -1.0);
      const char* verdict = spread > d.bound               ? "UNRESOLVED"
                            : std::abs(worse) <= d.bound ? "AGREE"
                                                           : "OUTSIDE";
      if (std::string(verdict) != "AGREE") agree = false;
      char ca[64], cb[64];
      std::snprintf(ca, sizeof ca, "%.4g [%.4g, %.4g] %zu", qa.median, qa.q1,
                    qa.q3, va.size());
      std::snprintf(cb, sizeof cb, "%.4g [%.4g, %.4g] %zu", qb.median, qb.q1,
                    qb.q3, vb.size());
      std::printf("%-13s %-12s %28s %28s %+7.1f%% %6.1f%% %5.1f%%  %s\n",
                  w.c_str(), d.name.c_str(), ca, cb, worse * 100,
                  spread * 100, d.bound * 100, verdict);
    }
  }
  return agree ? 0 : 1;
}

}  // namespace gsbench
