// Descriptive statistics used by the benchmark harnesses and the
// weak-scaling performance simulator: streaming moments, percentiles over
// stored samples, and fixed-bin histograms (Figure 7 is a histogram of
// per-GPU bandwidths) — plus the exact accumulators (ExactSum/ExactStats)
// that make field statistics partition-independent, the invariant the
// gs::shard scatter-gather tier's "byte-identical sharded answers" gate
// rests on, and the fixed-size latency histogram every daemon keeps.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gs {

/// Streaming mean/variance/min/max (Welford). O(1) memory.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  /// Coefficient of variation (stddev/mean), 0 if mean is 0.
  double cv() const;

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact sum of doubles as a fixed-point superaccumulator: two unsigned
/// magnitude accumulators (positive and negative addends) of 64-bit limbs
/// spanning the full double exponent range, so add() and merge() are
/// EXACT integer arithmetic — associative and commutative, unlike
/// floating-point addition. Any partitioning of the same multiset of
/// addends (thread tiles, BP blocks, shards) merges to the same limbs,
/// and value() converts those limbs to double with one deterministic
/// rounding. This is what lets a sharded field-stats query answer
/// byte-identically to a single-daemon scan.
///
/// Capacity: bit 0 of limb 0 is 2^-1074 (the smallest subnormal); the
/// top limbs leave > 2^64 addends of headroom above the largest finite
/// double, so no realistic accumulation overflows. Inputs must be finite
/// (checked by callers such as ExactStats).
///
/// Both ways in (add() per element, and ExactStats::add_many's binned
/// fold) go through one rule, add_at(): an unsigned integer at a bit
/// offset, added with carry. The limbs hold the exact integer sum of
/// every addend's mantissa at its offset, so they are the same bits
/// whichever way — or in whatever grouping — the addends arrived.
class ExactSum {
 public:
  /// 34 * 64 bits = 2176 >= 2098 value bits (2^-1074 .. 2^1023 mantissa
  /// tops) + 78 bits of carry headroom.
  static constexpr std::size_t kLimbs = 34;
  using Limbs = std::array<std::uint64_t, kLimbs>;

  /// Adds a finite double exactly. x == 0 is a no-op; non-finite x is a
  /// precondition violation (GS_REQUIRE).
  void add(double x);

  /// Exact merge: limbwise integer addition with carry. Associative and
  /// commutative, so any merge tree over the same addends is identical.
  void merge(const ExactSum& other);

  /// Deterministic conversion of the exact value (pos - neg) to the
  /// nearest double: pure function of the limbs, independent of how the
  /// addends were grouped or ordered.
  double value() const;

  bool operator==(const ExactSum& other) const = default;

  // Raw limb access for wire serialization (gs::rpc partial responses).
  const Limbs& pos_limbs() const { return pos_; }
  const Limbs& neg_limbs() const { return neg_; }
  static ExactSum from_limbs(const Limbs& pos, const Limbs& neg);

 private:
  friend class ExactStats;  // add_many folds its exponent bins via add_at

  /// The one accumulation rule: adds v * 2^(offset - 1074) to the
  /// negative or positive magnitude, carrying upward.
  void add_at(bool negative, int offset, std::uint64_t v);

  Limbs pos_{};
  Limbs neg_{};
};

/// Streaming count/min/max/mean/stddev on top of ExactSum: the exact,
/// partition-independent counterpart of RunningStats. merge() of any
/// partitioning of a dataset yields bitwise-identical derived moments,
/// which analysis::compute_stats (and through it every stats answer the
/// serving tier produces) relies on. Values must be finite and small
/// enough that x*x is finite (|x| < ~1.34e154).
class ExactStats {
 public:
  void add(double x);
  /// Bulk add, bit for bit the same state as add() on each element in
  /// order: the same limbs, count, and min/max (down to which signed zero
  /// a ±0 extremum keeps). Mantissas of x and of the rounded x*x are
  /// summed without carries into 128-bit bins indexed by sign and biased
  /// exponent (thread-local scratch), which fold into the limbs once at
  /// the end; min/max is one vectorized pass. A non-finite x or x*x
  /// throws the same gs::Error as add(), leaving *this unchanged.
  void add_many(std::span<const double> xs);
  void merge(const ExactStats& other);

  std::uint64_t count() const { return n_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_.value(); }
  double mean() const;
  /// Sample variance (n-1 denominator, clamped at 0); 0 for n < 2.
  double variance() const;
  double stddev() const;

  bool operator==(const ExactStats& other) const = default;

  // Wire access (gs::rpc carries exact partials between shards).
  const ExactSum& exact_sum() const { return sum_; }
  const ExactSum& exact_sumsq() const { return sumsq_; }
  static ExactStats from_parts(std::uint64_t n, double min, double max,
                               ExactSum sum, ExactSum sumsq);

 private:
  std::uint64_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  ExactSum sum_;
  ExactSum sumsq_;
};

/// Exponentially-decayed event rate (events per second): each add()
/// first decays the accumulated count by 2^(-dt / halflife), then adds
/// the new events, so recent traffic dominates and an idle endpoint's
/// rate falls toward zero instead of averaging over its whole lifetime.
/// At a steady arrival rate r the count equilibrates at r*halflife/ln2,
/// so rate() = count * ln2/halflife recovers r; after a burst stops, the
/// reported rate halves every halflife. This is the serving tier's load
/// signal (rpc::ServerStats::rate_rps) and the controller's decayed
/// per-shard estimate — both sides deliberately share one definition.
/// Time is caller-supplied seconds on any one monotonic clock; not
/// thread-safe (callers hold their stats lock).
class DecayedRate {
 public:
  explicit DecayedRate(double halflife_seconds = 10.0);

  /// Records `count` events at `now_seconds`. Time running backwards is
  /// clamped (decay never amplifies).
  void add(double now_seconds, double count = 1.0);

  /// The decayed events/sec estimate at `now_seconds` (decays the count
  /// to now first, without mutating state).
  double rate(double now_seconds) const;

  /// The decayed event count itself (the controller's queue-depth-style
  /// signals are decayed LEVELS, not rates — see observe()).
  double count(double now_seconds) const;

  /// Decayed-level tracking for gauge signals (queue depth, in-flight):
  /// moves the level toward `value` with the same half-life weighting,
  /// i.e. an EWMA whose weight on history is 2^(-dt/halflife).
  void observe(double now_seconds, double value);
  double level() const { return count_; }

  void reset();

 private:
  double decayed_to(double now_seconds) const;

  double halflife_;
  double count_ = 0.0;
  double last_ = 0.0;
  bool started_ = false;
};

/// Sample container with percentile queries (keeps all values; each
/// percentile() sorts a copy, so it suits benches and simulators, not a
/// long-running daemon — those keep a LatencyHistogram).
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// (max - min) / mean as a percentage; the paper's "variability" metric
  /// for per-process wall-clock times (Figure 6 discussion).
  double spread_percent() const;

 private:
  std::vector<double> values_;
};

/// A latency distribution as the daemons report it: lifetime count, mean
/// and p50/p95/p99, in seconds. All zero when nothing was recorded.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Fixed-size log-bucketed latency histogram (seconds), the serving
/// tier's one latency container: kSubBuckets equal buckets per power of
/// two in [2^kMinExp, 2^kMaxExp) (about 60 ns to 4096 s), plus an end
/// bucket below (0, subnormals, negatives) and one above. Memory never
/// grows and a percentile is one O(buckets) scan. Count, min, max and
/// the in-order sum (so mean() is bit-equal to Samples::mean) are exact;
/// percentile() interpolates Samples::percentile's order statistics,
/// each stood in by its bucket's midpoint clamped to [min, max]: within
/// 1/(2 * kSubBuckets) relative inside the bucketed range. Not
/// thread-safe (callers hold their stats lock).
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 64;
  static constexpr int kMinExp = -24;
  static constexpr int kMaxExp = 12;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void add(double seconds);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  /// p in [0, 100]; 0 when empty.
  double percentile(double p) const;
  LatencySummary summary() const;

  /// The bucket `seconds` counts in (0 and kBuckets - 1 are the ends).
  static std::size_t bucket_of(double seconds);
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return counts_;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range values clamp into
/// the first/last bin so no sample is dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Counts `copies` samples of value x.
  void add(double x, std::size_t copies = 1);
  void add_all(const std::vector<double>& xs);
  /// Bulk add with a vectorized bin computation (gs::simd packs): the
  /// scale arithmetic runs W lanes at a time with the elementwise IEEE
  /// operations of add(), so every sample lands in the exact bin add()
  /// would pick — counts are bitwise-identical, only faster. The count
  /// increments themselves stay scalar (scattered).
  void add_many(const double* xs, std::size_t n);
  /// Merges another histogram with the SAME [lo, hi) range and bin count
  /// (parallel reduction over disjoint sample tiles).
  void merge(const Histogram& other);

  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  double bin_center(std::size_t bin) const;

  /// Multi-line ASCII rendering (one row per bin, '#' bars), used by the
  /// Figure 7 bench to print the two bandwidth distributions.
  std::string ascii(int width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace gs
