#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "common/error.h"
#include "simd/simd.h"

namespace gs {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  return mean_ != 0.0 ? stddev() / mean_ : 0.0;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  const double combined = n + m;
  m2_ += other.m2_ + delta * delta * n * m / combined;
  mean_ = (n * mean_ + m * other.mean_) / combined;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

namespace {

/// Adds `v` into limb `i` of `a`, propagating the carry upward.
void add_limb(ExactSum::Limbs& a, std::size_t i, std::uint64_t v) {
  while (v != 0) {
    GS_ASSERT(i < ExactSum::kLimbs, "ExactSum limb overflow");
    const std::uint64_t s = a[i] + v;
    v = s < v ? 1 : 0;  // carry out
    a[i] = s;
    ++i;
  }
}

// A finite double is x = sign * m * 2^e with integer m < 2^53: biased
// exponent 0 is subnormal (m = frac, e = -1074); otherwise the implicit
// leading bit joins the fraction and e = E - 1075. Bit 0 of limb 0 is
// 2^-1074, so m lands at bit offset e + 1074.
constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;

std::uint64_t mantissa(std::uint64_t bits) {
  const std::uint64_t biased = (bits >> 52) & 0x7ff;
  return (bits & kFracMask) | (biased != 0 ? kFracMask + 1 : 0);
}

int bit_offset(unsigned biased) {
  return biased == 0 ? 0 : static_cast<int>(biased) - 1;
}

void require_finite_square(double x) {
  GS_REQUIRE(std::isfinite(x) && std::isfinite(x * x),
             "ExactStats requires finite values with finite squares");
}

/// Carry-free partial sums for ExactStats::add_many, kept per thread.
/// For every sign and biased exponent (the top 12 bits of a double) an
/// entry holds two 128-bit bins: the sum of the mantissas of the x that
/// landed there, and of the x * x. 53-bit mantissas leave room for 2^75
/// adds per bin. Both bins of an exponent share one 32-byte entry, so the
/// two bins one element updates can never be 4 KB apart (a false
/// store-to-load dependence that stalls the loop). Bit g of a `used`
/// mask is set once a bin of entries [64g, 64g + 64) has been added to,
/// so a drain visits only those.
struct BulkBins {
  struct Bin {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };
  struct Entry {
    Bin x;
    Bin xx;
  };
  std::array<Entry, 4096> entries{};
  std::uint64_t used_x = 0;
  std::uint64_t used_xx = 0;

  /// Calls f(negative, offset, lo, hi) for each nonzero `which` bin,
  /// clearing it.
  template <class F>
  void drain(Bin Entry::*which, std::uint64_t& used, F&& f) {
    for (; used != 0; used &= used - 1) {
      const auto first = static_cast<unsigned>(std::countr_zero(used)) * 64;
      for (unsigned i = first; i < first + 64; ++i) {
        Bin& b = entries[i].*which;
        if ((b.lo | b.hi) == 0) continue;
        f((i >> 11) != 0, bit_offset(i & 0x7ff), b.lo, b.hi);
        b = Bin{};
      }
    }
  }
};

/// Bins every x and the rounded x * x of `xs`; false if some x or x * x
/// is not finite (x * x <= DBL_MAX fails exactly for inf and NaN). Each
/// chunk takes two loops: a vectorized one splits x and x * x into bin
/// index and mantissa, then a scalar one adds the mantissas to their
/// bins, so the scatter loop issues nothing but its loads and adds.
bool bin_run(std::span<const double> xs, BulkBins& bins) {
  constexpr std::size_t kChunk = 256;
  std::uint64_t at_x[kChunk], m_x[kChunk], at_xx[kChunk], m_xx[kChunk];
  BulkBins::Entry* const entries = bins.entries.data();
  std::uint64_t used_x = 0;
  std::uint64_t used_xx = 0;
  unsigned bad = 0;
  for (std::size_t c = 0; c < xs.size(); c += kChunk) {
    const std::size_t n = std::min(kChunk, xs.size() - c);
    const double* p = xs.data() + c;
    for (std::size_t i = 0; i < n; ++i) {
      const double q = p[i] * p[i];
      bad |= q <= std::numeric_limits<double>::max() ? 0u : 1u;
      const auto ux = std::bit_cast<std::uint64_t>(p[i]);
      const auto uq = std::bit_cast<std::uint64_t>(q);
      at_x[i] = ux >> 52;
      at_xx[i] = uq >> 52;
      m_x[i] = mantissa(ux);
      m_xx[i] = mantissa(uq);
    }
    for (std::size_t i = 0; i < n; ++i) {
      used_x |= std::uint64_t{1} << (at_x[i] >> 6);
      used_xx |= std::uint64_t{1} << (at_xx[i] >> 6);
      BulkBins::Bin& bx = entries[at_x[i]].x;
      bx.lo += m_x[i];
      bx.hi += bx.lo < m_x[i] ? 1 : 0;
      BulkBins::Bin& bxx = entries[at_xx[i]].xx;
      bxx.lo += m_xx[i];
      bxx.hi += bxx.lo < m_xx[i] ? 1 : 0;
    }
  }
  bins.used_x |= used_x;
  bins.used_xx |= used_xx;
  return bad == 0;
}

/// This thread's add_many scratch (128 KB, allocated on its first bulk
/// add, all zero between calls).
BulkBins& bulk_bins() {
  thread_local std::unique_ptr<BulkBins> bins;
  if (!bins) bins = std::make_unique<BulkBins>();
  return *bins;
}

}  // namespace

void ExactSum::add_at(bool negative, int offset, std::uint64_t v) {
  const auto limb = static_cast<std::size_t>(offset / 64);
  const int shift = offset % 64;
  Limbs& acc = negative ? neg_ : pos_;
  add_limb(acc, limb, v << shift);
  if (shift != 0) add_limb(acc, limb + 1, v >> (64 - shift));
}

void ExactSum::add(double x) {
  GS_REQUIRE(std::isfinite(x), "ExactSum::add requires a finite value");
  if (x == 0.0) return;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  add_at((bits >> 63) != 0, bit_offset((bits >> 52) & 0x7ff), mantissa(bits));
}

void ExactSum::merge(const ExactSum& other) {
  for (std::size_t i = 0; i < kLimbs; ++i) {
    add_limb(pos_, i, other.pos_[i]);
    add_limb(neg_, i, other.neg_[i]);
  }
}

double ExactSum::value() const {
  // Exact signed combination: compare magnitudes, subtract the smaller
  // from the larger, then round the exact difference once.
  int cmp = 0;
  for (std::size_t i = kLimbs; i-- > 0 && cmp == 0;) {
    if (pos_[i] != neg_[i]) cmp = pos_[i] > neg_[i] ? 1 : -1;
  }
  if (cmp == 0) return 0.0;
  const Limbs& big = cmp > 0 ? pos_ : neg_;
  const Limbs& small = cmp > 0 ? neg_ : pos_;

  Limbs mag{};
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const std::uint64_t d1 = big[i] - small[i];
    const std::uint64_t b1 = big[i] < small[i] ? 1u : 0u;
    mag[i] = d1 - borrow;
    borrow = b1 | (d1 < borrow ? 1u : 0u);
  }

  int h = -1;
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (mag[i] != 0) {
      h = static_cast<int>(i);
      break;
    }
  }
  GS_ASSERT(h >= 0, "nonzero comparison but zero magnitude");

  // Take the top 64-bit window plus a sticky bit for everything below it;
  // the u64 -> double conversion then performs the single
  // round-to-nearest, with the sticky bit breaking would-be ties.
  const int top_bit = 63 - std::countl_zero(mag[static_cast<std::size_t>(h)]);
  const long p = 64L * h + top_bit;  // absolute index of the top set bit
  const int used = top_bit + 1;      // window bits taken from limb h
  std::uint64_t window;
  bool sticky = false;
  if (used == 64) {
    window = mag[static_cast<std::size_t>(h)];
  } else {
    window = mag[static_cast<std::size_t>(h)] << (64 - used);
    if (h > 0) {
      window |= mag[static_cast<std::size_t>(h - 1)] >> used;
      sticky = (mag[static_cast<std::size_t>(h - 1)] << (64 - used)) != 0;
    }
  }
  for (int i = h - (used == 64 ? 1 : 2); i >= 0 && !sticky; --i) {
    sticky = mag[static_cast<std::size_t>(i)] != 0;
  }
  if (sticky) window |= 1;

  const double r = std::scalbn(static_cast<double>(window),
                               static_cast<int>(p - 63 - 1074));
  return cmp > 0 ? r : -r;
}

ExactSum ExactSum::from_limbs(const Limbs& pos, const Limbs& neg) {
  ExactSum s;
  s.pos_ = pos;
  s.neg_ = neg;
  return s;
}

void ExactStats::add(double x) {
  require_finite_square(x);
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_.add(x);
  sumsq_.add(x * x);
}

void ExactStats::add_many(std::span<const double> xs) {
  if (xs.empty()) return;
  BulkBins& bins = bulk_bins();
  if (!bin_run(xs, bins)) {
    const auto discard = [](bool, int, std::uint64_t, std::uint64_t) {};
    bins.drain(&BulkBins::Entry::x, bins.used_x, discard);
    bins.drain(&BulkBins::Entry::xx, bins.used_xx, discard);
    for (const double x : xs) require_finite_square(x);  // throws
  }
  const auto fold_into = [](ExactSum& sum) {
    return [&sum](bool negative, int offset, std::uint64_t lo,
                  std::uint64_t hi) {
      sum.add_at(negative, offset, lo);
      sum.add_at(negative, offset + 64, hi);
    };
  };
  bins.drain(&BulkBins::Entry::x, bins.used_x, fold_into(sum_));
  bins.drain(&BulkBins::Entry::xx, bins.used_xx, fold_into(sumsq_));

  // Equal doubles have equal bits except +0 and -0, and add()'s
  // std::min/std::max keep the first of equal values: a zero extremum is
  // the first zero in order.
  simd::MinMax mm = simd::minmax_run<simd::kNativeWidth>(
      xs.data(), static_cast<std::int64_t>(xs.size()));
  if (mm.lo == 0.0) mm.lo = *std::find(xs.begin(), xs.end(), 0.0);
  if (mm.hi == 0.0) mm.hi = *std::find(xs.begin(), xs.end(), 0.0);
  if (n_ == 0) {
    min_ = mm.lo;
    max_ = mm.hi;
  } else {
    min_ = std::min(min_, mm.lo);
    max_ = std::max(max_, mm.hi);
  }
  n_ += xs.size();
}

void ExactStats::merge(const ExactStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  n_ += other.n_;
  sum_.merge(other.sum_);
  sumsq_.merge(other.sumsq_);
}

double ExactStats::mean() const {
  return n_ ? sum_.value() / static_cast<double>(n_) : 0.0;
}

double ExactStats::variance() const {
  if (n_ < 2) return 0.0;
  // sum((x - mu)^2) = sumsq - sum * mu exactly in real arithmetic; the
  // operands here are the deterministic roundings of the exact sums, so
  // the result is a pure function of (n, exact sums) — the same for any
  // partitioning.
  const double s = sum_.value();
  const double q = sumsq_.value();
  const double mu = s / static_cast<double>(n_);
  return std::max(0.0, (q - s * mu) / static_cast<double>(n_ - 1));
}

double ExactStats::stddev() const { return std::sqrt(variance()); }

ExactStats ExactStats::from_parts(std::uint64_t n, double min, double max,
                                  ExactSum sum, ExactSum sumsq) {
  ExactStats s;
  s.n_ = n;
  s.min_ = min;
  s.max_ = max;
  s.sum_ = sum;
  s.sumsq_ = sumsq;
  return s;
}

DecayedRate::DecayedRate(double halflife_seconds)
    : halflife_(halflife_seconds) {
  GS_REQUIRE(halflife_seconds > 0.0,
             "decayed rate needs a positive half-life, got "
                 << halflife_seconds);
}

double DecayedRate::decayed_to(double now_seconds) const {
  if (!started_) return 0.0;
  const double dt = now_seconds - last_;
  if (dt <= 0.0) return count_;  // clock went backwards: never amplify
  return count_ * std::exp2(-dt / halflife_);
}

void DecayedRate::add(double now_seconds, double count) {
  count_ = decayed_to(now_seconds) + count;
  last_ = started_ ? std::max(last_, now_seconds) : now_seconds;
  started_ = true;
}

double DecayedRate::rate(double now_seconds) const {
  return decayed_to(now_seconds) * M_LN2 / halflife_;
}

double DecayedRate::count(double now_seconds) const {
  return decayed_to(now_seconds);
}

void DecayedRate::observe(double now_seconds, double value) {
  if (!started_) {
    count_ = value;  // first observation seeds the level directly
  } else {
    const double dt = std::max(0.0, now_seconds - last_);
    const double w = std::exp2(-dt / halflife_);
    count_ = count_ * w + value * (1.0 - w);
  }
  last_ = started_ ? std::max(last_, now_seconds) : now_seconds;
  started_ = true;
}

void DecayedRate::reset() {
  count_ = 0.0;
  last_ = 0.0;
  started_ = false;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (const double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (const double v : values_) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(values_.size() - 1));
}

double Samples::min() const {
  GS_REQUIRE(!values_.empty(), "min() of empty sample set");
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  GS_REQUIRE(!values_.empty(), "max() of empty sample set");
  return *std::max_element(values_.begin(), values_.end());
}

namespace {

/// The percentile rule Samples and LatencyHistogram share: linear
/// interpolation between the order statistics around rank p/100*(n-1),
/// where `at(i)` is the i-th smallest of the n values; 0 when n is 0.
template <class At>
double interpolate_percentile(double p, std::uint64_t n, At at) {
  GS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile " << p << " out of [0,100]");
  if (n <= 1) return n ? at(0) : 0.0;
  const double pos = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return at(lo) * (1.0 - frac) + at(hi) * frac;
}

}  // namespace

double Samples::percentile(double p) const {
  GS_REQUIRE(!values_.empty(), "percentile() of empty sample set");
  std::vector<double> s = values_;
  std::sort(s.begin(), s.end());
  return interpolate_percentile(p, s.size(),
                                [&s](std::uint64_t i) { return s[i]; });
}

double Samples::spread_percent() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return (max() - min()) / m * 100.0;
}

std::size_t LatencyHistogram::bucket_of(double seconds) {
  static_assert(std::has_single_bit(unsigned{kSubBuckets}));
  constexpr int kShift = 52 - std::countr_zero(unsigned{kSubBuckets});
  constexpr std::uint64_t kLoBits = std::uint64_t{1023 + kMinExp} << 52;
  constexpr std::uint64_t kHiBits = std::uint64_t{1023 + kMaxExp} << 52;
  if (!(seconds > 0.0)) return 0;  // 0, negatives, NaN
  // Positive doubles order like their bit patterns: the biased exponent
  // picks the octave, the top mantissa bits the bucket within it.
  const auto bits = std::bit_cast<std::uint64_t>(seconds);
  if (bits < kLoBits) return 0;
  if (bits >= kHiBits) return kBuckets - 1;
  return 1 + static_cast<std::size_t>((bits - kLoBits) >> kShift);
}

void LatencyHistogram::add(double seconds) {
  ++counts_[bucket_of(seconds)];
  min_ = n_ ? std::min(min_, seconds) : seconds;
  max_ = n_ ? std::max(max_, seconds) : seconds;
  ++n_;
  sum_ += seconds;
}

double LatencyHistogram::percentile(double p) const {
  // The value at a rank: exact at the two end ranks, else its bucket's
  // midpoint clamped to [min, max].
  const auto at = [this](std::uint64_t rank) {
    if (rank == 0) return min_;
    if (rank + 1 >= n_) return max_;
    std::size_t b = 0;
    for (std::uint64_t seen = counts_[0]; seen <= rank; seen += counts_[b]) {
      ++b;
    }
    if (b == 0 || b == kBuckets - 1) return b == 0 ? min_ : max_;
    const std::size_t i = b - 1;
    const double mid = std::ldexp(
        1.0 + (static_cast<double>(i % kSubBuckets) + 0.5) / kSubBuckets,
        kMinExp + static_cast<int>(i / kSubBuckets));
    return std::clamp(mid, min_, max_);
  };
  return interpolate_percentile(p, n_, at);
}

LatencySummary LatencyHistogram::summary() const {
  return LatencySummary{n_, mean(), percentile(50.0), percentile(95.0),
                        percentile(99.0)};
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  GS_REQUIRE(bins > 0, "histogram needs at least one bin");
  GS_REQUIRE(hi > lo, "histogram range [" << lo << "," << hi << ") empty");
}

void Histogram::add(double x, std::size_t copies) {
  const double scaled =
      (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
  auto bin = static_cast<long>(std::floor(scaled));
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(bin)] += copies;
  total_ += copies;
}

void Histogram::add_all(const std::vector<double>& xs) {
  for (const double x : xs) add(x);
}

void Histogram::add_many(const double* xs, std::size_t n) {
  constexpr int W = simd::kNativeWidth;
  const double lo = lo_;
  const double range = hi_ - lo_;
  const auto bins = static_cast<double>(counts_.size());
  const long last = static_cast<long>(counts_.size()) - 1;
  std::size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= n; i += W) {
      // Same expression tree as add(): (x - lo) / range * bins, floored
      // and clamped per lane.
      const auto scaled =
          (simd::pack<W>::load(xs + i) - lo) / range * bins;
      for (int l = 0; l < W; ++l) {
        auto bin = static_cast<long>(std::floor(scaled.lane(l)));
        bin = std::clamp<long>(bin, 0, last);
        ++counts_[static_cast<std::size_t>(bin)];
      }
      total_ += static_cast<std::size_t>(W);
    }
  }
  for (; i < n; ++i) add(xs[i]);
}

void Histogram::merge(const Histogram& other) {
  GS_REQUIRE(other.lo_ == lo_ && other.hi_ == hi_ &&
                 other.counts_.size() == counts_.size(),
             "merging histograms with different binning");
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

double Histogram::bin_center(std::size_t bin) const {
  return 0.5 * (bin_lo(bin) + bin_hi(bin));
}

std::string Histogram::ascii(int width) const {
  std::size_t peak = 1;
  for (const std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream oss;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = static_cast<int>(
        static_cast<double>(counts_[b]) / static_cast<double>(peak) * width);
    char line[64];
    std::snprintf(line, sizeof(line), "[%10.2f, %10.2f) %8zu |",
                  bin_lo(b), bin_hi(b), counts_[b]);
    oss << line << std::string(static_cast<std::size_t>(bar), '#') << "\n";
  }
  return oss.str();
}

}  // namespace gs
