// Tests for src/common: RNG determinism and quality basics, statistics,
// histograms, formatting, clocks, error machinery.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <type_traits>
#include <vector>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/format.h"
#include "common/rng.h"
#include "common/stats.h"

namespace {

using gs::Histogram;
using gs::LatencyHistogram;
using gs::Rng;
using gs::RunningStats;
using gs::Samples;

// ----------------------------------------------------------------- rng

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.uniform01());
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  // Variance of U(0,1) is 1/12.
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-1.0, 1.0);
    ASSERT_GE(u, -1.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBelowIsUnbiasedAcrossSmallRange) {
  Rng r(17);
  std::array<int, 5> counts{};
  const int n = 500000;
  for (int i = 0; i < n; ++i) {
    ++counts[r.uniform_below(5)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Rng, UniformBelowZeroAndOne) {
  Rng r(19);
  EXPECT_EQ(r.uniform_below(0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_below(1), 0u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(23);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.03);
  EXPECT_NEAR(s.stddev(), 2.0, 0.03);
}

TEST(Rng, LognormalIsPositive) {
  Rng r(29);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GT(r.lognormal(0.0, 0.5), 0.0);
  }
}

TEST(Rng, SplitProducesDecorrelatedStreams) {
  Rng parent(31);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (child1.next_u64() == child2.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(37), b(37);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ca.next_u64(), cb.next_u64());
  }
  // And the parents stayed synchronized too.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, JumpChangesStream) {
  Rng a(41), b(41);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// --------------------------------------------------------------- stats

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng r(43);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.normal(1.0, 3.0);
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Samples, PercentileInterpolation) {
  Samples s;
  for (const double v : {10.0, 20.0, 30.0, 40.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(Samples, SingleValue) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.spread_percent(), 0.0);
}

TEST(Samples, SpreadPercent) {
  Samples s;
  s.add(90.0);
  s.add(100.0);
  s.add(110.0);
  EXPECT_NEAR(s.spread_percent(), 20.0, 1e-12);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW(s.min(), gs::Error);
  EXPECT_THROW(s.percentile(50), gs::Error);
}

TEST(Samples, PercentileOutOfRangeThrows) {
  Samples s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), gs::Error);
  EXPECT_THROW(s.percentile(101), gs::Error);
}

TEST(Samples, QueriesSeeValuesAddedAfterAnEarlierQuery) {
  Samples s;
  for (int i = 1; i <= 10; ++i) s.add(1e-3 * i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.5e-3);
  EXPECT_DOUBLE_EQ(s.max(), 10e-3);
  for (int i = 0; i < 1000; ++i) s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1e-3);
}

// ------------------------------------------------------ LatencyHistogram

/// Feeds `trace` to a LatencyHistogram and to Samples: count, mean, min
/// and max must match exactly, every percentile within 1% relative.
void expect_within_one_percent(const std::vector<double>& trace,
                               const char* name) {
  Samples exact;
  LatencyHistogram h;
  for (const double v : trace) {
    exact.add(v);
    h.add(v);
  }
  ASSERT_EQ(h.count(), exact.count()) << name;
  EXPECT_EQ(h.mean(), exact.mean()) << name << ": mean must be bit-equal";
  EXPECT_EQ(h.min(), exact.min()) << name;
  EXPECT_EQ(h.max(), exact.max()) << name;
  for (const double p : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                         99.9, 100.0}) {
    const double want = exact.percentile(p);
    EXPECT_LE(std::abs(h.percentile(p) - want), 0.01 * want)
        << name << " p" << p << ": " << h.percentile(p) << " vs " << want;
  }
  const gs::LatencySummary sum = h.summary();
  EXPECT_EQ(sum.count, h.count());
  EXPECT_EQ(sum.mean, h.mean());
  EXPECT_EQ(sum.p50, h.percentile(50));
  EXPECT_EQ(sum.p95, h.percentile(95));
  EXPECT_EQ(sum.p99, h.percentile(99));
}

/// A seeded trace of `n` draws from `draw`, clamped to [1 us, 100 s] and
/// holding both ends of that range.
template <class Draw>
std::vector<double> trace_of(std::size_t n, Draw draw) {
  std::vector<double> trace{1e-6, 100.0};
  for (std::size_t i = 0; i < n; ++i) {
    trace.push_back(std::clamp(draw(), 1e-6, 100.0));
  }
  return trace;
}

TEST(LatencyHistogram, QuantilesWithinOnePercentOnSeededTraces) {
  Rng rng(28);
  expect_within_one_percent(
      trace_of(200000, [&] { return rng.lognormal(std::log(1e-3), 2.0); }),
      "lognormal");
  expect_within_one_percent(trace_of(200000,
                                     [&] {
                                       return rng.uniform01() < 0.9
                                                  ? rng.lognormal(
                                                        std::log(2e-4), 0.3)
                                                  : rng.lognormal(
                                                        std::log(2.0), 0.5);
                                     }),
                            "bimodal hot/cold");
  expect_within_one_percent(std::vector<double>(100000, 4.2e-3), "constant");
}

TEST(LatencyHistogram, ConstantTraceIsExact) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.add(4.2e-3);
  EXPECT_EQ(h.percentile(50), 4.2e-3);
  EXPECT_EQ(h.percentile(99), 4.2e-3);
}

TEST(LatencyHistogram, EmptyAndSingleSample) {
  const LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.min(), 0.0);
  EXPECT_EQ(empty.max(), 0.0);
  EXPECT_EQ(empty.percentile(50), 0.0);
  const gs::LatencySummary none = empty.summary();
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.mean, 0.0);
  EXPECT_EQ(none.p50, 0.0);
  EXPECT_EQ(none.p95, 0.0);
  EXPECT_EQ(none.p99, 0.0);
  EXPECT_THROW(empty.percentile(101), gs::Error);

  LatencyHistogram one;
  one.add(0.0123);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_EQ(one.mean(), 0.0123);
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(one.percentile(p), 0.0123) << "p" << p;
  }
}

TEST(LatencyHistogram, EdgeValuesLandInTheEndBuckets) {
  constexpr std::size_t kLast = LatencyHistogram::kBuckets - 1;
  const double subnormal = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(subnormal), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(std::nan("")), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1e9), kLast);
  EXPECT_EQ(LatencyHistogram::bucket_of(
                std::numeric_limits<double>::infinity()),
            kLast);
  // The bucketed range's own ends.
  EXPECT_EQ(LatencyHistogram::bucket_of(
                std::ldexp(1.0, LatencyHistogram::kMinExp)),
            1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(std::nextafter(
                std::ldexp(1.0, LatencyHistogram::kMaxExp), 0.0)),
            kLast - 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(
                std::ldexp(1.0, LatencyHistogram::kMaxExp)),
            kLast);

  LatencyHistogram h;
  h.add(0.0);
  h.add(subnormal);
  h.add(1e9);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[kLast], 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1e9);
  EXPECT_EQ(h.percentile(0), 0.0);
  EXPECT_EQ(h.percentile(100), 1e9);
  EXPECT_LE(h.percentile(50), subnormal);
}

TEST(LatencyHistogram, TenMillionAddsKeepSizeAndHeapFixed) {
  // Its whole state is the bucket array plus a few scalars, held inline.
  static_assert(std::is_trivially_copyable_v<LatencyHistogram>);
  static_assert(sizeof(LatencyHistogram) <=
                sizeof(std::uint64_t) * (LatencyHistogram::kBuckets + 8));
  LatencyHistogram h;
  const struct mallinfo2 before = mallinfo2();
  double x = 1e-6;
  for (int i = 0; i < 10'000'000; ++i) {
    h.add(x);
    x = x < 100.0 ? x * 1.0000013 : 1e-6;
  }
  const struct mallinfo2 after = mallinfo2();
  EXPECT_EQ(h.count(), 10'000'000u);
  EXPECT_EQ(after.uordblks, before.uordblks);
  EXPECT_EQ(after.hblkhd, before.hblkhd);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(42.0);   // clamps to bin 9
  h.add(5.0);    // bin 5
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 100.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 25.0);
  EXPECT_DOUBLE_EQ(h.bin_center(2), 62.5);
}

TEST(Histogram, AsciiRenderIncludesBars) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 10; ++i) h.add(0.25);
  h.add(0.75);
  const std::string art = h.ascii(20);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find("10"), std::string::npos);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), gs::Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), gs::Error);
}

// -------------------------------------------------------------- format

TEST(Format, Bytes) {
  EXPECT_EQ(gs::format_bytes(512), "512 B");
  EXPECT_EQ(gs::format_bytes(2048), "2.00 KB");
  EXPECT_EQ(gs::format_bytes(1ull << 30), "1.00 GB");
}

TEST(Format, BandwidthUsesDecimalGB) {
  EXPECT_EQ(gs::format_bandwidth_gbps(1.6e12), "1600.0 GB/s");
  EXPECT_EQ(gs::format_bandwidth_gbps(4.34e11), "434.0 GB/s");
}

TEST(Format, Seconds) {
  EXPECT_EQ(gs::format_seconds(2.5), "2.500 s");
  EXPECT_EQ(gs::format_seconds(0.02874), "28.74 ms");
  EXPECT_EQ(gs::format_seconds(3.2e-6), "3.20 us");
}

TEST(Format, Count) {
  EXPECT_EQ(gs::format_count(1073741824ull), "1,073,741,824");
  EXPECT_EQ(gs::format_count(999), "999");
  EXPECT_EQ(gs::format_count(1000), "1,000");
}

TEST(Format, TableAlignsColumns) {
  gs::TableFormatter t({"Kernel", "GB/s"});
  t.row({"HIP single variable", "1163"});
  t.row({"Julia", "570"});
  const std::string out = t.str();
  EXPECT_NE(out.find("Kernel"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Both rows start at column 0 and the numbers are aligned to the same col.
  const auto pos1 = out.find("1163");
  const auto pos2 = out.find("570");
  ASSERT_NE(pos1, std::string::npos);
  ASSERT_NE(pos2, std::string::npos);
  const auto col = [&](std::size_t pos) {
    const auto nl = out.rfind('\n', pos);
    return pos - (nl == std::string::npos ? 0 : nl + 1);
  };
  EXPECT_EQ(col(pos1), col(pos2));
}

TEST(Format, TableRowWidthMismatchThrows) {
  gs::TableFormatter t({"a", "b"});
  EXPECT_THROW(t.row({"only one"}), gs::Error);
}

// --------------------------------------------------------------- clock

TEST(SimClock, AdvanceMonotone) {
  gs::SimClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance(-3.0);  // negative deltas ignored
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(1.0);  // going backwards ignored
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(4.0);
  EXPECT_DOUBLE_EQ(c.now(), 4.0);
}

TEST(WallTimer, MeasuresSomethingNonNegative) {
  gs::WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
}

// ------------------------------------------------------------ checksum

std::span<const std::byte> bytes_of(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

TEST(Crc32, KnownVectors) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(gs::crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(gs::crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(gs::crc32(bytes_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(gs::crc32(bytes_of("abc")), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto all = bytes_of("the quick brown fox");
  const auto part1 = all.subspan(0, 9);
  const auto part2 = all.subspan(9);
  EXPECT_EQ(gs::crc32_update(gs::crc32(part1), part2), gs::crc32(all));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<double> data(100, 1.5);
  const auto before =
      gs::crc32_of(std::span<const double>(data.data(), data.size()));
  auto* raw = reinterpret_cast<unsigned char*>(data.data());
  raw[403] ^= 0x10;
  const auto after =
      gs::crc32_of(std::span<const double>(data.data(), data.size()));
  EXPECT_NE(before, after);
}

// --------------------------------------------------------------- error

TEST(Error, ThrowMacroFormatsMessage) {
  try {
    GS_THROW(gs::IoError, "file " << 42 << " missing");
    FAIL() << "should have thrown";
  } catch (const gs::IoError& e) {
    EXPECT_STREQ(e.what(), "file 42 missing");
  }
}

TEST(Error, RequireMacroThrowsWithContext) {
  const int x = 3;
  try {
    GS_REQUIRE(x > 5, "x=" << x);
    FAIL() << "should have thrown";
  } catch (const gs::Error& e) {
    EXPECT_NE(std::string(e.what()).find("x=3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("x > 5"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw gs::ParseError("p"), gs::Error);
  EXPECT_THROW(throw gs::MpiError("m"), gs::Error);
  EXPECT_THROW(throw gs::GpuError("g"), std::runtime_error);
}

}  // namespace
