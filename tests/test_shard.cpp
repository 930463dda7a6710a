// Tests for gs::shard — the sharded serving cluster. The consistent-hash
// ring must place deterministically and reshuffle minimally, the shard
// map must round-trip and keep its placement CRC independent of
// endpoints, health tracking must apply hysteresis in both directions,
// and — the core correctness invariant the router relies on — the exact
// merge machinery (ExactSum/ExactStats/Histogram, svc::merge) must be
// order-independent and bitwise-identical across ANY shard partitioning
// of the same data. End-to-end: a 3-shard cluster behind a Router must
// answer byte-identically to a single daemon, survive a shard kill via
// failover, and degrade explicitly (never silently) without failover.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <atomic>
#include <cmath>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.h"
#include "bp/writer.h"
#include "common/stats.h"
#include "core/reference.h"
#include "fault/fault.h"
#include "grid/decomp.h"
#include "mpi/runtime.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "shard/health.h"
#include "shard/map.h"
#include "shard/reshard.h"
#include "shard/router.h"
#include "svc/merge.h"
#include "svc/service.h"

namespace {

namespace fs = std::filesystem;
using gs::Box3;
using gs::Decomposition;
using gs::ExactStats;
using gs::ExactSum;
using gs::Index3;
namespace shard = gs::shard;
namespace svc = gs::svc;
namespace rpc = gs::rpc;

constexpr std::int64_t kL = 16;
constexpr int kSteps = 3;

std::string temp_path(const std::string& name) {
  static const std::string pid = std::to_string(::getpid());
  return (fs::path(testing::TempDir()) / (name + "." + pid)).string();
}

double cell_value(const Index3& g, const Index3& shape, std::int64_t step) {
  return static_cast<double>(gs::linear_index(g, shape)) +
         1e6 * static_cast<double>(step);
}

/// Writes kSteps of L^3 "U" and "V" with 8 writers (8 blocks per step —
/// enough placement granularity for a 3-shard split).
std::string write_dataset(const std::string& name) {
  const std::string path = temp_path(name) + ".bp";
  fs::remove_all(path);
  gs::mpi::run(8, [&](gs::mpi::Comm& world) {
    const Decomposition d = Decomposition::cube(kL, world.size());
    const Box3 box = d.local_box(world.rank());
    const Index3 shape{kL, kL, kL};
    gs::bp::Writer w(path, world, 2);
    for (int s = 0; s < kSteps; ++s) {
      std::vector<double> block(static_cast<std::size_t>(box.volume()));
      std::size_t n = 0;
      for (std::int64_t k = box.start.k; k < box.end().k; ++k) {
        for (std::int64_t j = box.start.j; j < box.end().j; ++j) {
          for (std::int64_t i = box.start.i; i < box.end().i; ++i) {
            block[n++] = cell_value({i, j, k}, shape, s);
          }
        }
      }
      w.begin_step();
      w.put("U", shape, box, block);
      w.put("V", shape, box, block);
      w.put_scalar("step", 10 * s);
      w.end_step();
    }
    w.close();
  });
  return path;
}

const std::string& dataset() {
  static const std::string path = write_dataset("shard_shared");
  return path;
}

shard::ShardMap make_map(std::size_t n, std::uint64_t epoch = 1,
                         std::size_t vnodes = 64) {
  std::vector<shard::ShardInfo> shards;
  for (std::size_t i = 0; i < n; ++i) {
    shards.push_back(
        shard::ShardInfo{std::string("s").append(std::to_string(i)),
                         "127.0.0.1:" + std::to_string(7000 + i)});
  }
  return shard::ShardMap(epoch, vnodes, std::move(shards));
}

// ---- consistent-hash ring ------------------------------------------------

TEST(ShardRing, OwnerIsDeterministicAndCoversEveryKey) {
  const shard::ShardMap map = make_map(4);
  const shard::Ring a(map);
  const shard::Ring b(map);
  std::map<std::string, int> hits;
  for (int blk = 0; blk < 64; ++blk) {
    const std::string key = shard::Ring::block_key("U", 1, blk);
    const std::string& owner = a.owner(key);
    EXPECT_EQ(owner, b.owner(key)) << key;
    ASSERT_NE(map.find(owner), nullptr) << key;
    ++hits[owner];
  }
  // With 64 vnodes per shard every shard should own a share of 64 keys.
  EXPECT_GE(hits.size(), 3u);
}

TEST(ShardRing, ChainStartsAtOwnerAndIsDistinct) {
  const shard::ShardMap map = make_map(5);
  const shard::Ring ring(map);
  const std::string key = shard::Ring::block_key("V", 2, 3);
  const auto chain = ring.chain(key, 5);
  ASSERT_EQ(chain.size(), 5u);
  EXPECT_EQ(chain[0], ring.owner(key));
  std::vector<std::string> sorted = chain;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(ShardRing, AddingOneShardMovesOnlyAFraction) {
  const shard::ShardMap four = make_map(4);
  const shard::ShardMap five = make_map(5);
  const shard::Ring before(four);
  const shard::Ring after(five);
  int moved = 0;
  const int keys = 512;
  for (int i = 0; i < keys; ++i) {
    const std::string key = shard::Ring::block_key("U", i % 8, i);
    if (before.owner(key) != after.owner(key)) ++moved;
  }
  // Theory says ~1/5 of keys move to the new shard; anything close to a
  // full reshuffle means the ring is broken (modulo placement would move
  // ~4/5).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, keys * 2 / 5) << "ring reshuffles too much";
  // And every moved key moved TO the new shard, never between old ones.
  for (int i = 0; i < keys; ++i) {
    const std::string key = shard::Ring::block_key("U", i % 8, i);
    if (before.owner(key) != after.owner(key)) {
      EXPECT_EQ(after.owner(key), "s4") << key;
    }
  }
}

// ---- shard map -----------------------------------------------------------

TEST(ShardMap, JsonRoundTripPreservesEverything) {
  const shard::ShardMap map = make_map(3, /*epoch=*/7, /*vnodes=*/32);
  const shard::ShardMap back = shard::ShardMap::from_json(map.to_json());
  EXPECT_EQ(back.epoch(), 7u);
  EXPECT_EQ(back.vnodes(), 32u);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.shards()[1].id, "s1");
  EXPECT_EQ(back.shards()[1].endpoint, "127.0.0.1:7001");
  EXPECT_EQ(back.ring_crc(), map.ring_crc());
}

TEST(ShardMap, RingCrcIgnoresEndpointsButNotMembership) {
  const shard::ShardMap a = make_map(3);
  std::vector<shard::ShardInfo> moved;
  for (const auto& s : a.shards()) {
    moved.push_back(shard::ShardInfo{s.id, "unix:/tmp/elsewhere-" + s.id});
  }
  const shard::ShardMap b(1, 64, std::move(moved));
  EXPECT_EQ(a.ring_crc(), b.ring_crc())
      << "moving a daemon must not reshuffle placement";
  EXPECT_NE(a.ring_crc(), make_map(4).ring_crc());
  EXPECT_NE(a.ring_crc(), make_map(3, /*epoch=*/2).ring_crc());
}

TEST(ShardMap, RejectsBadMemberships) {
  using Shards = std::vector<shard::ShardInfo>;
  const Shards none;
  const Shards one = {{"a", "x"}};
  const Shards dup = {{"a", "x"}, {"a", "y"}};
  const Shards pipe = {{"a|b", "x"}};
  const Shards blank = {{"", "x"}};
  EXPECT_THROW(shard::ShardMap(1, 64, none), gs::Error);
  EXPECT_THROW(shard::ShardMap(1, 0, one), gs::Error);
  EXPECT_THROW(shard::ShardMap(1, 64, dup), gs::Error);
  EXPECT_THROW(shard::ShardMap(1, 64, pipe), gs::Error);
  EXPECT_THROW(shard::ShardMap(1, 64, blank), gs::Error);
}

// ---- health hysteresis ---------------------------------------------------

TEST(ShardHealth, HysteresisInBothDirections) {
  shard::HealthTracker h({"a", "b"}, shard::HealthConfig{2, 3});
  EXPECT_TRUE(h.alive("a"));

  h.record_failure("a");
  EXPECT_TRUE(h.alive("a")) << "one failure must not kill a shard";
  h.record_success("a");  // resets the failure run
  h.record_failure("a");
  EXPECT_TRUE(h.alive("a"));
  h.record_failure("a");
  EXPECT_FALSE(h.alive("a")) << "two consecutive failures flip to dead";
  EXPECT_TRUE(h.alive("b")) << "health is per shard";

  h.record_success("a");
  h.record_success("a");
  EXPECT_FALSE(h.alive("a")) << "two successes are not yet three";
  h.record_failure("a");  // resets the success run
  h.record_success("a");
  h.record_success("a");
  h.record_success("a");
  EXPECT_TRUE(h.alive("a")) << "three consecutive successes revive";

  const auto snap = h.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].went_dead, 1u);
  EXPECT_EQ(snap[0].went_live, 1u);
  EXPECT_EQ(h.dead_shards().size(), 0u);
}

// ---- exact merge invariants (the router's core correctness claim) --------

TEST(ExactMerge, SumSurvivesCatastrophicCancellation) {
  ExactSum s;
  s.add(1e16);
  s.add(1.0);
  s.add(-1e16);
  EXPECT_EQ(s.value(), 1.0);  // double addition would lose the 1.0
}

TEST(ExactMerge, StatsAreBitwiseIdenticalAcrossAnyPartitioning) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  std::vector<double> data(4096);
  for (double& x : data) x = value(rng);

  ExactStats whole;
  for (const double x : data) whole.add(x);
  const auto reference = gs::analysis::stats_from_exact(whole);

  for (int trial = 0; trial < 10; ++trial) {
    // Random partition into up to 8 "shards"...
    std::uniform_int_distribution<int> pick(0, 7);
    std::vector<ExactStats> parts(8);
    for (const double x : data) parts[static_cast<std::size_t>(pick(rng))].add(x);
    // ...merged in a shuffled order.
    std::shuffle(parts.begin(), parts.end(), rng);
    ExactStats merged;
    for (const auto& p : parts) merged.merge(p);

    EXPECT_TRUE(merged == whole) << "trial " << trial;
    const auto stats = gs::analysis::stats_from_exact(merged);
    EXPECT_EQ(stats.mean, reference.mean);
    EXPECT_EQ(stats.stddev, reference.stddev);
    EXPECT_EQ(stats.min, reference.min);
    EXPECT_EQ(stats.max, reference.max);
    EXPECT_EQ(stats.count, reference.count);
  }

  // And the public entry point agrees: compute_stats IS the exact path.
  const auto direct = gs::analysis::compute_stats(data);
  EXPECT_EQ(direct.mean, reference.mean);
  EXPECT_EQ(direct.stddev, reference.stddev);
}

TEST(ExactMerge, RunningStatsExactFieldsMatchButWelfordMomentsNeedNot) {
  // RunningStats (Welford) merges count/min/max exactly but its merged
  // mean can drift in the last ulp depending on the partition — which is
  // precisely why the serving tier carries ExactStats on the wire. This
  // test documents the contrast that motivated the design.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(0.0, 1.0);
  gs::RunningStats whole;
  gs::RunningStats left, right;
  ExactStats exact_whole, exact_left, exact_right;
  for (int i = 0; i < 1000; ++i) {
    const double x = value(rng);
    whole.add(x);
    exact_whole.add(x);
    if (i % 3 == 0) {
      left.add(x);
      exact_left.add(x);
    } else {
      right.add(x);
      exact_right.add(x);
    }
  }
  gs::RunningStats merged = left;
  merged.merge(right);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);

  ExactStats exact_merged = exact_left;
  exact_merged.merge(exact_right);
  EXPECT_EQ(exact_merged.mean(), exact_whole.mean())
      << "the exact path must not drift at all";
}

TEST(ExactMerge, HistogramMergeIsOrderIndependent) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> value(-3.0, 3.0);
  std::vector<double> data(2048);
  for (double& x : data) x = value(rng);

  gs::Histogram whole(-3.0, 3.0, 32);
  for (const double x : data) whole.add(x);

  for (int trial = 0; trial < 10; ++trial) {
    std::uniform_int_distribution<int> pick(0, 4);
    std::vector<gs::Histogram> parts(5, gs::Histogram(-3.0, 3.0, 32));
    for (const double x : data) parts[static_cast<std::size_t>(pick(rng))].add(x);
    std::shuffle(parts.begin(), parts.end(), rng);
    gs::Histogram merged(-3.0, 3.0, 32);
    for (const auto& p : parts) merged.merge(p);
    ASSERT_EQ(merged.total(), whole.total());
    for (std::size_t b = 0; b < 32; ++b) {
      ASSERT_EQ(merged.count(b), whole.count(b)) << "bin " << b;
    }
  }
}

TEST(ExactMerge, ListVariablesMergeDetectsDisagreement) {
  svc::ListVariablesR a;
  a.n_steps = 3;
  a.variables.push_back(svc::VarEntry{"U", "double", {16, 16, 16}, 3, 0, 1});
  svc::ListVariablesR b = a;
  std::vector<svc::ListVariablesR> agree = {a, b};
  EXPECT_EQ(svc::merge::merge_list_variables(agree).variables.size(), 1u);
  b.variables[0].max = 2.0;
  const std::vector<svc::ListVariablesR> clash = {a, b};
  EXPECT_THROW(svc::merge::merge_list_variables(clash), gs::Error);
  const std::vector<svc::ListVariablesR> empty;
  EXPECT_THROW(svc::merge::merge_list_variables(empty), gs::Error);
}

// ---- bulk exact accumulation: add_many is add() bit for bit ---------------

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The per-element reference: ExactStats::add on each x, in order.
ExactStats added(std::span<const double> xs) {
  ExactStats s;
  for (const double x : xs) s.add(x);
  return s;
}

/// Wire bytes of a shard's partial field_stats answer carrying `s`.
std::vector<std::byte> partial_answer_bytes(const ExactStats& s) {
  svc::Response r;
  r.verb = svc::Verb::field_stats;
  r.body = svc::FieldStatsR{gs::analysis::stats_from_exact(s)};
  svc::PartialMeta meta;
  meta.total_blocks = 1;
  meta.covered_blocks = 1;
  meta.stats = s;
  r.partial = meta;
  return rpc::encode_response(r);
}

/// add_many over `xs` leaves the state add() does: the same limbs and
/// count (operator==), the same min/max bits (== on doubles cannot see
/// -0.0 against 0.0) and the same partial-answer wire bytes.
void expect_bulk_matches_add(std::span<const double> xs,
                             const std::string& what) {
  const ExactStats one = added(xs);
  ExactStats many;
  many.add_many(xs);
  EXPECT_TRUE(many == one) << what;
  EXPECT_EQ(bits_of(many.min()), bits_of(one.min())) << what;
  EXPECT_EQ(bits_of(many.max()), bits_of(one.max())) << what;
  EXPECT_EQ(partial_answer_bytes(many), partial_answer_bytes(one)) << what;
}

/// The largest double whose square is finite (about 1.34e154).
double largest_squarable() {
  double x = std::sqrt(std::numeric_limits<double>::max());
  while (!std::isfinite(x * x)) x = std::nextafter(x, 0.0);
  while (std::isfinite(std::nextafter(x, 2 * x) * std::nextafter(x, 2 * x))) {
    x = std::nextafter(x, 2 * x);
  }
  return x;
}

TEST(ExactBulk, AddManyMatchesAddOnEdgeInputs) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double sub_max = std::numeric_limits<double>::min() - tiny;
  expect_bulk_matches_add(
      std::vector<double>{0.0, -0.0, tiny, -tiny, sub_max, -sub_max,
                          std::numeric_limits<double>::min(), -1.0, 3.5,
                          -0.0, 0.0, 7 * tiny, -2.5e-310},
      "subnormals, signed zeros, negatives");
  // Which zero a ±0 extremum keeps depends on the order: the first.
  expect_bulk_matches_add(std::vector<double>{-0.0, 0.0, 1.0}, "-0 first");
  expect_bulk_matches_add(std::vector<double>{0.0, -0.0, 1.0}, "+0 first");
  expect_bulk_matches_add(std::vector<double>{0.0, -0.0, -1.0}, "max zero");
  expect_bulk_matches_add(std::vector<double>{-0.0, -0.0, 0.0}, "all zero");
  // Long enough for the vector min/max pass, with the first zero in
  // lane 1 and a zero of the other sign in lane 0 (any width up to 8).
  std::vector<double> lanes(40, 1.0);
  lanes[1] = 0.0;
  lanes[8] = -0.0;
  expect_bulk_matches_add(lanes, "min zeros in different lanes");
  for (double& x : lanes) x = -x;
  expect_bulk_matches_add(lanes, "max zeros in different lanes");
  expect_bulk_matches_add(
      std::vector<double>{1e16, 1.0, -1e16, 1e-300, 3.0, -1e-300, -4.0,
                          1e150, -1e150, 0.5},
      "catastrophic cancellation");

  const double big = largest_squarable();
  std::vector<double> huge;
  for (int i = 0; i < 3000; ++i) {
    const double x = i % 3 == 0 ? big : std::nextafter(big, 0.0) / (1 + i % 5);
    huge.push_back(i % 2 == 0 ? x : -x);
  }
  expect_bulk_matches_add(huge, "near the largest finite square");

  // Addends over the whole exponent range, subnormals included.
  std::mt19937_64 rng(2024);
  std::vector<double> spread;
  while (spread.size() < 20000) {
    const std::uint64_t bits = rng() & ~(std::uint64_t{0x7ff} << 52);
    const std::uint64_t biased = rng() % 2047;  // never inf/NaN
    const double x = std::bit_cast<double>(bits | (biased << 52));
    if (std::isfinite(x * x)) spread.push_back(x);
  }
  expect_bulk_matches_add(spread, "whole exponent range");

  // Far more than 2048 of the largest mantissa in one bin: the 64-bit
  // low word of a bin wraps, so its carry word must hold the rest.
  std::vector<double> one_bin(10000, std::nextafter(2.0, 0.0));
  expect_bulk_matches_add(one_bin, "one positive bin");
  for (std::size_t i = 0; i < one_bin.size(); i += 3) one_bin[i] = -one_bin[i];
  expect_bulk_matches_add(one_bin, "one bin per sign");
}

TEST(ExactBulk, AddManyMatchesAddOnAGrayScottField) {
  const std::int64_t L = 24;
  gs::Field3 u({L, L, L}), v({L, L, L});
  gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
  gs::core::reference_run(u, v, gs::core::GsParams{}, 7, 200, L);
  expect_bulk_matches_add(u.interior_copy(), "U");
  expect_bulk_matches_add(v.interior_copy(), "V");  // spans many binades
}

TEST(ExactBulk, ExactStatsMatchesAddAcrossTileEdges) {
  // 32768 is analysis::exact_stats's tile grain; 256 is add_many's chunk.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> value(-2.0, 3.0);
  std::vector<double> data(3 * 32768 + 5);
  for (double& x : data) x = value(rng);
  for (const std::size_t n :
       {0, 1, 2, 15, 16, 17, 255, 256, 257, 32767, 32768, 32769, 65535,
        65536, 65537, static_cast<int>(data.size())}) {
    const std::span<const double> xs(data.data(), n);
    const ExactStats want = added(xs);
    const ExactStats got = gs::analysis::exact_stats(xs);
    EXPECT_TRUE(got == want) << "n=" << n;
    EXPECT_EQ(partial_answer_bytes(got), partial_answer_bytes(want))
        << "n=" << n;
    // Onto an accumulator that already holds values.
    ExactStats onto = added(std::span<const double>(data).last(3));
    onto.add_many(xs);
    ExactStats want_onto = added(std::span<const double>(data).last(3));
    for (const double x : xs) want_onto.add(x);
    EXPECT_TRUE(onto == want_onto) << "n=" << n;
  }
}

TEST(ExactBulk, NonFiniteInputThrowsAddsErrorAndLeavesNoTrace) {
  const auto message_of = [](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const gs::Error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  const std::vector<double> good = {1.0, -2.5, 3.25, 1e-310};
  for (const double bad :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 1e200, -1e200}) {
    std::vector<double> data(600, 0.75);
    data[300] = bad;
    const std::string want = message_of([&] { added(data); });
    ASSERT_NE(want, "no throw");
    ExactStats many;
    EXPECT_EQ(message_of([&] { many.add_many(data); }), want) << bad;
    EXPECT_TRUE(many == ExactStats{}) << "a throwing add_many adds nothing";
    EXPECT_EQ(message_of([&] { gs::analysis::exact_stats(data); }), want);
    // The thread's bins were cleared: the next bulk add starts clean.
    expect_bulk_matches_add(good, "after a throw");
  }
}

// ---- wire protocol extensions --------------------------------------------

TEST(ShardWire, SelectorAndPartialMetaRoundTrip) {
  svc::Request request;
  request.body = svc::HistogramQ{"U", 1, 16, true, -2.5, 7.5};
  request.shard = svc::ShardSelector{9, 0xdeadbeef, "s2"};
  const auto req_bytes = rpc::encode_request(request);
  const svc::Request req_back = rpc::decode_request(req_bytes);
  ASSERT_TRUE(req_back.shard.has_value());
  EXPECT_EQ(req_back.shard->epoch, 9u);
  EXPECT_EQ(req_back.shard->ring_crc, 0xdeadbeefu);
  EXPECT_EQ(req_back.shard->act_as, "s2");
  const auto& q = std::get<svc::HistogramQ>(req_back.body);
  EXPECT_TRUE(q.has_range);
  EXPECT_EQ(q.lo, -2.5);
  EXPECT_EQ(q.hi, 7.5);

  ExactStats stats;
  stats.add(1e16);
  stats.add(1.0);
  stats.add(-3.5);
  svc::Response response;
  response.verb = svc::Verb::field_stats;
  response.body = svc::FieldStatsR{gs::analysis::stats_from_exact(stats)};
  response.partial = svc::PartialMeta{9, 5, 8, {Box3{{0, 0, 0}, {4, 4, 4}}},
                                      stats};
  const auto bytes = rpc::encode_response(response);
  const svc::Response back = rpc::decode_response(bytes);
  ASSERT_TRUE(back.partial.has_value());
  EXPECT_EQ(back.partial->epoch, 9u);
  EXPECT_EQ(back.partial->covered_blocks, 5u);
  EXPECT_EQ(back.partial->total_blocks, 8u);
  ASSERT_EQ(back.partial->coverage.size(), 1u);
  EXPECT_EQ(back.partial->coverage[0].count.i, 4);
  ASSERT_TRUE(back.partial->stats.has_value());
  EXPECT_TRUE(*back.partial->stats == stats)
      << "the exact accumulator must survive the wire bit-for-bit";
}

TEST(ShardWire, PlainFramesStayCompatible) {
  // A request without a selector and a response without partial metadata
  // must decode exactly as before the shard extension.
  svc::Request request;
  request.body = svc::FieldStatsQ{"U", 1};
  const svc::Request back = rpc::decode_request(rpc::encode_request(request));
  EXPECT_FALSE(back.shard.has_value());

  svc::Response response;
  response.verb = svc::Verb::field_stats;
  response.body = svc::FieldStatsR{};
  const svc::Response rback =
      rpc::decode_response(rpc::encode_response(response));
  EXPECT_FALSE(rback.partial.has_value());
}

// ---- partial execution on the daemon -------------------------------------

class ShardPartial : public ::testing::Test {
 protected:
  void SetUp() override {
    map_ = std::make_shared<const shard::ShardMap>(make_map(3));
    svc::ServiceConfig config;
    config.shard_map = map_;
    service_ = std::make_unique<svc::Service>(dataset(), std::move(config));
  }

  svc::Response partial_call(svc::QueryBody body, const std::string& act_as) {
    svc::Request request;
    request.body = std::move(body);
    request.shard =
        svc::ShardSelector{map_->epoch(), map_->ring_crc(), act_as};
    return service_->call(std::move(request));
  }

  std::shared_ptr<const shard::ShardMap> map_;
  std::unique_ptr<svc::Service> service_;
};

TEST_F(ShardPartial, PartialsCoverEveryBlockExactlyOnce) {
  ExactStats merged;
  std::uint64_t covered = 0;
  std::uint64_t total = 0;
  for (const auto& info : map_->shards()) {
    const svc::Response r = partial_call(svc::FieldStatsQ{"U", 1}, info.id);
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    ASSERT_TRUE(r.partial.has_value());
    ASSERT_TRUE(r.partial->stats.has_value());
    merged.merge(*r.partial->stats);
    covered += r.partial->covered_blocks;
    total = r.partial->total_blocks;
  }
  EXPECT_EQ(covered, total);
  EXPECT_EQ(total, 8u);  // 8 writers -> 8 blocks per step

  // The merged partials are bitwise the whole-dataset answer.
  svc::Service single(dataset(), svc::ServiceConfig{});
  svc::Request whole;
  whole.body = svc::FieldStatsQ{"U", 1};
  const svc::Response expect = single.call(std::move(whole));
  const auto& got = gs::analysis::stats_from_exact(merged);
  const auto& want = std::get<svc::FieldStatsR>(expect.body).stats;
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.stddev, want.stddev);
  EXPECT_EQ(got.count, want.count);
}

TEST_F(ShardPartial, EpochMismatchIsRefusedLoudly) {
  // An epoch the daemon does not serve is RETRYABLE stale_epoch (the
  // expected transient of a staggered flip), not bad_request.
  svc::Request request;
  request.body = svc::FieldStatsQ{"U", 1};
  request.shard = svc::ShardSelector{99, map_->ring_crc(), "s0"};
  const svc::Response r = service_->call(std::move(request));
  EXPECT_EQ(r.status.code, svc::StatusCode::stale_epoch);
  EXPECT_NE(r.status.message.find("epoch"), std::string::npos);

  svc::Request bad_crc;
  bad_crc.body = svc::FieldStatsQ{"U", 1};
  bad_crc.shard = svc::ShardSelector{map_->epoch(), 1, "s0"};
  EXPECT_EQ(service_->call(std::move(bad_crc)).status.code,
            svc::StatusCode::bad_request);

  svc::Request unknown;
  unknown.body = svc::FieldStatsQ{"U", 1};
  unknown.shard =
      svc::ShardSelector{map_->epoch(), map_->ring_crc(), "nobody"};
  EXPECT_EQ(service_->call(std::move(unknown)).status.code,
            svc::StatusCode::bad_request);
}

TEST_F(ShardPartial, NonMemberDaemonRefusesSubQueries) {
  svc::Service plain(dataset(), svc::ServiceConfig{});
  svc::Request request;
  request.body = svc::FieldStatsQ{"U", 1};
  request.shard = svc::ShardSelector{1, map_->ring_crc(), "s0"};
  EXPECT_EQ(plain.call(std::move(request)).status.code,
            svc::StatusCode::bad_request);
}

// ---- end-to-end: cluster behind a router ---------------------------------

/// N in-process daemons (Service + rpc::Server on unix sockets) plus a
/// Router over them — the whole cluster in one test process.
struct Cluster {
  explicit Cluster(std::size_t n, shard::RouterConfig router_config = {},
                   const std::string& tag = "c") {
    std::vector<shard::ShardInfo> infos;
    for (std::size_t i = 0; i < n; ++i) {
      infos.push_back(shard::ShardInfo{
          std::string("s").append(std::to_string(i)),
          "unix:" + temp_path("cluster-" + tag + std::to_string(i)) +
              ".sock"});
    }
    map = std::make_shared<const shard::ShardMap>(1, 64, std::move(infos));
    for (std::size_t i = 0; i < n; ++i) {
      svc::ServiceConfig config;
      config.shard_map = map;
      services.push_back(
          std::make_unique<svc::Service>(dataset(), std::move(config)));
      rpc::ServerConfig server_config;
      server_config.listen = map->shards()[i].endpoint;
      servers.push_back(
          std::make_unique<rpc::Server>(*services[i], server_config));
    }
    router_config.probe_interval_ms = 50;
    router = std::make_unique<shard::Router>(map, router_config);
  }

  void kill_shard(std::size_t i) {
    servers[i]->shutdown();
    services[i]->shutdown();
  }

  std::shared_ptr<const shard::ShardMap> map;
  std::vector<std::unique_ptr<svc::Service>> services;
  std::vector<std::unique_ptr<rpc::Server>> servers;
  std::unique_ptr<shard::Router> router;
};

std::vector<svc::QueryBody> all_verbs() {
  return {
      svc::ListVariablesQ{},
      svc::FieldStatsQ{"U", 1},
      svc::FieldStatsQ{"V", 2},
      svc::HistogramQ{"U", 1, 16},
      svc::Slice2DQ{"U", 1, 2, 8},
      svc::ReadBoxQ{"V", 1, Box3{{2, 3, 4}, {7, 6, 5}}},
  };
}

void expect_identical_answers(shard::Router& router, svc::Service& single,
                              const char* context) {
  for (const auto& body : all_verbs()) {
    svc::Request via_router;
    via_router.body = body;
    const svc::Response routed = router.call(std::move(via_router));
    svc::Request direct;
    direct.body = body;
    const svc::Response expect = single.call(std::move(direct));
    ASSERT_TRUE(routed.status.ok())
        << context << ": " << routed.status.message;
    EXPECT_FALSE(routed.degraded) << context;
    EXPECT_FALSE(routed.partial.has_value())
        << context << ": partial metadata must not leak to clients";
    EXPECT_EQ(rpc::encode_answer_identity(routed),
              rpc::encode_answer_identity(expect))
        << context << " verb " << svc::to_string(routed.verb);
  }
}

TEST(ShardRouter, AnswersAreByteIdenticalToSingleDaemon) {
  Cluster cluster(3, {}, "ident");
  svc::Service single(dataset(), svc::ServiceConfig{});
  expect_identical_answers(*cluster.router, single, "3-shard");
}

TEST(ShardRouter, FailoverKeepsAnswersExactAfterShardKill) {
  Cluster cluster(3, {}, "kill");
  svc::Service single(dataset(), svc::ServiceConfig{});
  expect_identical_answers(*cluster.router, single, "before kill");

  cluster.kill_shard(1);
  // Replicas open the same dataset, so every verb keeps its exact bytes.
  expect_identical_answers(*cluster.router, single, "after kill");
  EXPECT_GT(cluster.router->stats().failovers, 0u);
}

TEST(ShardRouter, NoFailoverDegradesExplicitlyNeverSilently) {
  shard::RouterConfig config;
  config.failover = false;
  // One fast connect attempt per candidate: the dead shard's socket file
  // is gone, so dials fail immediately.
  config.attempts = 1;
  config.client.retries = 1;
  config.client.connect_timeout_ms = 500;
  Cluster cluster(3, config, "nofo");
  cluster.kill_shard(2);

  svc::Request stats;
  stats.body = svc::FieldStatsQ{"U", 1};
  const svc::Response r = cluster.router->call(std::move(stats));
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_TRUE(r.degraded) << "missing blocks must be flagged";
  EXPECT_GT(r.bad_blocks, 0u);
  EXPECT_NE(r.status.message.find("missing shard(s) s2"), std::string::npos)
      << "got: " << r.status.message;

  // list_variables needs only one live daemon: still exact.
  svc::Request ls;
  ls.body = svc::ListVariablesQ{};
  const svc::Response lsr = cluster.router->call(std::move(ls));
  ASSERT_TRUE(lsr.status.ok());
  EXPECT_FALSE(lsr.degraded);

  // The health tracker marks the dead shard after consecutive failures.
  for (int i = 0; i < 3; ++i) {
    svc::Request again;
    again.body = svc::FieldStatsQ{"U", 1};
    cluster.router->call(std::move(again));
  }
  EXPECT_FALSE(cluster.router->health().alive("s2"));
}

TEST(ShardRouter, SubcallAttemptsAreTheWholeTransportCount) {
  // A daemon that accepts and at once closes every connection: each
  // transport attempt on its channel costs exactly one dial.
  rpc::Listener listener =
      rpc::Listener::bind_listen(rpc::Endpoint::parse("127.0.0.1:0"), 16);
  std::atomic<bool> stop{false};
  std::atomic<int> accepts{0};
  std::thread acceptor([&] {
    while (!stop.load()) {
      if (listener.accept(20)) ++accepts;  // the socket closes at once
    }
  });
  shard::RouterConfig config;
  config.failover = false;
  config.probe_interval_ms = 0;
  config.attempts = 2;
  config.client.retries = 3;
  {
    std::vector<shard::ShardInfo> infos{
        shard::ShardInfo{"s0", listener.endpoint().str()}};
    shard::Router router(
        std::make_shared<const shard::ShardMap>(1, 64, std::move(infos)),
        config);
    svc::Request request;
    request.body = svc::FieldStatsQ{"U", 1};
    const svc::Response r = router.call(std::move(request));
    EXPECT_TRUE(!r.status.ok() || r.degraded) << "nothing answered";
  }
  stop.store(true);
  acceptor.join();
  // RouterConfig::attempts in total, scatter's started call the first of
  // them; the channel's ClientConfig::retries must not multiply them.
  EXPECT_EQ(accepts.load(), 2);
}

TEST(ShardRouter, UndecodableShardReplyFailsThatShardAndTheRouterServesOn) {
  // s2 is a raw-socket fake that answers every request with a histogram
  // response whose bin count is 0xFFFFFFFF: a frame with a valid CRC and
  // an absurd count. The router must book it as s2's failed attempt,
  // answer, and serve the next query.
  svc::Response bad;
  bad.verb = svc::Verb::histogram;
  bad.body = svc::HistogramR{0.0, 1.0, {1, 2}, 3};
  std::vector<std::byte> payload = rpc::encode_response(bad);
  // verb, status, empty message, degraded, bad_blocks, three timings,
  // three counters, the body flag, lo and hi come first.
  const std::size_t bins_at = 2 + 4 + 1 + 8 + 3 * 8 + 3 * 8 + 1 + 16;
  ASSERT_EQ(static_cast<std::uint8_t>(payload[bins_at]), 2u);
  for (std::size_t i = 0; i < 4; ++i) payload[bins_at + i] = std::byte{0xFF};

  rpc::Listener listener =
      rpc::Listener::bind_listen(rpc::Endpoint::parse("127.0.0.1:0"), 16);
  std::atomic<bool> stop{false};
  std::thread fake([&] {
    while (!stop.load()) {
      std::optional<rpc::Socket> sock = listener.accept(20);
      if (!sock) continue;
      try {
        while (const auto frame = rpc::recv_frame(*sock, 5000)) {
          rpc::Frame reply{rpc::FrameType::pong, frame->id, {}};
          if (frame->type == rpc::FrameType::request) {
            reply.type = rpc::FrameType::response;
            reply.payload = payload;
          }
          rpc::send_frame(*sock, reply, 5000);
        }
      } catch (const gs::IoError&) {
        // the router hung up
      }
    }
  });

  std::vector<shard::ShardInfo> infos;
  for (int i = 0; i < 2; ++i) {
    infos.push_back(shard::ShardInfo{
        std::string("s").append(std::to_string(i)),
        "unix:" + temp_path("badreply" + std::to_string(i)) + ".sock"});
  }
  infos.push_back(shard::ShardInfo{"s2", listener.endpoint().str()});
  const auto map = std::make_shared<const shard::ShardMap>(1, 64, infos);
  std::vector<std::unique_ptr<svc::Service>> services;
  std::vector<std::unique_ptr<rpc::Server>> servers;
  for (int i = 0; i < 2; ++i) {
    svc::ServiceConfig config;
    config.shard_map = map;
    services.push_back(
        std::make_unique<svc::Service>(dataset(), std::move(config)));
    rpc::ServerConfig server_config;
    server_config.listen = infos[static_cast<std::size_t>(i)].endpoint;
    servers.push_back(
        std::make_unique<rpc::Server>(*services.back(), server_config));
  }
  svc::Service single(dataset(), svc::ServiceConfig{});

  for (const bool failover : {false, true}) {
    shard::RouterConfig config;
    config.failover = failover;
    config.attempts = 1;
    config.client.retries = 1;
    config.probe_interval_ms = 0;
    shard::Router router(map, config);
    for (const auto& body :
         {svc::QueryBody{svc::FieldStatsQ{"U", 1}},
          svc::QueryBody{svc::HistogramQ{"U", 1, 16}}}) {
      svc::Request request;
      request.body = body;
      const svc::Response r = router.call(std::move(request));
      ASSERT_TRUE(r.status.ok()) << r.status.message;
      SCOPED_TRACE(std::string(svc::to_string(r.verb)) +
                   (failover ? " with failover" : " without failover"));
      if (failover) {
        // s2's blocks fail over to the replicas: the exact answer.
        svc::Request direct;
        direct.body = body;
        EXPECT_FALSE(r.degraded);
        EXPECT_EQ(rpc::encode_answer_identity(r),
                  rpc::encode_answer_identity(single.call(std::move(direct))));
      } else {
        EXPECT_TRUE(r.degraded) << "s2's blocks must be flagged missing";
        EXPECT_NE(r.status.message.find("missing shard(s) s2"),
                  std::string::npos)
            << "got: " << r.status.message;
      }
    }
    EXPECT_GE(router.stats().subquery_errors, 2u);
    if (failover) {
      EXPECT_GE(router.stats().failovers, 2u);
    }
  }

  stop.store(true);
  fake.join();
  for (auto& server : servers) server->shutdown();
  for (auto& service : services) service->shutdown();
}

/// A daemon that refuses every request with a retryable server_busy and
/// counts the requests it gets.
class BusyHandler : public svc::Handler {
 public:
  void submit(svc::Request request, Done done) override {
    ++requests;
    svc::Response r;
    r.id = request.id;
    r.verb = svc::verb_of(request.body);
    r.status = svc::Status{svc::StatusCode::server_busy, "always busy"};
    done(std::move(r));
  }
  gs::json::Value stats_json() const override {
    gs::json::Object obj;
    obj["dataset"] = gs::json::Value(std::string("none"));
    return gs::json::Value(std::move(obj));
  }

  std::atomic<int> requests{0};
};

TEST(ShardRouter, RetryableRefusalAsksTheOwnerOnceThenFailsOver) {
  const std::string busy_sock = "unix:" + temp_path("busy-s0") + ".sock";
  const std::string live_sock = "unix:" + temp_path("busy-s1") + ".sock";
  const auto map = std::make_shared<const shard::ShardMap>(
      1, 64,
      std::vector<shard::ShardInfo>{shard::ShardInfo{"s0", busy_sock},
                                    shard::ShardInfo{"s1", live_sock}});
  BusyHandler busy;
  rpc::ServerConfig busy_config;
  busy_config.listen = busy_sock;
  rpc::Server busy_server(busy, busy_config);
  svc::ServiceConfig service_config;
  service_config.shard_map = map;
  svc::Service service(dataset(), std::move(service_config));
  rpc::ServerConfig live_config;
  live_config.listen = live_sock;
  rpc::Server live_server(service, live_config);

  shard::RouterConfig config;
  config.probe_interval_ms = 0;
  shard::Router router(map, config);
  svc::Request request;
  request.body = svc::FieldStatsQ{"U", 1};
  const svc::Response r = router.call(std::move(request));
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_FALSE(r.degraded);

  // A refusal is an answer, not a transport failure: the owner is asked
  // once, and its blocks come from s1 acting as s0.
  EXPECT_EQ(busy.requests.load(), 1);
  EXPECT_EQ(router.stats().failovers, 1u);
  svc::Service single(dataset(), svc::ServiceConfig{});
  svc::Request direct;
  direct.body = svc::FieldStatsQ{"U", 1};
  EXPECT_EQ(rpc::encode_answer_identity(r),
            rpc::encode_answer_identity(single.call(std::move(direct))));
}

TEST(ShardRouter, BadRequestPropagatesNamingTheShard) {
  Cluster cluster(2, {}, "badreq");
  svc::Request request;
  request.body = svc::FieldStatsQ{"NOPE", 0};
  const svc::Response r = cluster.router->call(std::move(request));
  EXPECT_EQ(r.status.code, svc::StatusCode::bad_request);
  EXPECT_NE(r.status.message.find("shard s"), std::string::npos)
      << "got: " << r.status.message;
}

TEST(ShardRouter, StatsJsonReportsDatasetAndPerShardHealth) {
  Cluster cluster(2, {}, "stats");
  svc::Request warm;
  warm.body = svc::FieldStatsQ{"U", 0};
  ASSERT_TRUE(cluster.router->call(std::move(warm)).status.ok());

  const gs::json::Value v = cluster.router->stats_json();
  EXPECT_EQ(v.at("dataset").as_string(), dataset());
  const auto& router = v.at("router");
  EXPECT_GE(router.at("queries").as_int(), 1);
  const auto& shards = router.at("shards").as_array();
  ASSERT_EQ(shards.size(), 2u);
  for (const auto& s : shards) {
    EXPECT_EQ(s.at("state").as_string(), "live");
    EXPECT_GE(s.at("calls").as_int(), 1);
  }
}

TEST(ShardRouter, PerShardLatencyFollowsLaterSlowerSubcalls) {
  const std::string sock = "unix:" + temp_path("latency-s0") + ".sock";
  const auto map = std::make_shared<const shard::ShardMap>(
      1, 64, std::vector<shard::ShardInfo>{shard::ShardInfo{"s0", sock}});
  std::atomic<int> hold_ms{0};
  svc::ServiceConfig service_config;
  service_config.shard_map = map;
  service_config.before_execute = [&](const svc::Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms.load()));
  };
  svc::Service service(dataset(), std::move(service_config));
  rpc::ServerConfig server_config;
  server_config.listen = sock;
  rpc::Server server(service, server_config);
  shard::RouterConfig config;
  config.probe_interval_ms = 0;
  shard::Router router(map, config);

  const auto ask = [&](int n) {
    for (int i = 0; i < n; ++i) {
      svc::Request request;
      request.body = svc::FieldStatsQ{"U", 1};
      ASSERT_TRUE(router.call(std::move(request)).status.ok());
    }
  };
  const auto shard_stats = [&] {
    return router.stats_json().at("router").at("shards").as_array().at(0);
  };
  ask(10);
  const double fast_p50 = shard_stats().at("latency_p50").as_double();
  EXPECT_LT(fast_p50, 0.005);

  // Three held sub-calls for every fast one: the shard's lifetime median
  // is now a held one.
  hold_ms = 6;
  ask(30);
  const gs::json::Value slow = shard_stats();
  EXPECT_GT(slow.at("latency_p50").as_double(), 0.005);
  EXPECT_GT(slow.at("latency_p50").as_double(), fast_p50);
  EXPECT_EQ(slow.at("latency_count").as_int(), slow.at("calls").as_int());
}

/// A before_execute hook that parks its worker: it counts the request in
/// `entered`, then waits for `release`.
struct Park {
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};

  std::function<void(const svc::Request&)> hook() {
    return [this](const svc::Request&) {
      entered.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
  }
};

/// The admission contract svc::Service and shard::Router share, driven
/// through svc::Handler alone. `handler` has one worker and a one-slot
/// queue, and `park` holds the worker's first request; `shutdown` is the
/// handler's drain. Returns once the drain is done.
void expect_admission_contract(svc::Handler& handler, Park& park,
                               const std::function<void()>& shutdown) {
  struct Answer {
    int runs = 0;  ///< times Done ran
    svc::Response response;
  };
  std::mutex mu;
  std::vector<Answer> answers(4);
  const auto submit = [&](std::size_t i) {
    svc::Request request;
    request.body = svc::FieldStatsQ{"U", 1};
    handler.submit(std::move(request), [&mu, &answers, i](svc::Response r) {
      const std::lock_guard<std::mutex> lock(mu);
      ++answers[i].runs;
      answers[i].response = std::move(r);
    });
  };
  const auto answer = [&](std::size_t i) {
    const std::lock_guard<std::mutex> lock(mu);
    return answers[i];
  };

  submit(0);  // the worker takes it and parks
  while (park.entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  submit(1);  // fills the one queue slot
  EXPECT_EQ(handler.queue_depth(), 1u);
  submit(2);  // refused inline, before submit() returns
  EXPECT_EQ(answer(2).runs, 1);
  EXPECT_EQ(answer(2).response.status.code, svc::StatusCode::server_busy);

  std::atomic<bool> closing{false};
  std::thread closer([&] {
    closing.store(true);
    shutdown();
  });
  while (!closing.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // shutdown() stops admission before it waits on the parked worker; a
  // submit that came too early would read server_busy, never a pass.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  submit(3);
  EXPECT_EQ(answer(3).runs, 1);
  EXPECT_EQ(answer(3).response.status.code, svc::StatusCode::shutting_down);
  EXPECT_EQ(answer(0).runs, 0) << "the parked request answered early";

  park.release.store(true);
  closer.join();
  for (std::size_t i = 0; i < 2; ++i) {
    const Answer a = answer(i);
    EXPECT_EQ(a.runs, 1) << "request " << i;
    EXPECT_TRUE(a.response.status.ok())
        << "request " << i << ": " << a.response.status.message;
  }
  EXPECT_EQ(answer(2).runs, 1);
  EXPECT_EQ(answer(3).runs, 1);
}

TEST(ShardRouter, AdmissionContractHoldsForAService) {
  Park park;
  svc::ServiceConfig config;
  config.threads = 1;
  config.queue_capacity = 1;
  config.before_execute = park.hook();
  svc::Service service(dataset(), std::move(config));
  expect_admission_contract(service, park, [&] { service.shutdown(); });
  const svc::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.rejected_busy, 1u);
  EXPECT_EQ(m.rejected_shutdown, 1u);
  EXPECT_EQ(m.completed_ok, 2u);
  EXPECT_EQ(m.accounted(), m.submitted);
}

TEST(ShardRouter, AdmissionContractHoldsForTheRouter) {
  // One shard, whose daemon parks the router worker's sub-query.
  const std::string sock = "unix:" + temp_path("admission-s0") + ".sock";
  const auto map = std::make_shared<const shard::ShardMap>(
      1, 64, std::vector<shard::ShardInfo>{shard::ShardInfo{"s0", sock}});
  Park park;
  svc::ServiceConfig service_config;
  service_config.shard_map = map;
  service_config.before_execute = park.hook();
  svc::Service daemon(dataset(), std::move(service_config));
  rpc::ServerConfig server_config;
  server_config.listen = sock;
  rpc::Server server(daemon, server_config);

  shard::RouterConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.probe_interval_ms = 0;
  shard::Router router(map, config);
  expect_admission_contract(router, park, [&] { router.shutdown(); });
  const shard::RouterStats stats = router.stats();
  EXPECT_EQ(stats.rejected_busy, 1u);
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.completed_ok, 2u);
  EXPECT_EQ(stats.queries, 2u);
}

TEST(ShardRouter, SingleShardClusterIsJustAProxy) {
  Cluster cluster(1, {}, "one");
  svc::Service single(dataset(), svc::ServiceConfig{});
  expect_identical_answers(*cluster.router, single, "1-shard");
}

/// Threads of this process right now.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ShardRouter, ThreadCountStaysConstantUnderLoad) {
  shard::RouterConfig config;
  config.queue_capacity = 0;  // admit every query: all workers stay busy
  Cluster cluster(8, config, "threads");
  const std::vector<svc::QueryBody> bodies = all_verbs();
  const auto run = [&](std::size_t n) {
    std::vector<std::future<svc::Response>> answers;
    for (std::size_t q = 0; q < n; ++q) {
      svc::Request request;
      request.body = bodies[q % bodies.size()];
      answers.push_back(cluster.router->submit(std::move(request)));
    }
    std::size_t ok = 0;
    for (auto& a : answers) ok += a.get().status.ok() ? 1 : 0;
    return ok;
  };

  std::atomic<bool> stop{false};
  std::atomic<bool> armed{false};
  std::atomic<std::size_t> peak{0};
  std::atomic<std::size_t> samples{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      if (armed.load()) {
        const std::size_t now = thread_count();
        if (now > peak.load()) peak.store(now);
        ++samples;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Warm-up: dials every shard's channel and starts whatever the
  // daemons create lazily, so the baseline is the steady state.
  const std::size_t warm = run(48);
  const std::size_t baseline = thread_count();
  armed.store(true);
  const std::size_t ok = run(200);
  armed.store(false);
  stop.store(true);
  sampler.join();

  EXPECT_EQ(warm, 48u);
  EXPECT_EQ(ok, 200u);
  ASSERT_GT(samples.load(), 0u);
  EXPECT_EQ(peak.load(), baseline)
      << "routing 200 queries over 8 shards started threads";
}

// ---- epoch handover: candidate validation --------------------------------

/// Runs `fn`, returning the gs::Error message it threw ("" = no throw).
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const gs::Error& e) {
    return e.what();
  }
  return {};
}

TEST(Reshard, ValidateSuccessorGivesDistinctOneLineReasons) {
  const shard::ShardMap serving = make_map(3);

  // A real grow and a vnode retune are both fine successors.
  EXPECT_NO_THROW(shard::validate_successor(serving, make_map(4, 2)));
  EXPECT_NO_THROW(
      shard::validate_successor(serving, make_map(3, 2, /*vnodes=*/32)));

  EXPECT_NE(error_of([&] {
              shard::validate_successor(serving, make_map(4, 1));
            }).find("epoch must increase"),
            std::string::npos)
      << "equal epoch must be refused by name";
  EXPECT_NE(error_of([&] {
              shard::validate_successor(make_map(3, 5), make_map(4, 2));
            }).find("epoch must increase"),
            std::string::npos)
      << "going backwards must be refused by name";
  EXPECT_NE(error_of([&] {
              shard::validate_successor(serving, make_map(3, 2));
            }).find("no-op"),
            std::string::npos)
      << "same membership + same vnodes under a new epoch is an operator "
         "mistake";

  std::vector<shard::ShardInfo> strangers;
  for (int i = 0; i < 3; ++i) {
    strangers.push_back(
        shard::ShardInfo{std::string("t").append(std::to_string(i)), "x"});
  }
  EXPECT_NE(error_of([&] {
              shard::validate_successor(
                  serving, shard::ShardMap(2, 64, std::move(strangers)));
            }).find("retains no serving shard"),
            std::string::npos)
      << "replacing every shard at once leaves nothing to serve the flip";
}

TEST(Reshard, DiffMapsClassifiesEveryMembershipChange) {
  const shard::ShardMap from = make_map(3);  // s0 s1 s2
  std::vector<shard::ShardInfo> next = {
      {"s0", "127.0.0.1:7000"},       // untouched
      {"s1", "unix:/tmp/elsewhere"},  // endpoint moved
      {"s3", "127.0.0.1:7003"},       // new
  };
  const shard::MapDiff diff =
      shard::diff_maps(from, shard::ShardMap(2, 64, std::move(next)));
  EXPECT_EQ(diff.added, std::vector<std::string>{"s3"});
  EXPECT_EQ(diff.removed, std::vector<std::string>{"s2"});
  EXPECT_EQ(diff.moved, std::vector<std::string>{"s1"});
  EXPECT_EQ(diff.retained, std::vector<std::string>{"s0"});
}

TEST(Reshard, FromJsonRejectsMangledMapFilesByName) {
  const auto parse = [](const char* text) {
    shard::ShardMap::from_json(gs::json::parse(text));
  };
  const auto reason = [&](const char* text) {
    return error_of([&] { parse(text); });
  };
  const char* ok =
      R"({"epoch": 3, "vnodes": 8, "shards": [{"id": "a", "endpoint": "x"}]})";
  EXPECT_NO_THROW(parse(ok));

  EXPECT_NE(
      reason(R"({"epoch": 0, "shards": [{"id": "a", "endpoint": "x"}]})")
          .find("epoch must be >= 1"),
      std::string::npos);
  EXPECT_NE(
      reason(R"({"epoch": -7, "shards": [{"id": "a", "endpoint": "x"}]})")
          .find("epoch must be >= 1"),
      std::string::npos);
  EXPECT_NE(
      reason(
          R"({"vnodes": 0, "shards": [{"id": "a", "endpoint": "x"}]})")
          .find("vnodes must be >= 1"),
      std::string::npos);
  EXPECT_NE(reason(R"({"shards": [{"id": "a", "endpoint": ""}]})")
                .find("empty endpoint"),
            std::string::npos);
  EXPECT_NE(reason(R"({"shards": [{"id": "a"}]})").find("empty endpoint"),
            std::string::npos)
      << "a missing endpoint is the same operator error as an empty one";
  EXPECT_NE(reason(R"({"shards": []})").find("no shards"), std::string::npos);
  // No shards array at all / not JSON: any exception, never a crash —
  // from_file wraps these with the path.
  EXPECT_THROW(parse(R"({"epoch": 2})"), std::exception);

  const std::string path = temp_path("mangled_map") + ".json";
  std::ofstream(path) << "{definitely not json";
  EXPECT_NE(error_of([&] { shard::ShardMap::from_file(path); }).find(path),
            std::string::npos)
      << "file-level rejections must name the file";
  fs::remove(path);
}

// ---- epoch handover: crash-consistent commit -----------------------------

TEST(Reshard, CommitMapSurvivesTornWritesAndMidCommitKills) {
  const std::string path = temp_path("commit_map") + ".json";
  fs::remove(path);
  fs::remove(path + ".staging");

  shard::commit_map(make_map(3), path);
  EXPECT_EQ(shard::ShardMap::from_file(path).epoch(), 1u);

  // Torn write: the corruption reaches the committed file (that is the
  // modeled failure), and every reader must then REJECT it loudly instead
  // of serving from garbage.
  {
    gs::fault::Plan plan;
    plan.corrupt_at("shard.reload", 0);
    gs::fault::ScopedPlan scoped(plan);
    shard::commit_map(make_map(4, 2), path);
  }
  EXPECT_THROW(shard::ShardMap::from_file(path), gs::Error);

  // A clean commit heals the file in place.
  shard::commit_map(make_map(4, 2), path);
  EXPECT_EQ(shard::ShardMap::from_file(path).epoch(), 2u);

  // Kill between the staging write and the rename: the staging file is
  // left behind, but the COMMITTED map is still (exactly) the old epoch.
  {
    gs::fault::Plan plan;
    plan.kill_at("shard.reload", 1);
    gs::fault::ScopedPlan scoped(plan);
    EXPECT_THROW(shard::commit_map(make_map(5, 3), path), gs::fault::Kill);
  }
  EXPECT_TRUE(fs::exists(path + ".staging"));
  EXPECT_EQ(shard::ShardMap::from_file(path).epoch(), 2u)
      << "a crash mid-commit must leave exactly one committed epoch";

  // Recovery removes the orphan; a second recovery is a no-op.
  EXPECT_TRUE(shard::recover_map(path));
  EXPECT_FALSE(fs::exists(path + ".staging"));
  EXPECT_FALSE(shard::recover_map(path));

  // And the next commit after the "restart" goes through normally.
  shard::commit_map(make_map(5, 3), path);
  EXPECT_EQ(shard::ShardMap::from_file(path).epoch(), 3u);
  fs::remove(path);
}

TEST(Reshard, CommitMapKilledAtTheSyncPointsKeepsExactlyOneEpoch) {
  const std::string path = temp_path("commit_sync") + ".json";
  fs::remove(path);
  fs::remove(path + ".staging");
  shard::commit_map(make_map(3), path);

  // "shard.sync" ops 0 (staging fsynced) and 1 (staging dirent fsynced):
  // the bytes of the candidate are durable, but the rename has not
  // happened — the COMMITTED map must still be exactly the old epoch,
  // with the staging orphan left for recover_map.
  for (const std::uint64_t op : {0u, 1u}) {
    gs::fault::Plan plan;
    plan.kill_at("shard.sync", op);
    gs::fault::ScopedPlan scoped(plan);
    EXPECT_THROW(shard::commit_map(make_map(4, 2), path), gs::fault::Kill);
    EXPECT_TRUE(fs::exists(path + ".staging"))
        << "sync op " << op << ": staging must survive the kill";
    EXPECT_EQ(shard::ShardMap::from_file(path).epoch(), 1u)
        << "sync op " << op << ": old epoch must stay committed";
  }
  EXPECT_TRUE(shard::recover_map(path));

  // Op 2 (after the rename, before the final dir sync): the atomic
  // rename has promoted the candidate — the NEW epoch is committed and
  // there is no orphan to recover.
  {
    gs::fault::Plan plan;
    plan.kill_at("shard.sync", 2);
    gs::fault::ScopedPlan scoped(plan);
    EXPECT_THROW(shard::commit_map(make_map(4, 2), path), gs::fault::Kill);
  }
  EXPECT_FALSE(fs::exists(path + ".staging"));
  EXPECT_EQ(shard::ShardMap::from_file(path).epoch(), 2u)
      << "a kill after the rename must leave the new epoch committed";
  EXPECT_FALSE(shard::recover_map(path));

  // A transient fsync failure (fail, not kill) surfaces as IoError-family
  // and, at the pre-rename points, also leaves the old epoch committed.
  {
    gs::fault::Plan plan;
    plan.fail_at("shard.sync", 0);
    gs::fault::ScopedPlan scoped(plan);
    EXPECT_THROW(shard::commit_map(make_map(5, 3), path),
                 gs::fault::InjectedFault);
  }
  EXPECT_EQ(shard::ShardMap::from_file(path).epoch(), 2u);

  // The next clean commit recovers the orphan and goes through.
  shard::commit_map(make_map(5, 3), path);
  EXPECT_EQ(shard::ShardMap::from_file(path).epoch(), 3u);
  EXPECT_FALSE(fs::exists(path + ".staging"));
  fs::remove(path);
}

// ---- epoch handover: the watcher -----------------------------------------

TEST(Reshard, MapWatcherAppliesTriggersAndRejectsBadMapsLoudly) {
  const std::string path = temp_path("watcher_map") + ".json";
  fs::remove(path);
  shard::commit_map(make_map(3), path);

  std::uint64_t applied_epoch = 0;
  std::uint64_t applies = 0;
  const auto apply = [&](shard::ShardMap next) {
    applied_epoch = next.epoch();
    ++applies;
    gs::json::Object o;
    o["epoch"] = gs::json::Value(static_cast<std::int64_t>(next.epoch()));
    return gs::json::Value(std::move(o));
  };
  // Polling disabled: trigger() runs the check inline (the SIGHUP path of
  // a daemon with --watch-ms 0).
  shard::MapWatcher watcher(path, apply, shard::WatcherConfig{0});

  shard::commit_map(make_map(4, 2), path);
  watcher.trigger();
  EXPECT_EQ(applies, 1u);
  EXPECT_EQ(applied_epoch, 2u);
  EXPECT_EQ(watcher.stats().applied, 1u);
  EXPECT_EQ(watcher.stats().rejected, 0u);

  // The admin-RPC path returns apply's report synchronously.
  const gs::json::Value report = watcher.reload_now();
  EXPECT_EQ(report.at("epoch").as_int(), 2);
  EXPECT_EQ(watcher.stats().applied, 2u);

  // A torn/garbled file is a counted rejection with the parse reason —
  // and the apply callback (the serving epoch) is never touched.
  std::ofstream(path) << "{torn to bits";
  watcher.trigger();
  EXPECT_EQ(applies, 2u);
  EXPECT_EQ(watcher.stats().rejected, 1u);
  EXPECT_FALSE(watcher.stats().last_error.empty());

  // An apply that throws (validation failure) counts the same way, and
  // reload_now surfaces it to the admin RPC.
  shard::commit_map(make_map(4, 2), path);
  shard::MapWatcher refusing(
      path,
      [](shard::ShardMap) -> gs::json::Value {
        GS_THROW(gs::Error, "candidate refused by validation");
      },
      shard::WatcherConfig{0});
  EXPECT_THROW(refusing.reload_now(), gs::Error);
  EXPECT_EQ(refusing.stats().rejected, 1u);
  EXPECT_NE(refusing.stats().last_error.find("refused"), std::string::npos);
  fs::remove(path);
}

TEST(Reshard, MapWatcherPollThreadPicksUpACommit) {
  const std::string path = temp_path("watcher_poll") + ".json";
  fs::remove(path);
  shard::commit_map(make_map(3), path);

  std::atomic<std::uint64_t> applied_epoch{0};
  shard::MapWatcher watcher(
      path,
      [&](shard::ShardMap next) {
        applied_epoch = next.epoch();
        return gs::json::Value(gs::json::Object{});
      },
      shard::WatcherConfig{10});

  shard::commit_map(make_map(4, 2), path);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (applied_epoch.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(applied_epoch.load(), 2u)
      << "the mtime poll alone must notice an atomically committed map";
  fs::remove(path);
}

// ---- epoch handover: the daemon's grace window ---------------------------

TEST(Reshard, ServiceKeepsPreviousEpochAnswerableThroughGraceOnly) {
  const auto map1 = std::make_shared<const shard::ShardMap>(make_map(3));
  svc::ServiceConfig config;
  config.shard_map = map1;
  config.shard_id = "s0";
  config.reload_grace_seconds = 0.5;
  svc::Service service(dataset(), std::move(config));

  const auto sub_query = [&](std::uint64_t epoch, std::uint32_t crc) {
    svc::Request request;
    request.body = svc::FieldStatsQ{"U", 1};
    request.shard = svc::ShardSelector{epoch, crc, "s0"};
    return service.call(std::move(request));
  };
  ASSERT_TRUE(sub_query(map1->epoch(), map1->ring_crc()).status.ok());

  // Shrink 3 -> 2: s0 inherits some of s2's blocks and must warm them.
  const auto map2 = std::make_shared<const shard::ShardMap>(make_map(2, 2));
  const shard::ReplacementStats stats = service.reload_shard_map(map2);
  EXPECT_EQ(stats.epoch_from, 1u);
  EXPECT_EQ(stats.epoch_to, 2u);
  EXPECT_EQ(stats.blocks_moved, stats.blocks_planned);
  EXPECT_EQ(stats.blocks_failed, 0u);
  EXPECT_EQ(service.reshard_stats().epoch_to, 2u);

  // Both epochs answer during the grace window (the routers' staggered
  // flip): the new one immediately, the old one until it expires.
  EXPECT_TRUE(sub_query(map2->epoch(), map2->ring_crc()).status.ok());
  EXPECT_TRUE(sub_query(map1->epoch(), map1->ring_crc()).status.ok())
      << "the previous epoch must stay answerable within the grace window";

  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  const svc::Response late = sub_query(map1->epoch(), map1->ring_crc());
  EXPECT_EQ(late.status.code, svc::StatusCode::stale_epoch)
      << "past the grace window the old epoch is refused as retryable";
  EXPECT_TRUE(sub_query(map2->epoch(), map2->ring_crc()).status.ok());
  EXPECT_GE(service.metrics().stale_epoch, 1u);

  // A non-increasing candidate is rejected and changes nothing.
  EXPECT_THROW(service.reload_shard_map(map2), gs::Error);
  EXPECT_TRUE(sub_query(map2->epoch(), map2->ring_crc()).status.ok());
}

// ---- epoch handover: the router flip -------------------------------------

TEST(ShardRouter, ReloadMapFlipsEpochCarriesChannelsAndStaysExact) {
  Cluster cluster(3, {}, "reload");
  svc::Service single(dataset(), svc::ServiceConfig{});
  expect_identical_answers(*cluster.router, single, "before flip");

  // Same membership, retuned vnodes: every shard retained, placement
  // changes, channels and health must carry over.
  std::vector<shard::ShardInfo> infos(cluster.map->shards().begin(),
                                      cluster.map->shards().end());
  const auto next =
      std::make_shared<const shard::ShardMap>(2, 32, std::move(infos));
  for (auto& service : cluster.services) service->reload_shard_map(next);
  const shard::HandoverStats stats = cluster.router->reload_map(next);
  EXPECT_EQ(stats.epoch_from, 1u);
  EXPECT_EQ(stats.epoch_to, 2u);
  EXPECT_EQ(stats.shards_retained, 3u);
  EXPECT_EQ(stats.shards_added, 0u);
  EXPECT_EQ(stats.shards_removed, 0u);
  EXPECT_EQ(stats.shards_moved, 0u);
  EXPECT_TRUE(stats.drained) << "no pinned queries: the drain is instant";
  EXPECT_EQ(stats.inflight_abandoned, 0u);

  EXPECT_EQ(cluster.router->map()->epoch(), 2u);
  expect_identical_answers(*cluster.router, single, "after flip");

  // Retained shards kept their per-shard state across the flip: the
  // pre-flip calls are still counted under the new epoch.
  const gs::json::Value v = cluster.router->stats_json();
  for (const auto& s : v.at("router").at("shards").as_array()) {
    EXPECT_GE(s.at("calls").as_int(), 1) << "channel/state not carried over";
    EXPECT_EQ(s.at("connects").as_int(), 1) << "a retained channel redialed";
  }
  EXPECT_EQ(v.at("router").at("handover").at("epoch_to").as_int(), 2);

  // A bad candidate (non-increasing epoch) is rejected loudly and the
  // serving epoch keeps answering exactly.
  EXPECT_THROW(cluster.router->reload_map(next), gs::Error);
  EXPECT_EQ(cluster.router->map()->epoch(), 2u);
  expect_identical_answers(*cluster.router, single, "after rejected flip");
}

TEST(ShardRouter, MovedEndpointClosesTheOldConnectionAfterTheDrain) {
  Cluster cluster(3, {}, "moved");
  svc::Service single(dataset(), svc::ServiceConfig{});
  expect_identical_answers(*cluster.router, single, "before move");
  rpc::Server& old_daemon = *cluster.servers[1];
  EXPECT_EQ(old_daemon.stats().active, 1u)
      << "the router holds one channel per shard";

  // s1 keeps its id but moves to a new daemon on a new endpoint.
  std::vector<shard::ShardInfo> infos(cluster.map->shards().begin(),
                                      cluster.map->shards().end());
  infos[1].endpoint = "unix:" + temp_path("cluster-moved-new1") + ".sock";
  const auto next =
      std::make_shared<const shard::ShardMap>(2, 64, std::move(infos));
  svc::ServiceConfig config;
  config.shard_map = next;
  svc::Service moved(dataset(), std::move(config));
  rpc::ServerConfig server_config;
  server_config.listen = next->shards()[1].endpoint;
  rpc::Server new_daemon(moved, server_config);
  for (auto& service : cluster.services) service->reload_shard_map(next);

  const shard::HandoverStats stats = cluster.router->reload_map(next);
  EXPECT_EQ(stats.shards_moved, 1u);
  EXPECT_TRUE(stats.drained);

  // Nothing pins the old epoch any more, so the moved shard's old channel
  // closes (a probe round may hold its snapshot a moment longer).
  for (int i = 0; i < 200 && old_daemon.stats().active != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(old_daemon.stats().active, 0u)
      << "a retired epoch's connection outlived the drain";

  const std::uint64_t old_frames = old_daemon.stats().frames_in;
  expect_identical_answers(*cluster.router, single, "after move");
  EXPECT_EQ(old_daemon.stats().frames_in, old_frames)
      << "a post-flip query reached the old endpoint";
  EXPECT_GT(new_daemon.stats().responses, 0u);
}

TEST(ShardRouter, ReloadMapGrowsTheClusterLive) {
  Cluster cluster(3, {}, "grow");
  svc::Service single(dataset(), svc::ServiceConfig{});

  std::vector<shard::ShardInfo> infos(cluster.map->shards().begin(),
                                      cluster.map->shards().end());
  infos.push_back(shard::ShardInfo{
      "s3", "unix:" + temp_path("cluster-grow3") + ".sock"});
  const auto next =
      std::make_shared<const shard::ShardMap>(2, 64, std::move(infos));

  // The joining daemon starts on the successor map directly; the serving
  // three flip first (their grace covers the old-epoch router), the
  // router flips last — the same order the live cluster uses.
  svc::ServiceConfig config;
  config.shard_map = next;
  cluster.services.push_back(
      std::make_unique<svc::Service>(dataset(), std::move(config)));
  rpc::ServerConfig server_config;
  server_config.listen = next->shards()[3].endpoint;
  cluster.servers.push_back(
      std::make_unique<rpc::Server>(*cluster.services[3], server_config));
  for (std::size_t i = 0; i < 3; ++i) {
    cluster.services[i]->reload_shard_map(next);
  }
  const shard::HandoverStats stats = cluster.router->reload_map(next);
  EXPECT_EQ(stats.shards_added, 1u);
  EXPECT_EQ(stats.shards_retained, 3u);

  EXPECT_EQ(cluster.router->map()->epoch(), 2u);
  expect_identical_answers(*cluster.router, single, "grown 3 -> 4");
  EXPECT_EQ(cluster.router->stats_json()
                .at("router")
                .at("shards")
                .as_array()
                .size(),
            4u);
}

TEST(ShardRouter, NonAckingShardDegradesNamedNeverWrong) {
  shard::RouterConfig config;
  config.failover = false;
  config.attempts = 1;
  config.client.retries = 1;
  Cluster cluster(3, config, "noack");

  std::vector<shard::ShardInfo> infos(cluster.map->shards().begin(),
                                      cluster.map->shards().end());
  const auto next =
      std::make_shared<const shard::ShardMap>(2, 32, std::move(infos));
  // s1 never acknowledges the new epoch; everyone else flips.
  cluster.services[0]->reload_shard_map(next);
  cluster.services[2]->reload_shard_map(next);
  cluster.router->reload_map(next);

  svc::Request stats;
  stats.body = svc::FieldStatsQ{"U", 1};
  const svc::Response r = cluster.router->call(std::move(stats));
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_TRUE(r.degraded)
      << "a shard refusing the pinned epoch is degraded, never wrong";
  EXPECT_GT(r.bad_blocks, 0u);
  EXPECT_NE(r.status.message.find("missing shard(s) s1"), std::string::npos)
      << "got: " << r.status.message;

  // The moment s1 acks, the same router heals to exact answers.
  cluster.services[1]->reload_shard_map(next);
  svc::Service single(dataset(), svc::ServiceConfig{});
  expect_identical_answers(*cluster.router, single, "after late ack");
}

}  // namespace
