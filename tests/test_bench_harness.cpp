// Tests for bench/harness — the scaffolding the gated benches share. The
// request streams must stay byte-identical to the per-bench copies they
// replaced (pinned CRCs), answers must classify by the one strict rule,
// relaxable gates must relax only under GS_BENCH_NONFATAL while fatal
// gates never do, a ScratchDir must vanish on every exit path, and the
// bench dataset's BP index must carry the exact min/max of every field.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "bench/harness.h"
#include "bp/reader.h"
#include "common/checksum.h"
#include "rpc/wire.h"

namespace {

namespace bench = gs::bench;

/// CRC-32 over encode_request(make_query(q, 5, 32, seed)) for q in [0, 48).
std::uint32_t request_stream_crc(std::uint64_t seed) {
  std::uint32_t crc = 0;
  for (std::size_t q = 0; q < 48; ++q) {
    const auto bytes =
        gs::rpc::encode_request(bench::make_query(q, 5, 32, seed));
    crc = gs::crc32_update(crc, std::span<const std::byte>(bytes));
  }
  return crc;
}

// The pins were computed from the make_query copies each bench carried
// before the harness existed; a changed value means a bench now sends a
// different request stream than its history.
TEST(BenchHarness, ShardScalingRequestStreamIsPinned) {
  EXPECT_EQ(request_stream_crc(0x5112ACEB00512ull), 0x3944cc4cu);
}

TEST(BenchHarness, ReshardAndCtrlRequestStreamIsPinned) {
  // extension_reshard and extension_ctrl_convergence share one seed.
  EXPECT_EQ(request_stream_crc(0xE90C4BADF00Dull), 0x87098b7au);
}

gs::svc::Response answer(double mean) {
  gs::svc::Response r;
  r.verb = gs::svc::Verb::field_stats;
  gs::svc::FieldStatsR body;
  body.stats.mean = mean;
  r.body = body;
  return r;
}

/// Ground truth of a one-query space whose right answer is answer(1.0).
std::vector<std::uint32_t> truth() {
  return {gs::rpc::identity_crc(answer(1.0))};
}

TEST(BenchHarness, PassResultExactNeedsOkUndegradedAndMatchingCrc) {
  const std::vector<std::uint32_t> expected = truth();
  bench::PassResult r;
  r.add(answer(1.0), expected, 0, 0.5);
  EXPECT_EQ(r.counts(), "exact=1 degraded=0 wrong=0 failed=0");
  EXPECT_EQ(r.latencies.count(), 1u);
}

TEST(BenchHarness, PassResultDegradedIsNeverExactEvenWithAMatchingCrc) {
  const std::vector<std::uint32_t> expected = truth();
  bench::PassResult r;
  auto flagged = answer(1.0);
  flagged.degraded = true;
  flagged.status.message = "shard s1 unavailable";
  ASSERT_EQ(gs::rpc::identity_crc(flagged), expected[0]);
  r.add(flagged, expected, 0);
  auto refused = answer(1.0);
  refused.status.code = gs::svc::StatusCode::server_busy;
  r.add(refused, expected, 0);
  EXPECT_EQ(r.counts(), "exact=0 degraded=2 wrong=0 failed=0");
  EXPECT_EQ(r.sample_degraded, "shard s1 unavailable");
  EXPECT_EQ(r.latencies.count(), 0u);
}

TEST(BenchHarness, PassResultWrongIsOkUndegradedWithAMismatchedCrc) {
  const std::vector<std::uint32_t> expected = truth();
  bench::PassResult r;
  r.add(answer(2.0), expected, 0);
  EXPECT_EQ(r.counts(), "exact=0 degraded=0 wrong=1 failed=0");
}

TEST(BenchHarness, PassResultFailedCountsExhaustedTransportRetries) {
  const std::vector<std::uint32_t> expected = {0};
  gs::svc::Request request;
  request.body = gs::svc::ListVariablesQ{};
  // Nothing listens on port 1: every connect is refused until the
  // client's retries run out.
  const auto r = bench::sweep_wire(gs::rpc::Endpoint::parse("127.0.0.1:1"),
                                   1, expected,
                                   [&](std::size_t) { return request; });
  EXPECT_EQ(r.counts(), "exact=0 degraded=0 wrong=0 failed=1");

  bench::PassResult merged;
  merged.merge(r);
  merged.merge(r);
  EXPECT_EQ(merged.failed, 2u);
}

/// Runs report() with stdout captured.
std::pair<int, std::string> report(const bench::Gates& gates) {
  testing::internal::CaptureStdout();
  const int code = gates.report();
  return {code, testing::internal::GetCapturedStdout()};
}

std::size_t occurrences(const std::string& text, const std::string& word) {
  std::size_t n = 0;
  for (auto at = text.find(word); at != std::string::npos;
       at = text.find(word, at + 1)) {
    ++n;
  }
  return n;
}

TEST(BenchHarness, NonfatalRelaxesOnlyRelaxableGates) {
  ::setenv("GS_BENCH_NONFATAL", "1", 1);
  bench::Gates relaxed("unit");
  relaxed.check("identity", true);
  relaxed.relaxable("deadline", false, "took 9 s");
  relaxed.metric("p50_ms", 1.25, 2);
  const auto [code, out] = report(relaxed);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("RELAXED  — took 9 s"), std::string::npos) << out;
  EXPECT_EQ(occurrences(out, "BENCH_JSON "), 1u);
  EXPECT_NE(out.find("BENCH_JSON {\"bench\":\"unit\",\"p50_ms\":1.25,"
                     "\"gates\":2,\"failed\":0,\"relaxed\":1}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("RESULT: PASS"), std::string::npos);

  bench::Gates fatal("unit");
  fatal.relaxable("deadline", false);
  fatal.check("zero wrong answers", false, "wrong=1");
  const auto [fatal_code, fatal_out] = report(fatal);
  EXPECT_EQ(fatal_code, 1);
  EXPECT_NE(fatal_out.find("FAIL  — wrong=1"), std::string::npos);
  EXPECT_NE(fatal_out.find("RESULT: FAIL"), std::string::npos);
  ::unsetenv("GS_BENCH_NONFATAL");

  bench::Gates strict("unit");
  strict.relaxable("deadline", false);
  const auto [strict_code, strict_out] = report(strict);
  EXPECT_EQ(strict_code, 1);
  EXPECT_EQ(occurrences(strict_out, "RELAXED"), 0u);
}

TEST(BenchHarness, ScratchDirIsRemovedWhenAnExceptionUnwinds) {
  std::string path;
  try {
    const bench::ScratchDir dir("harness_test");
    path = dir.path();
    EXPECT_EQ(std::filesystem::path(path).filename().string().rfind(
                  "gs_harness_test.", 0),
              0u);
    std::ofstream(dir.file("data.bin")) << "payload";
    ASSERT_TRUE(std::filesystem::exists(dir.file("data.bin")));
    throw std::runtime_error("bench failed");
  } catch (const std::runtime_error&) {
  }
  ASSERT_FALSE(path.empty());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(BenchHarness, DatasetBlockKeysSkipScalarVariables) {
  const bench::ScratchDir dir("harness_test");
  const bench::Dataset ds = bench::make_dataset(dir.file("data.bp"));
  EXPECT_EQ(ds.n_steps, 5);
  EXPECT_EQ(ds.L, 32);
  // U and V, 5 output steps, 8 blocks each; the scalar "step" variable
  // has no block layout and contributes nothing.
  const auto keys = bench::dataset_block_keys(ds.path);
  EXPECT_EQ(keys.size(), 2u * 5u * 8u);
  EXPECT_EQ(keys.front(), gs::shard::Ring::block_key("U", 0, 0));
}

// A one-round histogram may take its global range from the BP index
// alone only if the index's per-block min/max, folded over a step's
// blocks, is bitwise the ExactStats min/max of the whole field (so ±0
// counts), raw and Gorilla-compressed alike.
TEST(BenchHarness, IndexMinMaxIsTheExactStatsMinMax) {
  const bench::ScratchDir dir("harness_test");
  for (const bool compress : {false, true}) {
    const bench::Dataset ds = bench::make_dataset(
        dir.file(compress ? "gorilla.bp" : "raw.bp"), compress);
    const gs::bp::Reader reader(ds.path);
    std::size_t compared = 0;
    for (const std::string& var : reader.variable_names()) {
      if (reader.info(var).type != "double") continue;
      for (std::int64_t step = 0; step < reader.n_steps(); ++step) {
        const auto blocks = reader.blocks(var, step);
        ASSERT_FALSE(blocks.empty());
        ASSERT_EQ(blocks.front().codec, compress ? "gorilla" : "");
        double lo = blocks.front().min;
        double hi = blocks.front().max;
        for (const auto& b : blocks) {
          lo = std::min(lo, b.min);
          hi = std::max(hi, b.max);
        }
        const gs::ExactStats exact =
            gs::analysis::exact_stats(reader.read_full(var, step));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(lo),
                  std::bit_cast<std::uint64_t>(exact.min()))
            << var << " step " << step << (compress ? " gorilla" : " raw");
        EXPECT_EQ(std::bit_cast<std::uint64_t>(hi),
                  std::bit_cast<std::uint64_t>(exact.max()))
            << var << " step " << step << (compress ? " gorilla" : " raw");
        ++compared;
      }
    }
    EXPECT_EQ(compared, 2u * 5u);  // U and V at 5 output steps
  }
}

}  // namespace
