// Tests for the rocprof-mini profiler: span recording, aggregation,
// Chrome-trace export, report rendering, timeline art.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "config/json.h"
#include "prof/profiler.h"

namespace {

using gs::prof::CounterSet;
using gs::prof::Profiler;
using gs::prof::Span;
using gs::prof::SpanKind;

Span make_span(const std::string& name, SpanKind kind, double t0, double t1,
               std::uint64_t fetch = 0) {
  Span s;
  s.name = name;
  s.kind = kind;
  s.t0 = t0;
  s.t1 = t1;
  s.counters.fetch_bytes = fetch;
  return s;
}

TEST(Profiler, RecordsAndAccumulates) {
  Profiler p;
  EXPECT_TRUE(p.empty());
  p.record(make_span("k1", SpanKind::kernel, 0.0, 0.5));
  p.record(make_span("k1", SpanKind::kernel, 0.6, 1.0));
  p.record(make_span("copy", SpanKind::memcpy_h2d, 0.5, 0.6));
  EXPECT_EQ(p.spans().size(), 3u);
  EXPECT_DOUBLE_EQ(p.total_time(SpanKind::kernel), 0.9);
  EXPECT_DOUBLE_EQ(p.total_time(SpanKind::memcpy_h2d), 0.1);
  EXPECT_DOUBLE_EQ(p.total_time(SpanKind::io_write), 0.0);
}

TEST(Profiler, RejectsBackwardsSpan) {
  Profiler p;
  EXPECT_THROW(p.record(make_span("bad", SpanKind::kernel, 1.0, 0.5)),
               gs::Error);
}

TEST(Profiler, KernelStatsAggregatePerName) {
  Profiler p;
  p.record(make_span("a", SpanKind::kernel, 0.0, 1.0, 100));
  p.record(make_span("b", SpanKind::kernel, 1.0, 1.5, 50));
  p.record(make_span("a", SpanKind::kernel, 2.0, 5.0, 300));
  p.record(make_span("copy", SpanKind::memcpy_d2h, 5.0, 6.0));  // ignored

  const auto stats = p.kernel_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[0].calls, 2u);
  EXPECT_DOUBLE_EQ(stats[0].total_time, 4.0);
  EXPECT_DOUBLE_EQ(stats[0].avg_time(), 2.0);
  EXPECT_DOUBLE_EQ(stats[0].min_time, 1.0);
  EXPECT_DOUBLE_EQ(stats[0].max_time, 3.0);
  EXPECT_EQ(stats[0].total.fetch_bytes, 400u);
  EXPECT_EQ(stats[1].name, "b");
  EXPECT_EQ(stats[1].calls, 1u);
}

TEST(Profiler, CounterSetMerge) {
  CounterSet a;
  a.fetch_bytes = 10;
  a.tcc_hits = 3;
  a.tcc_misses = 1;
  CounterSet b;
  b.fetch_bytes = 5;
  b.tcc_hits = 1;
  b.tcc_misses = 3;
  b.workgroup_size = 512;
  a += b;
  EXPECT_EQ(a.fetch_bytes, 15u);
  EXPECT_EQ(a.tcc_hits, 4u);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.5);
  EXPECT_EQ(a.workgroup_size, 512u);
}

TEST(Profiler, HitRateEmptyCountersIsZero) {
  EXPECT_DOUBLE_EQ(CounterSet{}.hit_rate(), 0.0);
}

TEST(Profiler, ChromeTraceIsValidJson) {
  Profiler p;
  p.record(make_span("stencil", SpanKind::kernel, 0.0, 0.111, 1000));
  p.record(make_span("d2h:u", SpanKind::memcpy_d2h, 0.111, 0.2));
  const auto doc = gs::json::parse(p.chrome_trace_json());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").as_string(), "stencil");
  EXPECT_EQ(events[0].at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(events[0].at("dur").as_double(), 111000.0);  // us
  EXPECT_EQ(events[0].at("args").at("fetch_bytes").as_int(), 1000);
  EXPECT_EQ(events[1].at("cat").as_string(), "memcpy_d2h");
}

TEST(Profiler, ReportContainsTable3Columns) {
  Profiler p;
  Span s = make_span("_kernel_gs_2var", SpanKind::kernel, 0.0, 0.111);
  s.counters.fetch_bytes = 50ull << 30;
  s.counters.write_bytes = 16ull << 30;
  s.counters.tcc_hits = 24600000;
  s.counters.tcc_misses = 17190000;
  s.counters.workgroup_size = 512;
  s.counters.lds_bytes = 29184;
  s.counters.scratch_bytes = 8192;
  p.record(std::move(s));
  const std::string rep = p.report();
  for (const char* col : {"FETCH_SIZE", "WRITE_SIZE", "TCC_HIT", "TCC_MISS",
                          "wgr", "lds", "scr", "AvgDur"}) {
    EXPECT_NE(rep.find(col), std::string::npos) << col;
  }
  EXPECT_NE(rep.find("_kernel_gs_2var"), std::string::npos);
  EXPECT_NE(rep.find("512"), std::string::npos);
  EXPECT_NE(rep.find("29184"), std::string::npos);
}

TEST(Profiler, AsciiTimelineShowsLanes) {
  Profiler p;
  p.record(make_span("k", SpanKind::kernel, 0.0, 0.4));
  p.record(make_span("c", SpanKind::memcpy_d2h, 0.4, 0.5));
  const std::string art = p.ascii_timeline(40);
  EXPECT_NE(art.find("kernel"), std::string::npos);
  EXPECT_NE(art.find("memcpy_d2h"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
  // No lane for kinds with no spans.
  EXPECT_EQ(art.find("io_write"), std::string::npos);
}

TEST(Profiler, EmptyTimeline) {
  Profiler p;
  EXPECT_NE(p.ascii_timeline().find("empty"), std::string::npos);
}

TEST(Profiler, ClearEmpties) {
  Profiler p;
  p.record(make_span("k", SpanKind::kernel, 0.0, 1.0));
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(p.kernel_stats().empty());
}

TEST(Profiler, RecordIsThreadSafeAndLanesAreDistinct) {
  Profiler p;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&p, t] {
      for (int i = 0; i < kPerThread; ++i) {
        p.record(make_span(std::string("t").append(std::to_string(t)),
                           SpanKind::kernel, i * 1.0, i * 1.0 + 0.5));
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(p.spans().size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Each recording thread gets a stable, nonzero lane, and different
  // threads get different lanes.
  std::map<std::string, std::set<std::uint64_t>> lanes_by_name;
  for (const auto& s : p.spans()) {
    EXPECT_NE(s.tid, 0u);
    lanes_by_name[s.name].insert(s.tid);
  }
  std::set<std::uint64_t> all_lanes;
  for (const auto& [name, lanes] : lanes_by_name) {
    EXPECT_EQ(lanes.size(), 1u) << name << " used multiple lanes";
    all_lanes.insert(*lanes.begin());
  }
  EXPECT_EQ(all_lanes.size(), static_cast<std::size_t>(kThreads));
}

TEST(Profiler, ChromeTraceCarriesRecordingThreadLane) {
  Profiler p;
  Span s = make_span("svc.FieldStats", SpanKind::io_read, 0.0, 0.1);
  s.tid = 7;  // explicit lane is preserved verbatim
  p.record(std::move(s));
  p.record(make_span("k", SpanKind::kernel, 0.1, 0.2));  // lane auto-filled
  const auto doc = gs::json::parse(p.chrome_trace_json());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("tid").as_int(), 7);
  EXPECT_GT(events[1].at("tid").as_int(), 0);
}

}  // namespace
