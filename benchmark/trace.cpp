#include "trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <stdexcept>

namespace gsbench::trace {

namespace {

struct Record {
  const char* name;
  Clock::time_point t0;
  Clock::time_point t1;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::uint64_t lane;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_lane{1};
Clock::time_point g_origin;

std::mutex g_mu;  // guards g_records
std::vector<Record> g_records;

std::uint64_t this_lane() {
  thread_local const std::uint64_t lane = g_next_lane.fetch_add(1);
  return lane;
}

double us_since_origin(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_origin).count();
}

}  // namespace

void enable() {
  g_origin = Clock::now();
  g_enabled = true;
}

bool enabled() { return g_enabled; }

Span::Span(const char* name, std::uint64_t parent, std::uint64_t request,
           bool on)
    : name_(name), parent_(parent), request_(request), t0_(Clock::now()) {
  if (on && enabled()) id_ = g_next_id.fetch_add(1);
}

Span::~Span() {
  if (id_ == 0) return;
  const Record r{name_, t0_, Clock::now(), id_, parent_, request_,
                 this_lane()};
  const std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(r);
}

double Span::seconds() const {
  return std::chrono::duration<double>(Clock::now() - t0_).count();
}

std::vector<double> durations(const std::string& name) {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::vector<double> out;
  for (const Record& r : g_records) {
    if (name == r.name) {
      out.push_back(std::chrono::duration<double>(r.t1 - r.t0).count());
    }
  }
  return out;
}

void write_chrome_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  const std::lock_guard<std::mutex> lock(g_mu);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    const double ts = us_since_origin(r.t0);
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"gsbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span_id\":%llu,\"parent_id\":%llu,"
                 "\"request_id\":%llu}}",
                 i == 0 ? "" : ",", r.name, (unsigned long long)r.lane, ts,
                 us_since_origin(r.t1) - ts, (unsigned long long)r.id,
                 (unsigned long long)r.parent, (unsigned long long)r.request);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write trace " + path);
  }
}

}  // namespace gsbench::trace
