// gsbench's span recorder. Spans are taken by the benchmark's own code
// around its calls into the modules' public functions — nothing inside
// the program is instrumented. Each span has a name, start, end, its own
// id, the id of the span that caused it, and a request id shared by the
// spans of one request. Spans stay in memory and are written at exit as
// Chrome-trace JSON (viewable in Perfetto); the per-layer metrics of a
// --trace run are computed from the same spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace gsbench::trace {

using Clock = std::chrono::steady_clock;

/// Turns recording on for the rest of the process (the --trace run).
void enable();
bool enabled();

/// A timed region. Records itself on destruction when tracing is on and
/// `on` is set (rank 0 only, or every other request); otherwise it costs
/// one clock read.
class Span {
 public:
  Span(const char* name, std::uint64_t parent, std::uint64_t request,
       bool on = true);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when this span is not recorded.
  std::uint64_t id() const { return id_; }
  double seconds() const;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::uint64_t request_;
  Clock::time_point t0_;
};

/// Durations in seconds of every recorded span named `name`.
std::vector<double> durations(const std::string& name);

/// Writes every recorded span as a Chrome-trace "traceEvents" document.
void write_chrome_json(const std::string& path);

}  // namespace gsbench::trace
