#include "rpc/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/checksum.h"
#include "fault/fault.h"

namespace gs::rpc {

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::request: return "request";
    case FrameType::response: return "response";
    case FrameType::stats: return "stats";
    case FrameType::stats_reply: return "stats_reply";
    case FrameType::subscribe: return "subscribe";
    case FrameType::sub_ok: return "sub_ok";
    case FrameType::stream_step: return "stream_step";
    case FrameType::stream_end: return "stream_end";
    case FrameType::credit: return "credit";
    case FrameType::error_reply: return "error_reply";
    case FrameType::ping: return "ping";
    case FrameType::pong: return "pong";
    case FrameType::reload_map: return "reload_map";
    case FrameType::reload_reply: return "reload_reply";
  }
  return "?";
}

std::uint32_t max_payload_of(FrameType type) {
  switch (type) {
    // Client-to-server: a serialized query — paths, variable names, box
    // coordinates. 1 MiB is orders of magnitude above any real request.
    case FrameType::request:
      return 1u << 20;
    // Tiny control frames (empty, a single u64, or an admin token).
    case FrameType::stats:
    case FrameType::subscribe:
    case FrameType::credit:
    case FrameType::ping:
    case FrameType::sub_ok:
    case FrameType::pong:
    case FrameType::reload_map:
      return 1u << 12;
    // Bulk server-to-client frames: query answers and stream steps.
    case FrameType::response:
    case FrameType::stats_reply:
    case FrameType::stream_step:
    case FrameType::stream_end:
    case FrameType::error_reply:
    case FrameType::reload_reply:
      return kMaxPayload - 1;
  }
  return kMaxPayload - 1;
}

// -------------------------------------------------------------- ByteWriter

void ByteWriter::u8(std::uint8_t v) {
  buf_.push_back(static_cast<std::byte>(v));
}

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v & 0xff));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v & 0xffff));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v & 0xffffffffu));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(const std::string& s) {
  GS_REQUIRE(s.size() < kMaxPayload, "string too long for the wire");
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void ByteWriter::doubles(std::span<const double> v) {
  u64(v.size());
  const auto raw = std::as_bytes(v);
  buf_.insert(buf_.end(), raw.begin(), raw.end());
}

// -------------------------------------------------------------- ByteReader

std::span<const std::byte> ByteReader::need(std::size_t n) {
  if (data_.size() - off_ < n) {
    GS_THROW(ParseError, "frame truncated: need " << n << " bytes at offset "
                         << off_ << ", have " << data_.size() - off_);
  }
  const auto out = data_.subspan(off_, n);
  off_ += n;
  return out;
}

std::uint8_t ByteReader::u8() {
  return static_cast<std::uint8_t>(need(1)[0]);
}

std::uint16_t ByteReader::u16() {
  const auto lo = u8();
  return static_cast<std::uint16_t>(lo | (u8() << 8));
}

std::uint32_t ByteReader::u32() {
  const std::uint32_t lo = u16();
  return lo | (static_cast<std::uint32_t>(u16()) << 16);
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t lo = u32();
  return lo | (static_cast<std::uint64_t>(u32()) << 32);
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  const auto raw = need(n);
  return std::string(reinterpret_cast<const char*>(raw.data()), n);
}

std::vector<double> ByteReader::doubles() {
  const std::uint64_t n = u64();
  GS_REQUIRE(n <= kMaxPayload / sizeof(double),
             "oversized double array on the wire: " << n);
  const auto raw = need(static_cast<std::size_t>(n) * sizeof(double));
  std::vector<double> out(static_cast<std::size_t>(n));
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

// ------------------------------------------------------------------ codecs

namespace {

void put_box(ByteWriter& w, const Box3& box) {
  w.i64(box.start.i);
  w.i64(box.start.j);
  w.i64(box.start.k);
  w.i64(box.count.i);
  w.i64(box.count.j);
  w.i64(box.count.k);
}

Box3 get_box(ByteReader& r) {
  Box3 box;
  box.start.i = r.i64();
  box.start.j = r.i64();
  box.start.k = r.i64();
  box.count.i = r.i64();
  box.count.j = r.i64();
  box.count.k = r.i64();
  return box;
}

svc::Verb verb_from_u8(std::uint8_t v) {
  if (v >= svc::kNumVerbs) {
    GS_THROW(ParseError, "unknown verb code " << int(v) << " on the wire");
  }
  return static_cast<svc::Verb>(v);
}

svc::StatusCode status_from_u8(std::uint8_t v) {
  if (v >= svc::kNumStatusCodes) {
    GS_THROW(ParseError, "unknown status code " << int(v) << " on the wire");
  }
  return static_cast<svc::StatusCode>(v);
}

void put_response_body(ByteWriter& w, svc::Verb verb,
                       const svc::ResponseBody& body) {
  switch (verb) {
    case svc::Verb::list_variables: {
      const auto& r = std::get<svc::ListVariablesR>(body);
      w.i64(r.n_steps);
      w.u32(static_cast<std::uint32_t>(r.variables.size()));
      for (const auto& var : r.variables) {
        w.str(var.name);
        w.str(var.type);
        w.i64(var.shape.i);
        w.i64(var.shape.j);
        w.i64(var.shape.k);
        w.i64(var.steps);
        w.f64(var.min);
        w.f64(var.max);
      }
      return;
    }
    case svc::Verb::field_stats: {
      const auto& r = std::get<svc::FieldStatsR>(body);
      w.u64(r.stats.count);
      w.f64(r.stats.min);
      w.f64(r.stats.max);
      w.f64(r.stats.mean);
      w.f64(r.stats.stddev);
      return;
    }
    case svc::Verb::histogram: {
      const auto& r = std::get<svc::HistogramR>(body);
      w.f64(r.lo);
      w.f64(r.hi);
      w.u32(static_cast<std::uint32_t>(r.counts.size()));
      for (const auto c : r.counts) w.u64(c);
      w.u64(r.total);
      return;
    }
    case svc::Verb::slice2d: {
      const auto& r = std::get<svc::Slice2DR>(body);
      w.i64(r.slice.nx);
      w.i64(r.slice.ny);
      w.f64(r.slice.min);
      w.f64(r.slice.max);
      w.doubles(r.slice.values);
      return;
    }
    case svc::Verb::read_box: {
      const auto& r = std::get<svc::ReadBoxR>(body);
      put_box(w, r.box);
      w.doubles(r.values);
      return;
    }
  }
  GS_THROW(ParseError, "unencodable response body");
}

svc::ResponseBody get_response_body(ByteReader& r, svc::Verb verb) {
  switch (verb) {
    case svc::Verb::list_variables: {
      svc::ListVariablesR out;
      out.n_steps = r.i64();
      const std::uint32_t n = r.u32();
      out.variables.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        svc::VarEntry var;
        var.name = r.str();
        var.type = r.str();
        var.shape.i = r.i64();
        var.shape.j = r.i64();
        var.shape.k = r.i64();
        var.steps = r.i64();
        var.min = r.f64();
        var.max = r.f64();
        out.variables.push_back(std::move(var));
      }
      return out;
    }
    case svc::Verb::field_stats: {
      svc::FieldStatsR out;
      out.stats.count = static_cast<std::size_t>(r.u64());
      out.stats.min = r.f64();
      out.stats.max = r.f64();
      out.stats.mean = r.f64();
      out.stats.stddev = r.f64();
      return out;
    }
    case svc::Verb::histogram: {
      svc::HistogramR out;
      out.lo = r.f64();
      out.hi = r.f64();
      const std::uint32_t n = r.u32();
      out.counts.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        out.counts.push_back(static_cast<std::size_t>(r.u64()));
      }
      out.total = static_cast<std::size_t>(r.u64());
      return out;
    }
    case svc::Verb::slice2d: {
      svc::Slice2DR out;
      out.slice.nx = r.i64();
      out.slice.ny = r.i64();
      out.slice.min = r.f64();
      out.slice.max = r.f64();
      out.slice.values = r.doubles();
      return out;
    }
    case svc::Verb::read_box: {
      svc::ReadBoxR out;
      out.box = get_box(r);
      out.values = r.doubles();
      return out;
    }
  }
  GS_THROW(ParseError, "undecodable response body");
}

/// ExactSum limbs go on the wire sparsely: [lo, hi) limb window + raw
/// limbs. Real accumulations touch a handful of the 34 limbs.
void put_exact_sum(ByteWriter& w, const ExactSum& s) {
  for (const auto* limbs : {&s.pos_limbs(), &s.neg_limbs()}) {
    std::size_t lo = ExactSum::kLimbs, hi = 0;
    for (std::size_t i = 0; i < ExactSum::kLimbs; ++i) {
      if ((*limbs)[i] != 0) {
        lo = std::min(lo, i);
        hi = i + 1;
      }
    }
    if (lo >= hi) lo = hi = 0;
    w.u8(static_cast<std::uint8_t>(lo));
    w.u8(static_cast<std::uint8_t>(hi));
    for (std::size_t i = lo; i < hi; ++i) w.u64((*limbs)[i]);
  }
}

ExactSum get_exact_sum(ByteReader& r) {
  ExactSum::Limbs pos{}, neg{};
  for (auto* limbs : {&pos, &neg}) {
    const std::size_t lo = r.u8();
    const std::size_t hi = r.u8();
    GS_REQUIRE(lo <= hi && hi <= ExactSum::kLimbs,
               "bad exact-sum limb window [" << lo << "," << hi << ")");
    for (std::size_t i = lo; i < hi; ++i) (*limbs)[i] = r.u64();
  }
  return ExactSum::from_limbs(pos, neg);
}

void put_exact_stats(ByteWriter& w, const ExactStats& s) {
  w.u64(s.count());
  w.f64(s.min());
  w.f64(s.max());
  put_exact_sum(w, s.exact_sum());
  put_exact_sum(w, s.exact_sumsq());
}

ExactStats get_exact_stats(ByteReader& r) {
  const std::uint64_t n = r.u64();
  const double min = r.f64();
  const double max = r.f64();
  ExactSum sum = get_exact_sum(r);
  ExactSum sumsq = get_exact_sum(r);
  return ExactStats::from_parts(n, min, max, std::move(sum),
                                std::move(sumsq));
}

}  // namespace

std::vector<std::byte> encode_request(const svc::Request& request) {
  ByteWriter w;
  const svc::Verb verb = svc::verb_of(request.body);
  w.u8(static_cast<std::uint8_t>(verb));
  w.f64(request.timeout_seconds);
  switch (verb) {
    case svc::Verb::list_variables:
      break;
    case svc::Verb::field_stats: {
      const auto& q = std::get<svc::FieldStatsQ>(request.body);
      w.str(q.variable);
      w.i64(q.step);
      break;
    }
    case svc::Verb::histogram: {
      const auto& q = std::get<svc::HistogramQ>(request.body);
      w.str(q.variable);
      w.i64(q.step);
      w.u64(q.bins);
      // Appended within version 1: explicit bin range (shard routing).
      w.u8(q.has_range ? 1 : 0);
      if (q.has_range) {
        w.f64(q.lo);
        w.f64(q.hi);
      }
      break;
    }
    case svc::Verb::slice2d: {
      const auto& q = std::get<svc::Slice2DQ>(request.body);
      w.str(q.variable);
      w.i64(q.step);
      w.i64(q.axis);
      w.i64(q.coord);
      break;
    }
    case svc::Verb::read_box: {
      const auto& q = std::get<svc::ReadBoxQ>(request.body);
      w.str(q.variable);
      w.i64(q.step);
      put_box(w, q.box);
      break;
    }
  }
  // Appended within version 1: shard selector (router -> shard
  // sub-queries). Decoders of older frames simply find the payload
  // exhausted here.
  w.u8(request.shard.has_value() ? 1 : 0);
  if (request.shard) {
    w.u64(request.shard->epoch);
    w.u32(request.shard->ring_crc);
    w.str(request.shard->act_as);
  }
  // Appended within version 1, after the shard trailer: the tenant tag
  // for per-tenant serving metrics. Same contract — older decoders see
  // the payload exhausted before it.
  w.u8(request.tenant.empty() ? 0 : 1);
  if (!request.tenant.empty()) w.str(request.tenant);
  return w.take();
}

svc::Request decode_request(std::span<const std::byte> payload) {
  ByteReader r(payload);
  svc::Request request;
  const svc::Verb verb = verb_from_u8(r.u8());
  request.timeout_seconds = r.f64();
  switch (verb) {
    case svc::Verb::list_variables:
      request.body = svc::ListVariablesQ{};
      break;
    case svc::Verb::field_stats: {
      svc::FieldStatsQ q;
      q.variable = r.str();
      q.step = r.i64();
      request.body = std::move(q);
      break;
    }
    case svc::Verb::histogram: {
      svc::HistogramQ q;
      q.variable = r.str();
      q.step = r.i64();
      q.bins = static_cast<std::size_t>(r.u64());
      if (!r.exhausted()) {
        q.has_range = r.u8() != 0;
        if (q.has_range) {
          q.lo = r.f64();
          q.hi = r.f64();
        }
      }
      request.body = std::move(q);
      break;
    }
    case svc::Verb::slice2d: {
      svc::Slice2DQ q;
      q.variable = r.str();
      q.step = r.i64();
      q.axis = static_cast<int>(r.i64());
      q.coord = r.i64();
      request.body = std::move(q);
      break;
    }
    case svc::Verb::read_box: {
      svc::ReadBoxQ q;
      q.variable = r.str();
      q.step = r.i64();
      q.box = get_box(r);
      request.body = std::move(q);
      break;
    }
  }
  if (!r.exhausted() && r.u8() != 0) {
    svc::ShardSelector sel;
    sel.epoch = r.u64();
    sel.ring_crc = r.u32();
    sel.act_as = r.str();
    request.shard = std::move(sel);
  }
  if (!r.exhausted() && r.u8() != 0) request.tenant = r.str();
  return request;
}

std::vector<std::byte> encode_response(const svc::Response& response) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(response.verb));
  w.u8(static_cast<std::uint8_t>(response.status.code));
  w.str(response.status.message);
  w.u8(response.degraded ? 1 : 0);
  w.u64(response.bad_blocks);
  w.f64(response.queue_seconds);
  w.f64(response.exec_seconds);
  w.f64(response.latency_seconds);
  w.u64(response.cache_hits);
  w.u64(response.cache_misses);
  w.u64(response.disk_bytes);
  const bool has_body =
      response.status.ok() && response.body.index() != 0;
  w.u8(has_body ? 1 : 0);
  if (has_body) put_response_body(w, response.verb, response.body);
  // Appended within version 1: partial-answer metadata (shard -> router).
  w.u8(response.partial.has_value() ? 1 : 0);
  if (response.partial) {
    const svc::PartialMeta& p = *response.partial;
    w.u64(p.epoch);
    w.u64(p.covered_blocks);
    w.u64(p.total_blocks);
    w.u32(static_cast<std::uint32_t>(p.coverage.size()));
    for (const Box3& box : p.coverage) put_box(w, box);
    w.u8(p.stats.has_value() ? 1 : 0);
    if (p.stats) put_exact_stats(w, *p.stats);
  }
  // Appended within version 1: per-query I/O accounting (gsquery
  // --stats-json). Old decoders stop before it; new decoders read zero
  // when an old encoder omitted it.
  w.u64(response.bytes_scanned);
  return w.take();
}

svc::Response decode_response(std::span<const std::byte> payload) {
  ByteReader r(payload);
  svc::Response response;
  response.verb = verb_from_u8(r.u8());
  response.status.code = status_from_u8(r.u8());
  response.status.message = r.str();
  response.degraded = r.u8() != 0;
  response.bad_blocks = static_cast<std::size_t>(r.u64());
  response.queue_seconds = r.f64();
  response.exec_seconds = r.f64();
  response.latency_seconds = r.f64();
  response.cache_hits = static_cast<std::size_t>(r.u64());
  response.cache_misses = static_cast<std::size_t>(r.u64());
  response.disk_bytes = r.u64();
  if (r.u8() != 0) {
    response.body = get_response_body(r, response.verb);
  }
  if (!r.exhausted() && r.u8() != 0) {
    svc::PartialMeta p;
    p.epoch = r.u64();
    p.covered_blocks = r.u64();
    p.total_blocks = r.u64();
    const std::uint32_t n = r.u32();
    p.coverage.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) p.coverage.push_back(get_box(r));
    if (r.u8() != 0) p.stats = get_exact_stats(r);
    response.partial = std::move(p);
  }
  if (!r.exhausted()) response.bytes_scanned = r.u64();
  return response;
}

std::vector<std::byte> encode_answer_identity(const svc::Response& response) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(response.verb));
  w.u8(static_cast<std::uint8_t>(response.status.code));
  const bool has_body =
      response.status.ok() && response.body.index() != 0;
  w.u8(has_body ? 1 : 0);
  if (has_body) put_response_body(w, response.verb, response.body);
  return w.take();
}

std::vector<std::byte> encode_stream_step(const bp::StreamStep& step) {
  ByteWriter w;
  w.i64(step.sequence);
  w.u32(static_cast<std::uint32_t>(step.arrays.size()));
  for (const auto& [name, var] : step.arrays) {
    w.str(name);
    w.i64(var.shape.i);
    w.i64(var.shape.j);
    w.i64(var.shape.k);
    w.u32(static_cast<std::uint32_t>(var.blocks.size()));
    for (const auto& block : var.blocks) {
      w.i64(block.rank);
      put_box(w, block.box);
      w.doubles(block.data);
    }
  }
  w.u32(static_cast<std::uint32_t>(step.scalars.size()));
  for (const auto& [name, value] : step.scalars) {
    w.str(name);
    w.i64(value);
  }
  return w.take();
}

bp::StreamStep decode_stream_step(std::span<const std::byte> payload) {
  ByteReader r(payload);
  bp::StreamStep step;
  step.sequence = r.i64();
  const std::uint32_t n_arrays = r.u32();
  for (std::uint32_t a = 0; a < n_arrays; ++a) {
    const std::string name = r.str();
    auto& var = step.arrays[name];
    var.shape.i = r.i64();
    var.shape.j = r.i64();
    var.shape.k = r.i64();
    const std::uint32_t n_blocks = r.u32();
    var.blocks.reserve(n_blocks);
    for (std::uint32_t b = 0; b < n_blocks; ++b) {
      bp::StreamStep::Block block;
      block.rank = static_cast<int>(r.i64());
      block.box = get_box(r);
      block.data = r.doubles();
      var.blocks.push_back(std::move(block));
    }
  }
  const std::uint32_t n_scalars = r.u32();
  for (std::uint32_t s = 0; s < n_scalars; ++s) {
    const std::string name = r.str();
    step.scalars[name] = r.i64();
  }
  return step;
}

std::vector<std::byte> encode_stream_end(const StreamEnd& end) {
  ByteWriter w;
  w.u64(end.dropped);
  w.str(end.reason);
  return w.take();
}

StreamEnd decode_stream_end(std::span<const std::byte> payload) {
  ByteReader r(payload);
  StreamEnd end;
  end.dropped = r.u64();
  end.reason = r.str();
  return end;
}

std::vector<std::byte> encode_text(const std::string& text) {
  const auto* p = reinterpret_cast<const std::byte*>(text.data());
  return std::vector<std::byte>(p, p + text.size());
}

std::string decode_text(std::span<const std::byte> payload) {
  return std::string(reinterpret_cast<const char*>(payload.data()),
                     payload.size());
}

std::vector<std::byte> encode_u64(std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  return w.take();
}

std::uint64_t decode_u64(std::span<const std::byte> payload) {
  ByteReader r(payload);
  return r.u64();
}

// ------------------------------------------------------------ framed I/O

std::size_t send_frame(Socket& socket, const Frame& frame,
                       std::int64_t timeout_ms) {
  GS_REQUIRE(frame.payload.size() < kMaxPayload,
             "frame payload too large: " << frame.payload.size());
  auto& injector = fault::Injector::instance();

  // CRC is computed over the payload as built; an armed frame_corrupt
  // flips a byte AFTER this point so the receiver must detect it.
  const std::uint32_t crc =
      frame.payload.empty() ? 0 : crc32(std::span(frame.payload));

  ByteWriter header;
  header.u32(kMagic);
  header.u16(kVersion);
  header.u16(static_cast<std::uint16_t>(frame.type));
  header.u64(frame.id);
  header.u32(static_cast<std::uint32_t>(frame.payload.size()));
  header.u32(crc);
  std::span<const std::byte> head(header.bytes());

  // An injection armed at rpc.write lands between header and payload: the
  // header goes out alone first, so a `fail` (or `kill`) leaves the peer
  // a torn frame — a header promising bytes that never arrive.
  if (const auto injection = injector.consume("rpc.write")) {
    socket.write_all(head, timeout_ms);
    injector.act("rpc.write", *injection);
    head = {};
  }

  std::span<const std::byte> body(frame.payload);
  std::vector<std::byte> corrupted;
  if (const auto injection = injector.consume("rpc.frame_corrupt")) {
    if (injection->kind == fault::Kind::corrupt && !body.empty()) {
      corrupted.assign(body.begin(), body.end());
      injector.act("rpc.frame_corrupt", *injection, corrupted);
      body = corrupted;
    } else {
      injector.act("rpc.frame_corrupt", *injection);
    }
  }
  // Header and payload leave in one gathering send, so the frame's tail
  // never waits on the ACK of its head.
  const std::array<std::span<const std::byte>, 2> parts{head, body};
  socket.write_all(parts, timeout_ms);
  return kHeaderBytes + body.size();
}

std::optional<Frame> recv_frame(Socket& socket, std::int64_t timeout_ms) {
  fault::Injector::instance().check("rpc.read");

  std::array<std::byte, kHeaderBytes> header_bytes;
  if (!socket.read_exact(header_bytes, timeout_ms)) return std::nullopt;

  ByteReader r(header_bytes);
  const std::uint32_t magic = r.u32();
  const std::uint16_t version = r.u16();
  const std::uint16_t type = r.u16();
  const std::uint64_t id = r.u64();
  const std::uint32_t payload_len = r.u32();
  const std::uint32_t payload_crc = r.u32();

  if (magic != kMagic) {
    GS_THROW(IoError, "bad frame magic 0x" << std::hex << magic
                      << " (not a gs::rpc peer?)");
  }
  if (version != kVersion) {
    GS_THROW(IoError, "unsupported protocol version " << version
                      << " (this build speaks " << kVersion << ")");
  }
  if (type < static_cast<std::uint16_t>(FrameType::request) ||
      type > static_cast<std::uint16_t>(FrameType::reload_reply)) {
    GS_THROW(IoError, "unknown frame type " << type);
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.id = id;
  const std::uint32_t cap = max_payload_of(frame.type);
  if (payload_len >= kMaxPayload || payload_len > cap) {
    GS_THROW(IoError, "oversized " << to_string(frame.type) << " frame: "
                      << payload_len << " bytes (cap " << cap << ")");
  }

  // Grow the buffer as bytes actually arrive (not all upfront), so a
  // header promising a large payload pins at most one chunk beyond what
  // the peer has really sent.
  constexpr std::size_t kReadChunk = std::size_t{1} << 22;  // 4 MiB
  std::size_t got = 0;
  while (got < payload_len) {
    const std::size_t chunk =
        std::min<std::size_t>(payload_len - got, kReadChunk);
    frame.payload.resize(got + chunk);
    if (!socket.read_exact(std::span(frame.payload).subspan(got, chunk),
                           timeout_ms)) {
      GS_THROW(IoError, "torn frame: EOF where " << payload_len
                        << " payload bytes were promised");
    }
    got += chunk;
  }
  const std::uint32_t actual =
      frame.payload.empty() ? 0 : crc32(std::span(frame.payload));
  if (actual != payload_crc) {
    GS_THROW(CrcError, "frame crc mismatch: header says 0x"
                       << std::hex << payload_crc << ", payload is 0x"
                       << actual);
  }
  return frame;
}

}  // namespace gs::rpc
