#include "rpc/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <utility>

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
  if (left() < n) {
    GS_THROW(ParseError, "frame truncated: need " << n << " bytes at offset "
                         << off_ << ", have " << left());
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
  if (n > left() / sizeof(double)) {
    GS_THROW(ParseError, "double count " << n << " exceeds the " << left()
                         << " bytes left");
  }
  const auto raw = need(static_cast<std::size_t>(n) * sizeof(double));
  std::vector<double> out(static_cast<std::size_t>(n));
  // An empty vector's data() may be null, which memcpy must not see.
  if (n != 0) std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

// ------------------------------------------------------------------ codecs
//
// Each message's layout is written once, as a field list: a generic
// `io_<msg>(io, value)` naming every field in wire order. The Encoder runs
// a list over a const value and writes the fields; the Decoder runs the
// same list over a default value and reads them. The Decoder alone
// enforces the input rules: a presence flag is 0 or 1, an enum code is
// known, an integer fits its C++ field, a count fits the bytes left before
// anything is allocated, each `io.check` holds, and the payload ends
// exactly where the list does. So an accepted payload re-encodes to its
// own bytes, and a rejected one throws ParseError. A new field is appended
// to its message's list and bumps kVersion.

namespace {

/// Runs a field list over a const value, writing each field with the
/// ByteWriter primitive of its wire type.
class Encoder : public ByteWriter {
 public:
  void flag(bool present) { u8(present ? 1 : 0); }
  template <class E> void code(E v, int /*count*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(v));
  }

  /// u32 count, then each element's list.
  template <class T, class List>
  void seq(const std::vector<T>& v, List list) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) list(*this, e);
  }
  /// u32 count, then each (name, value) in ascending name order.
  template <class T, class List>
  void map(const std::map<std::string, T>& m, List list) {
    u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [name, value] : m) {
      str(name);
      list(*this, value);
    }
  }
  /// Presence flag, then the value's list when present.
  template <class T, class List>
  void optional(const std::optional<T>& o, List list) {
    flag(o.has_value());
    if (o) list(*this, *o);
  }

  // Input rules and value assembly are the Decoder's.
  void check(bool, const char*) {}
  template <class T, class Make> void assign(const T&, Make&&) {}
};

/// Fewest bytes one element of a list can take: its encoding when
/// default-constructed (every string empty, every list and optional
/// absent), measured once per element list.
template <class T, class List>
std::size_t min_wire_bytes(List list) {
  static const std::size_t bytes = [list] {
    Encoder e;
    const T empty{};
    list(e, empty);
    return e.bytes().size();
  }();
  return bytes;
}

/// Every Decoder rejection: one cold, out-of-line throw.
[[noreturn]] void malformed(const char* what) {
  GS_THROW(ParseError, "malformed payload: " << what);
}
[[noreturn]] void malformed(const char* what, std::uint64_t value) {
  GS_THROW(ParseError, "malformed payload: " << what << " " << value);
}

/// Runs a field list over a default value, reading each field and
/// enforcing the input rules.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> payload) : r_(payload) {}

  template <class T> void u8(T& v) { fit(v, r_.u8()); }
  template <class T> void u16(T& v) { fit(v, r_.u16()); }
  template <class T> void u32(T& v) { fit(v, r_.u32()); }
  template <class T> void u64(T& v) { fit(v, r_.u64()); }
  template <class T> void i64(T& v) { fit(v, r_.i64()); }
  void f64(double& v) { v = r_.f64(); }
  void str(std::string& s) { s = r_.str(); }
  void doubles(std::vector<double>& v) { v = r_.doubles(); }
  void flag(bool& present) {
    const std::uint8_t v = r_.u8();
    if (v > 1) malformed("presence flag", v);
    present = v == 1;
  }
  template <class E> void code(E& v, int count, const char* what) {
    const std::uint8_t c = r_.u8();
    if (c >= count) malformed(what, c);
    v = static_cast<E>(c);
  }

  template <class T, class List>
  void seq(std::vector<T>& v, List list) {
    v.resize(count(min_wire_bytes<T>(list)));
    for (T& e : v) list(*this, e);
  }
  template <class T, class List>
  void map(std::map<std::string, T>& m, List list) {
    // An element is at least an empty name (its u32 length) and a value.
    const std::size_t n = count(4 + min_wire_bytes<T>(list));
    for (std::size_t i = 0; i < n; ++i) {
      std::string name = r_.str();
      check(m.empty() || m.rbegin()->first < name,
            "names not strictly ascending");
      list(*this, m.emplace_hint(m.end(), std::move(name), T{})->second);
    }
  }
  template <class T, class List>
  void optional(std::optional<T>& o, List list) {
    bool present = false;
    flag(present);
    if (present) list(*this, o.emplace());
  }

  void check(bool ok, const char* what) {
    if (!ok) malformed(what);
  }
  template <class T, class Make> void assign(T& v, Make&& make) { v = make(); }

  void finish() {
    if (r_.left() != 0) malformed("trailing bytes", r_.left());
  }

 private:
  template <class T, class W> static void fit(T& v, W wire) {
    v = static_cast<T>(wire);
    if (static_cast<W>(v) != wire) {
      malformed("out-of-range integer", static_cast<std::uint64_t>(wire));
    }
  }

  /// A u32 element count, refused when `min_bytes`-sized elements could
  /// not fit in what is left.
  std::size_t count(std::size_t min_bytes) {
    const std::size_t n = r_.u32();
    if (n > r_.left() / min_bytes) malformed("count beyond the payload", n);
    return n;
  }

  ByteReader r_;
};

/// The variant alternative a list fills: the encoder reads the one held,
/// the decoder emplaces it.
template <class T, class V> const T& alt(Encoder&, const V& v) {
  return std::get<T>(v);
}
template <class T, class V> T& alt(Decoder&, V& v) {
  return v.template emplace<T>();
}

template <class T, class List>
std::vector<std::byte> encode(const T& value, List list) {
  Encoder e;
  list(e, value);
  return e.take();
}

template <class T, class List>
T decode(std::span<const std::byte> payload, List list) {
  Decoder d(payload);
  T value{};
  list(d, value);
  d.finish();
  return value;
}

/// The [lo, hi) window of the nonzero limbs; [0, 0) when all are zero.
std::pair<std::size_t, std::size_t> limb_window(
    const ExactSum::Limbs& limbs) {
  std::size_t lo = 0, hi = 0;
  for (std::size_t i = 0; i < ExactSum::kLimbs; ++i) {
    if (limbs[i] == 0) continue;
    if (hi == 0) lo = i;
    hi = i + 1;
  }
  return {lo, hi};
}

// ---- field lists --------------------------------------------------------

constexpr auto io_index = [](auto& io, auto& x) {
  io.i64(x.i);
  io.i64(x.j);
  io.i64(x.k);
};

constexpr auto io_box = [](auto& io, auto& box) {
  io_index(io, box.start);
  io_index(io, box.count);
};

/// ExactSum limbs go on the wire sparsely: the tight [lo, hi) window of
/// the nonzero limbs, then those limbs. Real accumulations touch a
/// handful of the 34.
constexpr auto io_limbs = [](auto& io, auto& limbs) {
  auto [lo, hi] = limb_window(limbs);
  io.u8(lo);
  io.u8(hi);
  io.check(lo <= hi && hi <= ExactSum::kLimbs,
           "exact-sum limb window out of range");
  for (std::size_t i = lo; i < hi; ++i) io.u64(limbs[i]);
  io.check(limb_window(limbs) == std::pair{lo, hi},
           "exact-sum limb window is not tight");
};

constexpr auto io_exact_sum = [](auto& io, auto& sum) {
  ExactSum::Limbs pos = sum.pos_limbs(), neg = sum.neg_limbs();
  io_limbs(io, pos);
  io_limbs(io, neg);
  io.assign(sum, [&] { return ExactSum::from_limbs(pos, neg); });
};

constexpr auto io_exact_stats = [](auto& io, auto& stats) {
  std::uint64_t n = stats.count();
  double min = stats.min(), max = stats.max();
  ExactSum sum = stats.exact_sum(), sumsq = stats.exact_sumsq();
  io.u64(n);
  io.f64(min);
  io.f64(max);
  io_exact_sum(io, sum);
  io_exact_sum(io, sumsq);
  // min() and max() read +0.0 while the count is 0.
  io.check(n != 0 || (std::bit_cast<std::uint64_t>(min) == 0 &&
                      std::bit_cast<std::uint64_t>(max) == 0),
           "empty exact stats with a min or max");
  io.assign(stats, [&] {
    return ExactStats::from_parts(n, min, max, std::move(sum),
                                  std::move(sumsq));
  });
};

constexpr auto io_request = [](auto& io, auto& request) {
  svc::Verb verb = svc::verb_of(request.body);
  io.code(verb, svc::kNumVerbs, "verb code");
  io.f64(request.timeout_seconds);
  switch (verb) {
    case svc::Verb::list_variables:
      alt<svc::ListVariablesQ>(io, request.body);
      break;
    case svc::Verb::field_stats: {
      auto& q = alt<svc::FieldStatsQ>(io, request.body);
      io.str(q.variable);
      io.i64(q.step);
      break;
    }
    case svc::Verb::histogram: {
      auto& q = alt<svc::HistogramQ>(io, request.body);
      io.str(q.variable);
      io.i64(q.step);
      io.u64(q.bins);
      io.flag(q.has_range);
      if (q.has_range) {
        io.f64(q.lo);
        io.f64(q.hi);
      }
      break;
    }
    case svc::Verb::slice2d: {
      auto& q = alt<svc::Slice2DQ>(io, request.body);
      io.str(q.variable);
      io.i64(q.step);
      io.i64(q.axis);
      io.i64(q.coord);
      break;
    }
    case svc::Verb::read_box: {
      auto& q = alt<svc::ReadBoxQ>(io, request.body);
      io.str(q.variable);
      io.i64(q.step);
      io_box(io, q.box);
      break;
    }
  }
  // Router -> shard sub-queries only.
  io.optional(request.shard, [](auto& io, auto& sel) {
    io.u64(sel.epoch);
    io.u32(sel.ring_crc);
    io.str(sel.act_as);
  });
  bool tagged = !request.tenant.empty();
  io.flag(tagged);
  if (tagged) {
    io.str(request.tenant);
    io.check(!request.tenant.empty(), "a present tenant tag is empty");
  }
};

/// The body travels only on an ok status, and its layout follows the verb.
constexpr auto io_body = [](auto& io, auto& response) {
  bool present = response.status.ok() && response.body.index() != 0;
  io.flag(present);
  if (!present) return;
  io.check(response.status.ok(), "a response body on a non-ok status");
  switch (response.verb) {
    case svc::Verb::list_variables: {
      auto& r = alt<svc::ListVariablesR>(io, response.body);
      io.i64(r.n_steps);
      io.seq(r.variables, [](auto& io, auto& var) {
        io.str(var.name);
        io.str(var.type);
        io_index(io, var.shape);
        io.i64(var.steps);
        io.f64(var.min);
        io.f64(var.max);
      });
      return;
    }
    case svc::Verb::field_stats: {
      auto& s = alt<svc::FieldStatsR>(io, response.body).stats;
      io.u64(s.count);
      io.f64(s.min);
      io.f64(s.max);
      io.f64(s.mean);
      io.f64(s.stddev);
      return;
    }
    case svc::Verb::histogram: {
      auto& r = alt<svc::HistogramR>(io, response.body);
      io.f64(r.lo);
      io.f64(r.hi);
      io.seq(r.counts, [](auto& io, auto& c) { io.u64(c); });
      io.u64(r.total);
      return;
    }
    case svc::Verb::slice2d: {
      auto& s = alt<svc::Slice2DR>(io, response.body).slice;
      io.i64(s.nx);
      io.i64(s.ny);
      io.f64(s.min);
      io.f64(s.max);
      io.doubles(s.values);
      return;
    }
    case svc::Verb::read_box: {
      auto& r = alt<svc::ReadBoxR>(io, response.body);
      io_box(io, r.box);
      io.doubles(r.values);
      return;
    }
  }
};

constexpr auto io_response = [](auto& io, auto& response) {
  io.code(response.verb, svc::kNumVerbs, "verb code");
  io.code(response.status.code, svc::kNumStatusCodes, "status code");
  io.str(response.status.message);
  io.flag(response.degraded);
  io.u64(response.bad_blocks);
  io.f64(response.queue_seconds);
  io.f64(response.exec_seconds);
  io.f64(response.latency_seconds);
  io.u64(response.cache_hits);
  io.u64(response.cache_misses);
  io.u64(response.disk_bytes);
  io_body(io, response);
  // Shard -> router sub-responses only.
  io.optional(response.partial, [](auto& io, auto& p) {
    io.u64(p.epoch);
    io.u64(p.covered_blocks);
    io.u64(p.total_blocks);
    io.seq(p.coverage, io_box);
    io.optional(p.stats, io_exact_stats);
  });
  io.u64(response.bytes_scanned);
};

/// (verb, status code, body): what a response answers, without ids,
/// messages or timings. Encoded only.
constexpr auto io_answer_identity = [](auto& io, auto& response) {
  io.code(response.verb, svc::kNumVerbs, "verb code");
  io.code(response.status.code, svc::kNumStatusCodes, "status code");
  io_body(io, response);
};

constexpr auto io_stream_step = [](auto& io, auto& step) {
  io.i64(step.sequence);
  io.map(step.arrays, [](auto& io, auto& var) {
    io_index(io, var.shape);
    io.seq(var.blocks, [](auto& io, auto& block) {
      io.i64(block.rank);
      io_box(io, block.box);
      io.doubles(block.data);
    });
  });
  io.map(step.scalars, [](auto& io, auto& value) { io.i64(value); });
};

constexpr auto io_stream_end = [](auto& io, auto& end) {
  io.u64(end.dropped);
  io.str(end.reason);
};

constexpr auto io_u64 = [](auto& io, auto& v) { io.u64(v); };

/// The frame header; its layout is tabled in wire.h.
struct Header {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t type = 0;
  std::uint64_t id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

constexpr auto io_header = [](auto& io, auto& h) {
  io.u32(h.magic);
  io.u16(h.version);
  io.u16(h.type);
  io.u64(h.id);
  io.u32(h.payload_len);
  io.u32(h.payload_crc);
};

}  // namespace

std::vector<std::byte> encode_request(const svc::Request& request) {
  return encode(request, io_request);
}

svc::Request decode_request(std::span<const std::byte> payload) {
  return decode<svc::Request>(payload, io_request);
}

std::vector<std::byte> encode_response(const svc::Response& response) {
  return encode(response, io_response);
}

svc::Response decode_response(std::span<const std::byte> payload) {
  return decode<svc::Response>(payload, io_response);
}

std::vector<std::byte> encode_answer_identity(const svc::Response& response) {
  return encode(response, io_answer_identity);
}

std::vector<std::byte> encode_stream_step(const bp::StreamStep& step) {
  return encode(step, io_stream_step);
}

bp::StreamStep decode_stream_step(std::span<const std::byte> payload) {
  return decode<bp::StreamStep>(payload, io_stream_step);
}

std::vector<std::byte> encode_stream_end(const StreamEnd& end) {
  return encode(end, io_stream_end);
}

StreamEnd decode_stream_end(std::span<const std::byte> payload) {
  return decode<StreamEnd>(payload, io_stream_end);
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
  return encode(v, io_u64);
}

std::uint64_t decode_u64(std::span<const std::byte> payload) {
  return decode<std::uint64_t>(payload, io_u64);
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

  const std::vector<std::byte> header = encode(
      Header{kMagic, kVersion, static_cast<std::uint16_t>(frame.type),
             frame.id, static_cast<std::uint32_t>(frame.payload.size()), crc},
      io_header);
  std::span<const std::byte> head(header);

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

  const auto [magic, version, type, id, payload_len, payload_crc] =
      decode<Header>(header_bytes, io_header);

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
