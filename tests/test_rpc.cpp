// Tests for gs::rpc — the real-socket serving layer. The wire codecs
// must round-trip every svc type bitwise, framing must reject torn and
// corrupted frames, a loopback server must answer byte-for-byte what the
// in-process service answers (TCP and Unix sockets), request-id
// multiplexing must survive pipelining, injected transport faults must
// be absorbed by client retries and counted by the server, a Handler's
// Done callbacks must reach the wire in completion order and hold
// shutdown until they run, and the live subscription channel must
// deliver in order, drop (never stall) on slow consumers, never let one
// stalled subscriber delay another, and fail producers cleanly at
// shutdown.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <variant>
#include <vector>

#include "bp/stream.h"
#include "bp/writer.h"
#include "fault/fault.h"
#include "grid/decomp.h"
#include "mpi/runtime.h"
#include "mutator.h"
#include "rpc/channel.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "svc/service.h"

namespace {

namespace fs = std::filesystem;
using gs::Box3;
using gs::Decomposition;
using gs::Index3;
using namespace gs::rpc;
namespace svc = gs::svc;

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

/// Writes kSteps of L^3 "U" and "V" with 4 ranks; returns the path.
std::string write_dataset(const std::string& name) {
  const std::string path = temp_path(name) + ".bp";
  fs::remove_all(path);
  gs::mpi::run(4, [&](gs::mpi::Comm& world) {
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
  static const std::string path = write_dataset("rpc_shared");
  return path;
}

/// A connected AF_UNIX socket pair wrapped in rpc::Socket, for driving
/// the framing layer without a server.
struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
  Socket a, b;
};

svc::Request stats_request(const std::string& var, std::int64_t step) {
  svc::Request request;
  request.body = svc::FieldStatsQ{var, step};
  return request;
}

// ---- wire codecs ---------------------------------------------------------

TEST(RpcWire, RequestRoundTripsEveryVerb) {
  const Box3 box{{1, 2, 3}, {4, 5, 6}};
  const std::vector<svc::QueryBody> bodies = {
      svc::ListVariablesQ{},
      svc::FieldStatsQ{"U", 2},
      svc::HistogramQ{"V", 1, 32},
      svc::Slice2DQ{"U", 0, 2, 7},
      svc::ReadBoxQ{"V", 1, box},
  };
  for (const auto& body : bodies) {
    svc::Request request;
    request.body = body;
    request.timeout_seconds = 1.5;
    const auto bytes = encode_request(request);
    const svc::Request back = decode_request(bytes);
    EXPECT_EQ(back.timeout_seconds, 1.5);
    EXPECT_EQ(back.body.index(), body.index());
    // Re-encoding the decoded request must reproduce the exact bytes.
    EXPECT_EQ(encode_request(back), bytes);
  }
}

TEST(RpcWire, ResponseRoundTripIsBitwise) {
  svc::Response response;
  response.id = 42;  // NOT on the wire; the frame header carries it
  response.verb = svc::Verb::slice2d;
  response.status = svc::Status{svc::StatusCode::ok, ""};
  svc::Slice2DR body;
  body.slice.nx = 2;
  body.slice.ny = 3;
  body.slice.values = {1.0, -2.5, 3.25, 0.0, 1e-300, 6.0};
  body.slice.min = -2.5;
  body.slice.max = 6.0;
  response.body = body;
  response.degraded = true;
  response.bad_blocks = 2;
  response.exec_seconds = 0.125;
  response.cache_hits = 7;

  const auto bytes = encode_response(response);
  svc::Response back = decode_response(bytes);
  EXPECT_EQ(back.id, 0u) << "decoder must leave id for the caller";
  back.id = response.id;
  EXPECT_EQ(encode_response(back), bytes);
  EXPECT_EQ(encode_answer_identity(back), encode_answer_identity(response));
  const auto& slice = std::get<svc::Slice2DR>(back.body).slice;
  EXPECT_EQ(slice.values, body.slice.values);
}

TEST(RpcWire, AnswerIdentityIgnoresTimingsButNotBody) {
  svc::Response a;
  a.verb = svc::Verb::field_stats;
  a.status = svc::Status{svc::StatusCode::ok, ""};
  a.body = svc::FieldStatsR{{10, -1.0, 2.0, 0.5, 0.1}};
  svc::Response b = a;
  b.exec_seconds = 99.0;
  b.cache_hits = 123;
  EXPECT_EQ(encode_answer_identity(a), encode_answer_identity(b));
  std::get<svc::FieldStatsR>(b.body).stats.mean = 0.6;
  EXPECT_NE(encode_answer_identity(a), encode_answer_identity(b));
}

TEST(RpcWire, TruncatedPayloadThrowsParseError) {
  const auto bytes = encode_request(stats_request("U", 1));
  for (const std::size_t keep :
       {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(
        decode_request(std::span<const std::byte>(bytes.data(), keep)),
        gs::ParseError);
  }
}

TEST(RpcWire, StreamStepRoundTrips) {
  gs::bp::StreamStep step;
  step.sequence = 7;
  step.scalars["step"] = 70;
  gs::bp::StreamStep::ArrayVar var;
  var.shape = {4, 4, 4};
  var.blocks.push_back({1, Box3{{0, 0, 0}, {4, 4, 2}}, {1.0, 2.0, 3.0}});
  var.blocks.push_back({2, Box3{{0, 0, 2}, {4, 4, 2}}, {-4.0, 5.5}});
  step.arrays["U"] = var;

  const auto bytes = encode_stream_step(step);
  const gs::bp::StreamStep back = decode_stream_step(bytes);
  EXPECT_EQ(back.sequence, 7);
  EXPECT_EQ(back.scalars.at("step"), 70);
  ASSERT_EQ(back.arrays.at("U").blocks.size(), 2u);
  EXPECT_EQ(back.arrays.at("U").blocks[1].data,
            std::vector<double>({-4.0, 5.5}));
  EXPECT_EQ(encode_stream_step(back), bytes);
}

// One encoding of each message shape: every verb's request and response,
// ok and error statuses, the shard selector, the tenant tag, a ranged
// histogram, partial metadata with exact stats, and both stream frames.
// The pins and the mutation test share them.
enum class Msg { request, response, stream_step, stream_end };

struct Encoding {
  std::string name;
  Msg msg;
  std::vector<std::byte> bytes;
};

std::vector<Encoding> wire_encodings() {
  std::vector<Encoding> out;
  const Box3 box{{1, 2, 3}, {4, 5, 6}};
  const auto request = [&](const std::string& name, svc::QueryBody body,
                           const auto& decorate) {
    svc::Request r;
    r.body = std::move(body);
    r.timeout_seconds = 2.5;
    decorate(r);
    out.push_back({name, Msg::request, encode_request(r)});
  };
  const auto plain = [](svc::Request&) {};
  request("req.list_variables", svc::ListVariablesQ{}, plain);
  request("req.field_stats", svc::FieldStatsQ{"U", 2}, plain);
  request("req.histogram", svc::HistogramQ{"V", 1, 32}, plain);
  request("req.slice2d", svc::Slice2DQ{"U", 0, 1, 7}, plain);
  request("req.read_box", svc::ReadBoxQ{"V", 1, box}, plain);
  request("req.histogram_ranged_shard_tenant",
          svc::HistogramQ{"U", 2, 16, true, -1.5, 4.25},
          [](svc::Request& r) {
            r.shard = svc::ShardSelector{7, 0xC0FFEEu, "s2"};
            r.tenant = "alice";
          });
  request("req.read_box_shard", svc::ReadBoxQ{"U", 0, box},
          [](svc::Request& r) {
            r.shard = svc::ShardSelector{3, 0x1234u, "s0"};
          });
  request("req.field_stats_tenant", svc::FieldStatsQ{"V", 0},
          [](svc::Request& r) { r.tenant = "bob"; });

  const auto response = [&](const std::string& name, svc::Verb verb,
                            svc::ResponseBody body, const auto& decorate) {
    svc::Response r;
    r.verb = verb;
    r.body = std::move(body);
    r.queue_seconds = 0.001;
    r.exec_seconds = 0.25;
    r.latency_seconds = 0.375;
    r.cache_hits = 3;
    r.cache_misses = 1;
    r.disk_bytes = 4096;
    r.bytes_scanned = 65536;
    decorate(r);
    out.push_back({name, Msg::response, encode_response(r)});
  };
  const auto ok = [](svc::Response&) {};
  svc::ListVariablesR listing;
  listing.n_steps = 3;
  listing.variables = {{"U", "double", {16, 16, 16}, 3, -1.0, 2.0},
                       {"V", "double", {16, 16, 16}, 3, 0.0, 0.5}};
  response("resp.list_variables", svc::Verb::list_variables, listing, ok);
  response("resp.field_stats", svc::Verb::field_stats,
           svc::FieldStatsR{{4096, -1.0, 2.0, 0.5, 0.25}}, ok);
  response("resp.histogram", svc::Verb::histogram,
           svc::HistogramR{-1.0, 2.0, {3, 0, 5, 1}, 9}, ok);
  svc::Slice2DR slice;
  slice.slice = {2, 2, {1.0, -2.5, 3.25, 1e-300}, -2.5, 3.25};
  response("resp.slice2d", svc::Verb::slice2d, slice, ok);
  response("resp.read_box", svc::Verb::read_box,
           svc::ReadBoxR{Box3{{0, 0, 0}, {1, 1, 2}}, {0.5, -0.25}},
           [](svc::Response& r) {
             r.degraded = true;
             r.bad_blocks = 1;
           });
  response("resp.bad_request", svc::Verb::field_stats, std::monostate{},
           [](svc::Response& r) {
             r.status = {svc::StatusCode::bad_request, "no variable W"};
           });
  response("resp.server_busy", svc::Verb::histogram, std::monostate{},
           [](svc::Response& r) {
             r.status = {svc::StatusCode::server_busy, "queue full"};
           });
  response("resp.partial_exact_stats", svc::Verb::field_stats,
           svc::FieldStatsR{{3, -2.0, 1e10, 1.0, 0.5}},
           [&](svc::Response& r) {
             gs::ExactStats stats;
             for (const double x : {-2.0, 0.125, 1e10}) stats.add(x);
             r.partial = svc::PartialMeta{9, 2, 8, {box, box}, stats};
           });
  // A shard owning none of the blocks: an empty accumulator.
  response("resp.partial_empty_stats", svc::Verb::field_stats,
           svc::FieldStatsR{}, [&](svc::Response& r) {
             r.partial = svc::PartialMeta{9, 0, 8, {}, gs::ExactStats{}};
           });
  response("resp.partial_slice", svc::Verb::slice2d, slice,
           [&](svc::Response& r) {
             r.partial = svc::PartialMeta{9, 1, 8, {box}, std::nullopt};
           });

  gs::bp::StreamStep step;
  step.sequence = 7;
  step.scalars["step"] = 70;
  step.scalars["t"] = -3;
  gs::bp::StreamStep::ArrayVar var;
  var.shape = {4, 4, 4};
  var.blocks.push_back({1, Box3{{0, 0, 0}, {4, 4, 2}}, {1.0, 2.0, 3.0}});
  var.blocks.push_back({2, Box3{{0, 0, 2}, {4, 4, 2}}, {-4.0, 5.5}});
  step.arrays["U"] = var;
  step.arrays["V"] = var;
  out.push_back({"stream_step", Msg::stream_step, encode_stream_step(step)});
  out.push_back({"stream_end", Msg::stream_end,
                 encode_stream_end(StreamEnd{3, "producer closed"})});
  return out;
}

/// Decodes `bytes` as `msg` and encodes the result again.
std::vector<std::byte> reencode(Msg msg, std::span<const std::byte> bytes) {
  switch (msg) {
    case Msg::request: return encode_request(decode_request(bytes));
    case Msg::response: return encode_response(decode_response(bytes));
    case Msg::stream_step:
      return encode_stream_step(decode_stream_step(bytes));
    case Msg::stream_end: return encode_stream_end(decode_stream_end(bytes));
  }
  return {};
}

TEST(RpcWire, EncodingsArePinned) {
  // CRC-32 of every wire_encodings() entry. These bytes are protocol
  // version 1: a change here is a layout change and bumps kVersion.
  const std::vector<std::pair<std::string, std::uint32_t>> pins = {
      {"req.list_variables", 0x947FAB7Bu},
      {"req.field_stats", 0xCB750481u},
      {"req.histogram", 0x0766EA02u},
      {"req.slice2d", 0x9D8C405Cu},
      {"req.read_box", 0x0EA2384Cu},
      {"req.histogram_ranged_shard_tenant", 0x0D20C0B6u},
      {"req.read_box_shard", 0x4B29FA87u},
      {"req.field_stats_tenant", 0x71904562u},
      {"resp.list_variables", 0x1CB95B25u},
      {"resp.field_stats", 0xA1FAFCC8u},
      {"resp.histogram", 0x8AAE305Eu},
      {"resp.slice2d", 0x5A6EFB0Bu},
      {"resp.read_box", 0xA31A57CEu},
      {"resp.bad_request", 0xEB89323Bu},
      {"resp.server_busy", 0x0F58A22Au},
      {"resp.partial_exact_stats", 0x31CCB86Au},
      {"resp.partial_empty_stats", 0x02EE10FEu},
      {"resp.partial_slice", 0x9A816D80u},
      {"stream_step", 0xAD5EBBC7u},
      {"stream_end", 0xD267DAF9u},
  };
  const auto encodings = wire_encodings();
  ASSERT_EQ(encodings.size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(encodings[i].name, pins[i].first);
    EXPECT_EQ(gs::crc32(encodings[i].bytes), pins[i].second)
        << encodings[i].name;
    EXPECT_EQ(reencode(encodings[i].msg, encodings[i].bytes),
              encodings[i].bytes)
        << encodings[i].name;
  }
}

TEST(RpcWire, NonCanonicalPayloadsThrowParseError) {
  std::map<std::string, std::vector<std::byte>> by_name;
  for (auto& e : wire_encodings()) by_name[e.name] = std::move(e.bytes);
  const auto find = [&](const std::string& name) { return by_name.at(name); };
  const auto with = [](std::vector<std::byte> bytes, std::size_t at,
                       std::uint8_t value) {
    bytes[at] = std::byte{value};
    return bytes;
  };

  // Appended bytes, a missing bytes_scanned.
  const auto request = find("req.field_stats");
  auto longer = request;
  longer.resize(request.size() + 2);
  EXPECT_THROW(decode_request(longer), gs::ParseError);
  const auto response = find("resp.field_stats");
  EXPECT_THROW(decode_response({response.data(), response.size() - 8}),
               gs::ParseError);

  // A tenant flag of 1 with an empty name: "bob" cut off and its length
  // zeroed.
  auto tagged = find("req.field_stats_tenant");
  tagged.resize(tagged.size() - 3);
  std::fill(tagged.end() - 4, tagged.end(), std::byte{0});
  EXPECT_THROW(decode_request(tagged), gs::ParseError);

  // Presence flags are 0 or 1: `degraded` sits after verb, status and the
  // empty status message.
  EXPECT_THROW(decode_response(with(response, 6, 2)), gs::ParseError);

  // A body on a non-ok status.
  EXPECT_THROW(decode_response(with(response, 1, 3)), gs::ParseError);

  // Counts beyond the bytes left throw before anything is allocated: the
  // histogram bin count, then a slice's double count.
  auto histogram = find("resp.histogram");
  const std::size_t bins_at = 2 + 4 + 1 + 8 + 3 * 8 + 3 * 8 + 1 + 16;
  ASSERT_EQ(static_cast<std::uint8_t>(histogram[bins_at]), 4u);
  for (std::size_t i = 0; i < 4; ++i) histogram[bins_at + i] = std::byte{0xFF};
  EXPECT_THROW(decode_response(histogram), gs::ParseError);
  auto slice = find("resp.slice2d");
  const std::size_t values_at = 2 + 4 + 1 + 8 + 3 * 8 + 3 * 8 + 1 + 32;
  ASSERT_EQ(static_cast<std::uint8_t>(slice[values_at]), 4u);
  slice[values_at + 7] = std::byte{0x10};
  EXPECT_THROW(decode_response(slice), gs::ParseError);
}

TEST(RpcWire, SeededMutationsRoundTripOrThrowParseError) {
  // Bit flips, truncations, appended bytes and count inflations of every
  // wire_encodings() entry. Each mutant either decodes to a value that
  // re-encodes to exactly its own bytes or is rejected with ParseError;
  // under ASan a read past the payload fails the run.
  const auto encodings = wire_encodings();
  // Count and length fields are little-endian u32s holding small values;
  // inflation picks among the offsets where one could start.
  std::vector<std::vector<std::size_t>> counts(encodings.size());
  for (std::size_t e = 0; e < encodings.size(); ++e) {
    const auto& bytes = encodings[e].bytes;
    for (std::size_t at = 0; at + 4 <= bytes.size(); ++at) {
      std::uint32_t v = 0;
      for (std::size_t i = 4; i-- > 0;) {
        v = (v << 8) | static_cast<std::uint8_t>(bytes[at + i]);
      }
      if (v >= 1 && v <= 4096) counts[e].push_back(at);
    }
  }
  gs::test::Mutator mutator(30);
  int round_trips = 0;
  int rejected = 0;
  const int kMutations = 24000;
  for (int m = 0; m < kMutations; ++m) {
    const std::size_t e = mutator.below(encodings.size());
    std::vector<std::byte> s = encodings[e].bytes;
    const auto kind = mutator.below(5);
    if (kind == 0 || kind == 3) mutator.flip_bits(s);
    if (kind == 1 || kind == 3) mutator.truncate(s);
    if (kind == 2 && !counts[e].empty()) {
      const std::size_t at = counts[e][mutator.below(counts[e].size())];
      mutator.inflate(s, at, 4, /*big_endian=*/false);
    }
    if (kind == 4) mutator.append(s);
    try {
      const auto again = reencode(encodings[e].msg, s);
      ASSERT_EQ(again, s) << "mutation " << m << " of " << encodings[e].name
                          << " decoded but re-encodes differently";
      ++round_trips;
    } catch (const gs::ParseError&) {
      ++rejected;
    } catch (const std::exception& x) {
      FAIL() << "mutation " << m << " of " << encodings[e].name
             << " threw an untyped " << x.what();
    }
  }
  RecordProperty("round_trips", round_trips);
  RecordProperty("rejected", rejected);
  // Both outcomes are common, or the mutator is not reaching the decoder.
  EXPECT_GT(round_trips, kMutations / 10);
  EXPECT_GT(rejected, kMutations / 10);
}

TEST(RpcWire, FramesCarryTypeIdAndPayload) {
  SocketPair pair;
  Frame frame;
  frame.type = FrameType::request;
  frame.id = 0xDEADBEEFCAFEull;
  frame.payload = encode_request(stats_request("U", 0));
  const std::size_t wire_bytes = send_frame(pair.a, frame, 1000);
  EXPECT_EQ(wire_bytes, kHeaderBytes + frame.payload.size());

  const auto got = recv_frame(pair.b, 1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, FrameType::request);
  EXPECT_EQ(got->id, frame.id);
  EXPECT_EQ(got->payload, frame.payload);

  pair.a.close();
  EXPECT_FALSE(recv_frame(pair.b, 1000).has_value()) << "clean EOF";
}

TEST(RpcWire, BadMagicAndTornFramesRejected) {
  {
    SocketPair pair;
    std::vector<std::byte> junk(kHeaderBytes, std::byte{0x5A});
    pair.a.write_all(junk, 1000);
    EXPECT_THROW(recv_frame(pair.b, 1000), gs::IoError);
  }
  Frame frame;
  frame.type = FrameType::stats_reply;
  frame.payload = encode_text("{}");
  // A fail at rpc.write lands between header and payload: the header
  // alone goes out, then the fault surfaces to the sender.
  const auto send_torn = [&](Socket& sock) {
    gs::fault::Plan plan;
    plan.fail_at("rpc.write", 0);
    gs::fault::ScopedPlan scoped(plan);
    EXPECT_THROW(send_frame(sock, frame, 1000), gs::fault::InjectedFault);
    sock.close();
  };
  {
    // On the wire: exactly the 24 header bytes, then EOF.
    SocketPair pair;
    send_torn(pair.a);
    std::array<std::byte, kHeaderBytes> header{};
    ASSERT_TRUE(pair.b.read_exact(header, 1000)) << "header never arrived";
    ByteReader r(header);
    EXPECT_EQ(r.u32(), kMagic);
    std::byte extra[1]{};
    EXPECT_FALSE(pair.b.read_exact(extra, 1000)) << "bytes past the header";
  }
  {
    // The receiver reports it as a torn frame — not a bad magic, not a
    // clean EOF between frames.
    SocketPair pair;
    send_torn(pair.a);
    try {
      recv_frame(pair.b, 1000);
      ADD_FAILURE() << "torn frame accepted or read as a clean EOF";
    } catch (const gs::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("torn frame"), std::string::npos)
          << e.what();
    }
  }
}

TEST(RpcWire, LargeFrameResumesPartialSendsIntoSmallSendBuffer) {
  // A 4 MiB frame through a send buffer a few KiB wide: write_all must
  // resume sendmsg after every partial send, across the header/payload
  // iovec boundary, while the reader drains late.
  SocketPair pair;
  const int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(pair.a.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  Frame frame;
  frame.type = FrameType::response;
  frame.id = 99;
  frame.payload.resize(std::size_t{4} << 20);
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<std::byte>((i * 131 + (i >> 12)) & 0xFF);
  }
  std::optional<Frame> got;
  std::string reader_error;
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    try {
      got = recv_frame(pair.b, 10000);  // CrcError on any misplaced byte
    } catch (const std::exception& e) {
      reader_error = e.what();
    }
  });
  std::size_t sent = 0;
  EXPECT_NO_THROW(sent = send_frame(pair.a, frame, 10000));
  reader.join();
  EXPECT_EQ(sent, kHeaderBytes + frame.payload.size());
  ASSERT_EQ(reader_error, "");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, frame.id);
  EXPECT_TRUE(got->payload == frame.payload);
}

TEST(RpcWire, CorruptedPayloadFailsCrc) {
  SocketPair pair;
  Frame frame;
  frame.type = FrameType::stats_reply;
  frame.payload = encode_text("the payload the CRC signed");
  gs::fault::Plan plan;
  plan.corrupt_at("rpc.frame_corrupt", 0, /*byte_offset=*/3);
  gs::fault::ScopedPlan scoped(plan);
  send_frame(pair.a, frame, 1000);
  EXPECT_THROW(recv_frame(pair.b, 1000), CrcError);
}

TEST(RpcWire, OversizedClientFrameRejectedBeforePayloadArrives) {
  // A header-only attack: 24 bytes promising a huge subscribe payload
  // must be rejected up front (per-type cap), not buffered for 1 GiB.
  SocketPair pair;
  ByteWriter header;
  header.u32(kMagic);
  header.u16(kVersion);
  header.u16(static_cast<std::uint16_t>(FrameType::subscribe));
  header.u64(7);
  header.u32(1u << 20);  // payload_len far above the subscribe cap
  header.u32(0);         // crc (never checked: rejected earlier)
  pair.a.write_all(header.bytes(), 1000);
  EXPECT_THROW(recv_frame(pair.b, 1000), gs::IoError);
}

TEST(RpcWire, PerTypeCapsAdmitRealTrafficAndBoundControlFrames) {
  EXPECT_GE(max_payload_of(FrameType::request), 1u << 16);
  EXPECT_LE(max_payload_of(FrameType::subscribe), 1u << 16);
  EXPECT_LE(max_payload_of(FrameType::credit), 1u << 16);
  EXPECT_LE(max_payload_of(FrameType::ping), 1u << 16);
  EXPECT_GE(max_payload_of(FrameType::response), kMaxPayload - 1);
  EXPECT_GE(max_payload_of(FrameType::stream_step), kMaxPayload - 1);
}

TEST(RpcSocket, ZeroTimeoutWaitReadablePollsWithoutBlocking) {
  SocketPair pair;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(pair.b.wait_readable(0));   // nothing pending: immediate no
  EXPECT_FALSE(pair.b.wait_readable(-5));  // negative behaves the same
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(2)) << "zero-timeout poll blocked";

  const std::byte one[1] = {std::byte{42}};
  pair.a.write_all(one, 1000);
  EXPECT_TRUE(pair.b.wait_readable(0));  // pending data visible at once
}

TEST(RpcSocket, TcpNoDelayOnBothEnds) {
  const auto nodelay = [](const Socket& sock) {
    int value = 0;
    socklen_t len = sizeof(value);
    EXPECT_EQ(::getsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len),
              0);
    return value;
  };
  Listener listener =
      Listener::bind_listen(Endpoint::parse("127.0.0.1:0"), 4);
  Socket dialed = dial(listener.endpoint(), 2000);
  std::optional<Socket> accepted = listener.accept(2000);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(nodelay(dialed), 1);
  EXPECT_EQ(nodelay(*accepted), 1);

  // Unix endpoints take no TCP option and still carry frames both ways.
  Listener unix_listener = Listener::bind_listen(
      Endpoint::parse("unix:" + temp_path("rpc_nodelay.sock")), 4);
  Socket client = dial(unix_listener.endpoint(), 2000);
  std::optional<Socket> server = unix_listener.accept(2000);
  ASSERT_TRUE(server.has_value());
  Frame frame;
  frame.type = FrameType::ping;
  frame.id = 5;
  send_frame(client, frame, 1000);
  const auto request = recv_frame(*server, 1000);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->id, 5u);
  frame.type = FrameType::pong;
  send_frame(*server, frame, 1000);
  const auto reply = recv_frame(client, 1000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::pong);
}

TEST(RpcSocket, ClosedSocketOperationsThrowIoError) {
  SocketPair pair;
  pair.a.close();
  const std::byte one[1] = {std::byte{42}};
  EXPECT_THROW(pair.a.write_all(one, 100), gs::IoError);
  EXPECT_THROW(pair.a.wait_readable(100), gs::IoError);
  std::byte buf[1];
  EXPECT_THROW(pair.a.read_exact(buf, 100), gs::IoError);
}

// ---- loopback serving ----------------------------------------------------

/// Compares every verb answered remotely against the in-process service,
/// by canonical answer-identity bytes (verb + status + body).
void expect_bitwise_identical(const std::string& listen) {
  gs::svc::Service service(dataset());
  ServerConfig config;
  config.listen = listen;
  Server server(service, config);
  Client remote(server.endpoint());

  const Box3 box{{1, 1, 1}, {6, 5, 4}};
  const std::vector<std::pair<const char*, svc::QueryBody>> queries = {
      {"ls", svc::ListVariablesQ{}},
      {"stats0", svc::FieldStatsQ{"U", 0}},
      {"stats2", svc::FieldStatsQ{"U", 2}},
      {"hist", svc::HistogramQ{"V", 1, 16}},
      {"slice", svc::Slice2DQ{"U", 2, 2, 8}},
      {"read", svc::ReadBoxQ{"V", 1, box}},
  };
  for (const auto& [what, body] : queries) {
    svc::Request request;
    request.body = body;
    const svc::Response via_wire = remote.call(request);
    const svc::Response in_process = service.call(request);
    ASSERT_TRUE(via_wire.status.ok()) << via_wire.status.message;
    EXPECT_EQ(encode_answer_identity(via_wire),
              encode_answer_identity(in_process))
        << what << " over " << listen;
  }
  server.shutdown();
}

TEST(RpcServer, TcpAnswersAreBitwiseIdentical) {
  expect_bitwise_identical("127.0.0.1:0");
}

TEST(RpcServer, UnixSocketAnswersAreBitwiseIdentical) {
  expect_bitwise_identical("unix:" + temp_path("rpc_eq.sock"));
}

TEST(RpcServer, ErrorStatusesCrossTheWire) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());

  const auto bad = client.field_stats("NO_SUCH_VAR", 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code, svc::StatusCode::bad_request);
  EXPECT_FALSE(bad.status().message.empty());

  ClientConfig expired_config;
  expired_config.default_timeout_seconds = -1.0;  // already expired
  Client expired(server.endpoint(), expired_config);
  const auto late = expired.field_stats("U", 0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code, svc::StatusCode::deadline_exceeded);
  server.shutdown();
}

TEST(RpcServer, PipelinedRequestsMultiplexById) {
  gs::svc::Service service(dataset());
  Server server(service);
  Socket sock = dial(server.endpoint(), 2000);

  constexpr std::uint64_t kFirstId = 100;
  constexpr int kPipelined = 12;
  for (int i = 0; i < kPipelined; ++i) {
    Frame frame;
    frame.type = FrameType::request;
    frame.id = kFirstId + static_cast<std::uint64_t>(i);
    frame.payload =
        encode_request(stats_request(i % 2 ? "U" : "V", i % kSteps));
    send_frame(sock, frame, 2000);
  }
  std::vector<bool> seen(kPipelined, false);
  for (int i = 0; i < kPipelined; ++i) {
    const auto reply = recv_frame(sock, 5000);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::response);
    ASSERT_GE(reply->id, kFirstId);
    const auto slot = static_cast<std::size_t>(reply->id - kFirstId);
    ASSERT_LT(slot, seen.size());
    EXPECT_FALSE(seen[slot]) << "duplicate response id";
    seen[slot] = true;
    const svc::Response response = decode_response(reply->payload);
    EXPECT_TRUE(response.status.ok()) << response.status.message;
  }
  sock.close();
  server.shutdown();
  EXPECT_EQ(server.stats().responses, static_cast<std::uint64_t>(kPipelined));
}

TEST(RpcServer, ConnectionLimitRejectsWithReason) {
  gs::svc::Service service(dataset());
  ServerConfig config;
  config.max_connections = 1;
  Server server(service, config);

  Client first(server.endpoint());
  first.ping();  // occupy the only slot

  Socket second = dial(server.endpoint(), 2000);
  const auto reply = recv_frame(second, 5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::error_reply);
  EXPECT_NE(decode_text(reply->payload).find("busy"), std::string::npos);

  first.disconnect();
  server.shutdown();
  EXPECT_GE(server.stats().rejected_capacity, 1u);
}

TEST(RpcServer, StatsRpcReportsTransportAndService) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());
  ASSERT_TRUE(client.field_stats("U", 0).ok());

  const gs::json::Value doc = client.server_stats();
  EXPECT_EQ(doc.at("dataset").as_string(), dataset());
  EXPECT_EQ(doc.at("endpoint").as_string(), server.endpoint().str());
  const auto& rpc = doc.at("rpc");
  EXPECT_GE(rpc.at("requests").as_int(), 1);
  EXPECT_GE(rpc.at("latency_count").as_int(), 1);
  EXPECT_GE(rpc.at("latency_p99").as_double(),
            rpc.at("latency_p50").as_double());
  EXPECT_GE(doc.at("service").at("completed_ok").as_int(), 1);
  server.shutdown();
}

/// A Handler that answers list_variables inline after holding each
/// request for `hold_ms`.
class HoldingHandler : public svc::Handler {
 public:
  void submit(svc::Request request, Done done) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms.load()));
    svc::Response response;
    response.verb = svc::verb_of(request.body);
    response.body = svc::ListVariablesR{};
    done(std::move(response));
  }
  gs::json::Value stats_json() const override {
    gs::json::Object obj;
    obj["dataset"] = gs::json::Value("held");
    return gs::json::Value(std::move(obj));
  }

  std::atomic<int> hold_ms{0};
};

TEST(RpcServer, StatsPercentilesFollowLaterRequests) {
  HoldingHandler handler;
  Server server(handler);
  Client client(server.endpoint());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(client.list_variables().ok());
  const gs::json::Value fast = server.stats().to_json();
  EXPECT_LT(fast.at("latency_p50").as_double(), 0.005);

  // Three held requests for every fast one: the lifetime median is a
  // held one, so a stats call must now report it.
  handler.hold_ms = 6;
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(client.list_variables().ok());
  const gs::json::Value slow = server.stats().to_json();
  EXPECT_GT(slow.at("latency_p50").as_double(), 0.005);
  EXPECT_GE(slow.at("latency_p99").as_double(),
            slow.at("latency_p50").as_double());
  EXPECT_EQ(slow.at("latency_count").as_int(),
            slow.at("responses").as_int());
  server.shutdown();
}

TEST(RpcServer, LoadSignalsReportQueueInflightAndDecayedRate) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.field_stats("U", 0).ok());
  }

  // The PR 10 load signals the resharding controller polls: admission
  // queue depth, settled in-flight count, and a decayed request rate
  // that must still be warm right after a burst.
  const auto stats = server.stats();
  EXPECT_GE(stats.requests, 8u);
  EXPECT_EQ(stats.inflight, 0u)
      << "every answered request must settle its in-flight count";
  EXPECT_GT(stats.rate_rps, 0.0)
      << "the decayed rate must reflect the burst that just finished";

  // The same three fields ride the stats RPC document (append-only JSON:
  // existing consumers keep working, the collector reads the new keys).
  const gs::json::Value doc = client.server_stats();
  const auto& rpc = doc.at("rpc");
  EXPECT_EQ(rpc.at("queue_depth").as_int(), 0);
  EXPECT_EQ(rpc.at("inflight").as_int(), 0);
  EXPECT_GT(rpc.at("rate_rps").as_double(), 0.0);
  // The serving epoch rides along too (0 = unsharded standalone daemon).
  EXPECT_EQ(doc.at("epoch").as_int(), 0);
  server.shutdown();
}

TEST(RpcServer, ShutdownDrainsInFlightRequests) {
  std::atomic<bool> release{false};
  gs::svc::ServiceConfig svc_config;
  svc_config.threads = 1;
  svc_config.before_execute = [&](const svc::Request&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  gs::svc::Service service(dataset(), std::move(svc_config));
  Server server(service);

  Client client(server.endpoint());
  std::optional<svc::Expected<svc::FieldStatsR>> result;
  std::thread caller([&] { result = client.field_stats("U", 1); });
  // Wait until the request is parked inside the service worker.
  while (service.metrics().submitted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread stopper([&] { server.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release = true;
  stopper.join();
  caller.join();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok()) << "in-flight request dropped at shutdown: "
                            << result->status().message;
}

/// A Handler that parks list_variables requests until the test completes
/// them, and rejects field_stats inline, inside submit().
class ParkingHandler : public svc::Handler {
 public:
  void submit(svc::Request request, Done done) override {
    svc::Response response;
    response.verb = svc::verb_of(request.body);
    if (std::holds_alternative<svc::FieldStatsQ>(request.body)) {
      response.status = {svc::StatusCode::server_busy, "rejected inline"};
      done(std::move(response));
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    parked_.push_back({std::move(response), std::move(done)});
    cv_.notify_all();
  }
  gs::json::Value stats_json() const override {
    gs::json::Object obj;
    obj["dataset"] = gs::json::Value("parked");
    return gs::json::Value(std::move(obj));
  }

  void wait_parked(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_.size() >= n; });
  }
  /// Completes the i-th parked request (in arrival order) from the
  /// calling thread; its answer carries `i` as n_steps.
  void complete(std::size_t i) {
    Parked job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job = std::move(parked_.at(i));
    }
    job.response.body = svc::ListVariablesR{static_cast<std::int64_t>(i), {}};
    job.done(std::move(job.response));
  }

 private:
  struct Parked {
    svc::Response response;
    Done done;
  };
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Parked> parked_;
};

void send_request(Socket& sock, std::uint64_t id, svc::QueryBody body) {
  svc::Request request;
  request.body = std::move(body);
  Frame frame;
  frame.type = FrameType::request;
  frame.id = id;
  frame.payload = encode_request(request);
  send_frame(sock, frame, 2000);
}

/// The next frame on `sock`: a response with `id`, decoded.
svc::Response expect_response(Socket& sock, std::uint64_t id) {
  const auto frame = recv_frame(sock, 5000);
  EXPECT_TRUE(frame.has_value());
  if (!frame) return {};
  EXPECT_EQ(frame->type, FrameType::response);
  EXPECT_EQ(frame->id, id);
  return decode_response(frame->payload);
}

TEST(RpcServer, HandlerRepliesGoOutInCompletionOrder) {
  ParkingHandler handler;
  Server server(handler);
  Socket sock = dial(server.endpoint(), 2000);

  for (std::uint64_t id = 1; id <= 3; ++id) {
    send_request(sock, id, svc::ListVariablesQ{});
  }
  handler.wait_parked(3);
  // Done run inline inside submit() answers before anything parked.
  send_request(sock, 4, svc::FieldStatsQ{"U", 0});
  EXPECT_EQ(expect_response(sock, 4).status.code,
            svc::StatusCode::server_busy);

  // Completed from this thread in reverse: each reply follows its Done.
  for (std::size_t i = 3; i-- > 0;) {
    handler.complete(i);
    const svc::Response response = expect_response(sock, i + 1);
    ASSERT_TRUE(response.status.ok()) << response.status.message;
    EXPECT_EQ(std::get<svc::ListVariablesR>(response.body).n_steps,
              static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(server.stats().inflight, 0u);
  server.shutdown();  // joins the owner: every reply is counted
  EXPECT_EQ(server.stats().requests, 4u);
  EXPECT_EQ(server.stats().responses, 4u);
}

TEST(RpcServer, ShutdownWaitsForAHeldDoneAndDeliversItsReply) {
  ParkingHandler handler;
  Server server(handler);
  Socket sock = dial(server.endpoint(), 2000);
  send_request(sock, 7, svc::ListVariablesQ{});
  handler.wait_parked(1);

  std::atomic<bool> returned{false};
  std::thread stopper([&] {
    server.shutdown();
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load()) << "shutdown returned with a Done held";

  handler.complete(0);
  EXPECT_TRUE(expect_response(sock, 7).status.ok());
  stopper.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(server.stats().inflight, 0u);
}

TEST(RpcServer, ShutdownWithoutClientsDoesNotWaitOutAPollTick) {
  ParkingHandler handler;
  Server server(handler);
  // Let the acceptor block in its wait before it is asked to stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  server.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(10));
}

TEST(RpcLatency, LoopbackRoundTripUnderDelayedAckFloor) {
  // A frame whose header and payload leave as separate small segments
  // waits for the peer's delayed ACK (40 ms minimum on Linux) before its
  // tail is sent. One gather send plus TCP_NODELAY puts a loopback round
  // trip far below that floor, even under a sanitizer.
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());
  client.ping();  // connect outside the timed calls

  const auto median_ms = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const auto time_ms = [](const auto& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<double> pings;
  std::vector<double> stats;
  for (int i = 0; i < 200; ++i) {
    pings.push_back(time_ms([&] { client.ping(); }));
  }
  for (int i = 0; i < 50; ++i) {
    stats.push_back(time_ms([&] {
      ASSERT_TRUE(client.field_stats("U", i % kSteps).ok());
    }));
  }
  // Each kind separately: an empty-payload ping is one segment each way
  // and never met the stall; a request with a payload always did.
  EXPECT_LT(median_ms(pings), 10.0);
  EXPECT_LT(median_ms(stats), 10.0);
  server.shutdown();
}

// ---- injected transport faults ------------------------------------------

TEST(RpcFault, CorruptFrameDetectedCountedRetried) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());
  client.ping();  // establish the connection before arming the plan

  gs::fault::Plan plan;
  // Op 0 is the client's next request frame: it reaches the server with
  // a flipped payload byte, the server detects the CRC mismatch and
  // drops the connection, and the client's retry loop reconnects.
  plan.corrupt_at("rpc.frame_corrupt", 0, /*byte_offset=*/5);
  gs::fault::ScopedPlan scoped(plan);

  const auto r = client.field_stats("U", 0);
  ASSERT_TRUE(r.ok()) << r.status().message;
  EXPECT_GE(server.stats().crc_errors, 1u);
  server.shutdown();
}

TEST(RpcFault, TornServerWriteIsRetriedByClient) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());
  client.ping();

  gs::fault::Plan plan;
  // Op 0: the client's request goes out intact. Op 1: the server's
  // response tears between header and payload; the worker drops the
  // connection and the client reconnects and retries.
  plan.fail_at("rpc.write", 1);
  gs::fault::ScopedPlan scoped(plan);

  const auto r = client.field_stats("V", 1);
  ASSERT_TRUE(r.ok()) << r.status().message;
  EXPECT_GE(server.stats().io_errors, 1u);
  server.shutdown();
}

TEST(RpcFault, KilledConnectionIsCountedAndSurvived) {
  gs::svc::Service service(dataset());
  Server server(service);

  gs::fault::Plan plan;
  plan.kill_at("rpc.accept", 0);  // first accepted connection dies
  gs::fault::ScopedPlan scoped(plan);

  Client client(server.endpoint());
  client.ping();  // first dial is killed server-side; the retry succeeds
  EXPECT_GE(server.stats().killed_connections, 1u);
  server.shutdown();
}

// ---- live subscriptions --------------------------------------------------

gs::bp::StreamStep make_step(std::int64_t sequence) {
  gs::bp::StreamStep step;
  step.sequence = sequence;
  step.scalars["step"] = sequence * 10;
  gs::bp::StreamStep::ArrayVar var;
  var.shape = {2, 2, 1};
  var.blocks.push_back({0, Box3{{0, 0, 0}, {2, 2, 1}},
                        {0.0 + static_cast<double>(sequence), 1.0, 2.0, 3.0}});
  step.arrays["U"] = var;
  return step;
}

TEST(RpcStream, SubscriptionDeliversStepsInOrder) {
  gs::svc::Service service(dataset());
  gs::bp::Stream stream(4);
  Server server(service, {}, &stream);
  Client client(server.endpoint());
  client.subscribe(/*credits=*/8);

  constexpr std::int64_t kPushed = 5;
  std::thread producer([&] {
    for (std::int64_t s = 0; s < kPushed; ++s) stream.push(make_step(s));
    stream.close();
  });

  std::int64_t expected = 0;
  while (const auto step = client.next_step(10000)) {
    EXPECT_EQ(step->sequence, expected);
    EXPECT_EQ(step->scalars.at("step"), expected * 10);
    EXPECT_EQ(step->arrays.at("U").blocks[0].data[0],
              static_cast<double>(expected));
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kPushed);
  EXPECT_EQ(client.gaps_detected(), 0u);
  EXPECT_EQ(client.stream_end().dropped, 0u);
  EXPECT_EQ(client.stream_end().reason, "end of stream");
  server.shutdown();
}

TEST(RpcStream, SlowConsumerDropsStepsInsteadOfStalling) {
  gs::svc::Service service(dataset());
  gs::bp::Stream stream(2);
  Server server(service, {}, &stream);
  Client client(server.endpoint());
  client.subscribe(/*credits=*/1);

  constexpr std::int64_t kPushed = 6;
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    for (std::int64_t s = 0; s < kPushed; ++s) stream.push(make_step(s));
    stream.close();
    producer_done = true;
  });
  // The client reads nothing yet; with one credit the bridge delivers
  // one step and must DROP the rest — the producer never blocks on a
  // lagging consumer.
  producer.join();
  EXPECT_TRUE(producer_done.load());
  // Read only once the bridge has dropped every step but the first.
  // Reading returns the credit for step 0; were steps still waiting for
  // the bridge then (up to the stream's capacity), one more would go out.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().steps_dropped <
             static_cast<std::uint64_t>(kPushed) - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::uint64_t received = 0;
  while (client.next_step(10000)) ++received;
  EXPECT_EQ(received, 1u);
  EXPECT_EQ(client.stream_end().dropped,
            static_cast<std::uint64_t>(kPushed) - received);
  const auto stats = server.stats();
  EXPECT_EQ(stats.steps_streamed, received);
  EXPECT_EQ(stats.steps_dropped,
            static_cast<std::uint64_t>(kPushed) - received);
  server.shutdown();
}

TEST(RpcStream, MalformedSubscribeAndCreditAreAnsweredNotDropped) {
  gs::svc::Service service(dataset());
  gs::bp::Stream stream(4);
  Server server(service, {}, &stream);
  Socket sock = dial(server.endpoint(), 2000);

  const auto expect_refused = [&](FrameType type, std::uint64_t id,
                                  std::vector<std::byte> payload) {
    Frame frame;
    frame.type = type;
    frame.id = id;
    frame.payload = std::move(payload);
    send_frame(sock, frame, 2000);
    const auto reply = recv_frame(sock, 5000);
    ASSERT_TRUE(reply.has_value()) << "connection dropped";
    EXPECT_EQ(reply->type, FrameType::error_reply);
    EXPECT_EQ(reply->id, id);
  };

  expect_refused(FrameType::subscribe, 1, std::vector<std::byte>(3));
  auto stats = server.stats();
  EXPECT_EQ(stats.bad_frames, 1u);
  EXPECT_EQ(stats.io_errors, 0u);
  EXPECT_EQ(stats.subscribers, 0u);

  // A credit count must fit the signed window: 2^63 and 2^64-1 would
  // otherwise wrap negative.
  expect_refused(FrameType::subscribe, 2, encode_u64(1ull << 63));
  expect_refused(FrameType::credit, 3, std::vector<std::byte>(5));
  expect_refused(FrameType::credit, 4, encode_u64(~0ull));
  stats = server.stats();
  EXPECT_EQ(stats.bad_frames, 4u);
  EXPECT_EQ(stats.io_errors, 0u);

  Frame ping;
  ping.type = FrameType::ping;
  ping.id = 5;
  send_frame(sock, ping, 2000);
  const auto pong = recv_frame(sock, 5000);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, FrameType::pong);
  EXPECT_EQ(pong->id, 5u);
  sock.close();
  server.shutdown();
}

TEST(RpcStream, StalledSubscriberDoesNotDelayAnother) {
  constexpr std::int64_t kIoTimeoutMs = 3000;
  constexpr std::int64_t kPushed = 16;
  gs::svc::Service service(dataset());
  gs::bp::Stream stream(kPushed);
  ServerConfig config;
  config.listen = "unix:" + temp_path("rpc_stall.sock");
  config.io_timeout_ms = kIoTimeoutMs;
  Server server(service, config, &stream);

  // Subscribes first, then never reads: 16 steps of 256 KB overfill its
  // socket buffers (208 KB by default on Linux) many times over.
  Socket stalled = dial(server.endpoint(), 2000);
  Frame subscribe;
  subscribe.type = FrameType::subscribe;
  subscribe.payload = encode_u64(kPushed);
  send_frame(stalled, subscribe, 2000);
  const auto ok = recv_frame(stalled, 5000);
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->type, FrameType::sub_ok);

  Client reader(server.endpoint());
  reader.subscribe(/*credits=*/kPushed);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t s = 0; s < kPushed; ++s) {
    gs::bp::StreamStep step;
    step.sequence = s;
    gs::bp::StreamStep::ArrayVar var;
    var.shape = {64, 64, 8};
    var.blocks.push_back({0, Box3{{0, 0, 0}, {64, 64, 8}},
                          std::vector<double>(64 * 64 * 8, double(s))});
    step.arrays["U"] = std::move(var);
    stream.push(std::move(step));
  }
  stream.close();

  std::int64_t received = 0;
  while (const auto step = reader.next_step(2 * kIoTimeoutMs)) {
    EXPECT_EQ(step->sequence, received);
    ++received;
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  EXPECT_EQ(received, kPushed);
  EXPECT_EQ(reader.stream_end().dropped, 0u);
  EXPECT_LT(elapsed_ms, kIoTimeoutMs / 2.0);
  // The stalled subscriber has not timed out: nothing waited on it.
  EXPECT_EQ(server.stats().io_errors, 0u);
  stalled.close();
  server.shutdown();
}

// ---- tenant tag on the wire ----------------------------------------------

TEST(RpcWire, TenantTagRoundTripsAndAFrameWithoutItIsRefused) {
  svc::Request request = stats_request("U", 1);
  request.tenant = "alice";
  const svc::Request back = decode_request(encode_request(request));
  EXPECT_EQ(back.tenant, "alice");
  ASSERT_TRUE(std::holds_alternative<svc::FieldStatsQ>(back.body));
  EXPECT_EQ(std::get<svc::FieldStatsQ>(back.body).variable, "U");

  // Every field is mandatory: a frame that stops before the tenant flag
  // is truncated, not "untagged".
  auto bytes = encode_request(stats_request("U", 1));
  ASSERT_GE(bytes.size(), 1u);
  bytes.pop_back();  // strip the tenant-presence flag
  EXPECT_THROW(decode_request(bytes), gs::ParseError);
}

// ---- multiplexed channel --------------------------------------------------

TEST(RpcChannel, ConcurrentCallersShareOneConnectionAndAnswerExactly) {
  gs::svc::Service service(dataset());
  Server server(service);
  Channel channel(server.endpoint(), ClientConfig{});

  // Ground truth per (variable, step), computed in-process up front.
  const auto request_of = [](int n) {
    return stats_request(n % 2 ? "U" : "V", (n / 2) % kSteps);
  };
  std::vector<std::uint32_t> expected;
  for (int n = 0; n < 2 * kSteps; ++n) {
    expected.push_back(identity_crc(service.call(request_of(n))));
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 24;
  std::atomic<int> exact{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int n = (t + i) % (2 * kSteps);
        const svc::Response r = channel.call(request_of(n));
        if (r.status.ok() &&
            identity_crc(r) == expected[static_cast<std::size_t>(n)]) {
          ++exact;
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(exact.load(), kThreads * kIters);
  EXPECT_EQ(server.stats().accepted, 1u)
      << "every caller must share the channel's one connection";
  EXPECT_EQ(channel.stats().connects, 1u);
  EXPECT_EQ(channel.stats().in_flight, 0u);
  server.shutdown();
}

TEST(RpcChannel, TornSendFailsEveryPendingCallAndTheNextCallRedials) {
  gs::svc::Service service(dataset());
  Server server(service);
  ClientConfig config;
  config.call_timeout_ms = 5000;
  Channel channel(server.endpoint(), config);
  channel.ping();  // connect before arming the plan
  const svc::Request after = stats_request("V", 2);
  const std::uint32_t expected = identity_crc(service.call(after));

  gs::fault::Plan plan;
  // The server's connection thread stalls admitting the first request,
  // so the calls sent behind it stay pending; the fourth send tears.
  plan.delay_at("svc.admission", 0, 0.5);
  plan.fail_at("rpc.write", 3);
  const auto t0 = std::chrono::steady_clock::now();
  {
    gs::fault::ScopedPlan scoped(plan);
    std::vector<Channel::Call> calls;
    for (int i = 0; i < 4; ++i) {
      calls.push_back(channel.start(
          FrameType::request, encode_request(stats_request("U", i % kSteps))));
    }
    for (auto& call : calls) {
      EXPECT_THROW(channel.wait(call), gs::IoError);
    }
  }
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_LT(waited_ms, static_cast<double>(config.call_timeout_ms))
      << "a poisoned connection must fail its calls, not time them out";
  EXPECT_EQ(channel.stats().in_flight, 0u);

  const svc::Response r = channel.call(after);
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(identity_crc(r), expected);
  EXPECT_EQ(channel.stats().connects, 2u) << "the next call redials";
  server.shutdown();
}

TEST(RpcChannel, ReplyAfterTimeoutIsDroppedNeverHandedToALaterCall) {
  gs::svc::Service service(dataset());
  Server server(service);
  ClientConfig config;
  config.call_timeout_ms = 500;
  config.retries = 1;
  Channel channel(server.endpoint(), config);
  channel.ping();
  const svc::Request late = stats_request("U", 0);
  const svc::Request next = stats_request("V", 2);
  const std::uint32_t late_crc = identity_crc(service.call(late));
  const std::uint32_t next_crc = identity_crc(service.call(next));
  ASSERT_NE(late_crc, next_crc);

  gs::fault::Plan plan;
  // Holds `late` in admission 250 ms past its caller's timeout; `next`
  // queues behind it and is answered well inside its own.
  plan.delay_at("svc.admission", 0, 0.75);
  gs::fault::ScopedPlan scoped(plan);

  Channel::Call first =
      channel.start(FrameType::request, encode_request(late));
  EXPECT_THROW(channel.wait(first), gs::IoError);
  EXPECT_EQ(channel.stats().in_flight, 0u)
      << "a timed-out call abandons its id";

  const svc::Response r = channel.call(next);
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(identity_crc(r), next_crc);

  // The late reply did arrive (the server answered both) and was
  // dropped; the connection stayed up and keeps answering exactly.
  for (int i = 0; i < 200 && server.stats().responses < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().responses, 2u);
  const svc::Response again = channel.call(late);
  ASSERT_TRUE(again.status.ok()) << again.status.message;
  EXPECT_EQ(identity_crc(again), late_crc);
  EXPECT_EQ(channel.stats().connects, 1u) << "a timeout keeps the connection";
  EXPECT_EQ(channel.stats().in_flight, 0u);
  server.shutdown();
}

TEST(RpcChannel, ConnectionRefusalCarriesTheServerReason) {
  gs::svc::Service service(dataset());
  ServerConfig config;
  config.max_connections = 1;
  Server server(service, config);

  Client first(server.endpoint());
  first.ping();  // occupy the only slot
  // The acceptor answers the second dial with an id-0 error_reply and
  // closes; that text, not the bare close, is what the caller sees.
  Client second(server.endpoint());
  try {
    second.ping();
    ADD_FAILURE() << "a refused connection answered a ping";
  } catch (const gs::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("connection limit"),
              std::string::npos)
        << e.what();
  }
  first.disconnect();
  server.shutdown();
  EXPECT_GE(server.stats().rejected_capacity, 1u);
}

TEST(RpcChannel, ReplyOfAnotherTypeFailsTheCallNamingBothTypes) {
  // A fake server that answers every frame's id with a pong.
  Listener listener = Listener::bind_listen(Endpoint::parse("127.0.0.1:0"), 4);
  std::thread fake([&] {
    std::optional<Socket> sock = listener.accept(5000);
    if (!sock) return;
    try {
      while (const auto frame = recv_frame(*sock, 5000)) {
        send_frame(*sock, Frame{FrameType::pong, frame->id, {}}, 5000);
      }
    } catch (const gs::IoError&) {
      // the client hung up
    }
  });

  ClientConfig config;
  config.retries = 1;
  Client client(listener.endpoint(), config);
  try {
    client.field_stats("U", 0);
    ADD_FAILURE() << "a pong was accepted as a response";
  } catch (const gs::Error& e) {  // not decoded as a Response: typed
    EXPECT_NE(dynamic_cast<const gs::IoError*>(&e), nullptr) << e.what();
    const std::string what = e.what();
    EXPECT_NE(what.find(to_string(FrameType::response)), std::string::npos)
        << what;
    EXPECT_NE(what.find(to_string(FrameType::pong)), std::string::npos)
        << what;
  }
  client.ping();  // a pong answering a ping is still fine
  client.disconnect();
  fake.join();
}

// ---- reload_map admin RPC ------------------------------------------------

TEST(RpcAdmin, ReloadMapRequiresTokenAndHook) {
  gs::svc::Service service(dataset());
  // A refusal surfaces as IoError, which the client's transport retry
  // loop would re-send; one attempt keeps the refusal counters exact.
  ClientConfig once;
  once.retries = 1;

  // No admin token configured: the verb is disabled outright.
  {
    Server server(service);
    Client client(server.endpoint(), once);
    EXPECT_THROW(client.reload_map("any"), gs::IoError);
    EXPECT_EQ(server.stats().reloads_refused, 1u);
    EXPECT_EQ(server.stats().reloads, 0u);
    server.shutdown();
  }

  std::atomic<int> hook_calls{0};
  std::atomic<bool> hook_throws{false};
  ServerConfig config;
  config.admin_token = "sesame";
  config.reload_hook = [&]() -> gs::json::Value {
    ++hook_calls;
    if (hook_throws.load()) {
      GS_THROW(gs::Error, "candidate map rejected");
    }
    gs::json::Object o;
    o["epoch_to"] = gs::json::Value(std::int64_t{2});
    return gs::json::Value(std::move(o));
  };
  Server server(service, config);
  Client client(server.endpoint(), once);

  // Wrong token: refused BEFORE the hook runs.
  EXPECT_THROW(client.reload_map("wrong"), gs::IoError);
  EXPECT_EQ(hook_calls.load(), 0);
  EXPECT_EQ(server.stats().reloads_refused, 1u);

  // Right token: the hook's JSON report comes back verbatim.
  const gs::json::Value report = client.reload_map("sesame");
  EXPECT_EQ(report.at("epoch_to").as_int(), 2);
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_EQ(server.stats().reloads, 1u);

  // A hook that throws (map rejected) surfaces the reason to the admin
  // and counts as refused — the old epoch keeps serving.
  hook_throws = true;
  try {
    client.reload_map("sesame");
    FAIL() << "a rejected reload must surface as an error";
  } catch (const gs::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos);
  }
  EXPECT_EQ(server.stats().reloads_refused, 2u);
  EXPECT_EQ(server.stats().reloads, 1u);

  // The connection survives a refusal: normal queries keep flowing.
  EXPECT_TRUE(client.field_stats("U", 0).ok());
  server.shutdown();
}

TEST(RpcStream, SubscribeWithoutLiveStreamIsRefused) {
  gs::svc::Service service(dataset());
  Server server(service);  // no live stream
  Client client(server.endpoint());
  EXPECT_THROW(client.subscribe(), gs::IoError);
  server.shutdown();
}

TEST(RpcStream, ShutdownAbandonsStreamSoProducersFailCleanly) {
  gs::svc::Service service(dataset());
  gs::bp::Stream stream(1);
  auto server = std::make_unique<Server>(service, ServerConfig{}, &stream);

  std::atomic<bool> caught{false};
  std::thread producer([&] {
    try {
      for (std::int64_t s = 0;; ++s) stream.push(make_step(s));
    } catch (const gs::IoError&) {
      caught = true;  // "stream abandoned: ..." — the clean failure mode
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->shutdown();
  producer.join();
  EXPECT_TRUE(caught.load());
  EXPECT_TRUE(stream.abandoned());
}

TEST(RpcStream, QueriesInterleaveWithALiveSubscription) {
  gs::svc::Service service(dataset());
  constexpr std::int64_t kPushed = 6;
  gs::bp::Stream stream(kPushed);
  Server server(service, {}, &stream);
  Client client(server.endpoint());
  client.subscribe(/*credits=*/kPushed);

  std::thread producer([&] {
    for (std::int64_t s = 0; s < kPushed; ++s) stream.push(make_step(s));
    stream.close();
  });
  std::int64_t expected = 0;
  for (int q = 0;; ++q) {
    const char* var = q % 2 ? "U" : "V";
    ASSERT_TRUE(client.field_stats(var, q % kSteps).ok());
    EXPECT_EQ(identity_crc(client.last_response()),
              identity_crc(service.call(stats_request(var, q % kSteps))))
        << "query " << q;
    const auto step = client.next_step(10000);
    if (!step) break;
    EXPECT_EQ(step->sequence, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kPushed);
  EXPECT_EQ(client.gaps_detected(), 0u);
  EXPECT_EQ(client.stream_end().dropped, 0u);
  EXPECT_EQ(client.stream_end().reason, "end of stream");
  EXPECT_EQ(server.stats().accepted, 1u)
      << "queries and the subscription share one connection";
  server.shutdown();
}

TEST(RpcStream, LostConnectionEndsTheSubscriptionAndTheNextQueryRedials) {
  gs::svc::Service service(dataset());
  gs::bp::Stream stream(4);
  Server server(service, {}, &stream);
  Client client(server.endpoint());
  client.subscribe(/*credits=*/4);
  const svc::Request query = stats_request("U", 1);
  const std::uint32_t expected = identity_crc(service.call(query));

  stream.push(make_step(0));
  ASSERT_TRUE(client.next_step(10000).has_value());
  // Answered after step 0's credit went out, so both ends have read
  // every frame so far.
  ASSERT_EQ(identity_crc(client.call(query)), expected);

  gs::fault::Plan plan;
  // Op 0 is the next frame read in this process: the client's reader
  // taking step 1 off the wire, killed mid-stream.
  plan.kill_at("rpc.read", 0);
  gs::fault::ScopedPlan scoped(plan);
  stream.push(make_step(1));
  EXPECT_FALSE(client.next_step(10000).has_value());
  EXPECT_EQ(client.stream_end().reason, "connection closed");

  const svc::Response r = client.call(query);
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(identity_crc(r), expected);
  EXPECT_EQ(server.stats().accepted, 2u) << "the query redials";
  EXPECT_EQ(server.stats().subscribers, 1u) << "the redial never resubscribes";
  EXPECT_FALSE(client.next_step(10000).has_value());
  server.shutdown();
}

}  // namespace
