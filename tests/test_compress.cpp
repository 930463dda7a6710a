// Tests for the Gorilla XOR codec and its BP integration: bit I/O
// against a bit-serial reference, exact round-trips (smooth, constant,
// random, special values), encoded bytes pinned to the format, seeded
// mutation of valid streams, compression ratios, transparent
// decompression through the Reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>

#include "bp/compress.h"
#include "bp/reader.h"
#include "bp/writer.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "core/reference.h"
#include "grid/decomp.h"
#include "mpi/runtime.h"
#include "mutator.h"

namespace {

namespace fs = std::filesystem;
using gs::bp::BitReader;
using gs::bp::BitWriter;
using gs::bp::compress_doubles;
using gs::bp::decompress_doubles;

// ------------------------------------------------------------------ bits

TEST(BitIo, SingleBitsRoundTrip) {
  BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true,
                          false, true};  // 9 bits: crosses a byte
  for (const bool b : pattern) w.put_bit(b);
  const auto bytes = w.finish();
  EXPECT_EQ(bytes.size(), 2u);
  BitReader r(bytes);
  for (const bool b : pattern) EXPECT_EQ(r.get_bit(), b);
}

TEST(BitIo, MultiBitFieldsRoundTrip) {
  BitWriter w;
  w.put_bits(0x5, 3);
  w.put_bits(0xABCD, 16);
  w.put_bits(0xFFFFFFFFFFFFFFFFull, 64);
  w.put_bits(0, 1);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(3), 0x5u);
  EXPECT_EQ(r.get_bits(16), 0xABCDu);
  EXPECT_EQ(r.get_bits(64), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.get_bits(1), 0u);
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.put_bits(0x3, 2);
  const auto bytes = w.finish();
  BitReader r(bytes);
  r.get_bits(8);  // padded byte still readable
  EXPECT_THROW(r.get_bit(), gs::Error);
}

/// The stream format spelled out one bit at a time: fields MSB-first,
/// bytes filled from their top bit, the last byte zero-padded.
class SerialBits {
 public:
  void put(std::uint64_t value, int n_bits) {
    for (int b = n_bits - 1; b >= 0; --b) {
      if (filled_ % 8 == 0) bytes_.push_back(std::byte{0});
      if ((value >> b) & 1) {
        bytes_.back() |= std::byte{static_cast<unsigned char>(
            0x80u >> (filled_ % 8))};
      }
      ++filled_;
    }
  }
  const std::vector<std::byte>& bytes() const { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
  std::size_t filled_ = 0;
};

TEST(BitIo, SixtyFourBitReadAtEveryOffset) {
  // Offsets 0-7 cover every alignment within a byte; going on to 63
  // also puts the 64-bit field across every position of the reader's
  // 64-bit window.
  const std::uint64_t word = 0x0123456789ABCDEFull;
  for (int off = 0; off < 64; ++off) {
    const std::uint64_t prefix =
        off ? 0xA5A5A5A5A5A5A5A5ull >> (64 - off) : 0;
    BitWriter w;
    SerialBits ref;
    w.put_bits(prefix, off);
    ref.put(prefix, off);
    w.put_bits(word, 64);
    ref.put(word, 64);
    w.put_bits(0x5, 3);
    ref.put(0x5, 3);
    const auto bytes = w.finish();
    ASSERT_EQ(bytes, ref.bytes()) << "offset " << off;
    BitReader r(bytes);
    ASSERT_EQ(r.get_bits(off), prefix) << "offset " << off;
    ASSERT_EQ(r.get_bits(64), word) << "offset " << off;
    ASSERT_EQ(r.get_bits(3), 0x5u) << "offset " << off;
  }
}

TEST(BitIo, ReadStraddlingTheFinalPartialWord) {
  // 88 bits = 11 bytes: one full 64-bit word, then a 3-byte tail.
  BitWriter w;
  w.put_bits(0x0FEDCBA987654321ull, 60);
  w.put_bits(0xABCDE, 20);  // bits 60..79: 4 in the word, 16 in the tail
  w.put_bits(0x96, 8);      // bits 80..87: the last byte
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 11u);
  {
    BitReader r(bytes);
    EXPECT_EQ(r.get_bits(60), 0x0FEDCBA987654321ull);
    EXPECT_EQ(r.get_bits(20), 0xABCDEu);
    EXPECT_EQ(r.get_bits(8), 0x96u);
    EXPECT_THROW(r.get_bits(1), gs::Error);
  }
  {
    // One 28-bit read from bit 60 straddles the word and needs the
    // whole tail; a 29-bit read wants one bit past the end.
    BitReader r(bytes);
    r.get_bits(60);
    EXPECT_EQ(r.get_bits(28), (0xABCDEull << 8) | 0x96u);
    BitReader over(bytes);
    over.get_bits(60);
    EXPECT_THROW(over.get_bits(29), gs::Error);
  }
  {
    // A 64-bit read that starts in the tail cannot be satisfied.
    BitReader r(bytes);
    r.get_bits(64);
    EXPECT_THROW(r.get_bits(64), gs::Error);
  }
}

TEST(BitIo, ZeroWidthReadsConsumeNothing) {
  BitWriter w;
  w.put_bits(0, 0);
  w.put_bits(0x2D, 6);
  w.put_bits(0xFF, 0);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(0), 0u);
  EXPECT_EQ(r.get_bits(6), 0x2Du);
  EXPECT_EQ(r.get_bits(0), 0u);
  EXPECT_EQ(r.get_bits(2), 0u);  // padding
  EXPECT_EQ(r.get_bits(0), 0u);  // still fine at the end
  EXPECT_THROW(r.get_bit(), gs::Error);

  BitReader empty(std::span<const std::byte>{});
  EXPECT_EQ(empty.get_bits(0), 0u);
  EXPECT_THROW(empty.get_bits(1), gs::Error);
}

TEST(BitIo, InterleavedCodecFieldWidths) {
  // The codec's field widths (control bits, 5-bit lead, 6-bit length,
  // 64-bit values) in a seeded order, against the bit-serial reference.
  gs::Rng rng(11);
  const int widths[] = {1, 5, 6, 64};
  std::vector<std::pair<std::uint64_t, int>> fields;
  BitWriter w;
  SerialBits ref;
  for (int i = 0; i < 5000; ++i) {
    const int n = widths[rng.next_u64() % 4];
    const std::uint64_t v = rng.next_u64() >> (64 - n);
    fields.emplace_back(v, n);
    w.put_bits(v, n);
    ref.put(v, n);
  }
  const auto bytes = w.finish();
  ASSERT_EQ(bytes, ref.bytes());
  BitReader r(bytes);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    ASSERT_EQ(r.get_bits(fields[i].second), fields[i].first) << "field " << i;
  }
}

TEST(BitIo, WriterKeepsOnlyTheLowBits) {
  BitWriter w;
  SerialBits ref;
  w.put_bits(~0ull, 3);
  ref.put(0x7, 3);
  w.put_bits(0xF0, 4);  // the high bits of the value are not written
  ref.put(0x0, 4);
  EXPECT_EQ(w.finish(), ref.bytes());
}

// ----------------------------------------------------------------- codec

void expect_roundtrip(const std::vector<double>& values) {
  const auto packed = compress_doubles(values);
  const auto back = decompress_doubles(packed);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Bitwise equality, including signed zeros and NaN payloads.
    std::uint64_t a, b;
    std::memcpy(&a, &values[i], 8);
    std::memcpy(&b, &back[i], 8);
    ASSERT_EQ(a, b) << "index " << i;
  }
}

TEST(Gorilla, EmptyAndSingle) {
  expect_roundtrip({});
  expect_roundtrip({3.14159});
  expect_roundtrip({0.0});
}

TEST(Gorilla, ConstantSeriesCompressesExtremely) {
  const std::vector<double> v(10000, 1.0);
  expect_roundtrip(v);
  // 80 KB -> ~1.26 KB (1 bit per repeated value).
  EXPECT_GT(gs::bp::compression_ratio(v), 50.0);
}

TEST(Gorilla, SmoothFieldCompressesWell) {
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) {
    v.push_back(1.0 + 1e-3 * std::sin(i * 0.01));
  }
  expect_roundtrip(v);
  // XOR coding on doubles whose mantissa churns: modest but real gain.
  EXPECT_GT(gs::bp::compression_ratio(v), 1.1);
}

// The fixed corpus the format pins and the mutation test start from.

std::vector<double> uniform_values() {
  gs::Rng rng(7);
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.uniform01());
  return v;
}

std::vector<double> special_values() {
  return {0.0, -0.0, 1.0, -1.0,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::min()};
}

/// A real solver state: mostly-background U with a reaction front.
std::vector<double> gray_scott_u16() {
  const std::int64_t L = 16;
  gs::Field3 u({L, L, L}), v({L, L, L});
  gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
  gs::core::GsParams p;
  p.noise = 0.0;
  gs::core::reference_run(u, v, p, 1, 50, L);
  return u.interior_copy();
}

TEST(Gorilla, RandomDataDegradesGracefully) {
  const auto v = uniform_values();
  expect_roundtrip(v);
  // Incompressible: must not blow up beyond ~110% of input.
  EXPECT_GT(gs::bp::compression_ratio(v), 0.9);
}

TEST(Gorilla, SpecialValues) { expect_roundtrip(special_values()); }

TEST(Gorilla, AlternatingValues) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 2 == 0 ? 1.0 : 2.0);
  expect_roundtrip(v);
}

TEST(Gorilla, GrayScottFieldRatio) {
  const auto data = gray_scott_u16();
  expect_roundtrip(data);
  // The uniform background (bit-identical values) compresses to 1 bit
  // per cell; the front region stays near 64 bits.
  EXPECT_GT(gs::bp::compression_ratio(data), 1.25);
}

TEST(Gorilla, CorruptStreamRejected) {
  // A count far larger than the stream can hold.
  BitWriter w;
  w.put_bits(1ull << 40, 64);
  const auto bytes = w.finish();
  EXPECT_THROW(decompress_doubles(bytes), gs::Error);
}

TEST(Gorilla, EncodedBytesArePinned) {
  // Size and CRC-32 of the encoding of each corpus field, recorded from
  // the bit-serial coder that wrote the existing datasets. A change here
  // is a change of the on-disk format.
  struct Pin {
    const char* name;
    std::vector<double> values;
    std::size_t bytes;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {"gray_scott_u16", gray_scott_u16(), 25267, 4200332420u},
      {"uniform_rng7", uniform_values(), 72777, 1171471174u},
      {"special_values", special_values(), 56, 506995625u},
      {"constant_run", std::vector<double>(10000, 1.0), 1266,
       4243502232u},
  };
  for (const Pin& pin : pins) {
    const auto packed = compress_doubles(pin.values);
    EXPECT_EQ(packed.size(), pin.bytes) << pin.name;
    EXPECT_EQ(gs::crc32(packed), pin.crc) << pin.name;
    expect_roundtrip(pin.values);
  }
}

/// Decodes `stream` from an allocation of exactly its size, so that a
/// read past the end is a heap overflow the sanitizers report.
std::vector<double> decode_exact(std::span<const std::byte> stream) {
  const auto copy = std::make_unique<std::byte[]>(stream.size());
  std::copy(stream.begin(), stream.end(), copy.get());
  return decompress_doubles({copy.get(), stream.size()});
}

/// The first 8 bytes of a stream: the value count, big-endian.
std::uint64_t header_count(std::span<const std::byte> stream) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    count = (count << 8) | static_cast<std::uint8_t>(stream[i]);
  }
  return count;
}

std::vector<std::vector<std::byte>> small_streams() {
  auto gs_field = gray_scott_u16();
  gs_field.resize(512);  // the front and some background
  auto uniform = uniform_values();
  uniform.resize(64);
  std::vector<double> alternating;
  for (int i = 0; i < 100; ++i) alternating.push_back(i % 2 ? 1.0 : 2.0);
  return {compress_doubles(gs_field), compress_doubles(uniform),
          compress_doubles(special_values()),
          compress_doubles(std::vector<double>(200, 1.0)),
          compress_doubles(alternating)};
}

TEST(Gorilla, EveryTruncationThrows) {
  for (const auto& stream : small_streams()) {
    ASSERT_EQ(decode_exact(stream).size(), header_count(stream));
    for (std::size_t len = 0; len < stream.size(); ++len) {
      EXPECT_THROW(decode_exact({stream.data(), len}), gs::Error)
          << "length " << len << " of " << stream.size();
    }
  }
}

TEST(Gorilla, SeededMutationsDecodeExactlyOrThrow) {
  // Bit flips, truncations and count inflations of valid streams. Each
  // mutant either decodes to exactly the count its header claims or is
  // rejected with gs::Error; under ASan a read past the stream fails
  // the run.
  const auto streams = small_streams();
  gs::test::Mutator mutator(2015);
  int decoded = 0;
  int rejected = 0;
  const int kMutations = 12000;
  for (int m = 0; m < kMutations; ++m) {
    std::vector<std::byte> s = streams[mutator.below(streams.size())];
    const auto kind = mutator.below(4);
    if (kind == 0 || kind == 3) mutator.flip_bits(s);
    if (kind == 1 || kind == 3) mutator.truncate(s);
    // The header count: 8 big-endian bytes at the front.
    if (kind == 2) mutator.inflate(s, 0, 8, /*big_endian=*/true);
    try {
      const auto out = decode_exact(s);
      ASSERT_GE(s.size(), 8u) << "mutation " << m;
      ASSERT_EQ(out.size(), header_count(s)) << "mutation " << m;
      ++decoded;
    } catch (const gs::Error&) {
      ++rejected;
    }
  }
  // Both outcomes occur, or the mutator is not reaching the decoder.
  EXPECT_GT(decoded, 1000);
  EXPECT_GT(rejected, 1000);
}

// ----------------------------------------------------------- BP plumbing

TEST(BpCompression, TransparentRoundTripThroughDataset) {
  const std::int64_t L = 8;
  const std::string path =
      (fs::path(testing::TempDir()) / "compressed.bp").string();
  gs::mpi::run(4, [&](gs::mpi::Comm& world) {
    const gs::Decomposition d = gs::Decomposition::cube(L, world.size());
    const gs::Box3 box = d.local_box(world.rank());
    std::vector<double> block(static_cast<std::size_t>(box.volume()));
    for (std::size_t i = 0; i < block.size(); ++i) {
      block[i] = 1.0 + 1e-6 * static_cast<double>(i);
    }
    gs::bp::Writer w(path, world, 2);
    w.set_compression(true);
    w.begin_step();
    w.put("U", {L, L, L}, box, block);
    w.end_step();
    w.close();
  });

  gs::bp::Reader r(path);
  const auto blocks = r.blocks("U", 0);
  for (const auto& b : blocks) {
    EXPECT_EQ(b.codec, "gorilla");
    EXPECT_LT(b.stored_bytes,
              static_cast<std::uint64_t>(b.box.volume()) * 8);
  }
  const auto full = r.read_full("U", 0);
  // Values reconstruct exactly; spot-check a strided sample.
  EXPECT_DOUBLE_EQ(full[0], 1.0);
  const gs::Decomposition d = gs::Decomposition::cube(L, 4);
  const gs::Box3 box0 = d.local_box(0);
  EXPECT_DOUBLE_EQ(full[1], 1.0 + 1e-6);
  (void)box0;
  fs::remove_all(path);
}

TEST(BpCompression, CrcCoversUncompressedPayload) {
  // Corrupting the COMPRESSED bytes must still be detected (either the
  // decoder fails or the CRC of the decoded payload mismatches).
  const std::string path =
      (fs::path(testing::TempDir()) / "compressed_corrupt.bp").string();
  gs::mpi::run(1, [&](gs::mpi::Comm& world) {
    std::vector<double> block(512);
    for (std::size_t i = 0; i < block.size(); ++i) {
      block[i] = std::sin(static_cast<double>(i));
    }
    gs::bp::Writer w(path, world, 1);
    w.set_compression(true);
    w.begin_step();
    w.put("U", {8, 8, 8}, gs::Box3{{0, 0, 0}, {8, 8, 8}}, block);
    w.end_step();
    w.close();
  });
  {
    std::fstream f(fs::path(path) / "data.0",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    const char c = 0x55;
    f.write(&c, 1);
  }
  gs::bp::Reader r(path);
  EXPECT_THROW(r.read_full("U", 0), gs::Error);
  fs::remove_all(path);
}

TEST(BpCompression, MixedCompressedAndRawSteps) {
  const std::string path =
      (fs::path(testing::TempDir()) / "mixed.bp").string();
  gs::mpi::run(1, [&](gs::mpi::Comm& world) {
    std::vector<double> block(64, 2.5);
    gs::bp::Writer w(path, world, 1);
    const gs::Box3 box{{0, 0, 0}, {4, 4, 4}};
    w.begin_step();  // raw
    w.put("U", {4, 4, 4}, box, block);
    w.end_step();
    w.set_compression(true);
    w.begin_step();  // compressed
    w.put("U", {4, 4, 4}, box, block);
    w.end_step();
    w.close();
  });
  gs::bp::Reader r(path);
  EXPECT_EQ(r.blocks("U", 0).at(0).codec, "");
  EXPECT_EQ(r.blocks("U", 1).at(0).codec, "gorilla");
  for (std::int64_t s = 0; s < 2; ++s) {
    for (const double v : r.read_full("U", s)) {
      ASSERT_DOUBLE_EQ(v, 2.5);
    }
  }
  fs::remove_all(path);
}

}  // namespace
