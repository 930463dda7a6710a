// Lossless floating-point compression for BP blocks — the counterpart of
// ADIOS2's compression operators (Blosc/zfp) in the paper's I/O stack.
//
// Codec: Gorilla-style XOR compression (Pelkonen et al., VLDB 2015),
// which exploits the bit-level similarity of consecutive values. Smooth
// PDE fields like the Gray-Scott U/V arrays compress well because
// neighboring (column-major-adjacent) cells differ in few mantissa bits;
// incompressible data degrades gracefully to ~101% of input size.
//
// Wire format per value:
//   '0'                             -> identical to previous value
//   '10' + meaningful bits          -> XOR fits the previous leading/
//                                      trailing-zero window
//   '11' + 5b lead + 6b len + bits  -> new window
// The first value is stored verbatim (64 bits).
//
// Bit I/O is word-at-a-time: the writer packs fields into a 64-bit
// accumulator and appends whole words, the reader serves fields from a
// 64-bit window with a shift and a mask and bounds-checks the stream
// once per refill, not once per bit. The byte stream is MSB-first and
// its format is fixed (pinned by size and CRC in test_compress.cpp), so
// every existing dataset decodes. The BP reader decodes from one reused
// staging buffer per thread (bp/reader.cpp), not a fresh allocation per
// block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"

namespace gs::bp {

/// Append-only bit stream writer (MSB-first within bytes).
class BitWriter {
 public:
  void put_bit(bool bit) { put_bits(bit ? 1 : 0, 1); }
  void put_bits(std::uint64_t value, int n_bits);  // low n_bits, MSB first

  /// Flushes the pending bits (last byte zero-padded) and returns the
  /// buffer.
  std::vector<std::byte> finish();

 private:
  void append_word(std::uint64_t word);

  std::vector<std::byte> bytes_;
  std::uint64_t acc_ = 0;  // the low `filled_` bits are pending output
  int filled_ = 0;         // always < 64 between calls
};

/// Sequential bit stream reader. Reading past the end throws gs::Error
/// ("bit stream exhausted"); no byte past data.size() is ever loaded.
class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> data) : data_(data) {}

  bool get_bit() { return get_bits(1) != 0; }

  /// Next n_bits (0..64) of the stream, first bit most significant.
  std::uint64_t get_bits(int n_bits) {
    GS_ASSERT(n_bits >= 0 && n_bits <= 64, "get_bits width out of range");
    if (n_bits > avail_) return get_bits_refill(n_bits);
    if (n_bits == 0) return 0;
    const std::uint64_t v = window_ >> (64 - n_bits);
    window_ = (window_ << (n_bits - 1)) << 1;  // n_bits may be 64
    avail_ -= n_bits;
    return v;
  }

 private:
  std::uint64_t get_bits_refill(int n_bits);

  std::span<const std::byte> data_;
  std::size_t next_ = 0;     // next byte of data_ to load
  std::uint64_t window_ = 0; // the top `avail_` bits are the next bits
  int avail_ = 0;
};

/// Compresses a double array. Output layout: u64 count, then the bit
/// stream.
std::vector<std::byte> compress_doubles(std::span<const double> values);

/// Exact inverse of compress_doubles. Throws gs::Error on malformed input.
std::vector<double> decompress_doubles(std::span<const std::byte> data);

/// Compression ratio helper (input bytes / output bytes).
double compression_ratio(std::span<const double> values);

}  // namespace gs::bp
