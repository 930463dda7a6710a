// The one seeded mutator for decoder tests. It damages valid encodings
// by bit flips, truncation, appended bytes and count inflation, drawing
// every choice from one gs::Rng, so a seed fixes the whole mutant
// sequence. A decoder test feeds it the encodings its round-trip tests
// already build and checks each mutant either decodes exactly or is
// rejected with a typed error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace gs::test {

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// A uniform draw in [0, n).
  std::uint64_t below(std::uint64_t n) { return rng_.next_u64() % n; }

  /// Flips 1-4 bits anywhere in `s`.
  void flip_bits(std::vector<std::byte>& s) {
    if (s.empty()) return;
    const int flips = 1 + static_cast<int>(below(4));
    for (int f = 0; f < flips; ++f) {
      const auto bit = below(s.size() * 8);
      s[bit / 8] ^= std::byte{static_cast<unsigned char>(0x80u >> (bit % 8))};
    }
  }

  /// Cuts `s` to a uniform length in [0, size].
  void truncate(std::vector<std::byte>& s) { s.resize(below(s.size() + 1)); }

  /// Appends 1-8 random bytes.
  void append(std::vector<std::byte>& s) {
    const auto n = 1 + below(8);
    for (std::uint64_t i = 0; i < n; ++i) {
      s.push_back(std::byte{static_cast<unsigned char>(rng_.next_u64())});
    }
  }

  /// Inflates the unsigned count in bytes [at, at + width) of `s`, a
  /// little (+1..64) or absurdly (random high bits). The count keeps its
  /// width and byte order.
  void inflate(std::vector<std::byte>& s, std::size_t at, std::size_t width,
               bool big_endian) {
    const auto byte_at = [&](std::size_t i) -> std::byte& {
      return s[at + (big_endian ? i : width - 1 - i)];
    };
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < width; ++i) {
      count = (count << 8) | static_cast<std::uint8_t>(byte_at(i));
    }
    count = below(2) ? count + 1 + below(64) : count | (rng_.next_u64() << 8);
    for (std::size_t i = width; i-- > 0; count >>= 8) {
      byte_at(i) = std::byte{static_cast<unsigned char>(count & 0xFF)};
    }
  }

 private:
  Rng rng_;
};

}  // namespace gs::test
