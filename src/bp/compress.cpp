#include "bp/compress.h"

#include <bit>
#include <cstring>

#include "common/error.h"

namespace gs::bp {

namespace {

// Big-endian <-> host order for one 64-bit word: the stream is MSB-first.
std::uint64_t big_endian(std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(w);
  }
  return w;
}

}  // namespace

// -------------------------------------------------------------- BitWriter

void BitWriter::put_bits(std::uint64_t value, int n_bits) {
  GS_ASSERT(n_bits >= 0 && n_bits <= 64, "put_bits width out of range");
  if (n_bits == 0) return;
  value &= ~std::uint64_t{0} >> (64 - n_bits);
  const int room = 64 - filled_;
  if (n_bits < room) {
    acc_ = (acc_ << n_bits) | value;
    filled_ += n_bits;
    return;
  }
  // The accumulator fills up: emit it as one word and keep the rest.
  const int rest = n_bits - room;
  append_word(((acc_ << (room - 1)) << 1) | (value >> rest));
  acc_ = value & ((std::uint64_t{1} << rest) - 1);
  filled_ = rest;
}

void BitWriter::append_word(std::uint64_t word) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + sizeof(word));
  word = big_endian(word);
  std::memcpy(bytes_.data() + at, &word, sizeof(word));
}

std::vector<std::byte> BitWriter::finish() {
  // Zero-pad the pending bits to whole bytes, then emit them MSB-first.
  const int pad = (8 - filled_ % 8) % 8;
  acc_ <<= pad;
  for (int left = filled_ + pad; left > 0; left -= 8) {
    bytes_.push_back(std::byte{static_cast<std::uint8_t>(acc_ >> (left - 8))});
  }
  acc_ = 0;
  filled_ = 0;
  return std::move(bytes_);
}

// -------------------------------------------------------------- BitReader

std::uint64_t BitReader::get_bits_refill(int n_bits) {
  // Drain the window, then load the next word: 8 bytes, or at the end
  // of the stream whatever bytes are left, one at a time.
  const int have = avail_;
  const std::uint64_t hi = (window_ >> 1) >> (63 - have);  // 0 if have == 0
  const std::size_t left = data_.size() - next_;
  if (left >= sizeof(window_)) {
    std::memcpy(&window_, data_.data() + next_, sizeof(window_));
    window_ = big_endian(window_);
    next_ += sizeof(window_);
    avail_ = 64;
  } else {
    window_ = 0;
    for (std::size_t i = 0; i < left; ++i) {
      window_ |= std::to_integer<std::uint64_t>(data_[next_ + i])
                 << (56 - 8 * i);
    }
    next_ += left;
    avail_ = static_cast<int>(8 * left);
  }
  const int rest = n_bits - have;
  GS_REQUIRE(rest <= avail_, "bit stream exhausted");
  const std::uint64_t lo = window_ >> (64 - rest);
  window_ = (window_ << (rest - 1)) << 1;
  avail_ -= rest;
  return ((hi << (rest - 1)) << 1) | lo;
}

// ------------------------------------------------------------------ codec

namespace {

std::uint64_t to_bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(d));
  return u;
}

double from_bits(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

}  // namespace

std::vector<std::byte> compress_doubles(std::span<const double> values) {
  BitWriter out;
  // Header: value count as 64 raw bits.
  out.put_bits(values.size(), 64);

  std::uint64_t prev = 0;
  int prev_lead = -1;  // invalid: forces a window on first XOR
  int prev_len = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint64_t bits = to_bits(values[i]);
    if (i == 0) {
      out.put_bits(bits, 64);
      prev = bits;
      continue;
    }
    const std::uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      out.put_bit(false);
      continue;
    }
    out.put_bit(true);
    int lead = std::countl_zero(x);
    const int trail = std::countr_zero(x);
    if (lead > 31) lead = 31;  // 5-bit field
    const int len = 64 - lead - trail;

    if (prev_lead >= 0 && lead >= prev_lead &&
        trail >= 64 - prev_lead - prev_len) {
      // Fits the previous window: '0' + prev_len bits.
      out.put_bit(false);
      out.put_bits(x >> (64 - prev_lead - prev_len), prev_len);
    } else {
      // New window: '1' + 5-bit lead + 6-bit (len-1) + len bits.
      out.put_bit(true);
      out.put_bits(static_cast<std::uint64_t>(lead), 5);
      out.put_bits(static_cast<std::uint64_t>(len - 1), 6);
      out.put_bits(x >> trail, len);
      prev_lead = lead;
      prev_len = len;
    }
  }
  return out.finish();
}

std::vector<double> decompress_doubles(std::span<const std::byte> data) {
  BitReader in(data);
  const std::uint64_t count = in.get_bits(64);
  // Sanity bound: the stream must plausibly hold `count` values (>= 1 bit
  // each after the first).
  GS_REQUIRE(count <= data.size() * 8,
             "corrupt compressed stream: count " << count
                                                 << " exceeds stream bits");
  std::vector<double> out;
  out.reserve(count);

  std::uint64_t prev = 0;
  int prev_lead = 0;
  int prev_len = 0;
  bool have_window = false;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i == 0) {
      prev = in.get_bits(64);
      out.push_back(from_bits(prev));
      continue;
    }
    if (!in.get_bit()) {  // identical
      out.push_back(from_bits(prev));
      continue;
    }
    std::uint64_t x = 0;
    if (!in.get_bit()) {
      GS_REQUIRE(have_window, "corrupt stream: window reuse before set");
      x = in.get_bits(prev_len) << (64 - prev_lead - prev_len);
    } else {
      prev_lead = static_cast<int>(in.get_bits(5));
      prev_len = static_cast<int>(in.get_bits(6)) + 1;
      have_window = true;
      const int trail = 64 - prev_lead - prev_len;
      GS_REQUIRE(trail >= 0, "corrupt stream: bad window");
      x = in.get_bits(prev_len) << trail;
    }
    prev ^= x;
    out.push_back(from_bits(prev));
  }
  return out;
}

double compression_ratio(std::span<const double> values) {
  if (values.empty()) return 1.0;
  const auto compressed = compress_doubles(values);
  return static_cast<double>(values.size_bytes()) /
         static_cast<double>(compressed.size());
}

}  // namespace gs::bp
