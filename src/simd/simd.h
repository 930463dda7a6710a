// gs::simd — fixed-width double vectors over compiler vector extensions.
//
// The paper's performance story (Tables 2-3) is framed as fraction of peak
// memory bandwidth; getting there on the host requires unit-stride inner
// loops that actually issue vector loads/stores. This header is the whole
// portability layer: pack<W> wraps the GCC/Clang vector_size extension
// (plain lane arrays elsewhere), pack<1> is the scalar specialization, and
// kNativeWidth is selected at configure time: the register width of the
// ISA tier CMake probes (GS_SIMD_ISA: 8 on AVX-512F, 4 on AVX2, 2 on the
// SSE2/NEON baseline), or 1 with -DGS_SIMD=OFF, the scalar-fallback gate
// CI compiles and tests.
//
// Identity contract: every pack operation is the elementwise IEEE-754
// operation of its scalar counterpart — vectorizing a loop ACROSS cells
// with pack arithmetic preserves each cell's exact expression tree, so
// the W-wide and scalar paths produce bitwise-identical results. That is
// the hard gate of the SIMD layer and is what keeps "serial == N-rank ==
// vectorized" an exact, testable property of the whole stack. It relies
// on the build never fusing a*b+c (-ffp-contract=off in every tier).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace gs::simd {

/// Doubles per hardware vector register of the compile target. A pack
/// wider than this is split by the compiler; loops that keep packs live
/// across iterations (reductions) accumulate in packs of this width. The
/// CMake build sets kNativeWidth to it; a W=8 instantiation on a 256-bit
/// target (tests, benches) still gets register-wide accumulators.
#if defined(__AVX512F__)
inline constexpr int kRegisterWidth = 8;
#elif defined(__AVX__)
inline constexpr int kRegisterWidth = 4;
#else
inline constexpr int kRegisterWidth = 2;
#endif

/// Lanes of the configure-time vector width (1 = scalar fallback); outside
/// the CMake build, the register width of the compile target.
#ifdef GS_SIMD_WIDTH
inline constexpr int kNativeWidth = GS_SIMD_WIDTH;
#else
inline constexpr int kNativeWidth = kRegisterWidth;
#endif

/// W doubles computed elementwise. Loads/stores are unaligned (memcpy —
/// the compiler lowers them to vector moves), so callers never owe an
/// alignment promise for interior-offset stencil accesses.
#if defined(__GNUC__) || defined(__clang__)
/// vector_size must see a literal byte count (a dependent expression is
/// silently dropped by GCC), hence one specialization per width.
template <int W>
struct native_vec;
template <>
struct native_vec<2> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct native_vec<4> {
  typedef double type __attribute__((vector_size(32)));
};
template <>
struct native_vec<8> {
  typedef double type __attribute__((vector_size(64)));
};
#else
template <int W>
struct native_vec {
  struct type {
    double lane[W];
  };
};
#endif

template <int W>
struct pack {
  static_assert(W == 2 || W == 4 || W == 8, "supported widths: 1, 2, 4, 8");

  using native_t = typename native_vec<W>::type;
  native_t v;

  static pack load(const double* p) {
    pack r;
    std::memcpy(&r.v, p, sizeof(native_t));
    return r;
  }
  void store(double* p) const { std::memcpy(p, &v, sizeof(native_t)); }

  static pack broadcast(double x) {
    pack r;
    for (int l = 0; l < W; ++l) r.set_lane(l, x);
    return r;
  }

#if defined(__GNUC__) || defined(__clang__)
  double lane(int l) const { return v[l]; }
  void set_lane(int l, double x) { v[l] = x; }

  friend pack operator+(pack a, pack b) { return pack{a.v + b.v}; }
  friend pack operator-(pack a, pack b) { return pack{a.v - b.v}; }
  friend pack operator*(pack a, pack b) { return pack{a.v * b.v}; }
  friend pack operator/(pack a, pack b) { return pack{a.v / b.v}; }
#else
  double lane(int l) const { return v.lane[l]; }
  void set_lane(int l, double x) { v.lane[l] = x; }

  friend pack operator+(pack a, pack b) {
    for (int l = 0; l < W; ++l) a.v.lane[l] += b.v.lane[l];
    return a;
  }
  friend pack operator-(pack a, pack b) {
    for (int l = 0; l < W; ++l) a.v.lane[l] -= b.v.lane[l];
    return a;
  }
  friend pack operator*(pack a, pack b) {
    for (int l = 0; l < W; ++l) a.v.lane[l] *= b.v.lane[l];
    return a;
  }
  friend pack operator/(pack a, pack b) {
    for (int l = 0; l < W; ++l) a.v.lane[l] /= b.v.lane[l];
    return a;
  }
#endif

  friend pack operator+(double a, pack b) { return broadcast(a) + b; }
  friend pack operator+(pack a, double b) { return a + broadcast(b); }
  friend pack operator-(double a, pack b) { return broadcast(a) - b; }
  friend pack operator-(pack a, double b) { return a - broadcast(b); }
  friend pack operator*(double a, pack b) { return broadcast(a) * b; }
  friend pack operator*(pack a, double b) { return a * broadcast(b); }
  friend pack operator/(double a, pack b) { return broadcast(a) / b; }
  friend pack operator/(pack a, double b) { return a / broadcast(b); }

  /// Elementwise std::min/std::max (b < a ? b : a). NOT IEEE minNum: like
  /// the std:: versions, NaN/-0.0 handling depends on argument order —
  /// callers that need order-independence must guarantee totally ordered
  /// inputs (simulation fields qualify).
  friend pack min(pack a, pack b) { return where_less(b, a, b, a); }
  friend pack max(pack a, pack b) { return where_less(a, b, b, a); }

 private:
  /// Per lane: x < y ? t : f, as one vector compare and select.
  static pack where_less(pack x, pack y, pack t, pack f) {
#if defined(__GNUC__) || defined(__clang__)
    return pack{x.v < y.v ? t.v : f.v};
#else
    pack r;
    for (int l = 0; l < W; ++l)
      r.set_lane(l, x.lane(l) < y.lane(l) ? t.lane(l) : f.lane(l));
    return r;
#endif
  }
};

/// Scalar specialization: the W=1 fallback every identity test compares
/// against, and the whole layer when GS_SIMD=OFF.
template <>
struct pack<1> {
  double v;

  static pack load(const double* p) { return pack{*p}; }
  void store(double* p) const { *p = v; }
  static pack broadcast(double x) { return pack{x}; }
  double lane(int) const { return v; }
  void set_lane(int, double x) { v = x; }

  friend pack operator+(pack a, pack b) { return pack{a.v + b.v}; }
  friend pack operator-(pack a, pack b) { return pack{a.v - b.v}; }
  friend pack operator*(pack a, pack b) { return pack{a.v * b.v}; }
  friend pack operator/(pack a, pack b) { return pack{a.v / b.v}; }
  friend pack operator+(double a, pack b) { return pack{a + b.v}; }
  friend pack operator+(pack a, double b) { return pack{a.v + b}; }
  friend pack operator-(double a, pack b) { return pack{a - b.v}; }
  friend pack operator-(pack a, double b) { return pack{a.v - b}; }
  friend pack operator*(double a, pack b) { return pack{a * b.v}; }
  friend pack operator*(pack a, double b) { return pack{a.v * b}; }
  friend pack operator/(double a, pack b) { return pack{a / b.v}; }
  friend pack operator/(pack a, double b) { return pack{a.v / b}; }
  friend pack min(pack a, pack b) { return pack{std::min(a.v, b.v)}; }
  friend pack max(pack a, pack b) { return pack{std::max(a.v, b.v)}; }
};

struct MinMax {
  double lo;
  double hi;
};

/// Min/max over a contiguous run (n > 0) with W lane accumulators merged
/// in lane order. min/max over totally ordered values is associative and
/// commutative, so for data without NaN or mixed-sign zeros the result is
/// bitwise identical to the serial left-to-right scan — the property the
/// histogram range pass and its W=1-vs-native identity test rely on.
///
/// The W lanes are kept as W/A packs of A = min(W, kRegisterWidth)
/// lanes: a pack wider than a register lives on the stack, and every
/// select of it goes through memory, while register-wide packs stay in
/// registers. Lane l of the W-wide formulation is lane l % A of pack
/// l / A, so the lane order of the merge is the same.
template <int W>
inline MinMax minmax_run(const double* p, std::int64_t n) {
  MinMax out{p[0], p[0]};
  std::int64_t i = 0;
  if constexpr (W > 1) {
    constexpr int A = W < kRegisterWidth ? W : kRegisterWidth;
    constexpr int K = W / A;
    if (n >= 2 * W) {
      pack<A> lo[K];
      pack<A> hi[K];
      for (int k = 0; k < K; ++k) lo[k] = hi[k] = pack<A>::load(p + k * A);
      for (i = W; i + W <= n; i += W) {
        for (int k = 0; k < K; ++k) {
          const pack<A> x = pack<A>::load(p + i + k * A);
          lo[k] = min(lo[k], x);
          hi[k] = max(hi[k], x);
        }
      }
      out = MinMax{lo[0].lane(0), hi[0].lane(0)};
      for (int l = 1; l < W; ++l) {
        out.lo = std::min(out.lo, lo[l / A].lane(l % A));
        out.hi = std::max(out.hi, hi[l / A].lane(l % A));
      }
    }
  }
  for (; i < n; ++i) {
    out.lo = std::min(out.lo, p[i]);
    out.hi = std::max(out.hi, p[i]);
  }
  return out;
}

}  // namespace gs::simd
