// extension_simd_roofline — measured host roofline for the vectorized
// cache-blocked stencil (gs::core::grayscott_tile over gs::simd packs).
//
// 1. CEILING: a STREAM-style triad (a[i] = b[i] + 3*c[i], 24 bytes of
//    traffic per element) measures what this host's memory system
//    actually streams — the denominator of the roofline, measured on the
//    same machine in the same run, never a spec-sheet number.
// 2. KERNEL: the noiseless Gray-Scott sweep at L^3, timed as whole
//    grayscott_tile sweeps. Effective bandwidth charges the 32 B/cell
//    minimum traffic (read u,v + write u_next,v_next once each; neighbor
//    reuse is the cache blocking's job, so it earns no extra bytes).
// 3. GATES:
//    - identity (always fatal): the W=1 instantiation and every tile_j
//      variant must produce bitwise-identical fields to the native-width
//      default — the SIMD contract, checked with noise ON so the lane
//      noise draws are exercised;
//    - bandwidth (relaxable): stencil >= 35% of the measured triad.
//      Relaxed under GS_BENCH_NONFATAL (shared CI runners); informational
//      when the build is the scalar fallback (GS_SIMD=OFF, nothing to
//      enforce).
//
// The BENCH_JSON line is machine-readable for the CI bench loop.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/harness.h"
#include "common/clock.h"
#include "core/reference.h"
#include "core/stencil.h"
#include "simd/simd.h"

namespace {

using gs::Box3;
using gs::Field3;
using gs::Index3;
using gs::core::GsParams;
using gs::core::StencilArgs;

constexpr std::int64_t kL = 128;        ///< roofline stencil extent
constexpr std::int64_t kIdentityL = 24; ///< identity-gate extent
constexpr int kTriadReps = 5;
constexpr int kStencilReps = 3;
constexpr double kMinFraction = 0.35;  ///< stencil / triad gate
/// Minimum stencil traffic: u,v read + u_next,v_next written, once per
/// cell. Neighbor loads hit in cache by design and are not charged.
constexpr double kBytesPerCell = 4.0 * sizeof(double);

// ---- STREAM triad ---------------------------------------------------------

double measure_triad_gbps() {
  constexpr std::size_t n = 1u << 22;  // 4 Mi doubles: 3 x 32 MiB arrays
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 1e300;
  double sink = 0.0;
  for (int rep = 0; rep < kTriadReps; ++rep) {
    const gs::WallTimer timer;
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, timer.seconds());
    sink += a[rep];  // keep the sweep observable
  }
  if (sink < 0.0) std::printf("unreachable %f\n", sink);
  return static_cast<double>(n) * 24.0 / best / 1.0e9;
}

// ---- stencil sweep --------------------------------------------------------

/// Ghost-filled fields plus a StencilArgs over them (serial whole-domain
/// geometry, exactly like core::reference_step).
struct Workload {
  Field3 u, v, un, vn;
  StencilArgs args;

  explicit Workload(std::int64_t L, double noise)
      : u({L, L, L}), v({L, L, L}), un({L, L, L}), vn({L, L, L}) {
    gs::core::initialize_fields(u, v, Box3{{0, 0, 0}, {L, L, L}}, L);
    gs::core::apply_periodic_ghosts(u);
    gs::core::apply_periodic_ghosts(v);
    args.u = u.data().data();
    args.v = v.data().data();
    args.u_next = un.data().data();
    args.v_next = vn.data().data();
    args.alloc = u.alloc_extent();
    args.interior = u.interior();
    args.local = Box3{{0, 0, 0}, u.interior()};
    args.global = {L, L, L};
    args.params.noise = noise;
    args.seed = 1234;
    args.step = 0;
  }
};

double measure_stencil_gbps(double* out_ms) {
  Workload w(kL, /*noise=*/0.0);
  gs::core::grayscott_tile<gs::simd::kNativeWidth>(w.args, 0, kL);  // warm
  double best = 1e300;
  for (int rep = 0; rep < kStencilReps; ++rep) {
    const gs::WallTimer timer;
    gs::core::grayscott_tile<gs::simd::kNativeWidth>(w.args, 0, kL);
    best = std::min(best, timer.seconds());
  }
  *out_ms = best * 1e3;
  const double cells = static_cast<double>(kL) * kL * kL;
  return cells * kBytesPerCell / best / 1.0e9;
}

// ---- identity gates -------------------------------------------------------

bool interiors_identical(const Field3& a, const Field3& b) {
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// Runs one noisy sweep with the given width/tile_j; returns the outputs.
template <int W>
void sweep_into(Workload& w, std::int64_t tile_j) {
  w.args.tile_j = tile_j;
  gs::core::grayscott_tile<W>(w.args, 0, kIdentityL);
}

void check_identity(gs::bench::Gates& gates) {
  Workload native(kIdentityL, /*noise=*/0.1);
  sweep_into<gs::simd::kNativeWidth>(native, 0);

  Workload scalar(kIdentityL, /*noise=*/0.1);
  sweep_into<1>(scalar, 0);
  gates.check(gs::bench::fmt("W=1 fallback identical to native width %d",
                             gs::simd::kNativeWidth),
              interiors_identical(native.un, scalar.un) &&
                  interiors_identical(native.vn, scalar.vn));

  for (const std::int64_t tj : {std::int64_t{1}, std::int64_t{3},
                                std::int64_t{kIdentityL}}) {
    Workload blocked(kIdentityL, /*noise=*/0.1);
    sweep_into<gs::simd::kNativeWidth>(blocked, tj);
    gates.check(gs::bench::fmt("tile_j=%lld identical to auto-tuned blocking",
                               static_cast<long long>(tj)),
                interiors_identical(native.un, blocked.un) &&
                    interiors_identical(native.vn, blocked.vn));
  }
}

}  // namespace

int main() {
  std::printf("simd roofline: width=%d L=%lld (%s build)\n",
              gs::simd::kNativeWidth, static_cast<long long>(kL),
              gs::simd::kNativeWidth == 1 ? "scalar-fallback" : "vector");

  // Identity first — a fast kernel that computes different bits is a bug,
  // not a win, so the bandwidth number is meaningless until this passes.
  gs::bench::Gates gates("simd_roofline");
  check_identity(gates);

  const double triad_gbps = measure_triad_gbps();
  double stencil_ms = 0.0;
  const double stencil_gbps = measure_stencil_gbps(&stencil_ms);
  const double fraction = stencil_gbps / triad_gbps;

  std::printf("triad   : %7.2f GB/s (measured ceiling, 24 B/elem)\n",
              triad_gbps);
  std::printf("stencil : %7.2f GB/s (%.3f ms/sweep, %.0f B/cell charged)\n",
              stencil_gbps, stencil_ms, kBytesPerCell);
  std::printf("fraction: %7.2f%% of triad (gate: >= %.0f%%)\n",
              fraction * 100.0, kMinFraction * 100.0);
  gates.metric("width", gs::simd::kNativeWidth, 0);
  gates.metric("triad_gbps", triad_gbps);
  gates.metric("stencil_gbps", stencil_gbps);
  gates.metric("fraction_of_peak", fraction, 4);
  gates.metric("bytes_per_cell", kBytesPerCell, 1);
  gates.metric("stencil_ms", stencil_ms);

  if (gs::simd::kNativeWidth == 1) {
    std::printf("roofline gate: informational (scalar-fallback build)\n");
  } else {
    gates.relaxable("stencil >= 35% of triad", fraction >= kMinFraction,
                    gs::bench::fmt("%.1f%% of triad", fraction * 100.0));
  }
  return gates.report();
}
