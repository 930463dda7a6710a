// Tests for the Gray-Scott core: noise determinism, initial conditions,
// the reference solver's PDE invariants, and cross-validation of the
// simulated-GPU/MPI paths against the reference (bitwise).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>

#include "analysis/analysis.h"
#include "bp/reader.h"
#include "common/checksum.h"
#include "core/kernels.h"
#include "core/reference.h"
#include "core/sim.h"
#include "core/workflow.h"
#include "mpi/runtime.h"
#include "par/par.h"
#include "simd/simd.h"

namespace {

using gs::Box3;
using gs::Field3;
using gs::Index3;
using gs::KernelBackend;
using gs::Settings;
using gs::core::GsParams;
using gs::core::noise_at;
using gs::core::Simulation;

// ---------------------------------------------------------------- noise

TEST(Noise, DeterministicPerCellStepSeed) {
  EXPECT_DOUBLE_EQ(noise_at(1, 5, 100), noise_at(1, 5, 100));
  EXPECT_NE(noise_at(1, 5, 100), noise_at(1, 5, 101));
  EXPECT_NE(noise_at(1, 5, 100), noise_at(1, 6, 100));
  EXPECT_NE(noise_at(1, 5, 100), noise_at(2, 5, 100));
}

TEST(Noise, RangeIsMinusOneToOne) {
  double lo = 1.0, hi = -1.0;
  for (std::int64_t c = 0; c < 100000; ++c) {
    const double r = noise_at(7, 3, c);
    ASSERT_GE(r, -1.0);
    ASSERT_LT(r, 1.0);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  // Should actually span most of the interval.
  EXPECT_LT(lo, -0.99);
  EXPECT_GT(hi, 0.99);
}

TEST(Noise, MeanNearZero) {
  double sum = 0.0;
  const int n = 200000;
  for (int c = 0; c < n; ++c) sum += noise_at(11, 0, c);
  EXPECT_NEAR(sum / n, 0.0, 0.01);
}

// ------------------------------------------------------ initial condition

TEST(Init, BackgroundAndSeedRegion) {
  const std::int64_t L = 32;
  Field3 u({L, L, L}), v({L, L, L});
  gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
  const std::int64_t w = gs::core::default_perturbation_halfwidth(L);
  EXPECT_EQ(w, 2);
  // Far corner: background.
  EXPECT_DOUBLE_EQ(u.at(1, 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(v.at(1, 1, 1), 0.0);
  // Center: perturbed (global cell 16 -> local index 17).
  EXPECT_DOUBLE_EQ(u.at(L / 2 + 1, L / 2 + 1, L / 2 + 1), 0.25);
  EXPECT_DOUBLE_EQ(v.at(L / 2 + 1, L / 2 + 1, L / 2 + 1), 0.33);
}

TEST(Init, DecompositionInvariant) {
  // The union of per-rank initializations equals the serial one.
  const std::int64_t L = 16;
  Field3 u_serial({L, L, L}), v_serial({L, L, L});
  gs::core::initialize_fields(u_serial, v_serial, {{0, 0, 0}, {L, L, L}}, L);

  const gs::Decomposition d({L, L, L}, {2, 2, 1});
  for (std::int64_t r = 0; r < d.nranks(); ++r) {
    const Box3 local = d.local_box(r);
    Field3 u(local.count), v(local.count);
    gs::core::initialize_fields(u, v, local, L);
    for (std::int64_t k = 1; k <= local.count.k; ++k) {
      for (std::int64_t j = 1; j <= local.count.j; ++j) {
        for (std::int64_t i = 1; i <= local.count.i; ++i) {
          const Index3 g = local.start + Index3{i - 1, j - 1, k - 1};
          EXPECT_DOUBLE_EQ(u.at(i, j, k),
                           u_serial.at(g.i + 1, g.j + 1, g.k + 1));
          EXPECT_DOUBLE_EQ(v.at(i, j, k),
                           v_serial.at(g.i + 1, g.j + 1, g.k + 1));
        }
      }
    }
  }
}

// ------------------------------------------------------ reference solver

TEST(Reference, PeriodicGhostsWrap) {
  Field3 f({3, 3, 3});
  int val = 0;
  for (std::int64_t k = 1; k <= 3; ++k) {
    for (std::int64_t j = 1; j <= 3; ++j) {
      for (std::int64_t i = 1; i <= 3; ++i) {
        f.at(i, j, k) = ++val;
      }
    }
  }
  gs::core::apply_periodic_ghosts(f);
  EXPECT_DOUBLE_EQ(f.at(0, 2, 2), f.at(3, 2, 2));
  EXPECT_DOUBLE_EQ(f.at(4, 2, 2), f.at(1, 2, 2));
  EXPECT_DOUBLE_EQ(f.at(2, 0, 2), f.at(2, 3, 2));
  EXPECT_DOUBLE_EQ(f.at(2, 4, 2), f.at(2, 1, 2));
  EXPECT_DOUBLE_EQ(f.at(2, 2, 0), f.at(2, 2, 3));
  EXPECT_DOUBLE_EQ(f.at(2, 2, 4), f.at(2, 2, 1));
}

TEST(Reference, UniformSteadyStateIsFixedPoint) {
  // U=1, V=0 with zero noise solves Eq. (1) exactly: dU=F(1-1)=0, dV=0.
  const std::int64_t L = 8;
  Field3 u({L, L, L}), v({L, L, L});
  u.fill_interior(1.0);
  v.fill_interior(0.0);
  GsParams p;
  p.noise = 0.0;
  gs::core::reference_run(u, v, p, 1, 5, L);
  for (std::int64_t k = 1; k <= L; ++k) {
    for (std::int64_t j = 1; j <= L; ++j) {
      for (std::int64_t i = 1; i <= L; ++i) {
        ASSERT_DOUBLE_EQ(u.at(i, j, k), 1.0);
        ASSERT_DOUBLE_EQ(v.at(i, j, k), 0.0);
      }
    }
  }
}

TEST(Reference, PureDiffusionConservesMass) {
  // With F=k=0 and no noise and v=0 everywhere, U obeys a pure periodic
  // diffusion equation, which conserves the sum exactly (up to FP).
  const std::int64_t L = 8;
  Field3 u({L, L, L}), v({L, L, L});
  u.fill_interior(1.0);
  u.at(4, 4, 4) = 5.0;  // a bump
  v.fill_interior(0.0);
  GsParams p;
  p.F = 0.0;
  p.k = 0.0;
  p.noise = 0.0;
  const double sum0 = u.interior_sum();
  gs::core::reference_run(u, v, p, 1, 10, L);
  EXPECT_NEAR(u.interior_sum(), sum0, 1e-9);
  // And the bump spreads: center decreased, neighbors increased.
  EXPECT_LT(u.at(4, 4, 4), 5.0);
  EXPECT_GT(u.at(3, 4, 4), 1.0);
}

TEST(Reference, SymmetryPreservedWithoutNoise) {
  // Mirror-symmetric initial data stays mirror-symmetric under the PDE.
  const std::int64_t L = 8;
  Field3 u({L, L, L}), v({L, L, L});
  gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
  GsParams p;
  p.noise = 0.0;
  gs::core::reference_run(u, v, p, 1, 5, L);
  // The seed cube [L/2-w, L/2+w) is symmetric under x -> L-1-x (about
  // the center L/2 - 0.5), so the solution must be too.
  for (std::int64_t k = 1; k <= L; ++k) {
    for (std::int64_t j = 1; j <= L; ++j) {
      for (std::int64_t i = 1; i <= L; ++i) {
        ASSERT_DOUBLE_EQ(u.at(i, j, k), u.at(L + 1 - i, j, k));
        ASSERT_DOUBLE_EQ(v.at(i, j, k), v.at(L + 1 - i, j, k));
      }
    }
  }
}

TEST(Reference, VDecaysWithoutUCatalysis) {
  // With u=0, dv = Dv lap v - (F+k) v: v decays everywhere.
  const std::int64_t L = 6;
  Field3 u({L, L, L}), v({L, L, L});
  u.fill_interior(0.0);
  v.fill_interior(0.5);
  GsParams p;
  p.noise = 0.0;
  const double sum0 = v.interior_sum();
  gs::core::reference_run(u, v, p, 1, 3, L);
  EXPECT_LT(v.interior_sum(), sum0);
  EXPECT_GT(v.interior_min(), 0.0);  // but never negative in 3 steps
}

TEST(Reference, FirstStepLinearInDt) {
  // One Euler step: u(dt) - u(0) is proportional to dt.
  const std::int64_t L = 8;
  GsParams p;
  p.noise = 0.0;

  auto one_step = [&](double dt) {
    Field3 u({L, L, L}), v({L, L, L});
    gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
    GsParams q = p;
    q.dt = dt;
    Field3 un({L, L, L}), vn({L, L, L});
    gs::core::reference_step(u, v, un, vn, q, 1, 0, L);
    return un.at(L / 2, L / 2, L / 2) - u.at(L / 2, L / 2, L / 2);
  };

  const double d1 = one_step(0.5);
  const double d2 = one_step(1.0);
  ASSERT_NE(d1, 0.0);
  EXPECT_NEAR(d2 / d1, 2.0, 1e-9);
}

TEST(Reference, FourierModeDecaysAtAnalyticRate) {
  // For pure diffusion (F=k=noise=0, v=0), a single Fourier mode
  // u = 1 + eps*sin(2*pi*m*x/L) is an exact eigenfunction of the
  // discrete update: the normalized 7-point Laplacian acts on an
  // x-only mode as (2cos(theta)-2)/6 with theta = 2*pi*m/L, so each
  // forward-Euler step multiplies the amplitude by
  //   g = 1 + dt*Du*(2cos(theta)-2)/6.
  const std::int64_t L = 16;
  const std::int64_t m = 2;
  const double eps = 1e-3;
  const double theta = 2.0 * M_PI * static_cast<double>(m) /
                       static_cast<double>(L);

  Field3 u({L, L, L}), v({L, L, L});
  v.fill_interior(0.0);
  for (std::int64_t k = 1; k <= L; ++k) {
    for (std::int64_t j = 1; j <= L; ++j) {
      for (std::int64_t i = 1; i <= L; ++i) {
        u.at(i, j, k) =
            1.0 + eps * std::sin(theta * static_cast<double>(i - 1));
      }
    }
  }

  GsParams p;
  p.F = 0.0;
  p.k = 0.0;
  p.noise = 0.0;
  const int steps = 10;
  gs::core::reference_run(u, v, p, 1, steps, L);

  const double g = 1.0 + p.dt * p.Du * (2.0 * std::cos(theta) - 2.0) / 6.0;
  const double expected = eps * std::pow(g, steps);
  // Measure the mode amplitude via projection onto sin(theta x).
  double amp = 0.0;
  for (std::int64_t i = 1; i <= L; ++i) {
    amp += (u.at(i, 1, 1) - 1.0) *
           std::sin(theta * static_cast<double>(i - 1));
  }
  amp *= 2.0 / static_cast<double>(L);
  EXPECT_NEAR(amp, expected, 1e-12);
}

TEST(Reference, HigherModesDecayFaster) {
  // The discrete dispersion relation is monotone in the mode number up
  // to Nyquist: checking the ordering guards against sign/scale bugs in
  // the Laplacian coefficient.
  const std::int64_t L = 16;
  GsParams p;
  p.F = 0.0;
  p.k = 0.0;
  p.noise = 0.0;
  auto decay_of_mode = [&](std::int64_t m) {
    const double theta = 2.0 * M_PI * static_cast<double>(m) /
                         static_cast<double>(L);
    Field3 u({L, L, L}), v({L, L, L});
    v.fill_interior(0.0);
    for (std::int64_t k = 1; k <= L; ++k) {
      for (std::int64_t j = 1; j <= L; ++j) {
        for (std::int64_t i = 1; i <= L; ++i) {
          u.at(i, j, k) =
              1.0 + 1e-3 * std::sin(theta * static_cast<double>(i - 1));
        }
      }
    }
    gs::core::reference_run(u, v, p, 1, 5, L);
    return u.interior_max() - 1.0;  // surviving amplitude
  };
  const double a1 = decay_of_mode(1);
  const double a2 = decay_of_mode(2);
  const double a4 = decay_of_mode(4);
  EXPECT_GT(a1, a2);
  EXPECT_GT(a2, a4);
  EXPECT_GT(a4, 0.0);
}

TEST(Reference, SolutionStaysBounded) {
  // Physically: 0 <= V, U <= ~1.5 for the Pearson parameters over short
  // horizons (paper Listing 1 reports U in [-0.12, 1.47] at 1000 steps
  // WITH noise; without noise the clean bounds hold).
  const std::int64_t L = 12;
  Field3 u({L, L, L}), v({L, L, L});
  gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
  GsParams p;
  p.noise = 0.0;
  gs::core::reference_run(u, v, p, 1, 50, L);
  EXPECT_GE(u.interior_min(), 0.0);
  EXPECT_LE(u.interior_max(), 1.5);
  EXPECT_GE(v.interior_min(), 0.0);
  EXPECT_LE(v.interior_max(), 1.0);
}

// ------------------------------------------------- simulation validation

Settings small_settings(std::int64_t L, KernelBackend backend,
                        double noise) {
  Settings s;
  s.L = L;
  s.backend = backend;
  s.noise = noise;
  s.steps = 4;
  s.seed = 99;
  return s;
}

/// Gathers the global U field from a Simulation onto rank 0.
Field3 gather_u(Simulation& sim) {
  sim.sync_host();
  auto& comm = sim.cart().comm();
  const std::int64_t L = sim.settings().L;
  Field3 global({L, L, L});
  const auto mine = sim.u_host().interior_copy();
  std::vector<double> all;
  comm.gather(std::span<const double>(mine), all, 0);
  if (comm.rank() == 0) {
    for (int r = 0; r < comm.size(); ++r) {
      const Box3 box = sim.decomp().local_box(r);
      // Ranks contribute equal-size blocks (test grids divide evenly).
      const auto n = static_cast<std::size_t>(box.volume());
      std::span<const double> block(all.data() + static_cast<std::size_t>(r) * n, n);
      Field3 local(box.count);
      local.interior_assign(block);
      for (std::int64_t k = 1; k <= box.count.k; ++k) {
        for (std::int64_t j = 1; j <= box.count.j; ++j) {
          for (std::int64_t i = 1; i <= box.count.i; ++i) {
            global.at(box.start.i + i, box.start.j + j, box.start.k + k) =
                local.at(i, j, k);
          }
        }
      }
    }
  }
  return global;
}

TEST(Simulation, MatchesReferenceBitwiseSerial) {
  const std::int64_t L = 12;
  gs::mpi::run(1, [&](gs::mpi::Comm& world) {
    Simulation sim(small_settings(L, KernelBackend::julia_amdgpu, 0.1),
                   world);
    sim.run_steps(4);
    sim.sync_host();

    Field3 u({L, L, L}), v({L, L, L});
    gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
    GsParams p;
    p.noise = 0.1;
    gs::core::reference_run(u, v, p, 99, 4, L);

    for (std::int64_t k = 1; k <= L; ++k) {
      for (std::int64_t j = 1; j <= L; ++j) {
        for (std::int64_t i = 1; i <= L; ++i) {
          ASSERT_EQ(sim.u_host().at(i, j, k), u.at(i, j, k))
              << "U mismatch at " << i << "," << j << "," << k;
          ASSERT_EQ(sim.v_host().at(i, j, k), v.at(i, j, k));
        }
      }
    }
  });
}

class SimulationParallel : public testing::TestWithParam<int> {};

TEST_P(SimulationParallel, ParallelEqualsSerialBitwiseWithNoise) {
  const int nranks = GetParam();
  const std::int64_t L = 12;

  // Serial ground truth from the reference solver.
  Field3 u_ref({L, L, L}), v_ref({L, L, L});
  gs::core::initialize_fields(u_ref, v_ref, {{0, 0, 0}, {L, L, L}}, L);
  GsParams p;
  p.noise = 0.1;
  gs::core::reference_run(u_ref, v_ref, p, 99, 3, L);

  gs::mpi::run(nranks, [&](gs::mpi::Comm& world) {
    Settings s = small_settings(L, KernelBackend::julia_amdgpu, 0.1);
    s.steps = 3;
    Simulation sim(s, world);
    sim.run_steps(3);
    Field3 global = gather_u(sim);
    if (world.rank() == 0) {
      for (std::int64_t k = 1; k <= L; ++k) {
        for (std::int64_t j = 1; j <= L; ++j) {
          for (std::int64_t i = 1; i <= L; ++i) {
            ASSERT_EQ(global.at(i, j, k), u_ref.at(i, j, k))
                << nranks << " ranks differ at " << i << "," << j << ","
                << k;
          }
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, SimulationParallel,
                         testing::Values(1, 2, 4, 8));

TEST(Simulation, BackendsAgreeBitwise) {
  // hip / julia / host_reference all run the same arithmetic.
  const std::int64_t L = 8;
  std::array<double, 3> checksums{};
  const std::array<KernelBackend, 3> backends = {
      KernelBackend::hip, KernelBackend::julia_amdgpu,
      KernelBackend::host_reference};
  for (std::size_t b = 0; b < backends.size(); ++b) {
    gs::mpi::run(1, [&](gs::mpi::Comm& world) {
      Simulation sim(small_settings(L, backends[b], 0.05), world);
      sim.run_steps(3);
      sim.sync_host();
      double sum = 0.0;
      for (std::int64_t k = 1; k <= L; ++k) {
        for (std::int64_t j = 1; j <= L; ++j) {
          for (std::int64_t i = 1; i <= L; ++i) {
            sum += sim.u_host().at(i, j, k) * static_cast<double>(i + 3 * j + 7 * k) +
                   sim.v_host().at(i, j, k);
          }
        }
      }
      checksums[b] = sum;
    });
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(checksums[1], checksums[2]);
}

TEST(Simulation, StepTimingPopulated) {
  gs::mpi::run(1, [](gs::mpi::Comm& world) {
    Simulation sim(small_settings(8, KernelBackend::julia_amdgpu, 0.1),
                   world);
    const auto t1 = sim.step();
    EXPECT_GT(t1.kernel, 0.0);
    EXPECT_GT(t1.exchange, 0.0);
    EXPECT_GT(t1.jit, 0.0);  // first julia launch compiles
    const auto t2 = sim.step();
    EXPECT_DOUBLE_EQ(t2.jit, 0.0);  // warm
    EXPECT_GT(sim.device_time(), 0.0);
  });
}

TEST(Simulation, HipBackendHasNoJit) {
  gs::mpi::run(1, [](gs::mpi::Comm& world) {
    Simulation sim(small_settings(8, KernelBackend::hip, 0.1), world);
    const auto t = sim.step();
    EXPECT_DOUBLE_EQ(t.jit, 0.0);
  });
}

TEST(Simulation, GlobalStatsMatchSerialAcrossRanks) {
  const std::int64_t L = 8;
  // Expected from a fresh initial condition.
  const auto w = gs::core::default_perturbation_halfwidth(L);
  const double seed_cells = std::pow(2.0 * static_cast<double>(w), 3);
  const double total_cells = std::pow(static_cast<double>(L), 3);
  gs::mpi::run(8, [&](gs::mpi::Comm& world) {
    Settings s = small_settings(L, KernelBackend::julia_amdgpu, 0.1);
    Simulation sim(s, world);
    auto stats = sim.global_stats();
    EXPECT_DOUBLE_EQ(stats.u_min, 0.25);
    EXPECT_DOUBLE_EQ(stats.u_max, 1.0);
    EXPECT_DOUBLE_EQ(stats.v_min, 0.0);
    EXPECT_DOUBLE_EQ(stats.v_max, 0.33);
    EXPECT_NEAR(stats.u_sum, total_cells - seed_cells + 0.25 * seed_cells,
                1e-9);
    EXPECT_NEAR(stats.v_sum, 0.33 * seed_cells, 1e-9);
  });
}

TEST(Simulation, GpuAwareExchangeBitwiseEqualToStaged) {
  // The GPU-aware path moves the same bytes; only the modeled timing
  // differs. Results must match the host-staged path bitwise.
  const std::int64_t L = 12;
  std::array<double, 2> sums{};
  for (int mode = 0; mode < 2; ++mode) {
    gs::mpi::run(8, [&](gs::mpi::Comm& world) {
      Settings s = small_settings(L, KernelBackend::julia_amdgpu, 0.1);
      s.gpu_aware_mpi = (mode == 1);
      Simulation sim(s, world);
      sim.run_steps(3);
      const auto stats = sim.global_stats();
      if (world.rank() == 0) sums[static_cast<std::size_t>(mode)] =
          stats.u_sum + 3.0 * stats.v_sum + stats.u_max;
    });
  }
  EXPECT_EQ(sums[0], sums[1]);
}

TEST(Simulation, GpuAwareExchangeIsFasterOnDeviceClock) {
  // No host staging: the per-step exchange cost over Infinity Fabric
  // (50 GB/s peer) beats 12 strided copies over the 36 GB/s host link
  // plus their latencies.
  const std::int64_t L = 16;
  std::array<double, 2> exchange_time{};
  for (int mode = 0; mode < 2; ++mode) {
    gs::mpi::run(1, [&](gs::mpi::Comm& world) {
      Settings s = small_settings(L, KernelBackend::hip, 0.0);
      s.gpu_aware_mpi = (mode == 1);
      Simulation sim(s, world);
      const auto t = sim.step();
      exchange_time[static_cast<std::size_t>(mode)] = t.exchange;
    });
  }
  EXPECT_GT(exchange_time[0], exchange_time[1]);
}

TEST(Simulation, AotReplacesJitCost) {
  gs::mpi::run(1, [](gs::mpi::Comm& world) {
    Settings s = small_settings(8, KernelBackend::julia_amdgpu, 0.1);
    s.aot = true;
    Simulation sim(s, world);
    // AOT pre-paid a small load cost at construction...
    const double t_init = sim.device_time();
    EXPECT_GT(t_init, 0.0);
    // ...so the first step has no JIT charge.
    const auto t = sim.step();
    EXPECT_DOUBLE_EQ(t.jit, 0.0);
  });
}

TEST(Simulation, AotLoadMuchCheaperThanJit) {
  double aot_total = 0.0, jit_total = 0.0;
  for (const bool aot : {true, false}) {
    gs::mpi::run(1, [&](gs::mpi::Comm& world) {
      Settings s = small_settings(8, KernelBackend::julia_amdgpu, 0.1);
      s.aot = aot;
      Simulation sim(s, world);
      sim.run_steps(2);
      (aot ? aot_total : jit_total) = sim.device_time();
    });
  }
  // JIT pays ~1.28 s; AOT pays ~5% of that.
  EXPECT_LT(aot_total, 0.3 * jit_total);
}

TEST(Simulation, AotIgnoredForHipBackend) {
  gs::mpi::run(1, [](gs::mpi::Comm& world) {
    Settings s = small_settings(8, KernelBackend::hip, 0.0);
    s.aot = true;
    Simulation sim(s, world);
    const auto t = sim.step();
    EXPECT_DOUBLE_EQ(t.jit, 0.0);
  });
}

TEST(Simulation, CurrentStepAdvances) {
  gs::mpi::run(1, [](gs::mpi::Comm& world) {
    Simulation sim(small_settings(8, KernelBackend::hip, 0.0), world);
    EXPECT_EQ(sim.current_step(), 0);
    sim.run_steps(3);
    EXPECT_EQ(sim.current_step(), 3);
  });
}

// ------------------------------------------------- thread determinism

/// Everything downstream of one run that a user can observe: raw
/// interiors, a checksum, and analysis statistics.
struct RunObservables {
  std::vector<double> u, v;
  std::uint32_t u_crc = 0;
  gs::analysis::FieldStats u_stats;
};

RunObservables run_with_lanes(std::size_t lanes, KernelBackend backend) {
  gs::par::set_global_lanes(lanes);
  RunObservables out;
  gs::mpi::run(1, [&](gs::mpi::Comm& world) {
    Settings s = small_settings(16, backend, 0.1);
    s.steps = 3;
    Simulation sim(s, world);
    sim.run_steps(3);
    sim.sync_host();
    out.u = sim.u_host().interior_copy();
    out.v = sim.v_host().interior_copy();
  });
  out.u_crc =
      gs::par::crc32(std::as_bytes(std::span<const double>(out.u)));
  out.u_stats = gs::analysis::compute_stats(out.u);
  gs::par::set_global_lanes(1);
  return out;
}

class ThreadDeterminism
    : public testing::TestWithParam<KernelBackend> {};

TEST_P(ThreadDeterminism, ResultsBitwiseIdenticalAcrossPoolSizes) {
  // The whole point of gs::par: thread count is a pure performance knob.
  // Interiors, checksums, and analysis stats must be BITWISE identical
  // for pools of 1, 2, and 7 lanes.
  const RunObservables base = run_with_lanes(1, GetParam());
  for (const std::size_t lanes : {2u, 7u}) {
    const RunObservables got = run_with_lanes(lanes, GetParam());
    ASSERT_EQ(base.u.size(), got.u.size());
    for (std::size_t i = 0; i < base.u.size(); ++i) {
      ASSERT_EQ(base.u[i], got.u[i]) << "U differs at " << i << " with "
                                     << lanes << " lanes";
      ASSERT_EQ(base.v[i], got.v[i]) << "V differs at " << i << " with "
                                     << lanes << " lanes";
    }
    EXPECT_EQ(base.u_crc, got.u_crc);
    EXPECT_EQ(base.u_stats.mean, got.u_stats.mean);
    EXPECT_EQ(base.u_stats.stddev, got.u_stats.stddev);
    EXPECT_EQ(base.u_stats.min, got.u_stats.min);
    EXPECT_EQ(base.u_stats.max, got.u_stats.max);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ThreadDeterminism,
                         testing::Values(KernelBackend::host_reference,
                                         KernelBackend::julia_amdgpu));

TEST(Simulation, HostReferenceNeverReallocatesAcrossSteps) {
  // The host-reference path double-buffers through the persistent
  // u_next_/v_next_ fields: across many steps the U storage must
  // alternate between at most two allocations — no per-step Field3.
  gs::mpi::run(1, [](gs::mpi::Comm& world) {
    Settings s = small_settings(12, KernelBackend::host_reference, 0.1);
    s.steps = 8;
    Simulation sim(s, world);
    std::set<const double*> seen;
    for (int step = 0; step < 8; ++step) {
      sim.step();
      seen.insert(sim.u_host().data().data());
    }
    EXPECT_LE(seen.size(), 2u);
  });
}

TEST(Simulation, ProfilerReceivesSpans) {
  gs::prof::Profiler prof;
  gs::mpi::run(1, [&](gs::mpi::Comm& world) {
    Simulation sim(small_settings(8, KernelBackend::julia_amdgpu, 0.1),
                   world, &prof);
    sim.run_steps(2);
  });
  int kernels = 0, h2d = 0, d2h = 0, jit = 0;
  for (const auto& s : prof.spans()) {
    switch (s.kind) {
      case gs::prof::SpanKind::kernel: ++kernels; break;
      case gs::prof::SpanKind::memcpy_h2d: ++h2d; break;
      case gs::prof::SpanKind::memcpy_d2h: ++d2h; break;
      case gs::prof::SpanKind::jit_compile: ++jit; break;
      default: break;
    }
  }
  EXPECT_EQ(kernels, 2);
  EXPECT_EQ(jit, 1);
  // 6 faces x 2 vars x 2 steps staging d2h (+0 full copies).
  EXPECT_GE(d2h, 24);
  // 6 ghost uploads x 2 vars x 2 steps + 2 initial full uploads.
  EXPECT_GE(h2d, 26);
}

// ------------------------------------------------- cross-tier output pin

TEST(CrossTier, WorkflowOutputCrcsArePinned) {
  // Every build writes the same bytes: the scalar fallback (GS_SIMD=OFF)
  // and each vector tier (GS_SIMD_ISA=baseline/avx2/avx512). The other
  // identity tests compare a build only with itself at W=1; these
  // constants, produced by the W=1 build, hold all of them to one answer.
  Settings s;
  s.L = 32;
  s.steps = 20;
  s.plotgap = 10;
  s.noise = 0.1;
  s.seed = 2026;
  s.backend = KernelBackend::host_reference;
  s.ranks_per_node = 2;
  s.output = testing::TempDir() + "/cross_tier.bp";
  gs::mpi::run(4, [&](gs::mpi::Comm& world) {
    gs::core::Workflow workflow(s, world);
    workflow.run();
  });

  const gs::bp::Reader reader(s.output);
  ASSERT_EQ(reader.n_steps(), 2);
  const auto crc_of = [&](const char* var) {
    return gs::crc32_of(std::span<const double>(reader.read_full(var, 1)));
  };
  EXPECT_EQ(crc_of("U"), 0xa1cb1f77u) << "kNativeWidth "
                                      << gs::simd::kNativeWidth;
  EXPECT_EQ(crc_of("V"), 0x1246a8dau) << "kNativeWidth "
                                      << gs::simd::kNativeWidth;
  std::filesystem::remove_all(s.output);
}

}  // namespace
