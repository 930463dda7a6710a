// Functional micro-benchmarks (google-benchmark) — performance regression
// guardrails for the library's own hot paths, as opposed to the paper-
// reproduction harnesses which report *modeled* device numbers. These
// measure real host throughput of: the stencil kernel body (one cell, and
// grayscott_tile over one rank's block at W=1 and native width), halo
// pack/unpack, the L2 cache simulator, the reference solver, the Gorilla
// codec, and a BP write/read cycle.
#include <benchmark/benchmark.h>

#include <numeric>

#include "analysis/analysis.h"
#include "bench/scratch.h"
#include "bp/compress.h"
#include "bp/reader.h"
#include "bp/writer.h"
#include "core/kernels.h"
#include "grid/halo.h"
#include "core/reference.h"
#include "core/stencil.h"
#include "gpu/cache_sim.h"
#include "gpu/device.h"
#include "mpi/runtime.h"
#include "simd/simd.h"

namespace {

constexpr std::int64_t kEdge = 48;

/// Host view matching the kernel template contract.
struct HostView {
  double* data;
  gs::Index3 extent;
  double load(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return data[gs::linear_index({i, j, k}, extent)];
  }
  void store(std::int64_t i, std::int64_t j, std::int64_t k,
             double v) const {
    data[gs::linear_index({i, j, k}, extent)] = v;
  }
};

void BM_StencilKernelHost(benchmark::State& state) {
  const gs::Index3 ext{kEdge, kEdge, kEdge};
  const auto n = static_cast<std::size_t>(ext.volume());
  std::vector<double> u(n, 0.8), v(n, 0.1), ut(n), vt(n);
  const HostView uv{u.data(), ext}, vv{v.data(), ext};
  const HostView utv{ut.data(), ext}, vtv{vt.data(), ext};
  const gs::core::GsParams p;
  for (auto _ : state) {
    for (std::int64_t k = 1; k < ext.k - 1; ++k) {
      for (std::int64_t j = 1; j < ext.j - 1; ++j) {
        for (std::int64_t i = 1; i < ext.i - 1; ++i) {
          gs::core::grayscott_cell(uv, vv, utv, vtv, i, j, k, p, 0.0);
        }
      }
    }
    benchmark::DoNotOptimize(ut.data());
  }
  state.SetItemsProcessed(state.iterations() * (kEdge - 2) * (kEdge - 2) *
                          (kEdge - 2));
}
BENCHMARK(BM_StencilKernelHost);

/// The real kernel, grayscott_tile<W>, over one rank's block of gsbench
/// solve_write (L=64 on 4 ranks: a 64x32x32 interior) in one sweep, as a
/// rank that is its own pool lane runs it. Arg: noise in percent.
template <int W>
void BM_GrayScottTile(benchmark::State& state) {
  const gs::Index3 n{64, 32, 32};
  gs::Field3 u(n), v(n), un(n), vn(n);
  const gs::Box3 local{{0, 0, 0}, n};
  gs::core::initialize_fields(u, v, local, 64);
  gs::core::apply_periodic_ghosts(u);
  gs::core::apply_periodic_ghosts(v);
  gs::core::StencilArgs a;
  a.u = u.data().data();
  a.v = v.data().data();
  a.u_next = un.data().data();
  a.v_next = vn.data().data();
  a.alloc = u.alloc_extent();
  a.interior = n;
  a.local = local;
  a.global = {64, 64, 64};
  a.params.noise = static_cast<double>(state.range(0)) / 100.0;
  a.seed = 1234;
  for (auto _ : state) {
    gs::core::grayscott_tile<W>(a, 0, n.k);
    benchmark::DoNotOptimize(a.u_next);
    benchmark::ClobberMemory();
    ++a.step;
  }
  state.SetItemsProcessed(state.iterations() * n.volume());
}
BENCHMARK_TEMPLATE(BM_GrayScottTile, 1)->ArgName("noise_pct")->Arg(0)->Arg(10);
BENCHMARK_TEMPLATE(BM_GrayScottTile, gs::simd::kNativeWidth)
    ->ArgName("noise_pct")
    ->Arg(0)
    ->Arg(10);

void BM_NoiseGeneration(benchmark::State& state) {
  std::int64_t cell = 0;
  double sink = 0.0;
  for (auto _ : state) {
    sink += gs::core::noise_at(42, 7, cell++);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NoiseGeneration);

void BM_ReferenceStep(benchmark::State& state) {
  const std::int64_t L = 32;
  gs::Field3 u({L, L, L}), v({L, L, L});
  gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
  gs::Field3 un({L, L, L}), vn({L, L, L});
  gs::core::GsParams p;
  p.noise = 0.1;
  std::int64_t step = 0;
  for (auto _ : state) {
    gs::core::reference_step(u, v, un, vn, p, 1, step++, L);
    std::swap(u, un);
    std::swap(v, vn);
  }
  state.SetItemsProcessed(state.iterations() * L * L * L);
}
BENCHMARK(BM_ReferenceStep);

void BM_CacheSimAccess(benchmark::State& state) {
  gs::gpu::CacheSim cache(1 << 20, 64, 16);
  std::vector<double> data(1 << 16);
  const auto base = reinterpret_cast<std::uintptr_t>(data.data());
  std::uintptr_t addr = 0;
  for (auto _ : state) {
    cache.read(base + (addr % (data.size() * 8)), 8);
    addr += 8 * 37;  // stride through sets
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSimAccess);

void BM_HaloPackUnpack(benchmark::State& state) {
  const gs::Index3 ext{kEdge + 2, kEdge + 2, kEdge + 2};
  std::vector<double> field(static_cast<std::size_t>(ext.volume()));
  std::iota(field.begin(), field.end(), 0.0);
  const gs::Index3 interior{kEdge, kEdge, kEdge};
  std::vector<double> staging(
      static_cast<std::size_t>(kEdge) * kEdge);
  for (auto _ : state) {
    for (const gs::Face& f : gs::all_faces()) {
      gs::pack_box(field, ext, gs::send_plane(interior, f), staging);
      gs::unpack_box(field, ext, gs::recv_plane(interior, f), staging);
    }
    benchmark::DoNotOptimize(field.data());
  }
  state.SetBytesProcessed(state.iterations() * 6 * 2 *
                          static_cast<std::int64_t>(staging.size()) * 8);
}
BENCHMARK(BM_HaloPackUnpack);

// Developed-pattern field: the realistic (least compressible) input.
std::vector<double> developed_field() {
  const std::int64_t L = 32;
  gs::Field3 u({L, L, L}), v({L, L, L});
  gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
  gs::core::GsParams p;
  p.noise = 0.0;
  gs::core::reference_run(u, v, p, 1, 100, L);
  return u.interior_copy();
}

void BM_GorillaCompress(benchmark::State& state) {
  const auto data = developed_field();
  for (auto _ : state) {
    auto packed = gs::bp::compress_doubles(data);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()) * 8);
}
BENCHMARK(BM_GorillaCompress);

void BM_GorillaDecompress(benchmark::State& state) {
  std::vector<double> data(32768);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 1.0 + 1e-5 * static_cast<double>(i % 100);
  }
  const auto packed = gs::bp::compress_doubles(data);
  for (auto _ : state) {
    auto out = gs::bp::decompress_doubles(packed);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()) * 8);
}
BENCHMARK(BM_GorillaDecompress);

void BM_GorillaDecompressDeveloped(benchmark::State& state) {
  // Decode throughput on the developed field: bytes/s of doubles out.
  const auto data = developed_field();
  const auto packed = gs::bp::compress_doubles(data);
  for (auto _ : state) {
    auto out = gs::bp::decompress_doubles(packed);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()) * 8);
}
BENCHMARK(BM_GorillaDecompressDeveloped);

// One 64^3 variable-step shaped like the served query datasets: L=64,
// 100 steps of the reference solver with its default noise.
const std::vector<double>& query_field() {
  static const std::vector<double> field = [] {
    const std::int64_t L = 64;
    gs::Field3 u({L, L, L}), v({L, L, L});
    gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
    gs::core::reference_run(u, v, gs::core::GsParams{}, 1, 100, L);
    return u.interior_copy();
  }();
  return field;
}

void BM_ExactStatsField(benchmark::State& state) {
  const auto& data = query_field();
  for (auto _ : state) {
    auto stats = gs::analysis::exact_stats(data);
    benchmark::DoNotOptimize(stats);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()) * 8);
}
BENCHMARK(BM_ExactStatsField)->Unit(benchmark::kMillisecond);

void BM_HistogramField(benchmark::State& state) {
  const auto& data = query_field();
  for (auto _ : state) {
    auto h = gs::analysis::field_histogram(data, 32);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()) * 8);
}
BENCHMARK(BM_HistogramField)->Unit(benchmark::kMillisecond);

void BM_BpWriteReadCycle(benchmark::State& state) {
  const std::int64_t L = 24;
  const gs::bench::ScratchDir scratch("microbench");
  const std::string path = scratch.file("cycle.bp");
  std::vector<double> block(static_cast<std::size_t>(L * L * L), 1.5);
  for (auto _ : state) {
    gs::mpi::run(1, [&](gs::mpi::Comm& world) {
      gs::bp::Writer w(path, world, 1);
      w.begin_step();
      w.put("U", {L, L, L}, gs::Box3{{0, 0, 0}, {L, L, L}}, block);
      w.end_step();
      w.close();
    });
    gs::bp::Reader r(path);
    auto out = r.read_full("U", 0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()) * 8 * 2);
}
BENCHMARK(BM_BpWriteReadCycle);

}  // namespace

BENCHMARK_MAIN();
