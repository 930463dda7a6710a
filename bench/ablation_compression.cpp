// Ablation: lossless compression of the output stream — what the
// Figure 8 I/O costs become if the workflow enables the Gorilla XOR
// operator (ADIOS2-operator analog) on the U/V blocks.
//
// Measures real compression ratios on actual solver states at several
// evolution stages (the field's compressibility changes as the pattern
// develops), then re-prices the Figure 8 write sweep with the measured
// ratio.
#include <cstdio>
#include <cstring>

#include "bp/compress.h"
#include "common/clock.h"
#include "common/format.h"
#include "core/reference.h"
#include "lustre/lustre_model.h"
#include "perf/io_scaling.h"

int main() {
  std::printf("==============================================================\n");
  std::printf("Ablation — Gorilla XOR compression of the output stream\n");
  std::printf("==============================================================\n\n");

  // Real solver states at several stages of pattern development.
  const std::int64_t L = 48;
  gs::Field3 u({L, L, L}), v({L, L, L});
  gs::core::initialize_fields(u, v, {{0, 0, 0}, {L, L, L}}, L);
  gs::core::GsParams p;
  p.noise = 0.0;

  std::printf("Compression ratio of the U field as the pattern evolves\n");
  std::printf("(%lld^3 cells, noise off):\n\n", (long long)L);
  gs::TableFormatter t(
      {"step", "U ratio", "V ratio", "encode MB/s", "decode MB/s"});
  double late_ratio = 1.0;
  std::int64_t done = 0;
  for (const std::int64_t upto : {0LL, 50LL, 200LL, 800LL}) {
    gs::core::reference_run(u, v, p, 1, upto - done, L);
    done = upto;
    const auto u_data = u.interior_copy();
    const auto v_data = v.interior_copy();
    const double mb = static_cast<double>(u_data.size() * 8) / 1e6;
    gs::WallTimer timer;
    const auto packed = gs::bp::compress_doubles(u_data);
    const double encode_mbps = mb / timer.seconds();
    timer.reset();
    const auto decoded = gs::bp::decompress_doubles(packed);
    const double decode_mbps = mb / timer.seconds();
    if (decoded.size() != u_data.size() ||
        std::memcmp(decoded.data(), u_data.data(),
                    u_data.size() * sizeof(double)) != 0) {
      std::fprintf(stderr, "step %lld: decode does not round-trip\n",
                   (long long)upto);
      return 1;
    }
    const double ur = static_cast<double>(u_data.size() * 8) /
                      static_cast<double>(packed.size());
    const double vr = gs::bp::compression_ratio(v_data);
    late_ratio = ur;
    t.row({std::to_string(upto), gs::format_fixed(ur, 2),
           gs::format_fixed(vr, 2), gs::format_fixed(encode_mbps, 0),
           gs::format_fixed(decode_mbps, 0)});
  }
  std::printf("%s\n", t.str().c_str());

  // Re-price Figure 8 with the late-stage (least compressible) ratio.
  std::printf("Figure 8 write sweep re-priced at the developed-pattern "
              "ratio (%.2fx):\n\n", late_ratio);
  gs::perf::IoScalingSimulator sim;
  const gs::lustre::LustreModel lustre;
  gs::TableFormatter t2({"nodes", "raw write", "compressed write",
                         "saving"});
  for (const auto& pt : sim.sweep(512)) {
    const auto compressed_bytes = static_cast<std::uint64_t>(
        static_cast<double>(pt.bytes_per_node) / late_ratio);
    const double raw = lustre.mean_write_time(pt.nodes, pt.bytes_per_node);
    const double comp = lustre.mean_write_time(pt.nodes, compressed_bytes);
    t2.row({std::to_string(pt.nodes), gs::format_seconds(raw),
            gs::format_seconds(comp),
            gs::format_fixed(100.0 * (1.0 - comp / raw), 1) + " %"});
  }
  std::printf("%s\n", t2.str().c_str());
  std::printf("Caveats the numbers show honestly: once the pattern fills\n");
  std::printf("the domain the ratio settles near %.1fx (mantissa-noise\n",
              late_ratio);
  std::printf("bound for lossless XOR coding of doubles) — enough to\n");
  std::printf("matter for an I/O-dominated campaign, far from the order-\n");
  std::printf("of-magnitude wins lossy compressors (zfp/SZ) trade\n");
  std::printf("accuracy for. Encoding throughput is CPU-side and would\n");
  std::printf("pipeline with the BP5 aggregation in a real deployment.\n");
  return 0;
}
