// Post-hoc data analysis of BP datasets — the C++ stand-in for the
// paper's JupyterHub + Makie.jl session (Figure 9): read the simulation
// output back, slice it, compute statistics, and render images.
//
// Rendering targets that work without any graphics stack:
//   * PGM/PPM images (the PPM path applies a viridis-like colormap, the
//     look of the paper's Figure 2/9 plots),
//   * ASCII art for terminals.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bp/reader.h"
#include "common/stats.h"
#include "config/json.h"
#include "grid/box.h"

namespace gs::analysis {

/// A 2-D slice of a 3-D field, with value range metadata.
struct Slice2D {
  std::int64_t nx = 0;  ///< fast axis
  std::int64_t ny = 0;
  std::vector<double> values;  ///< nx*ny, x fastest
  double min = 0.0;
  double max = 0.0;

  double at(std::int64_t x, std::int64_t y) const {
    return values[static_cast<std::size_t>(x + nx * y)];
  }
};

/// Extracts the plane `axis == coord` from a column-major 3-D array.
/// The slice's x axis is the first remaining axis, y the second.
Slice2D extract_slice(std::span<const double> data, const Index3& shape,
                      int axis, std::int64_t coord);

/// Reads just the needed plane from a dataset (box-selection read) —
/// what the notebook in Figure 9 does for its 2-D plots.
Slice2D slice_from_reader(const bp::Reader& reader, const std::string& name,
                          std::int64_t step, int axis, std::int64_t coord);

/// Full-field descriptive statistics.
struct FieldStats {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};
FieldStats compute_stats(std::span<const double> data);

/// The exact accumulator behind compute_stats: partition-independent, so
/// partial accumulators over any disjoint cover of the data (thread
/// tiles, BP blocks, shards) merge to the bitwise-same FieldStats. The
/// gs::shard router merges these across daemons.
ExactStats exact_stats(std::span<const double> data);
FieldStats stats_from_exact(const ExactStats& stats);

/// JSON object {count, min, max, mean, stddev} for machine-readable
/// output. Shared by `bpls --json` and `gsquery --json` so both tools
/// emit byte-identical statistics for the same dataset.
json::Object stats_to_json(const FieldStats& stats);

/// Histogram of field values over [min, max] of the data.
Histogram field_histogram(std::span<const double> data, std::size_t bins);

/// Exact {min, max} of a non-empty field: the range pass of
/// field_histogram, vectorized and tiled; for data without NaN or
/// mixed-sign zeros the same bits as a serial scan.
std::pair<double, double> field_range(std::span<const double> data);

/// Histogram over an explicit [lo, hi) range (shard partials must bin
/// against the globally-agreed range, not their local extrema).
Histogram field_histogram(std::span<const double> data, std::size_t bins,
                          double lo, double hi);

/// The canonical data-range -> histogram-range adjustment (degenerate
/// constant fields widen to [lo, lo+1)). Single source of truth for the
/// single-daemon path and the router's two-phase sharded histogram.
std::pair<double, double> histogram_range(double lo, double hi);

/// Writes an 8-bit grayscale PGM (values normalized to the slice range).
void write_pgm(const Slice2D& slice, const std::string& path);

/// Writes a color PPM with a viridis-like perceptual colormap.
void write_ppm(const Slice2D& slice, const std::string& path);

/// Terminal rendering with a 10-level density ramp; `width` columns,
/// aspect-corrected rows.
std::string ascii_render(const Slice2D& slice, int width = 64);

/// Simple time-series line: value of a statistic per step, rendered as an
/// ASCII sparkline-style plot (used by the analysis example to show the
/// evolution of V's max, like a notebook cell would).
std::string ascii_series(const std::vector<double>& values, int width = 60,
                         int height = 12);

}  // namespace gs::analysis
