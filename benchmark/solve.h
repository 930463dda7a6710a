// The producer side of gsbench: the Gray-Scott solver writing a BP
// dataset, as solve_write measures it and as the query workloads
// generate the data they serve.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/settings.h"
#include "gsbench.h"

namespace gsbench {

/// A producer run: `ranks` thread-ranks on the host_reference backend
/// (the only backend whose wall time is the program's own — the device
/// backends are timing models).
struct Producer {
  gs::Settings settings;
  int ranks = 4;

  /// Cell updates of one run, in millions.
  double mcells() const;
};

/// Runs the producer once into settings.output and returns its wall
/// seconds. Untraced it calls core::Workflow::run(); traced, gsbench
/// drives the same public calls itself (Simulation::step, sync_host,
/// interior_copy, bp::Writer) with a span around each on rank 0, all
/// children of one "solve.rep" span.
double produce(const Producer& producer, bool traced, std::uint64_t request);

/// core.*, bp.end_step/write/close and solve.io_frac from every traced
/// producer run so far (all of an L^3 grid).
void add_producer_metrics(std::int64_t L, std::vector<Metric>& out);

}  // namespace gsbench
