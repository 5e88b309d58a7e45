// The probe pass of a traced run (see probes.cpp).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "src/pebble/engine.hpp"

namespace perfbench {

/// One instance of the workload, as the probe pass sees it.
struct ProbeTarget {
  std::string id;
  std::string spec;  ///< instance spec to time resolve_instance on ("" = skip)
  const rbpeb::Engine* engine = nullptr;
};

struct ProbeOptions {
  /// Build and query pattern databases (the workload's searches use them).
  bool pdb = false;
  /// Drive canonicalization and the trace cache (the serve workload).
  bool serve = false;
};

/// Time the public functions of every layer on seeded states sampled from
/// `targets` and set the per-layer metrics in ctx.report.
void run_probes(Context& ctx, const std::vector<ProbeTarget>& targets,
                const ProbeOptions& options);

}  // namespace perfbench
