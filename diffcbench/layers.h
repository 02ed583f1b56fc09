#ifndef DIFFCBENCH_LAYERS_H_
#define DIFFCBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine_options.h"
#include "spans.h"
#include "workloads.h"

namespace diffcbench {

/// Per-layer figures of the single-threaded replay, by metric name.
struct LayerReport {
  std::vector<std::pair<std::string, double>> metrics;
  /// Extra lines for the log (figures that apply to this workload only).
  std::vector<std::string> notes;
  SpanLog spans;

  /// The metric called `name`; 0 when absent.
  double Get(const std::string& name) const;
};

/// Replays the first `spec.replay_batches` batches of connection 0's stream
/// (after the same warm-up the load loop ran) through each layer's public
/// functions, timing every call from outside with a span: the wire codecs,
/// preparation (rewrite, translation), the engine batch on an idle engine
/// with the server's options, the planner, every decision procedure, the
/// core SAT path and the DPLL solve, the witness-set enumeration, and the
/// engine's own tracing. Counts (procedure mix, solver work, rewrite
/// effect) repeat exactly for a given seed.
LayerReport ReplayLayers(const WorkloadSpec& spec, std::uint64_t seed,
                         const ConstraintSet& shared, const diffc::EngineOptions& engine);

}  // namespace diffcbench

#endif  // DIFFCBENCH_LAYERS_H_
