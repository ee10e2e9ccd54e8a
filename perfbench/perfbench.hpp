// Shared types of the Table 2 product-path benchmark (see README.md).
//
// perfbench.cpp runs the end-to-end workloads through core::Synthesizer;
// layers.cpp holds the traced run that splits the same cells into layers.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/formulation.hpp"
#include "core/synthesizer.hpp"
#include "hls/benchmarks.hpp"

namespace perfbench {

using namespace advbist;

/// One Table 2 cell: the reference synthesis (k == 0) or a k-session BIST
/// synthesis of one circuit.
struct Cell {
  std::string circuit;
  int k = 0;

  [[nodiscard]] std::string label() const {
    return circuit + (k == 0 ? " ref" : " k" + std::to_string(k));
  }
};

struct Workload {
  std::string name;
  int threads = 1;
  long long node_limit = -1;  ///< per cell; <0 = unlimited
  /// Every cell must end audit-verified optimal at its pinned objective.
  bool must_prove = false;
  std::vector<Cell> cells;  ///< grouped by circuit, k ascending per circuit
};

/// A built circuit and the Synthesizer that runs all its cells, as one
/// Table 2 row does. The Synthesizer keeps references into `bench`, so a
/// Circuit is never moved once built.
struct Circuit {
  hls::Benchmark bench;
  std::unique_ptr<core::Synthesizer> synth;
  std::vector<int> ks;  ///< cells of this circuit, ascending
};

/// Outcome of one product-path cell: Synthesizer call + BIST check + RTL.
struct CellRun {
  Cell cell;
  double wall_s = 0.0;
  ilp::SolveStatus status = ilp::SolveStatus::kNoSolutionFound;
  double objective = 0.0;
  double bound = 0.0;
  double gap = 0.0;  ///< (objective - bound) / objective; 0 when proven
  long long nodes = 0;
  double solve_s = 0.0;  ///< the solver's own Stats::seconds
  bool proven = false;
  std::string error;  ///< empty when the cell passed every check
};

/// Solver and synthesis settings every cell of `w` runs with.
/// `cancel` is raised by the run's deadline watchdog.
core::SynthesizerOptions synth_options(const Workload& w,
                                       const std::atomic<bool>* cancel);

/// The formulation options core::Synthesizer builds cell `k` with
/// (k == 0: the reference synthesis).
core::FormulationOptions formulation_options(
    const core::SynthesizerOptions& options, int k);

/// Runs one cell through the product path and applies the correctness
/// gate (pinned optima, audit-verified proofs, BIST validity, RTL).
CellRun run_product_cell(const Circuit& circuit, int k, const Workload& w,
                         const std::atomic<bool>& cancel);

/// Pinned proven optimum of a cell, or 0 when none is pinned.
int pinned_optimum(const Cell& cell);

/// name -> (value, unit), in emission order.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

struct TracedResult {
  Metrics metrics;
  int attempted = 0;
  int failed = 0;
};

/// The traced run: one pass over the cells with the product call as the
/// untraced reference, then the layer split, the LP probe, the search
/// attribution, the parallel baseline and the serve pass-through.
/// `scratch_dir` receives the trace file and the temporary serve spool;
/// `cancel` is the run's deadline flag (it also drains the serve pass).
TracedResult run_traced(const Workload& w,
                        const std::vector<std::unique_ptr<Circuit>>& circuits,
                        const std::string& scratch_dir, int seed,
                        std::atomic<bool>& cancel);

}  // namespace perfbench
