#include "core/synthesizer.hpp"

#include <cmath>
#include <optional>

#include "baselines/baselines.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace advbist::core {

namespace {

/// Objective-equivalent cost of a heuristic design: the area with the
/// constant-TPG silicon swapped for the formulation's w_tc penalty, minus
/// the constant register offset.
double objective_equivalent(const bist::AreaBreakdown& area,
                            const bist::CostModel& cost, double offset) {
  return area.total() - offset - area.constant_tpg_transistors +
         static_cast<double>(area.constant_tpgs) *
             cost.constant_tpg_penalty();
}

}  // namespace

Synthesizer::Synthesizer(const hls::Dfg& dfg,
                         const hls::ModuleAllocation& alloc,
                         SynthesizerOptions options)
    : dfg_(dfg), alloc_(alloc), opt_(std::move(options)) {}

SynthesisResult Synthesizer::run(const Formulation& formulation,
                                 int k_for_seed) const {
  ilp::Options solver_options = opt_.solver;
  solver_options.branch_priority = formulation.branch_priorities();
  // Checkpoint/resume is for the caller's TARGET solve (the BIST session
  // ILP). The reference synthesis is a different model sharing the same
  // options — letting it write to or resume from the same snapshot path
  // would at best waste a rejected-fingerprint cold start per run.
  if (k_for_seed == 0) {
    solver_options.checkpoint_path.clear();
    solver_options.resume_path.clear();
    solver_options.checkpoint_interval_seconds = 0.0;
  }

  // Seed the search with the cheapest baseline design that fits the same
  // register budget (heuristic designs are feasible ILP points up to a
  // register permutation, so the optimum is never cut off).
  std::optional<baselines::BaselineResult> seed;
  if (k_for_seed > 0 && opt_.seed_with_baselines) {
    for (const char* method : {"ADVAN", "BITS", "RALLOC"}) {
      try {
        baselines::BaselineResult candidate = baselines::run_baseline(
            method, dfg_, alloc_, k_for_seed, opt_.cost);
        if (candidate.registers.num_registers() !=
            formulation.num_registers())
          continue;  // uses extra registers: not a valid bound here
        if (!seed || candidate.area.total() < seed->area.total())
          seed = std::move(candidate);
      } catch (const std::exception&) {
        // A heuristic may fail on unusual datapaths; seeding is optional.
      }
    }
    if (seed)
      solver_options.initial_cutoff = objective_equivalent(
          seed->area, opt_.cost, formulation.objective_offset());
  }

  const ilp::Solver solver(solver_options);
  util::Stopwatch watch;
  const ilp::Solution solution = solver.solve(formulation.model());

  SynthesisResult result;
  result.status = solution.status;
  result.seconds = watch.seconds();
  result.nodes = solution.stats.nodes;
  result.solver_stats = solution.stats;
  result.hit_limit =
      solution.stats.termination != util::StopReason::kNone;

  if (solution.has_solution()) {
    result.objective = solution.objective + formulation.objective_offset();
    result.best_bound =
        solution.stats.best_bound + formulation.objective_offset();
    result.design = formulation.decode(solution);
    return result;
  }

  // No incumbent. With a seeded cutoff an exhausted search proves the seed
  // optimal (within the +1 integral margin); a limited search simply fell
  // back. Either way the seed design is the answer we can stand behind.
  if (seed) {
    result.from_heuristic_fallback = true;
    result.status = result.hit_limit ? ilp::SolveStatus::kFeasible
                                     : ilp::SolveStatus::kOptimal;
    result.objective = seed->area.total();
    result.best_bound =
        solution.stats.best_bound + formulation.objective_offset();
    result.design.registers = seed->registers;
    result.design.ports = seed->ports;
    result.design.bist = seed->bist;
    result.design.datapath = seed->datapath;
    result.design.area = seed->area;
    return result;
  }
  ADVBIST_REQUIRE(false, "synthesis failed: " +
                             ilp::to_string(solution.status) + " for " +
                             dfg_.name());
  return result;  // unreachable
}

SynthesisResult Synthesizer::synthesize_reference() const {
  FormulationOptions fo;
  fo.include_bist = false;
  fo.num_registers = opt_.num_registers;
  fo.symmetry_reduction = opt_.symmetry_reduction;
  fo.commutative_swaps = opt_.commutative_swaps;
  fo.cost = opt_.cost;
  const Formulation formulation(dfg_, alloc_, fo);
  return run(formulation, /*k_for_seed=*/0);
}

SynthesisResult Synthesizer::synthesize_bist(int k) const {
  FormulationOptions fo;
  fo.include_bist = true;
  fo.k = k;
  fo.num_registers = opt_.num_registers;
  fo.symmetry_reduction = opt_.symmetry_reduction;
  fo.commutative_swaps = opt_.commutative_swaps;
  fo.cost = opt_.cost;
  const Formulation formulation(dfg_, alloc_, fo);
  return run(formulation, k);
}

std::vector<SynthesisResult> Synthesizer::synthesize_all_sessions() const {
  std::vector<SynthesisResult> results;
  for (int k = 1; k <= alloc_.num_modules(); ++k) {
    util::log_info() << dfg_.name() << ": synthesizing k=" << k;
    results.push_back(synthesize_bist(k));
  }
  return results;
}

}  // namespace advbist::core
