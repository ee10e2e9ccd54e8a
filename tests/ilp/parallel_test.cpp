// Parallel-vs-serial branch & bound equivalence: for any thread count the
// solver must prove the same objective and the same status. Covers random
// MILPs (knapsack-like, mixed integer/continuous, infeasible) and a real
// BIST formulation from the paper pipeline, including the seeded-cutoff +
// branch-priority configuration the synthesizer uses.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/solver.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::ilp {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::Sense;
using lp::VarType;

/// A random MILP in the shape branch & bound sees from the formulation:
/// mostly binaries, a few general integers and continuous helpers.
Model random_milp(std::uint64_t seed) {
  util::Rng rng(seed);
  Model m;
  const int n = rng.next_int(6, 12);
  for (int v = 0; v < n; ++v) {
    const int kind = rng.next_int(0, 5);
    if (kind <= 3)
      m.add_binary(rng.next_int(-6, 6), "");
    else if (kind == 4)
      m.add_integer(0, rng.next_int(2, 4), rng.next_int(-6, 6), "");
    else
      m.add_variable(0, 2, rng.next_int(-4, 4), VarType::kContinuous, "");
  }
  const int rows = rng.next_int(2, 5);
  for (int r = 0; r < rows; ++r) {
    LinExpr e;
    for (int v = 0; v < n; ++v) {
      const int coeff = rng.next_int(-2, 3);
      if (coeff != 0) e.add(v, coeff);
    }
    const Sense sense =
        rng.next_bool(0.8) ? Sense::kLessEqual : Sense::kGreaterEqual;
    m.add_constraint(std::move(e), sense, rng.next_int(1, 8));
  }
  return m;
}

Solution solve_with_threads(const Model& m, int threads,
                            const Options& base = {}) {
  Options opt = base;
  opt.num_threads = threads;
  opt.time_limit_seconds = 60.0;
  return Solver(opt).solve(m);
}

TEST(ParallelSolver, RandomModelsAgreeWithSerial) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Model m = random_milp(seed);
    const Solution serial = solve_with_threads(m, 1);
    for (int threads : {2, 4}) {
      const Solution parallel = solve_with_threads(m, threads);
      ASSERT_EQ(parallel.status, serial.status)
          << "seed " << seed << " threads " << threads;
      if (serial.has_solution()) {
        ASSERT_NEAR(parallel.objective, serial.objective, 1e-6)
            << "seed " << seed << " threads " << threads;
        // The incumbent itself must be feasible, not just its objective.
        EXPECT_LE(m.max_violation(parallel.values, true), 1e-6);
      }
    }
  }
}

TEST(ParallelSolver, InfeasibleModelsStayInfeasible) {
  Model m;
  const int x = m.add_binary(1, "x");
  const int y = m.add_binary(1, "y");
  m.add_constraint(LinExpr().add(x, 2).add(y, 2), Sense::kEqual, 3);
  Options opt;
  opt.use_presolve = false;  // force the tree search to prove it
  for (int threads : {1, 2, 4})
    EXPECT_EQ(solve_with_threads(m, threads, opt).status,
              SolveStatus::kInfeasible)
        << threads << " threads";
}

TEST(ParallelSolver, SeededCutoffAndPrioritiesMatchSerial) {
  // The synthesizer configuration: a heuristic upper bound plus branch
  // priorities. The parallel solver must reach the same proven optimum.
  const hls::Benchmark bench = hls::benchmark_by_name("fig1");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);

  Options base;
  base.branch_priority = f.branch_priorities();
  const Solution serial = solve_with_threads(f.model(), 1, base);
  ASSERT_EQ(serial.status, SolveStatus::kOptimal);

  for (int threads : {2, 4}) {
    const Solution parallel = solve_with_threads(f.model(), threads, base);
    ASSERT_EQ(parallel.status, SolveStatus::kOptimal) << threads << " threads";
    EXPECT_NEAR(parallel.objective, serial.objective, 1e-6)
        << threads << " threads";
    EXPECT_EQ(parallel.stats.threads, threads);
  }

  // Seeding with the optimum must still find a solution at that value.
  Options seeded = base;
  seeded.initial_cutoff = serial.objective;
  for (int threads : {1, 4}) {
    const Solution s = solve_with_threads(f.model(), threads, seeded);
    ASSERT_TRUE(s.has_solution()) << threads << " threads";
    EXPECT_NEAR(s.objective, serial.objective, 1e-6) << threads << " threads";
  }
}

TEST(ParallelSolver, StolenNodesCountOnlyOtherWorkersNodes) {
  // A worker resumes its own published subtrees first; stolen_nodes counts
  // the pops that took another worker's node. One worker has nobody to
  // steal from. With four, every stolen node is a published far child, and
  // each of those came from a counted node, so steals never exceed nodes.
  const hls::Benchmark bench = hls::benchmark_by_name("fig1");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  Options base;
  base.branch_priority = f.branch_priorities();

  const Solution serial = solve_with_threads(f.model(), 1, base);
  ASSERT_EQ(serial.status, SolveStatus::kOptimal);
  EXPECT_GT(serial.stats.nodes, 1);
  EXPECT_EQ(serial.stats.stolen_nodes, 0);

  const Solution parallel = solve_with_threads(f.model(), 4, base);
  ASSERT_EQ(parallel.status, SolveStatus::kOptimal);
  EXPECT_NEAR(parallel.objective, serial.objective, 1e-6);
  EXPECT_GE(parallel.stats.stolen_nodes, 0);
  EXPECT_LE(parallel.stats.stolen_nodes, parallel.stats.nodes);
}

/// Solves the k=2 BIST formulation of `name` to completion (no node budget)
/// and asserts the proven optimum `expected` for threads in {1, 2, 4}.
/// Budget-limited runs legitimately diverge per thread count (different
/// exploration orders reach different incumbents at the budget); the
/// proven optimum must not.
void expect_full_solve_deterministic(const std::string& name,
                                     double expected,
                                     double time_limit_seconds) {
  const hls::Benchmark bench = hls::benchmark_by_name(name);
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);

  Options opt;
  opt.branch_priority = f.branch_priorities();
  opt.node_limit = -1;  // no node budget: run to the optimality proof
  opt.time_limit_seconds = time_limit_seconds;

  for (const int threads : {1, 2, 4}) {
    opt.num_threads = threads;
    const Solution s = Solver(opt).solve(f.model());
    ASSERT_EQ(s.status, SolveStatus::kOptimal)
        << name << " with " << threads << " threads did not finish within "
        << time_limit_seconds << "s";
    ASSERT_EQ(s.stats.termination, util::StopReason::kNone);
    EXPECT_LE(f.model().max_violation(s.values, true), 1e-6)
        << name << " " << threads << " threads";
    EXPECT_NEAR(s.objective, expected, 1e-6)
        << name << " " << threads << " threads";
  }
}

TEST(ParallelSolver, FullSolveFig1DeterministicAcrossThreadCounts) {
  expect_full_solve_deterministic("fig1", 432.0, 60.0);
}

TEST(ParallelSolver, FullSolveTsengDeterministicAcrossThreadCounts) {
  // ~25s per thread count in a Release build; sanitizer builds exclude
  // this test (see .github/workflows/ci.yml) rather than time out on it.
  expect_full_solve_deterministic("tseng", 816.0, 300.0);
}

TEST(ParallelSolver, FullSolvePaulinDeterministicAcrossThreadCounts) {
  // Pre-cuts, paulin's k=2 BIST ILP took CPU-hours to close (the paper
  // capped CPLEX at 24 CPU-hours on these formulations); cut-and-bound
  // brought that to ~97s for all three thread counts, and the dual-simplex
  // re-solves + pseudocost branching to ~17s on one core. The proof now
  // runs ALWAYS-ON in CI through the long-determinism job (nightly + every
  // push to main, see .github/workflows/ci.yml), which sets
  // ADVBIST_FULL_DETERMINISM=1. The env gate remains only so the quick
  // tier-1 loop on an undersized container cannot go red on wall clock
  // alone.
  if (std::getenv("ADVBIST_FULL_DETERMINISM") == nullptr)
    GTEST_SKIP() << "set ADVBIST_FULL_DETERMINISM=1 to run the paulin "
                    "optimality-proof determinism check (~13s for all three "
                    "thread counts on one core; always-on in the CI "
                    "long-determinism job)";
  expect_full_solve_deterministic("paulin", 1072.0, 24.0 * 3600.0);
}

TEST(ParallelSolver, SharedPseudocostsKeepReductionDeterministic) {
  // The pseudocost store is shared between workers through relaxed atomics:
  // concurrent readers may see different snapshots, which legitimately
  // perturbs the node exploration order — but the post-join reduction must
  // still prove the identical optimum at every thread count, with and
  // without the root strong-branching seed.
  const hls::Benchmark bench = hls::benchmark_by_name("fig1");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);

  for (const int sb : {0, 16}) {
    Options opt;
    opt.branch_priority = f.branch_priorities();
    opt.strong_branch_vars = sb;
    double optimum = 0.0;
    for (const int threads : {1, 2, 4}) {
      const Solution s = solve_with_threads(f.model(), threads, opt);
      ASSERT_EQ(s.status, SolveStatus::kOptimal)
          << "sb=" << sb << " threads=" << threads;
      EXPECT_LE(f.model().max_violation(s.values, true), 1e-6);
      if (sb > 0)
        EXPECT_GT(s.stats.strong_branch_probed, 0)
            << "sb=" << sb << " threads=" << threads;
      else
        EXPECT_EQ(s.stats.strong_branch_probed, 0);
      if (threads == 1)
        optimum = s.objective;
      else
        EXPECT_NEAR(s.objective, optimum, 1e-6)
            << "sb=" << sb << " threads=" << threads;
    }
  }
}

TEST(ParallelSolver, PricingModesProveTheSameOptimum) {
  // Devex (the solver's rule) and exact steepest-edge dual pricing pick
  // different leaving rows, so a re-solve may land on a different vertex,
  // never at a different optimum. Both dive in lockstep from the root LP
  // of fig1's k=2 BIST formulation to the proven optimum, one integer
  // fixing per warm dual re-solve, and must agree on every node LP.
  const hls::Benchmark bench = hls::benchmark_by_name("fig1");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  const Model& m = f.model();

  Options opt;
  opt.branch_priority = f.branch_priorities();
  const Solution best = solve_with_threads(m, 1, opt);
  ASSERT_EQ(best.status, SolveStatus::kOptimal);

  lp::SimplexOptions se_options;
  se_options.dual_pricing = lp::DualPricing::kSteepestEdge;
  lp::SimplexSolver devex(m);
  lp::SimplexSolver se(m, se_options);
  ASSERT_EQ(devex.solve().status, lp::LpStatus::kOptimal);
  ASSERT_EQ(se.solve().status, lp::LpStatus::kOptimal);

  int fixed = 0;
  double objective = 0.0;
  for (int v = 0; v < m.num_variables(); ++v) {
    if (m.variable(v).type != VarType::kInteger) continue;
    const double x = std::round(best.values[v]);
    devex.set_variable_bounds(v, x, x);
    se.set_variable_bounds(v, x, x);
    const lp::LpResult a = devex.solve_dual();
    const lp::LpResult b = se.solve_dual();
    // The optimum satisfies every fixing so far, so each node LP is feasible.
    ASSERT_EQ(a.status, lp::LpStatus::kOptimal) << "fixing " << fixed;
    ASSERT_EQ(b.status, lp::LpStatus::kOptimal) << "fixing " << fixed;
    ASSERT_NEAR(a.objective, b.objective, 1e-6) << "fixing " << fixed;
    objective = a.objective;
    ++fixed;
  }
  // The dive must really exercise both pricing rules.
  EXPECT_GT(devex.stats().dual_iterations, 0);
  EXPECT_GT(se.stats().dual_iterations, 0);
  EXPECT_NEAR(objective, best.objective, 1e-6);
}

TEST(ParallelSolver, ProvenStatusesNeverCoincideWithLimitHits) {
  // A proven status (optimal/infeasible) must never be reported from a
  // search that was cut short, serial or parallel.
  for (std::uint64_t seed = 3; seed <= 8; ++seed) {
    const Model m = random_milp(seed);
    Options opt;
    opt.node_limit = 1;
    opt.use_rounding_heuristic = false;
    for (int threads : {1, 4}) {
      const Solution s = solve_with_threads(m, threads, opt);
      if (s.status == SolveStatus::kOptimal ||
          s.status == SolveStatus::kInfeasible) {
        // Only legitimate when the tree was genuinely exhausted in a
        // single node — i.e. no limit was hit.
        EXPECT_NE(s.stats.termination, util::StopReason::kNodeLimit)
            << "seed " << seed << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace advbist::ilp
