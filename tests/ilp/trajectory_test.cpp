// Serial search-trajectory pin: the exact tree a one-thread solve walks on
// two paper circuits. Optimum-only checks (perfbench, the parallel
// determinism suite) pass for any tree that reaches the same objective; this
// suite fails on any change that moves a single node, LP pivot, probe or
// applied cut. A refactor that claims to leave the search untouched must
// pass it unchanged; a change that moves the search on purpose re-pins the
// values below and reports old and new values.
#include <gtest/gtest.h>

#include <string>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/solver.hpp"

namespace advbist::ilp {
namespace {

struct Trajectory {
  double objective;
  long long nodes;
  long long lp_iterations;
  int strong_branch_probed;
  long long reliability_probed;
  int cuts_clique_applied;
  int cuts_cover_applied;
  int cuts_gomory_applied;
  int cuts_odd_cycle_applied;
};

/// Solves the k-session BIST formulation of `name` on one thread with `opt`
/// plus the formulation's branching priorities (with default `opt`, the
/// Synthesizer's solver setup without the heuristic cutoff seed) and
/// compares the trajectory with `want`.
void expect_trajectory(const std::string& name, int k, Options opt,
                       const Trajectory& want) {
  const hls::Benchmark bench = hls::benchmark_by_name(name);
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = k;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  opt.branch_priority = f.branch_priorities();
  // No limit may cut the tree short: the pin is of the whole proof.
  opt.time_limit_seconds = 3600.0;
  const Solution s = Solver(opt).solve(f.model());
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << name;
  const Stats& st = s.stats;
  EXPECT_DOUBLE_EQ(s.objective, want.objective) << name;
  EXPECT_EQ(st.nodes, want.nodes) << name;
  EXPECT_EQ(st.lp_iterations, want.lp_iterations) << name;
  EXPECT_EQ(st.strong_branch_probed, want.strong_branch_probed) << name;
  EXPECT_EQ(st.reliability_probed, want.reliability_probed) << name;
  EXPECT_EQ(st.cuts_clique_applied, want.cuts_clique_applied) << name;
  EXPECT_EQ(st.cuts_cover_applied, want.cuts_cover_applied) << name;
  EXPECT_EQ(st.cuts_gomory_applied, want.cuts_gomory_applied) << name;
  EXPECT_EQ(st.cuts_odd_cycle_applied, want.cuts_odd_cycle_applied) << name;
}

TEST(SerialTrajectory, Fig1K2) {
  expect_trajectory("fig1", 2, {}, {432, 305, 11948, 24, 63, 47, 0, 0, 0});
}

TEST(SerialTrajectory, TsengK2) {
  expect_trajectory("tseng", 2, {}, {816, 273, 22284, 24, 64, 59, 0, 0, 0});
}

TEST(SerialTrajectory, Fig1K2AllSeparators) {
  // The off-by-default classes too, so every separator's root and in-tree
  // rounds are on the pinned path.
  Options opt;
  opt.gomory_rounds = 4;
  opt.odd_cycle_cuts = true;
  expect_trajectory("fig1", 2, opt, {432, 226, 10369, 24, 48, 34, 0, 13, 44});
}

}  // namespace
}  // namespace advbist::ilp
