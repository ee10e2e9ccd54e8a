// Branch & bound correctness: knapsacks and assignment problems with known
// optima, infeasibility, limits, and a randomized sweep cross-checked against
// exhaustive 0/1 enumeration.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ilp/solver.hpp"
#include "lp/model.hpp"
#include "util/rng.hpp"

namespace advbist::ilp {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::Sense;

// Exhaustively enumerates all 0/1 assignments (n <= 20) and returns the
// optimal objective, or +inf if infeasible.
double enumerate_binary_optimum(const Model& m) {
  const int n = m.num_variables();
  double best = lp::kInfinity;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> x(n);
    for (int v = 0; v < n; ++v) x[v] = (mask >> v) & 1u;
    if (m.max_violation(x, true) <= 1e-9)
      best = std::min(best, m.objective_value(x));
  }
  return best;
}

TEST(IlpSolver, SimpleKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 -> {a,b}: 16.
  Model m;
  const int a = m.add_binary(-10, "a");
  const int b = m.add_binary(-6, "b");
  const int c = m.add_binary(-4, "c");
  m.add_constraint(LinExpr().add(a, 1).add(b, 1).add(c, 1), Sense::kLessEqual,
                   2);
  const Solution s = Solver().solve(m);
  ASSERT_TRUE(s.is_optimal());
  EXPECT_NEAR(s.objective, -16.0, 1e-6);
  EXPECT_EQ(s.value_as_int(a), 1);
  EXPECT_EQ(s.value_as_int(b), 1);
  EXPECT_EQ(s.value_as_int(c), 0);
}

TEST(IlpSolver, KnapsackWithFractionalLpOptimum) {
  // Classic: LP relaxation is fractional, ILP must branch.
  // max 8x1 + 11x2 + 6x3 + 4x4, weights 5,7,4,3 <= 14 -> optimum 21 ({x1,x2}
  // =19, {x2,x3,x4}=21).
  Model m;
  const int x1 = m.add_binary(-8, "x1");
  const int x2 = m.add_binary(-11, "x2");
  const int x3 = m.add_binary(-6, "x3");
  const int x4 = m.add_binary(-4, "x4");
  m.add_constraint(
      LinExpr().add(x1, 5).add(x2, 7).add(x3, 4).add(x4, 3),
      Sense::kLessEqual, 14);
  const Solution s = Solver().solve(m);
  ASSERT_TRUE(s.is_optimal());
  EXPECT_NEAR(s.objective, -21.0, 1e-6);
}

TEST(IlpSolver, AssignmentProblem) {
  // 3x3 assignment, cost matrix with known optimum 5 (1+1+3... verify by
  // enumeration inside the test).
  const double cost[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  Model m;
  int v[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) v[i][j] = m.add_binary(cost[i][j], "");
  for (int i = 0; i < 3; ++i) {
    LinExpr row, col;
    for (int j = 0; j < 3; ++j) {
      row.add(v[i][j], 1);
      col.add(v[j][i], 1);
    }
    m.add_constraint(std::move(row), Sense::kEqual, 1);
    m.add_constraint(std::move(col), Sense::kEqual, 1);
  }
  const Solution s = Solver().solve(m);
  ASSERT_TRUE(s.is_optimal());
  EXPECT_NEAR(s.objective, enumerate_binary_optimum(m), 1e-6);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);  // (0,1)+(1,0)+(2,2) = 1+2+2
}

TEST(IlpSolver, InfeasibleByPresolve) {
  Model m;
  const int x = m.add_binary(1, "x");
  m.add_constraint(LinExpr().add(x, 1), Sense::kGreaterEqual, 2);
  EXPECT_EQ(Solver().solve(m).status, SolveStatus::kInfeasible);
}

TEST(IlpSolver, InfeasibleIntegerOnlyDetectedBySearch) {
  // LP feasible (x=0.5) but no integer point: 2x = 1.
  Model m;
  const int x = m.add_binary(0, "x");
  Options opt;
  opt.use_presolve = false;  // force the search to prove it
  m.add_constraint(LinExpr().add(x, 2), Sense::kEqual, 1);
  EXPECT_EQ(Solver(opt).solve(m).status, SolveStatus::kInfeasible);
}

TEST(IlpSolver, GeneralIntegerVariables) {
  // min -x - y, 3x + 4y <= 12, x,y integer in [0,4] -> (4,0) obj -4.
  Model m;
  const int x = m.add_integer(0, 4, -1, "x");
  const int y = m.add_integer(0, 4, -1, "y");
  m.add_constraint(LinExpr().add(x, 3).add(y, 4), Sense::kLessEqual, 12);
  const Solution s = Solver().solve(m);
  ASSERT_TRUE(s.is_optimal());
  EXPECT_NEAR(s.objective, -4.0, 1e-6);
}

TEST(IlpSolver, MixedIntegerContinuous) {
  // min -y - 0.5 x ; y binary, x continuous in [0,1]; x + y <= 1.5.
  // Optimum: y=1, x=0.5 -> -1.25.
  Model m;
  const int x =
      m.add_variable(0, 1, -0.5, lp::VarType::kContinuous, "x");
  const int y = m.add_binary(-1, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLessEqual, 1.5);
  const Solution s = Solver().solve(m);
  ASSERT_TRUE(s.is_optimal());
  EXPECT_NEAR(s.objective, -1.25, 1e-6);
  EXPECT_NEAR(s.values[x], 0.5, 1e-6);
  EXPECT_EQ(s.value_as_int(y), 1);
}

TEST(IlpSolver, NodeLimitReportsFeasibleOrNoSolution) {
  Model m;
  util::Rng rng(5);
  std::vector<int> vars;
  for (int i = 0; i < 18; ++i) vars.push_back(m.add_binary(-rng.next_int(1, 20), ""));
  LinExpr weight;
  for (int v : vars) weight.add(v, rng.next_int(1, 10));
  m.add_constraint(std::move(weight), Sense::kLessEqual, 30);
  Options opt;
  opt.node_limit = 1;
  opt.use_rounding_heuristic = false;
  const Solution s = Solver(opt).solve(m);
  EXPECT_TRUE(s.status == SolveStatus::kFeasible ||
              s.status == SolveStatus::kNoSolutionFound ||
              s.status == SolveStatus::kOptimal);
  EXPECT_TRUE(s.stats.termination == util::StopReason::kNodeLimit ||
              s.is_optimal());
}

TEST(IlpSolver, GapIsZeroWhenOptimal) {
  Model m;
  const int x = m.add_binary(-1, "x");
  m.add_constraint(LinExpr().add(x, 1), Sense::kLessEqual, 1);
  const Solution s = Solver().solve(m);
  ASSERT_TRUE(s.is_optimal());
  EXPECT_DOUBLE_EQ(s.gap(), 0.0);
}

TEST(IlpSolver, BranchPriorityRespectedForCorrectness) {
  // Priorities must not change the optimum, only the search order.
  Model m;
  std::vector<int> v;
  for (int i = 0; i < 6; ++i) v.push_back(m.add_binary(-(i + 1.0), ""));
  LinExpr sum;
  for (int x : v) sum.add(x, 1);
  m.add_constraint(std::move(sum), Sense::kLessEqual, 3);
  Options opt;
  opt.branch_priority.assign(6, 0);
  opt.branch_priority[0] = 100;
  const Solution s = Solver(opt).solve(m);
  ASSERT_TRUE(s.is_optimal());
  EXPECT_NEAR(s.objective, -(6 + 5 + 4), 1e-6);
}

TEST(IlpSolver, EqualityPartitionStructure) {
  // The register-assignment pattern: each item to exactly one bucket,
  // bucket capacity 1, minimize placement cost.
  const int items = 4, buckets = 4;
  const double cost[4][4] = {
      {5, 2, 8, 7}, {9, 4, 3, 6}, {1, 8, 7, 5}, {6, 3, 9, 2}};
  Model m;
  std::vector<std::vector<int>> x(items, std::vector<int>(buckets));
  for (int i = 0; i < items; ++i)
    for (int b = 0; b < buckets; ++b) x[i][b] = m.add_binary(cost[i][b], "");
  for (int i = 0; i < items; ++i) {
    LinExpr e;
    for (int b = 0; b < buckets; ++b) e.add(x[i][b], 1);
    m.add_constraint(std::move(e), Sense::kEqual, 1);
  }
  for (int b = 0; b < buckets; ++b) {
    LinExpr e;
    for (int i = 0; i < items; ++i) e.add(x[i][b], 1);
    m.add_constraint(std::move(e), Sense::kLessEqual, 1);
  }
  const Solution s = Solver().solve(m);
  ASSERT_TRUE(s.is_optimal());
  EXPECT_NEAR(s.objective, enumerate_binary_optimum(m), 1e-6);
}

// ---------------------------------------------------------------------------
// Randomized sweep vs exhaustive enumeration
// ---------------------------------------------------------------------------

struct RandomIlpParam {
  int n;
  int rows;
  std::uint64_t seed;
};

class IlpRandomTest : public ::testing::TestWithParam<RandomIlpParam> {};

TEST_P(IlpRandomTest, MatchesExhaustiveEnumeration) {
  const RandomIlpParam p = GetParam();
  util::Rng rng(p.seed);
  Model m;
  for (int v = 0; v < p.n; ++v) m.add_binary(rng.next_int(-9, 9), "");
  for (int c = 0; c < p.rows; ++c) {
    LinExpr e;
    bool nonzero = false;
    for (int v = 0; v < p.n; ++v) {
      const int coeff = rng.next_int(-2, 3);
      if (coeff != 0) {
        e.add(v, coeff);
        nonzero = true;
      }
    }
    if (!nonzero) e.add(0, 1.0);
    const int sense = rng.next_int(0, 2);
    m.add_constraint(std::move(e),
                     sense == 0   ? Sense::kLessEqual
                     : sense == 1 ? Sense::kGreaterEqual
                                  : Sense::kEqual,
                     rng.next_int(0, 5));
  }
  const double brute = enumerate_binary_optimum(m);
  const Solution s = Solver().solve(m);
  if (!std::isfinite(brute)) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible)
        << "solver claims obj " << s.objective;
  } else {
    ASSERT_TRUE(s.is_optimal()) << to_string(s.status);
    EXPECT_NEAR(s.objective, brute, 1e-6);
    EXPECT_LE(m.max_violation(s.values, true), 1e-6);
  }
}

std::vector<RandomIlpParam> make_ilp_params() {
  std::vector<RandomIlpParam> params;
  std::uint64_t seed = 9000;
  for (int n : {4, 6, 8, 10, 12})
    for (int rows : {2, 4, 6})
      for (int rep = 0; rep < 4; ++rep) params.push_back({n, rows, seed++});
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, IlpRandomTest,
                         ::testing::ValuesIn(make_ilp_params()));

}  // namespace
}  // namespace advbist::ilp
