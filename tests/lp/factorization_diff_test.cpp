// Differential fuzz harness for the basis factorization kernels.
//
// Numerical-kernel rewrites are where silent wrong-answer bugs hide, so the
// sparse Markowitz factorization is pinned three ways on seeded random LPs
// (including degenerate and near-singular bases):
//
//  1. FTRAN/BTRAN solutions of the factorized basis are checked against a
//     slow dense-inverse reference (full Gaussian elimination with partial
//     pivoting computed independently here) and against the exact residual
//     B w - rhs.
//  2. The sparse Markowitz path and the dense-sweep path must solve every
//     LP to the same status and optimal objective, with primal-feasible
//     solutions — including across warm-started bound-change re-solves in
//     the pattern branch & bound produces.
//  3. Degenerate (duplicated rows, fixed variables) and near-singular
//     (nearly parallel rows) instances must not crash either path and must
//     agree wherever both claim optimality.
//
// Every case is seeded through util::Rng, so any failure reproduces by
// rerunning the named gtest case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::lp {
namespace {

SimplexOptions options_for(bool sparse) {
  SimplexOptions o;
  o.sparse_factorization = sparse;
  // A tiny interval forces many refactorizations per solve so every case
  // actually exercises the factorization under test, not just the LU updates.
  o.refactor_every = 3;
  return o;
}

/// Random bounded-feasible LP: rhs values are derived from a random interior
/// point, so the instance is feasible by construction and (finite bounds)
/// never unbounded. Equalities, fixed variables and duplicated rows are
/// mixed in to produce degenerate optimal bases.
Model random_lp(std::uint64_t seed, bool degenerate) {
  util::Rng rng(seed);
  Model m;
  const int n = 6 + rng.next_int(0, 18);
  const int rows = 4 + rng.next_int(0, 14);
  std::vector<double> x0(n);
  for (int v = 0; v < n; ++v) {
    const double ub = 1 + rng.next_int(0, 5);
    m.add_variable(0, ub, rng.next_int(-6, 6), VarType::kContinuous, "");
    x0[v] = rng.next_double() * ub;
  }
  if (degenerate && n > 2) {
    // A couple of fixed variables: their columns can only enter a basis
    // degenerately.
    m.set_bounds(0, 1.0, 1.0);
    x0[0] = 1.0;
  }
  LinExpr dup;  // last <= row, duplicated below in degenerate mode
  double dup_rhs = 0.0;
  for (int r = 0; r < rows; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng.next_bool(0.3)) continue;
      const int c = rng.next_int(-4, 4);
      if (c == 0) continue;
      e.add(v, c);
      lhs += c * x0[v];
    }
    const int kind = rng.next_int(0, 9);
    if (kind == 0) {
      m.add_constraint(std::move(e), Sense::kEqual, lhs);
    } else if (kind <= 7) {
      const double rhs = lhs + rng.next_int(degenerate ? 0 : 1, 4);
      dup = e;
      dup_rhs = rhs;
      m.add_constraint(std::move(e), Sense::kLessEqual, rhs);
    } else {
      m.add_constraint(std::move(e), Sense::kGreaterEqual,
                       lhs - rng.next_int(degenerate ? 0 : 1, 4));
    }
  }
  if (degenerate && !dup.terms().empty()) {
    // Exact duplicate row: a prime source of degenerate and rank-deficient
    // candidate bases.
    LinExpr copy = dup;
    m.add_constraint(std::move(copy), Sense::kLessEqual, dup_rhs);
    // Nearly parallel row: near-singular 2x2 blocks in the basis.
    LinExpr tilted = dup;
    tilted.add(0, 1e-9);
    m.add_constraint(std::move(tilted), Sense::kLessEqual, dup_rhs + 1e-9);
  }
  return m;
}

/// Slow dense-inverse reference: solves B w = rhs by Gaussian elimination
/// with partial pivoting on an explicit dense copy of B. Returns false if
/// the dense elimination itself finds B singular.
bool dense_reference_solve(std::vector<double> b, int m,
                           std::vector<double>& rhs) {
  std::vector<int> piv(m);
  for (int k = 0; k < m; ++k) {
    int pr = k;
    for (int i = k + 1; i < m; ++i)
      if (std::abs(b[static_cast<std::size_t>(k) * m + i]) >
          std::abs(b[static_cast<std::size_t>(k) * m + pr]))
        pr = i;
    if (std::abs(b[static_cast<std::size_t>(k) * m + pr]) < 1e-12) return false;
    if (pr != k) {
      for (int j = 0; j < m; ++j)
        std::swap(b[static_cast<std::size_t>(j) * m + pr],
                  b[static_cast<std::size_t>(j) * m + k]);
      std::swap(rhs[pr], rhs[k]);
    }
    const double inv = 1.0 / b[static_cast<std::size_t>(k) * m + k];
    for (int i = k + 1; i < m; ++i) {
      const double mult = b[static_cast<std::size_t>(k) * m + i] * inv;
      if (mult == 0.0) continue;
      for (int j = k; j < m; ++j)
        b[static_cast<std::size_t>(j) * m + i] -=
            mult * b[static_cast<std::size_t>(j) * m + k];
      rhs[i] -= mult * rhs[k];
    }
  }
  for (int k = m - 1; k >= 0; --k) {
    double acc = rhs[k];
    for (int j = k + 1; j < m; ++j)
      acc -= b[static_cast<std::size_t>(j) * m + k] * rhs[j];
    rhs[k] = acc / b[static_cast<std::size_t>(k) * m + k];
  }
  return true;
}

double solution_scale(const std::vector<double>& v) {
  double s = 1.0;
  for (const double x : v) s = std::max(s, std::abs(x));
  return s;
}

/// Residual-checks FTRAN and BTRAN of `s` against its own basis matrix and
/// against the dense-inverse reference, for `trials` random right-hand
/// sides. `tol` is relative to the solution magnitude.
void check_factorization(const SimplexSolver& s, std::uint64_t seed,
                         double tol) {
  const int m = s.num_rows();
  const std::vector<double> b = s.dense_basis_for_testing();
  util::Rng rng(seed ^ 0x5eed5eedULL);
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<double> rhs(m);
    for (double& v : rhs) v = rng.next_double() * 2.0 - 1.0;

    // FTRAN residual: B w == rhs (w indexed by basis position).
    const std::vector<double> w = s.ftran_for_testing(rhs);
    double worst = 0.0;
    for (int row = 0; row < m; ++row) {
      double acc = 0.0;
      for (int i = 0; i < m; ++i)
        acc += b[static_cast<std::size_t>(i) * m + row] * w[i];
      worst = std::max(worst, std::abs(acc - rhs[row]));
    }
    EXPECT_LE(worst, tol * solution_scale(w)) << "FTRAN residual";

    // FTRAN vs the slow dense-inverse reference.
    std::vector<double> ref = rhs;
    if (dense_reference_solve(b, m, ref)) {
      double diff = 0.0;
      for (int i = 0; i < m; ++i) diff = std::max(diff, std::abs(w[i] - ref[i]));
      EXPECT_LE(diff, tol * solution_scale(ref)) << "FTRAN vs dense inverse";
    }

    // BTRAN residual: y' B == cb'.
    std::vector<double> cb(m);
    for (double& v : cb) v = rng.next_double() * 2.0 - 1.0;
    const std::vector<double> y = s.btran_for_testing(cb);
    worst = 0.0;
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int row = 0; row < m; ++row)
        acc += y[row] * b[static_cast<std::size_t>(i) * m + row];
      worst = std::max(worst, std::abs(acc - cb[i]));
    }
    EXPECT_LE(worst, tol * solution_scale(y)) << "BTRAN residual";
  }
}

double primal_violation(const Model& m, const std::vector<double>& x) {
  return m.max_violation(x, /*check_integrality=*/false);
}

class FactorizationDiff : public ::testing::TestWithParam<std::uint64_t> {};

// 1. Sparse-LU FTRAN/BTRAN vs the dense-inverse reference, on the optimal
//    basis the solve ends in (plus a forced refactorization so the factors
//    under test are fresh, not an LU-update product).
TEST_P(FactorizationDiff, FtranBtranMatchDenseReference) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed, /*degenerate=*/false);
  for (const bool sparse : {true, false}) {
    SimplexSolver s(m, options_for(sparse));
    const LpResult r = s.solve();
    ASSERT_NE(r.status, LpStatus::kIterLimit);
    ASSERT_TRUE(s.refactorize_for_testing())
        << (sparse ? "sparse" : "dense") << " factorization flagged a "
        << "working basis singular";
    check_factorization(s, seed, 1e-8);
  }
}

// 2. The two factorization paths must reach the same answer on every LP.
TEST_P(FactorizationDiff, SparseAndDenseSweepAgree) {
  const std::uint64_t seed = GetParam() * 1000003ULL + 17;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed, /*degenerate=*/false);
  SimplexSolver sparse(m, options_for(true));
  SimplexSolver dense(m, options_for(false));
  const LpResult rs = sparse.solve();
  const LpResult rd = dense.solve();
  ASSERT_EQ(rs.status, rd.status);
  // A short solve may never hit the refactorization interval; force one so
  // each solver demonstrably exercised its configured path.
  ASSERT_TRUE(sparse.refactorize_for_testing());
  ASSERT_TRUE(dense.refactorize_for_testing());
  EXPECT_GT(sparse.stats().sparse_refactorizations, 0);
  EXPECT_EQ(dense.stats().sparse_refactorizations, 0);
  if (rs.status != LpStatus::kOptimal) return;
  const double scale = 1.0 + std::abs(rd.objective);
  EXPECT_NEAR(rs.objective, rd.objective, 1e-6 * scale);
  EXPECT_LE(primal_violation(m, rs.x), 1e-6);
  EXPECT_LE(primal_violation(m, rd.x), 1e-6);
}

// 3. Warm-started re-solves after bound changes (the branch & bound usage
//    pattern) stay in agreement, and the factors stay verifiable.
TEST_P(FactorizationDiff, WarmStartResolvesAgree) {
  const std::uint64_t seed = GetParam() * 7919ULL + 3;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed, /*degenerate=*/false);
  SimplexSolver sparse(m, options_for(true));
  SimplexSolver dense(m, options_for(false));
  ASSERT_EQ(sparse.solve().status, dense.solve().status);

  util::Rng rng(seed ^ 0xb0b0ULL);
  const int n = m.num_variables();
  for (int step = 0; step < 6; ++step) {
    const int v = rng.next_int(0, n - 1);
    const double lo = sparse.variable_lower(v);
    const double hi = sparse.variable_upper(v);
    if (lo >= hi) continue;
    // Tighten to one of the bounds, like a branching child does.
    const double fix = rng.next_bool() ? lo : hi;
    sparse.set_variable_bounds(v, fix, fix);
    dense.set_variable_bounds(v, fix, fix);
    const LpResult rs = sparse.solve();
    const LpResult rd = dense.solve();
    ASSERT_EQ(rs.status, rd.status) << "step " << step;
    if (rs.status == LpStatus::kOptimal) {
      EXPECT_NEAR(rs.objective, rd.objective,
                  1e-6 * (1.0 + std::abs(rd.objective)))
          << "step " << step;
    }
  }
  if (sparse.refactorize_for_testing()) check_factorization(sparse, seed, 1e-8);
}

// 4. Degenerate + near-singular instances: duplicated rows, nearly parallel
//    rows and fixed variables. Both paths must survive (fall back rather
//    than crash or return garbage) and agree on the optimum.
TEST_P(FactorizationDiff, DegenerateAndNearSingularAgree) {
  const std::uint64_t seed = GetParam() * 104729ULL + 29;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed, /*degenerate=*/true);
  SimplexSolver sparse(m, options_for(true));
  SimplexSolver dense(m, options_for(false));
  const LpResult rs = sparse.solve();
  const LpResult rd = dense.solve();
  ASSERT_EQ(rs.status, rd.status);
  if (rs.status != LpStatus::kOptimal) return;
  EXPECT_NEAR(rs.objective, rd.objective, 1e-6 * (1.0 + std::abs(rd.objective)));
  EXPECT_LE(primal_violation(m, rs.x), 1e-5);
  EXPECT_LE(primal_violation(m, rd.x), 1e-5);
  // The factors of an ill-conditioned basis still have to be consistent:
  // verify with a looser, conditioning-aware tolerance.
  if (sparse.refactorize_for_testing()) check_factorization(sparse, seed, 1e-5);
}

// 75 seeds x 4 differential properties = 300 seeded cases.
INSTANTIATE_TEST_SUITE_P(Seeds, FactorizationDiff,
                         ::testing::Range<std::uint64_t>(1, 76));

// Targeted regression: a basis that mixes unit slack columns with a dense
// block exercises both singleton phases and the Markowitz bump phase in one
// factorization.
TEST(FactorizationDiffTargeted, MixedSlackAndDenseBlock) {
  util::Rng rng(424242);
  Model m;
  const int n = 12;
  std::vector<double> x0(n);
  for (int v = 0; v < n; ++v) {
    m.add_variable(0, 4, rng.next_int(-5, 5), VarType::kContinuous, "");
    x0[v] = rng.next_double() * 4.0;
  }
  // A dense 6x6 block over the first 6 variables (equalities: all six rows
  // enter the basis), plus sparse inequality rows over the rest.
  for (int r = 0; r < 6; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 0; v < 6; ++v) {
      const int c = rng.next_int(1, 5);
      e.add(v, c);
      lhs += c * x0[v];
    }
    m.add_constraint(std::move(e), Sense::kEqual, lhs);
  }
  for (int r = 0; r < 8; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 6; v < n; ++v) {
      if (!rng.next_bool(0.4)) continue;
      const int c = rng.next_int(-3, 3);
      if (c == 0) continue;
      e.add(v, c);
      lhs += c * x0[v];
    }
    m.add_constraint(std::move(e), Sense::kLessEqual, lhs + 1);
  }
  SimplexSolver sparse(m, options_for(true));
  SimplexSolver dense(m, options_for(false));
  const LpResult rs = sparse.solve();
  const LpResult rd = dense.solve();
  ASSERT_EQ(rs.status, LpStatus::kOptimal);
  ASSERT_EQ(rd.status, LpStatus::kOptimal);
  EXPECT_NEAR(rs.objective, rd.objective, 1e-6 * (1.0 + std::abs(rd.objective)));
  ASSERT_TRUE(sparse.refactorize_for_testing());
  EXPECT_GT(sparse.stats().sparse_refactorizations, 0);
  check_factorization(sparse, 424242, 1e-8);
}

// Targeted regression: a singular basis candidate (duplicate equality rows
// force rank deficiency) must be survivable — the solver falls back rather
// than asserting, and still answers correctly.
TEST(FactorizationDiffTargeted, SingularBasisFallsBack) {
  Model m;
  const int a = m.add_variable(0, 10, 1, VarType::kContinuous, "a");
  const int b = m.add_variable(0, 10, 1, VarType::kContinuous, "b");
  m.add_constraint(LinExpr().add(a, 1).add(b, 1), Sense::kEqual, 5);
  m.add_constraint(LinExpr().add(a, 1).add(b, 1), Sense::kEqual, 5);
  m.add_constraint(LinExpr().add(a, 1).add(b, -1), Sense::kLessEqual, 5);
  for (const bool sparse : {true, false}) {
    SimplexSolver s(m, options_for(sparse));
    const LpResult r = s.solve();
    ASSERT_EQ(r.status, LpStatus::kOptimal) << (sparse ? "sparse" : "dense");
    EXPECT_NEAR(r.objective, 5.0, 1e-6);
  }
}

}  // namespace
}  // namespace advbist::lp
