// Forrest–Tomlin LU update suite.
//
// Every basis change is absorbed by an LU update instead of a
// refactorization, so the factors after a long update chain must still
// solve the CURRENT basis as accurately as fresh ones:
//
//  * Long chains (>= 200 updates) of basis exchanges on seeded random LPs
//    and on the paper's fig1/tseng BIST formulations, interleaved with
//    add_rows (cut rows bordered onto updated factors) and delete_rows,
//    keep FTRAN/BTRAN residuals and the distance to a dense-inverse
//    reference under 1e-8 relative to the solution magnitude.
//  * A near-singular update (a new U diagonal under pivot_tol although the
//    FTRAN pivot is above it) fails the update's stability test: the pivot
//    is refused and the unchanged basis refactorized, counted in stats.
//  * tableau_row, the Gomory separator's input, still matches the dense
//    inverse after updates.
//
// Exchanges go through SimplexSolver::replace_basic_for_testing, which runs
// the same FTRAN-spike-update path as a simplex pivot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::lp {
namespace {

constexpr double kResidualTol = 1e-8;

/// Random bounded-feasible LP with real-valued coefficients (rhs derived
/// from a random interior point).
Model random_lp(util::Rng& rng, int n, int rows) {
  Model m;
  std::vector<double> x0(n);
  for (int v = 0; v < n; ++v) {
    const double ub = 1 + rng.next_int(0, 5);
    m.add_variable(0, ub, rng.next_int(-6, 6), VarType::kContinuous, "");
    x0[v] = rng.next_double() * ub;
  }
  for (int r = 0; r < rows; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng.next_bool(0.25)) continue;
      const double c = rng.next_double() * 8.0 - 4.0;
      e.add(v, c);
      lhs += c * x0[v];
    }
    if (e.terms().empty()) {
      e.add(r % n, 1.0);
      lhs += x0[r % n];
    }
    m.add_constraint(std::move(e), Sense::kLessEqual, lhs + 1.0);
  }
  return m;
}

ConstraintDef random_row(util::Rng& rng, int n) {
  ConstraintDef c;
  for (int v = 0; v < n; ++v)
    if (rng.next_bool(0.2))
      c.terms.push_back(Term{v, rng.next_double() * 4.0 - 2.0});
  if (c.terms.empty()) c.terms.push_back(Term{0, 1.0});
  c.sense = Sense::kLessEqual;
  c.rhs = 10.0;
  return c;
}

/// Solves B w = rhs by dense Gaussian elimination with partial pivoting on
/// the column-major basis copy `b`; false if the elimination finds B
/// singular.
bool dense_solve(std::vector<double> b, int m, std::vector<double>& rhs) {
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

double scale_of(const std::vector<double>& v) {
  double s = 1.0;
  for (const double x : v) s = std::max(s, std::abs(x));
  return s;
}

/// FTRAN and BTRAN of random right-hand sides against the basis matrix
/// itself (residuals) and against the dense-inverse reference.
void expect_accurate(const SimplexSolver& s, util::Rng& rng) {
  const int m = s.num_rows();
  const std::vector<double> b = s.dense_basis_for_testing();
  std::vector<double> rhs(m);
  for (double& v : rhs) v = rng.next_double() * 2.0 - 1.0;
  const std::vector<double> w = s.ftran_for_testing(rhs);
  double worst = 0.0;
  for (int row = 0; row < m; ++row) {
    double acc = 0.0;
    for (int i = 0; i < m; ++i)
      acc += b[static_cast<std::size_t>(i) * m + row] * w[i];
    worst = std::max(worst, std::abs(acc - rhs[row]));
  }
  EXPECT_LE(worst, kResidualTol * scale_of(w)) << "FTRAN residual";
  std::vector<double> ref = rhs;
  ASSERT_TRUE(dense_solve(b, m, ref)) << "reference found the basis singular";
  double diff = 0.0;
  for (int i = 0; i < m; ++i) diff = std::max(diff, std::abs(w[i] - ref[i]));
  EXPECT_LE(diff, kResidualTol * scale_of(ref)) << "FTRAN vs dense inverse";

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
  EXPECT_LE(worst, kResidualTol * scale_of(y)) << "BTRAN residual";
}

/// Column `col` (structural or slack, tableau indexing) of the current LP
/// as a dense vector over rows.
std::vector<double> dense_column(const SimplexSolver& s, int col) {
  const int m = s.num_rows();
  std::vector<double> a(m, 0.0);
  if (col >= s.num_structural()) {
    a[col - s.num_structural()] = 1.0;
    return a;
  }
  std::vector<Term> terms;
  double rhs = 0.0;
  for (int row = 0; row < m; ++row) {
    s.original_row(row, terms, rhs);
    for (const Term& t : terms)
      if (t.var == col) a[row] = t.coeff;
  }
  return a;
}

/// One well-conditioned exchange: a random nonbasic column enters at the
/// basis position of its largest FTRAN entry (what a ratio test favouring
/// large pivots picks). Returns true if the update was applied.
bool random_exchange(SimplexSolver& s, util::Rng& rng) {
  const int total = s.num_structural() + s.num_rows();
  int col = -1;
  for (int tries = 0; tries < 50 && col < 0; ++tries) {
    const int c = rng.next_int(0, total - 1);
    if (s.column_status(c) != 2) col = c;
  }
  if (col < 0) return false;
  const std::vector<double> w = s.ftran_for_testing(dense_column(s, col));
  int pos = 0;
  for (int i = 1; i < static_cast<int>(w.size()); ++i)
    if (std::abs(w[i]) > std::abs(w[pos])) pos = i;
  return s.replace_basic_for_testing(pos, col);
}

/// Runs `steps` exchanges, appending cut rows every 37 steps and deleting
/// the basic-slack ones every 91, and checks accuracy every 25 steps.
/// Returns the LU updates applied.
long long run_update_chain(SimplexSolver& s, util::Rng& rng, int steps) {
  const long long before = s.stats().lu_updates;
  const int n = s.num_structural();
  for (int step = 1; step <= steps; ++step) {
    random_exchange(s, rng);
    if (step % 37 == 0) {
      std::vector<ConstraintDef> rows;
      for (int i = rng.next_int(1, 2); i > 0; --i)
        rows.push_back(random_row(rng, n));
      s.add_rows(rows);
    }
    if (step % 91 == 0 && s.num_added_rows() > 0) {
      const int base = s.num_rows() - s.num_added_rows();
      std::vector<int> doomed;
      for (int i = 0; i < s.num_added_rows(); ++i)
        if (s.added_row_slack_basic(i)) doomed.push_back(base + i);
      s.delete_rows(doomed);
    }
    if (step % 25 == 0) {
      SCOPED_TRACE("step " + std::to_string(step));
      expect_accurate(s, rng);
      if (::testing::Test::HasFailure()) break;
    }
  }
  return s.stats().lu_updates - before;
}

TEST(LuUpdate, LongChainsOnRandomBasesStayAccurate) {
  util::Rng rng(90210ULL);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Model m = random_lp(rng, 40 + 10 * trial, 30 + 5 * trial);
    SimplexSolver s(m);
    ASSERT_EQ(s.solve().status, LpStatus::kOptimal);
    const long long refactors = s.stats().refactorizations;
    const long long updates = run_update_chain(s, rng, 260);
    EXPECT_GE(updates, 200);
    // Only delete_rows (two rebuilds in 260 steps) and the rare rejected
    // update refactorize; the update chain itself never does.
    EXPECT_LE(s.stats().refactorizations - refactors,
              2 + s.stats().lu_update_rejections);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(LuUpdate, LongChainsOnBuiltInCircuitBasesStayAccurate) {
  util::Rng rng(4471ULL);
  for (const char* name : {"fig1", "tseng"}) {
    SCOPED_TRACE(name);
    const hls::Benchmark bench = hls::benchmark_by_name(name);
    core::FormulationOptions fo;
    fo.include_bist = true;
    fo.k = 2;
    const core::Formulation f(bench.dfg, bench.modules, fo);
    SimplexSolver s(f.model());
    ASSERT_EQ(s.solve().status, LpStatus::kOptimal);
    EXPECT_GE(run_update_chain(s, rng, 220), 200);
    // The updated basis still solves to the relaxation optimum.
    const LpResult fresh = SimplexSolver(f.model()).solve();
    const LpResult warm = s.solve();
    ASSERT_EQ(warm.status, LpStatus::kOptimal);
    EXPECT_NEAR(warm.objective, fresh.objective,
                1e-6 * std::max(1.0, std::abs(fresh.objective)));
  }
}

TEST(LuUpdate, NearSingularUpdateTriggersCountedRefactorization) {
  // Rows 3, structurals x = (0.01, 0.5, 0.25) and z = (5e-10, 0.3, 0).
  // From the slack basis, x enters at position 0: the update's new U
  // diagonal is 0.01. z then replaces x: its pivot element is
  // 5e-10 / 0.01 = 5e-8, above pivot_tol, so a simplex pivot would take it
  // — but the basis {z, s1, s2} has determinant 5e-10 and the updated U
  // diagonal (5e-10) is under pivot_tol. The update must refuse: the pivot
  // is rejected, the unchanged basis refactorized (counted), and the
  // factors are accurate afterwards.
  Model m;
  const int x = m.add_variable(0, 1, -1, VarType::kContinuous, "x");
  const int z = m.add_variable(0, 1, -1, VarType::kContinuous, "z");
  m.add_constraint(LinExpr().add(x, 0.01).add(z, 5e-10), Sense::kLessEqual, 1);
  m.add_constraint(LinExpr().add(x, 0.5).add(z, 0.3), Sense::kLessEqual, 1);
  m.add_constraint(LinExpr().add(x, 0.25), Sense::kLessEqual, 1);
  SimplexSolver s(m);
  ASSERT_TRUE(s.refactorize_for_testing());  // the all-slack basis
  ASSERT_TRUE(s.replace_basic_for_testing(0, x));
  EXPECT_EQ(s.stats().lu_updates, 1);

  const std::vector<int> basis_before = s.basis();
  const long long refactors = s.stats().refactorizations;
  EXPECT_FALSE(s.replace_basic_for_testing(0, z));
  EXPECT_EQ(s.stats().lu_updates, 1);
  EXPECT_EQ(s.stats().lu_update_rejections, 1);
  EXPECT_EQ(s.stats().refactorizations, refactors + 1);
  EXPECT_EQ(s.basis(), basis_before);
  util::Rng rng(3ULL);
  expect_accurate(s, rng);
  // The LP still solves from the refactorized basis.
  const LpResult r = s.solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  const LpResult cold = SimplexSolver(m).solve();
  EXPECT_NEAR(r.objective, cold.objective, 1e-9);
}

TEST(LuUpdate, TableauRowMatchesDenseInverseAfterUpdates) {
  util::Rng rng(5551ULL);
  const Model m = random_lp(rng, 30, 20);
  SimplexSolver s(m);
  ASSERT_EQ(s.solve().status, LpStatus::kOptimal);
  EXPECT_GE(run_update_chain(s, rng, 120), 100);
  const int rows = s.num_rows();
  const int total = s.num_structural() + rows;
  // Rows of B^-1 [A I] from the dense inverse, column by column.
  std::vector<std::vector<double>> inv_cols(total);
  const std::vector<double> b = s.dense_basis_for_testing();
  for (int j = 0; j < total; ++j) {
    inv_cols[j] = dense_column(s, j);
    ASSERT_TRUE(dense_solve(b, rows, inv_cols[j]));
  }
  std::vector<double> alpha;
  double beta = 0.0;
  for (int pos = 0; pos < rows; ++pos) {
    ASSERT_TRUE(s.tableau_row(pos, alpha, beta));
    for (int j = 0; j < total; ++j) {
      if (j == s.basis()[pos]) {
        EXPECT_EQ(alpha[j], 1.0);
        continue;
      }
      EXPECT_NEAR(alpha[j], inv_cols[j][pos],
                  kResidualTol * std::max(1.0, std::abs(inv_cols[j][pos])))
          << "pos " << pos << " col " << j;
    }
  }
}

}  // namespace
}  // namespace advbist::lp
