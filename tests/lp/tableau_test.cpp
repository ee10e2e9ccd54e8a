// Tableau-row extraction (SimplexSolver::tableau_row / original_row): the
// BTRAN-derived row is checked against a dense reference on seeded bases.
//
// The reference is computed independently in ORIGINAL units: with B the
// basis matrix assembled from original_row() data (slack columns are unit
// vectors in original units), solve B' y = e_pos by dense Gaussian
// elimination; then the tableau row must satisfy alpha_j = y . a_j for
// every column (structural and slack) and beta = y . rhs. That identity is
// exactly what the Gomory separator consumes, so it is pinned:
//   * on the optimal basis of seeded random LPs,
//   * after add_rows (cut rows) and delete_rows (aged cut rows),
//   * after a forced refactorization (fresh factors, no LU updates), and
//   * with power-of-two scaling active (unscaling must be exact).
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

/// Random bounded-feasible LP (rhs derived from a random interior point).
Model random_lp(std::uint64_t seed) {
  util::Rng rng(seed);
  Model m;
  const int n = 5 + rng.next_int(0, 10);
  const int rows = 3 + rng.next_int(0, 8);
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
      if (!rng.next_bool(0.4)) continue;
      const int c = rng.next_int(-4, 4);
      if (c == 0) continue;
      e.add(v, c);
      lhs += c * x0[v];
    }
    if (e.terms().empty()) e.add(r % n, 1.0), lhs += x0[r % n];
    const int kind = rng.next_int(0, 9);
    if (kind == 0)
      m.add_constraint(std::move(e), Sense::kEqual, lhs);
    else if (kind <= 7)
      m.add_constraint(std::move(e), Sense::kLessEqual, lhs + rng.next_int(1, 4));
    else
      m.add_constraint(std::move(e), Sense::kGreaterEqual,
                       lhs - rng.next_int(1, 4));
  }
  return m;
}

/// Solves M x = rhs by dense Gaussian elimination with partial pivoting
/// (M column-major, m x m). False if singular.
bool dense_solve(std::vector<double> a, int m, std::vector<double>& rhs) {
  for (int k = 0; k < m; ++k) {
    int pr = k;
    for (int i = k + 1; i < m; ++i)
      if (std::abs(a[static_cast<std::size_t>(k) * m + i]) >
          std::abs(a[static_cast<std::size_t>(k) * m + pr]))
        pr = i;
    if (std::abs(a[static_cast<std::size_t>(k) * m + pr]) < 1e-12) return false;
    if (pr != k) {
      for (int j = 0; j < m; ++j)
        std::swap(a[static_cast<std::size_t>(j) * m + pr],
                  a[static_cast<std::size_t>(j) * m + k]);
      std::swap(rhs[pr], rhs[k]);
    }
    const double inv = 1.0 / a[static_cast<std::size_t>(k) * m + k];
    for (int i = k + 1; i < m; ++i) {
      const double mult = a[static_cast<std::size_t>(k) * m + i] * inv;
      if (mult == 0.0) continue;
      for (int j = k; j < m; ++j)
        a[static_cast<std::size_t>(j) * m + i] -=
            mult * a[static_cast<std::size_t>(j) * m + k];
      rhs[i] -= mult * rhs[k];
    }
  }
  for (int k = m - 1; k >= 0; --k) {
    double acc = rhs[k];
    for (int j = k + 1; j < m; ++j)
      acc -= a[static_cast<std::size_t>(j) * m + k] * rhs[j];
    rhs[k] = acc / a[static_cast<std::size_t>(k) * m + k];
  }
  return true;
}

/// Checks every basis position's tableau_row() against the original-unit
/// dense reference described in the header comment.
void check_all_tableau_rows(const SimplexSolver& s, double tol) {
  const int m = s.num_rows();
  const int n = s.num_structural();
  // Original-unit columns of the current LP, rebuilt from original_row():
  // structural column j collects a_rj over the rows; slack r is unit e_r.
  std::vector<std::vector<double>> col(static_cast<std::size_t>(n) + m,
                                       std::vector<double>(m, 0.0));
  std::vector<double> rhs(m);
  std::vector<Term> terms;
  for (int r = 0; r < m; ++r) {
    s.original_row(r, terms, rhs[r]);
    for (const Term& t : terms) col[t.var][r] = t.coeff;
    col[static_cast<std::size_t>(n) + r][r] = 1.0;
  }
  // Dense transposed basis (column-major B' has column i = row i of B).
  std::vector<double> bt(static_cast<std::size_t>(m) * m);
  for (int i = 0; i < m; ++i)
    for (int r = 0; r < m; ++r)
      bt[static_cast<std::size_t>(r) * m + i] = col[s.basis()[i]][r];

  std::vector<double> alpha;
  double beta = 0.0;
  for (int pos = 0; pos < m; ++pos) {
    std::vector<double> y(m, 0.0);
    y[pos] = 1.0;
    if (!dense_solve(bt, m, y)) continue;  // ill-conditioned seed: skip row
    ASSERT_TRUE(s.tableau_row(pos, alpha, beta)) << "pos " << pos;
    ASSERT_EQ(static_cast<int>(alpha.size()), n + m);
    double scale = 1.0;
    for (const double v : y) scale = std::max(scale, std::abs(v));
    for (int j = 0; j < n + m; ++j) {
      if (j == s.basis()[pos]) {
        EXPECT_EQ(alpha[j], 1.0) << "basic column must be exactly 1";
        continue;
      }
      double ref = 0.0;
      for (int r = 0; r < m; ++r) ref += y[r] * col[j][r];
      EXPECT_NEAR(alpha[j], ref, tol * scale) << "pos " << pos << " col " << j;
    }
    double beta_ref = 0.0;
    for (int r = 0; r < m; ++r) beta_ref += y[r] * rhs[r];
    EXPECT_NEAR(beta, beta_ref, tol * scale) << "pos " << pos << " beta";
  }
}

class TableauRow : public ::testing::TestWithParam<std::uint64_t> {};

// 1. Optimal bases of seeded random LPs match the dense reference.
TEST_P(TableauRow, MatchesDenseReferenceOnSeededBases) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed);
  SimplexSolver s(m, SimplexOptions{});
  if (s.solve().status != LpStatus::kOptimal) return;
  check_all_tableau_rows(s, 1e-7);
}

// 2. The identity survives add_rows (slack-basic cut rows), a dual
//    re-solve, delete_rows of an aged row, and a forced refactorization.
TEST_P(TableauRow, SurvivesAddDeleteAndRefactorization) {
  const std::uint64_t seed = GetParam() * 9176ULL + 5;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed);
  SimplexSolver s(m, SimplexOptions{});
  if (s.solve().status != LpStatus::kOptimal) return;

  // Append two valid rows (loose bound sums) like the cut machinery does.
  util::Rng rng(seed ^ 0xabcdULL);
  std::vector<ConstraintDef> cuts;
  for (int c = 0; c < 2; ++c) {
    ConstraintDef def;
    double slack_room = 1.0 + c;
    for (int v = 0; v < m.num_variables(); ++v) {
      if (!rng.next_bool(0.5)) continue;
      const double coeff = rng.next_int(1, 3);
      def.terms.push_back({v, coeff});
      slack_room += coeff * m.variable(v).upper;
    }
    if (def.terms.empty()) def.terms.push_back({0, 1.0}), slack_room += 10;
    def.rhs = slack_room;  // satisfied by every point in the box
    cuts.push_back(std::move(def));
  }
  s.add_rows(cuts);
  if (s.solve_dual().status != LpStatus::kOptimal) return;
  check_all_tableau_rows(s, 1e-7);

  // Loose rows keep their slack basic, so they are deletable; the tableau
  // must be consistent at the shrunken size too.
  if (s.added_row_slack_basic(0)) {
    s.delete_rows({m.num_constraints()});
    if (s.solve_dual().status == LpStatus::kOptimal)
      check_all_tableau_rows(s, 1e-7);
  }

  ASSERT_TRUE(s.refactorize_for_testing());
  check_all_tableau_rows(s, 1e-7);
}

// 3. With power-of-two scaling active on an ill-conditioned model, the
//    accessor must report ORIGINAL units exactly (the reference is built
//    from original_row data, which round-trips the scaling).
TEST_P(TableauRow, ScaledModelReportsOriginalUnits) {
  const std::uint64_t seed = GetParam() * 7331ULL + 11;
  SCOPED_TRACE("seed " + std::to_string(seed));
  util::Rng rng(seed);
  Model m;
  const int n = 6;
  std::vector<double> x0(n);
  for (int v = 0; v < n; ++v) {
    m.add_variable(0, 4, rng.next_int(-5, 5), VarType::kContinuous, "");
    x0[v] = rng.next_double() * 4.0;
  }
  // Power-of-two magnitude spread far outside [2^-6, 2^6] so compute_scaling
  // produces non-trivial factors.
  for (int r = 0; r < 5; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng.next_bool(0.6)) continue;
      const double c = rng.next_int(1, 3) * std::ldexp(1.0, rng.next_int(-9, 9));
      e.add(v, c);
      lhs += c * x0[v];
    }
    if (e.terms().empty()) e.add(0, 256.0), lhs += 256.0 * x0[0];
    m.add_constraint(std::move(e), Sense::kLessEqual, lhs + 1);
  }
  SimplexOptions opt;
  opt.scaling = true;
  SimplexSolver s(m, opt);
  if (s.solve().status != LpStatus::kOptimal) return;
  EXPECT_TRUE(s.scaling_active()) << "spread model should trigger scaling";
  check_all_tableau_rows(s, 1e-7);

  // original_row must reproduce the model rows bit-exactly (pow2 factors).
  std::vector<Term> terms;
  double rhs = 0.0;
  for (int r = 0; r < m.num_constraints(); ++r) {
    s.original_row(r, terms, rhs);
    const ConstraintDef& def = m.constraint(r);
    ASSERT_EQ(terms.size(), def.terms.size()) << "row " << r;
    for (std::size_t i = 0; i < terms.size(); ++i) {
      EXPECT_EQ(terms[i].var, def.terms[i].var);
      EXPECT_EQ(terms[i].coeff, def.terms[i].coeff) << "row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableauRow,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace advbist::lp
