// Hypersparse dual ratio-test suite.
//
// The indexed pivot-row walk (CSR row mirror over the BTRANed pivot row) is
// specified to be EXACT: pivot for pivot, the same candidate sets and the
// same entering/leaving sequences as the dense rho'A pass. The differential
// tests here run paired solvers — hypersparse forced on vs forced off —
// through seeded bound-change and add_rows/delete_rows sweeps and require
// the recorded pivot traces identical, which also audits the CSR mirror
// rebuild choke point (a stale mirror after add/delete would change alphas
// and split the traces). An adversarial dense-rho instance checks the
// density-cutoff fallback engages and is counted, never silent. Finally,
// the dual reduced-cost drift fix is pinned: a real but sub-pivot_tol
// pivot-row entry (alpha in (drop_tol, pivot_tol)) must still receive the
// theta update — the pre-fix code skipped it and drifted by theta*alpha
// per pivot, which this test measures against freshly recomputed reduced
// costs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::lp {
namespace {

constexpr double kTol = 1e-5;

Model random_lp(util::Rng& rng) {
  Model m;
  const int n = rng.next_int(4, 10);
  for (int v = 0; v < n; ++v)
    m.add_variable(0, rng.next_int(1, 3), rng.next_int(-5, 5),
                   VarType::kContinuous, "");
  const int rows = rng.next_int(2, 6);
  for (int r = 0; r < rows; ++r) {
    LinExpr e;
    for (int v = 0; v < n; ++v) {
      const int coeff = rng.next_int(-2, 3);
      if (coeff != 0) e.add(v, coeff);
    }
    const Sense sense =
        rng.next_bool(0.75) ? Sense::kLessEqual : Sense::kGreaterEqual;
    m.add_constraint(std::move(e), sense, rng.next_int(1, 8));
  }
  return m;
}

ConstraintDef random_row(util::Rng& rng, int n) {
  ConstraintDef c;
  for (int v = 0; v < n; ++v) {
    if (!rng.next_bool(0.4)) continue;
    c.terms.push_back(Term{v, static_cast<double>(rng.next_int(1, 3))});
  }
  if (c.terms.empty()) c.terms.push_back(Term{0, 1.0});
  c.sense = Sense::kLessEqual;
  c.rhs = rng.next_int(2, 6);
  return c;
}

using Trace = std::vector<SimplexSolver::DualPivotTrace>;

/// Requires the two traces pivot-for-pivot identical: same length, same
/// leaving rows, same entering columns, same candidate sets.
void expect_traces_identical(const Trace& sparse, const Trace& dense,
                             int trial, int step) {
  ASSERT_EQ(sparse.size(), dense.size()) << "trial " << trial << " step "
                                         << step;
  for (std::size_t p = 0; p < sparse.size(); ++p) {
    EXPECT_EQ(sparse[p].leaving_row, dense[p].leaving_row)
        << "trial " << trial << " step " << step << " pivot " << p;
    EXPECT_EQ(sparse[p].entering_col, dense[p].entering_col)
        << "trial " << trial << " step " << step << " pivot " << p;
    EXPECT_EQ(sparse[p].candidates, dense[p].candidates)
        << "trial " << trial << " step " << step << " pivot " << p;
  }
}

/// Every dual ratio-test pass is classified sparse or dense — the
/// fallback is counted, never silent. (Passes can outnumber completed
/// pivots: dual-ray and numerical-trouble returns happen after the row was
/// already priced.)
void expect_stats_consistent(const SimplexSolver& s) {
  const auto& st = s.stats();
  EXPECT_GE(st.dual_hypersparse_pivots + st.dual_dense_pivots,
            st.dual_iterations);
}

/// Seeded bound-change sweep (same generator and seed as the dual-simplex
/// differential suite) with paired traced solvers.
void run_paired_bound_sweep(DualPricing pricing) {
  util::Rng rng(8260726ULL);
  long long traced_pivots = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Model m = random_lp(rng);
    const int n = m.num_variables();
    SimplexOptions on;
    on.dual_pricing = pricing;
    on.hypersparse = true;
    SimplexOptions off = on;
    off.hypersparse = false;
    SimplexSolver sparse(m, on);
    SimplexSolver dense(m, off);
    sparse.solve();
    dense.solve();

    for (int step = 0; step < 10; ++step) {
      const int var = rng.next_int(0, n - 1);
      const double orig_ub = m.variable(var).upper;
      std::pair<double, double> next;
      switch (rng.next_int(0, 4)) {
        case 0: next = {0.0, 0.0}; break;
        case 1: next = {orig_ub, orig_ub}; break;
        case 2: next = {0.0, orig_ub}; break;
        case 3: next = {1.0, orig_ub}; break;
        default: next = {0.0, kInfinity}; break;
      }
      sparse.set_variable_bounds(var, next.first, next.second);
      dense.set_variable_bounds(var, next.first, next.second);

      Trace ts, td;
      sparse.set_dual_trace_for_testing(&ts);
      dense.set_dual_trace_for_testing(&td);
      const LpResult rs = sparse.solve_dual();
      const LpResult rd = dense.solve_dual();
      sparse.set_dual_trace_for_testing(nullptr);
      dense.set_dual_trace_for_testing(nullptr);

      ASSERT_EQ(rs.status, rd.status) << "trial " << trial << " step " << step;
      if (rs.status == LpStatus::kOptimal)
        EXPECT_NEAR(rs.objective, rd.objective, kTol)
            << "trial " << trial << " step " << step;
      expect_traces_identical(ts, td, trial, step);
      traced_pivots += static_cast<long long>(ts.size());
    }
    expect_stats_consistent(sparse);
    if (::testing::Test::HasFailure()) break;
  }
  // The differential is vacuous unless the dual path actually pivoted.
  EXPECT_GT(traced_pivots, 0);
}

TEST(HypersparseDiff, BoundSweepTracesIdenticalToDenseDevex) {
  run_paired_bound_sweep(DualPricing::kDevex);
}

TEST(HypersparseDiff, BoundSweepTracesIdenticalToDenseSteepestEdge) {
  run_paired_bound_sweep(DualPricing::kSteepestEdge);
}

TEST(HypersparseDiff, AddDeleteRowSweepTracesIdenticalToDense) {
  // The CSR mirror audit: add_rows/delete_rows rebuild the row mirror at a
  // single choke point; a stale mirror would feed wrong alphas to the
  // indexed walk and split these traces on the first post-add pivot.
  util::Rng rng(42617ULL);
  long long traced_pivots = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const Model m = random_lp(rng);
    const int n = m.num_variables();
    SimplexOptions on;
    on.hypersparse = true;
    SimplexOptions off = on;
    off.hypersparse = false;
    SimplexSolver sparse(m, on);
    SimplexSolver dense(m, off);
    sparse.solve();
    dense.solve();

    for (int step = 0; step < 8; ++step) {
      const int action = rng.next_int(0, 2);
      if (action == 0) {
        std::vector<ConstraintDef> rows;
        for (int i = rng.next_int(1, 2); i > 0; --i)
          rows.push_back(random_row(rng, n));
        sparse.add_rows(rows);
        dense.add_rows(rows);
      } else if (action == 1 && sparse.num_added_rows() > 0) {
        const int base = sparse.num_rows() - sparse.num_added_rows();
        std::vector<int> doomed;
        for (int i = 0; i < sparse.num_added_rows(); ++i) {
          // Paired deletion is only well-defined where both solvers agree
          // the slack is basic; identical trajectories guarantee they do,
          // and the assertion below turns any divergence into a failure
          // instead of an undefined sweep.
          const bool sb = sparse.added_row_slack_basic(i);
          ASSERT_EQ(sb, dense.added_row_slack_basic(i))
              << "trial " << trial << " step " << step << " row " << i;
          if (sb && rng.next_bool(0.7)) doomed.push_back(base + i);
        }
        if (!doomed.empty()) {
          sparse.delete_rows(doomed);
          dense.delete_rows(doomed);
        }
      } else {
        const int var = rng.next_int(0, n - 1);
        const double orig_ub = m.variable(var).upper;
        const std::pair<double, double> next =
            rng.next_bool(0.5)
                ? std::pair<double, double>{0.0, 0.0}
                : std::pair<double, double>{0.0, orig_ub};
        sparse.set_variable_bounds(var, next.first, next.second);
        dense.set_variable_bounds(var, next.first, next.second);
      }

      Trace ts, td;
      sparse.set_dual_trace_for_testing(&ts);
      dense.set_dual_trace_for_testing(&td);
      const LpResult rs = sparse.solve_dual();
      const LpResult rd = dense.solve_dual();
      sparse.set_dual_trace_for_testing(nullptr);
      dense.set_dual_trace_for_testing(nullptr);

      ASSERT_EQ(rs.status, rd.status) << "trial " << trial << " step " << step;
      if (rs.status == LpStatus::kOptimal)
        EXPECT_NEAR(rs.objective, rd.objective, kTol)
            << "trial " << trial << " step " << step;
      expect_traces_identical(ts, td, trial, step);
      traced_pivots += static_cast<long long>(ts.size());
    }
    expect_stats_consistent(sparse);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(traced_pivots, 0);
}

TEST(Hypersparse, DenseRhoTripsTheCountedFallback) {
  // Adversarial instance: a difference chain x_r - x_{r-1} + z_r = 1 whose
  // unique relaxation optimum (z costs positive) makes every x_r basic, so
  // the basis is bidiagonal and its inverse is a fully dense triangle —
  // e_r' B^-1 has r+1 nonzeros. Tightening the LAST chain variable's box
  // forces dual pivots whose rho outgrows max(8, threshold*m), and the
  // ratio test must take the dense fallback — visibly, in
  // dual_dense_pivots.
  constexpr int kM = 40;
  Model m;
  std::vector<int> xs(kM), zs(kM);
  for (int r = 0; r < kM; ++r) {
    xs[r] = m.add_variable(0, 100, 0, VarType::kContinuous, "");
    zs[r] = m.add_variable(0, 10, 1, VarType::kContinuous, "");
  }
  for (int r = 0; r < kM; ++r) {
    LinExpr e;
    e.add(xs[r], 1.0).add(zs[r], 1.0);
    if (r > 0) e.add(xs[r - 1], -1.0);
    m.add_constraint(std::move(e), Sense::kEqual, 1);
  }
  SimplexOptions opts;
  opts.hypersparse = true;
  SimplexSolver solver(m, opts);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  EXPECT_NEAR(solver.solve().objective, 0.0, kTol);  // all z at 0, x_r = r+1
  // x_{kM-1} sits at kM; halving its box leaves the chain absorbable by
  // the z variables (at cost), so the re-solve is feasible but needs real
  // dual pivots against the dense inverse rows.
  solver.set_variable_bounds(xs[kM - 1], 0, kM / 2);
  const LpResult d = solver.solve_dual();
  ASSERT_EQ(d.status, LpStatus::kOptimal);
  const auto& st = solver.stats();
  ASSERT_GT(st.dual_iterations, 0);
  EXPECT_GT(st.dual_dense_pivots, 0) << "dense pivot rows never tripped the "
                                        "density cutoff";
  expect_stats_consistent(solver);
  // And the dense fallback stays exact: a cold solve agrees.
  SimplexOptions off;
  off.hypersparse = false;
  SimplexSolver ref(m, off);
  ref.set_variable_bounds(xs[kM - 1], 0, kM / 2);
  ref.invalidate_basis();
  const LpResult c = ref.solve();
  ASSERT_EQ(c.status, LpStatus::kOptimal);
  EXPECT_NEAR(d.objective, c.objective, kTol);
}

TEST(Hypersparse, SubPivotTolAlphaStillGetsTheThetaUpdate) {
  // The reduced-cost drift fix, pinned end to end. Column z enters the
  // single constraint row with coefficient 5e-10: after the initial solve
  // (x basic in the row) the BTRANed pivot row is e_0' B^-1 = [1], so z's
  // ratio-test alpha is exactly 5e-10 — a REAL entry inside
  // (drop_tol, pivot_tol) = (1e-13, 1e-9) at the default pivot_tol. z can
  // never enter (unpivotable), but its reduced cost still moves by
  // theta*alpha in the dual step. The pre-PR-7 code filtered the theta
  // update at pivot_tol, leaving dual_d_[z] stale by theta*alpha ~ 5e-8
  // after one pivot (theta ~ 99 here by construction); the fix keeps the
  // incrementally maintained value within rounding of a fresh BTRAN-based
  // recomputation.
  Model m;
  const int x = m.add_variable(0, 10, -100, VarType::kContinuous, "x");
  const int y = m.add_variable(0, 10, -1, VarType::kContinuous, "y");
  const int z = m.add_variable(0, 10, 0, VarType::kContinuous, "z");
  m.add_constraint(
      LinExpr().add(x, 1.0).add(y, 1.0).add(z, 5e-10), Sense::kLessEqual, 5);
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  // x absorbs the whole row (cost -100 dominates); tightening its box
  // makes the basis primal infeasible and forces a real dual pivot with
  // leaving row 0 and theta = d_y / alpha_y = 99.
  solver.set_variable_bounds(x, 0, 1);
  const LpResult d = solver.solve_dual();
  ASSERT_EQ(d.status, LpStatus::kOptimal);
  ASSERT_FALSE(d.dual_fallback);
  ASSERT_GE(d.dual_iterations, 1);
  // The primal certificate must not have re-pivoted (primal pivots do not
  // maintain dual_d_, which would blur what is being measured).
  ASSERT_EQ(d.phase1_iterations, 0);
  ASSERT_EQ(d.phase2_iterations, 0);
  EXPECT_NEAR(d.objective, -100.0 * 1 - 1.0 * 4, kTol);
  // Pre-fix: |dual_d_[z] - fresh| = theta * 5e-10 ~ 5e-8. Post-fix: pure
  // rounding, orders of magnitude under the assertion.
  EXPECT_LT(solver.dual_reduced_cost_drift_for_testing(), 1e-8);
}

TEST(Hypersparse, DriftStaysBoundedUnderSeededResolveFuzz) {
  // Incremental-vs-recomputed reduced-cost agreement under churn: long
  // warm re-solve chains (bounds only, so solve_dual stays on the dual
  // path) must keep dual_d_ within tolerance of a fresh recomputation —
  // the refactorization-time refresh plus the drop_tol theta update are
  // exactly what bound this.
  util::Rng rng(771239ULL);
  for (int trial = 0; trial < 15; ++trial) {
    const Model m = random_lp(rng);
    const int n = m.num_variables();
    SimplexSolver solver(m);
    solver.solve();
    for (int step = 0; step < 12; ++step) {
      const int var = rng.next_int(0, n - 1);
      const double orig_ub = m.variable(var).upper;
      std::pair<double, double> next;
      switch (rng.next_int(0, 2)) {
        case 0: next = {0.0, 0.0}; break;
        case 1: next = {0.0, orig_ub}; break;
        default: next = {1.0, orig_ub}; break;
      }
      solver.set_variable_bounds(var, next.first, next.second);
      const LpResult d = solver.solve_dual();
      // Only a clean dual finish (zero-pivot primal certificate) leaves
      // dual_d_ as the incrementally maintained vector the hook measures.
      if (d.status != LpStatus::kOptimal || d.dual_fallback ||
          d.phase1_iterations + d.phase2_iterations > 0)
        continue;
      EXPECT_LT(solver.dual_reduced_cost_drift_for_testing(), 1e-7)
          << "trial " << trial << " step " << step;
    }
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace advbist::lp
