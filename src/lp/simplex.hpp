// Bounded-variable primal simplex with a product-form-of-inverse basis.
//
// Solves   min c'x   s.t.  row_lhs (sense) rhs,  l <= x <= u
// over the continuous relaxation of a lp::Model (integrality is ignored;
// branch & bound lives in src/ilp).
//
// Architecture (this is the hot path of every ILP node re-solve):
//
//  * Constraint matrix. Structural columns live in one contiguous CSC
//    triplet (col_start_/col_row_/col_val_) instead of a vector-of-vectors,
//    so pricing and FTRAN walk cache-line-friendly arrays. Each row also
//    gets a logical (slack) column — a unit vector that is never stored —
//    so the all-slack basis is always available and phase 1 can start from
//    any basis.
//
//  * Basis representation. The basis inverse is never formed explicitly.
//    A refactorization computes an LU factorization of the basis matrix
//    into flat sparse arenas that are reused across refactorizations. The
//    default factorization is a sparse Markowitz-pivoting elimination
//    (Suhl-style): singleton columns and rows are pivoted first at zero
//    fill-in cost — the bases seen in this project are slack-heavy, so this
//    triangularization usually resolves almost the whole basis — and the
//    remaining "bump" is eliminated choosing pivots that minimize the
//    Markowitz count (rowcount-1)*(colcount-1) subject to a relative
//    threshold |a_rc| >= markowitz_tol * max|a_*c| for stability. Row and
//    column counts are maintained incrementally, and the active columns sit
//    in count buckets, so each bump step reads its few smallest-count
//    candidates without sweeping all m columns; only the active submatrix
//    is updated, so the cost is proportional to fill, not m^2. A basis the
//    Markowitz elimination flags as singular (or a markowitz_tol of 0 /
//    sparse_factorization = false) falls back to the original dense
//    column-major sweep with partial pivoting; a basis singular under both
//    falls back to the all-slack cold-start basis. Both factorizations
//    produce the same factor layout — tests/lp/factorization_diff_test.cpp
//    pins them against each other and a dense-inverse reference.
//
//    Every basis change is absorbed by a Forrest–Tomlin LU update
//    (Forrest & Tomlin 1972, in the Markowitz-compatible form of Suhl &
//    Suhl 1993). With P B Q = L R^-1 U, the entering column's partial
//    FTRAN R L^-1 P a_q — the "spike", saved by the entering FTRAN the
//    pivot needs anyway — replaces the leaving position's U column; that
//    position moves to the end of U's pivot sequence, and its old U row is
//    eliminated against the rows after it by one short row eta appended to
//    R. FTRAN is therefore P, L, R, U and Q; BTRAN runs them transposed in
//    reverse. The factors always describe the current basis, so add_rows
//    borders them directly. A refactorization fires on one of three
//    triggers: the U arena and the row etas outgrow twice the fresh
//    factors plus m (FTRAN/BTRAN would then cost more than refactorizing
//    saves); an update fails its stability test — the new U diagonal
//    disagrees with the FTRAN pivot w_r times the old diagonal, or is
//    under pivot_tol — which refuses the pivot and refactorizes the
//    unchanged basis (Stats::lu_update_rejections); or `refactor_every`
//    updates have accumulated (an upper cap on drift). A basis unchanged
//    across warm-started re-solves is never refactorized again.
//
//  * Pricing. A candidate list + cyclic block scan replaces full Dantzig
//    pricing: iterate() first re-prices the surviving candidates from the
//    previous pivot (a handful of columns), and only when none is still
//    attractive scans forward from a roving cursor in blocks until it finds
//    new candidates. Optimality is declared only after a full wrap of the
//    cursor finds no eligible column, so the partial scan never changes the
//    answer, only the order pivots are discovered in. After a run of
//    degenerate pivots pricing falls back to Bland's rule (full scan, first
//    eligible index) which guarantees termination.
//
//  * Phase 1 is the "composite objective" method: it minimizes the sum of
//    bound infeasibilities of basic variables directly, which allows warm
//    starting from an arbitrary basis after branch & bound tightens variable
//    bounds — the dominant use of this class.
//
//  * Dual simplex (solve_dual). A branch & bound bound change leaves the
//    old optimal basis dual-feasible (reduced costs do not depend on
//    bounds), and add_rows appends cut rows slack-basic (dual-feasible by
//    construction) — so the natural re-solve is a dual one: pick the
//    leaving row (see "Dual row pricing" below), BTRAN a single unit vector
//    for the pivot row, and run a bound-flipping dual ratio test (boxed
//    candidates cheaper than the entering breakpoint are flipped to their
//    other bound, shrinking the infeasibility without a basis change —
//    0/1-dominated models flip a lot). A handful of dual pivots replaces
//    the full primal phase-1/phase-2 pass. Wrong-sign reduced costs of
//    boxed nonbasics are repaired at entry by bound flips; anything the
//    flips cannot repair, plus numerical trouble and dual degeneracy, falls
//    back to the primal path, so solve_dual() is always exact. delete_rows
//    removes aged-out cut rows whose slack stayed basic — the remaining
//    basis is provably nonsingular and still dual-feasible — so the
//    factorization stops paying for dead cuts.
//
//  * Dual row pricing. Picking the leaving row by raw bound violation
//    (Dantzig-like) is blind to the geometry: on the massively degenerate
//    0/1 relaxations seen here it walks long chains of near-useless pivots.
//    The default rule is *Devex* (Forrest–Goldfarb's approximation of dual
//    steepest edge): each row i carries a reference weight w_i that
//    approximates ||e_i' B^-1||^2 relative to the reference framework, and
//    the leaving row maximizes violation_i^2 / w_i. After each pivot the
//    weights are updated in O(nnz) from the FTRANed entering column and the
//    BTRANed pivot row that the dual iteration computes anyway. A dual
//    steepest-edge mode (one extra FTRAN per pivot, the exact
//    Forrest–Goldfarb update recurrence) is kept as the reference
//    implementation the Devex approximation is validated against — note
//    its weights also restart from the all-ones framework on each reset,
//    so they are true row norms only up to that restart approximation.
//    The weights are only meaningful for the basis they
//    were accumulated on: they are RESET to the all-ones reference
//    framework on refactorization, on any primal pivot (fallback or
//    phase-2 certificate), on cold start, on add_rows/delete_rows, and
//    when the framework degrades (a weight outgrows 1e7) — a stale weight
//    set silently degrades the rule back to (worse than) Dantzig, which is
//    why resets are counted in Stats::devex_resets and pinned by
//    tests/lp/dual_simplex_test.cpp.
//
//  * Hypersparsity (dual ratio test). The dual ratio test prices
//    alpha_j = rho' a_j for the BTRANed pivot row rho over every nonbasic
//    column; solve_dual replaces the column-major dense pass with an
//    indexed walk over a row-wise CSR mirror of the structural columns,
//    visiting only the rows where rho is nonzero. The walk is engaged
//    whenever nnz(rho) stays under hypersparse_threshold (counted in
//    Stats::dual_hypersparse_pivots; a denser rho keeps the column-major
//    pass and counts in Stats::dual_dense_pivots — never silent). The
//    BTRAN itself is dense: it value-skips, so off-support entries of rho
//    are exact zeros the walk never visits. Measured reality on the
//    built-in circuits: mean nnz(rho) is ~145 of ~750 rows (~19% dense —
//    NOT the handful of nonzeros classic hypersparsity assumes), which is
//    why pattern-tracked triangular solves never paid here, while the
//    indexed walk still engages on >99% of pivots. Everything is exact:
//    identical candidate sets, entering/leaving sequences and bound flips
//    to the dense pass, pinned by the differential traces in
//    tests/lp/hypersparse_test.cpp.
//
//  * Counters. Every cumulative LP counter is one row of the
//    ADVBIST_LP_STATS table below; Stats, its operator+= and the ILP-level
//    lp_<name> mirror are generated from it, so that table is the one
//    place to add a counter.
//
// Problem sizes in this project are a few thousand rows/columns; the sparse
// factorization keeps the refactorization cost proportional to fill and
// the LU update keeps the per-pivot cost proportional to the update's
// fill.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lp/model.hpp"
#include "util/solve_controller.hpp"

namespace advbist::lp {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
  /// The attached util::SolveController tripped a limit mid-solve (deadline,
  /// cancellation, memory). No objective/point is reported; the warm basis
  /// stays valid for a later re-solve.
  kAborted,
};

struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;
  /// Values of the model's structural variables (empty unless kOptimal).
  std::vector<double> x;
  int iterations = 0;  ///< total pivots/flips = phase1 + phase2 + dual
  // Where the pivots went (solve() fills the primal pair; solve_dual() all
  // three — perf PRs read these to see which path is paying).
  int phase1_iterations = 0;  ///< primal composite phase-1 pivots
  int phase2_iterations = 0;  ///< primal phase-2 pivots (incl. bound flips)
  int dual_iterations = 0;    ///< dual simplex pivots
  /// solve_dual() only: the dual path bailed (warm basis not dual-feasible,
  /// numerical trouble, or degeneracy) and the primal path produced the
  /// result instead.
  bool dual_fallback = false;
};

/// Leaving-row selection rule for solve_dual() (see the header comment).
enum class DualPricing {
  kDevex,         ///< reference-framework Devex weights (default)
  kSteepestEdge,  ///< dual steepest edge (exact Forrest-Goldfarb update
                  ///< recurrence; weights restart all-ones on each reset) —
                  ///< reference mode, one extra FTRAN per pivot; use to
                  ///< validate the Devex path
};

struct SimplexOptions {
  double feas_tol = 1e-7;   ///< bound/row feasibility tolerance
  double opt_tol = 1e-7;    ///< reduced-cost optimality tolerance
  double pivot_tol = 1e-9;  ///< minimum acceptable pivot magnitude
  int max_iterations = 500000;
  /// Upper cap on the LU updates between basis refactorizations. Growth
  /// and the update stability test refactorize earlier when needed; the
  /// cap only bounds the drift a long update chain can accumulate.
  int refactor_every = 200;
  /// Use the sparse Markowitz factorization (false: dense sweep only).
  bool sparse_factorization = true;
  /// Relative threshold-pivoting tolerance in (0, 1]: a Markowitz pivot
  /// candidate a_rc is admissible only if |a_rc| >= markowitz_tol times the
  /// largest magnitude in its column. Larger = more stable, more fill.
  double markowitz_tol = 0.1;
  /// Leaving-row rule for solve_dual(). kDevex (default) prices rows by
  /// violation^2 / reference-weight; kSteepestEdge maintains dual
  /// steepest-edge weights via the exact update recurrence (one extra
  /// FTRAN per pivot; all-ones restart on each reset) and is the
  /// reference the Devex path is tested against.
  DualPricing dual_pricing = DualPricing::kDevex;
  /// Hyper-sparse dual ratio test: price alpha_j = rho' a_j by an indexed
  /// walk over a row-wise CSR mirror of the structural columns (visiting
  /// only the rows where the BTRANed pivot row rho is nonzero) instead of
  /// a dense pass over every nonbasic column. Exact: a pivot row denser
  /// than hypersparse_threshold keeps the dense pass (counted in
  /// Stats::dual_dense_pivots, never silent), and both passes produce
  /// bit-identical alphas (see the header comment).
  bool hypersparse = true;
  /// Pivot-row density cutoff in (0, 1]: the indexed walk engages only
  /// while nnz(rho) <= max(8, threshold * m) (a dense rho makes the walk
  /// cost at least as much as the dense pass it replaces).
  double hypersparse_threshold = 0.3;
  /// Geometric-mean + equilibration scaling (lp/scaling.hpp) applied to
  /// the internal problem data at construction. All factors are powers of
  /// two, so scaling is EXACT: solutions, bounds and reduced costs are
  /// unscaled at every public boundary and the objective needs no
  /// unscaling at all (c'.x' == c.x identically). A well-conditioned
  /// model yields trivial factors and a bit-identical trajectory to the
  /// unscaled run — which is why this defaults off here (the LP-level
  /// pivot-pin suites stay exact) and on at the ILP level (Options::
  /// lp_scaling), where untrusted instances arrive.
  bool scaling = false;
};

// The LP counters: one X(name, merge) row each, merged by sum or (for a
// high-water mark) max. Generates Stats, its operator+= and ilp::Stats'
// lp_<name> mirror; add a counter here and nowhere else.
#define ADVBIST_LP_STATS(X)                                                   \
  X(refactorizations, sum)         /* successful refactorizations */          \
  X(sparse_refactorizations, sum)  /* via Markowitz elimination */            \
  X(dense_refactorizations, sum)   /* via the dense sweep */                  \
  X(sparse_fallbacks, sum)  /* Markowitz said singular, dense sweep tried */  \
  /* The stability threshold changed a pivot choice: a singleton-row          \
     candidate vetoed, or a bump step forced onto a costlier pivot. */        \
  X(pivot_rejections, sum)                                                    \
  /* nnz of the factorized bases and of the L/U entries beyond them;          \
     fill ratio = (basis + fill) / basis. */                                  \
  X(factor_basis_nnz, sum)                                                    \
  X(factor_fill_nnz, sum)                                                     \
  X(basis_pivots, sum)  /* basis changes by a primal or dual pivot */         \
  X(bound_flips, sum)   /* primal ratio-test bound flips */                   \
  X(lu_updates, sum)    /* basis changes absorbed by an LU update */          \
  /* Updates that failed the stability test (new U diagonal vs. the FTRAN     \
     pivot times the old one, or under pivot_tol): pivot refused, the         \
     unchanged basis refactorized. */                                         \
  X(lu_update_rejections, sum)                                                \
  /* solve_dual() calls, and of those the ones the primal path finished;      \
     a call capped below the constructor's max_iterations (a bounded probe)   \
     counts in neither. */                                                    \
  X(dual_solves, sum)                                                         \
  X(dual_fallbacks, sum)                                                      \
  X(dual_iterations, sum)           /* dual pivots */                         \
  X(primal_phase1_iterations, sum)  /* composite phase-1 pivots */            \
  X(primal_phase2_iterations, sum)  /* phase-2 pivots + bound flips */        \
  /* Dual-path bound flips: dual-feasibility restoration at entry plus the    \
     bound-flipping ratio test. */                                            \
  X(dual_bound_flips, sum)                                                    \
  /* Dual pricing weight resets to the all-ones framework. One per dual       \
     solve is normal churn; one per dual PIVOT means Devex has silently       \
     degraded to Dantzig. */                                                  \
  X(devex_resets, sum)                                                        \
  X(dual_hypersparse_pivots, sum)  /* ratio tests by the indexed CSR walk */  \
  /* Ratio tests by the dense row pass (hypersparse off, or rho denser than   \
     hypersparse_threshold): counted, never silent. */                        \
  X(dual_dense_pivots, sum)                                                   \
  X(dual_rho_nnz, sum)  /* sum of nnz(rho) over all dual pivots */            \
  X(rows_deleted, sum)  /* cut rows aged out of the LP by delete_rows */      \
  X(peak_rows, max)     /* high-water row count (add_rows growth) */          \
  /* Numerical-recovery ladder, each rung counted when climbed to; the rung   \
     resets on pivot progress and at every public solve entry. */             \
  X(recovery_refactorize, sum)  /* rung 0: fresh refactorization */           \
  /* rung 1: markowitz_tol 5x tighter, pivot_tol 100x (<= 1e-7), LU update    \
     chain cut to 25 for 1000 iterations */                                   \
  X(recovery_tighten, sum)                                                    \
  X(recovery_dense, sum)      /* rung 2: dense LU forced */                   \
  X(recovery_cold, sum)       /* rung 3: cold primal restart */               \
  X(recovery_exhausted, sum)  /* ladder spent; the solve was abandoned */     \
  X(aborted_solves, sum)      /* solves aborted by the solve controller */

class SimplexSolver {
 public:
  using Options = SimplexOptions;

  explicit SimplexSolver(const Model& model, Options options = Options());

  SimplexSolver(const SimplexSolver&) = delete;
  SimplexSolver& operator=(const SimplexSolver&) = delete;

  /// Updates the bounds of structural variable `var`. Keeps the current
  /// basis: the next solve() warm-starts from it (phase 1 repairs any
  /// resulting infeasibility).
  void set_variable_bounds(int var, double lower, double upper);

  /// Bounds of structural variable `var` in ORIGINAL (unscaled) units —
  /// the internal arrays hold scaled values while scaling is active, and
  /// power-of-two factors make the round trip exact.
  [[nodiscard]] double variable_lower(int var) const {
    return scaling_active_ ? lb_[var] * col_scale_[var] : lb_[var];
  }
  [[nodiscard]] double variable_upper(int var) const {
    return scaling_active_ ? ub_[var] * col_scale_[var] : ub_[var];
  }

  /// True when SimplexOptions::scaling found non-trivial factors for this
  /// model (a well-conditioned model keeps this false at zero cost).
  [[nodiscard]] bool scaling_active() const { return scaling_active_; }

  /// Discards the warm-start basis; the next solve() cold-starts from the
  /// all-slack basis.
  void invalidate_basis();

  /// Caps the pivots/flips of every subsequent solve()/solve_dual() call.
  /// Used by strong branching to bound each probing re-solve: a capped
  /// solve that runs out returns kIterLimit (no objective) and leaves a
  /// valid warm basis for the next call. A solve_dual() under a cap below
  /// the constructor's max_iterations is such a probe and stays out of
  /// Stats::dual_solves / dual_fallbacks, the warm-start diagnostic. Pass
  /// SimplexOptions{}.max_iterations to restore the default.
  void set_max_iterations(int max_iterations) {
    opt_.max_iterations = max_iterations;
  }

  /// Attaches a solve controller polled every few pivots inside the primal
  /// AND dual iteration loops (null detaches). When a limit trips
  /// mid-solve, the solve returns kAborted instead of running to
  /// completion — this is what makes deadlines enforceable: a single
  /// pathological re-solve can no longer blow past them. The controller
  /// must outlive every subsequent solve()/solve_dual() call.
  void set_controller(util::SolveController* controller) {
    ctrl_ = controller;
  }

  /// Appends constraint rows (cutting planes) to the LP.
  ///
  /// Precondition (by construction, not checked): every term references a
  /// structural variable of the original model. Each new row's slack enters
  /// the basis — this is what makes the append warm-start-safe: a
  /// slack-basic row keeps the basis nonsingular AND dual-feasible (the new
  /// row's dual value is zero, so no reduced cost moves), which is why the
  /// natural follow-up is solve_dual(). The factorization is extended in
  /// place: with current factors P B Q = L R^-1 U, the bordered basis
  /// factors as L' = [[L,0],[l',1]], U' = [[U,0],[0,1]] where
  /// l' = g' U^-1 R for the new row g over the basic columns — one sparse
  /// triangular solve per row, appended to L as a row eta, never a cold
  /// start and never a refactorization (the LU update keeps the factors
  /// describing the current basis).
  /// Devex/steepest-edge dual weights are reset (the row dimension changed).
  void add_rows(const std::vector<ConstraintDef>& rows);

  /// Deletes appended cut rows.
  ///
  /// Preconditions (checked): every index is >= the construction row count
  /// (only rows appended via add_rows may be deleted, never model rows),
  /// the indices are strictly increasing, and every deleted row's slack is
  /// BASIC at the current basis — query added_row_slack_basic() first; the
  /// aging policy in src/ilp guarantees it by construction. The basic-slack
  /// requirement is what makes deletion cheap and exact: removing a
  /// basic-slack row keeps the remaining basis nonsingular (expand the
  /// determinant along the slack's unit column) and leaves every reduced
  /// cost unchanged (the row's dual is zero), so the shrunken basis is
  /// still dual-feasible and the next solve_dual() warm starts. The LU
  /// factors are rebuilt at the new size; basic values are recomputed by
  /// the next solve(); Devex/steepest-edge dual weights are reset.
  void delete_rows(const std::vector<int>& rows);

  /// True if the slack of appended row `added` (0-based among the rows
  /// appended via add_rows) is basic at the current basis — i.e. the cut is
  /// inactive and a candidate for delete_rows aging.
  [[nodiscard]] bool added_row_slack_basic(int added) const {
    return vstat_[n_ + initial_m_ + added] == kBasic;
  }

  /// Reduced costs d = c - y'A of the structural variables at the current
  /// basis. Meaningful after a solve() returned kOptimal (used for
  /// reduced-cost bound fixing in branch & bound).
  [[nodiscard]] std::vector<double> reduced_costs() const;

  /// Current number of constraint rows (grows with add_rows).
  [[nodiscard]] int num_added_rows() const { return m_ - initial_m_; }

  // --- tableau access (Gomory cut separation, tests/lp/tableau_test.cpp) ---
  //
  // Column indexing for the tableau API: columns [0, num_structural()) are
  // the structural variables, columns [num_structural(), num_structural() +
  // num_rows()) are the row slacks (slack of row r at num_structural() + r).
  // All values are reported in ORIGINAL (unscaled) units; the power-of-two
  // scale factors make the unscaling exact.

  /// Number of structural variables (slack columns start here).
  [[nodiscard]] int num_structural() const { return n_; }

  /// Nonbasic-at-lower (0) / nonbasic-at-upper (1) / basic (2) status of a
  /// tableau column (structural or slack). Meaningful after a solve.
  [[nodiscard]] int column_status(int col) const { return vstat_[col]; }

  /// Bounds of a tableau column in original units. For structurals this is
  /// variable_lower/upper; a slack's bounds encode its row's sense
  /// ([0,inf) for <=, (-inf,0] for >=, [0,0] for =) and are invariant
  /// under scaling (0 and +-inf scale to themselves).
  [[nodiscard]] double tableau_column_lower(int col) const {
    return col < n_ ? variable_lower(col) : lb_[col];
  }
  [[nodiscard]] double tableau_column_upper(int col) const {
    return col < n_ ? variable_upper(col) : ub_[col];
  }

  /// Simplex tableau row of basis position `pos` (the row whose basic
  /// variable is basis()[pos]): writes alpha (size num_structural() +
  /// num_rows(), original units) with the row of B^-1 [A I] and beta with
  /// the row's constant e_pos' B^-1 b, i.e.  sum_j alpha_j x_j = beta
  /// holds at EVERY solution of the constraint system (so x_B(pos) =
  /// beta - sum over nonbasic j of alpha_j x_j). alpha of the basic
  /// variable itself is set to exactly 1; other basic columns carry only
  /// factorization noise. One BTRAN of a unit vector per call. Returns
  /// false when no factorized basis exists or `pos` is out of range.
  bool tableau_row(int pos, std::vector<double>& alpha, double& beta) const;

  /// Constraint row `row` of the CURRENT LP (model rows and appended cut
  /// rows alike) in original units: terms over structural variables plus
  /// the right-hand side, so callers can substitute the row's slack
  /// s_row = rhs - a.x when translating tableau cuts back to structural
  /// space.
  void original_row(int row, std::vector<Term>& terms, double& rhs) const;

  /// Solves the LP relaxation (minimization) through the primal path:
  /// composite phase 1 repairs any warm-start infeasibility, phase 2
  /// optimizes.
  LpResult solve();

  /// Solves the LP relaxation through the dual simplex. Intended for the
  /// branch & bound re-solve pattern: after a bound change (or add_rows,
  /// whose cut rows enter slack-basic) the old optimal basis stays
  /// dual-feasible, so a handful of dual pivots replaces a full primal
  /// phase-1/phase-2 pass. Boxed nonbasic variables whose reduced cost has
  /// the wrong sign are first flipped to their other bound (restoring dual
  /// feasibility for free); if that is impossible (free or one-sided
  /// variable) or the dual path hits numerical trouble, the primal path
  /// finishes the solve and the result is flagged dual_fallback. Either way
  /// the returned status/objective matches solve().
  LpResult solve_dual();

  /// One cumulative long long per ADVBIST_LP_STATS row (never reset).
  struct Stats {
#define ADVBIST_LP_STATS_FIELD(name, merge) long long name = 0;
    ADVBIST_LP_STATS(ADVBIST_LP_STATS_FIELD)
#undef ADVBIST_LP_STATS_FIELD

    /// Folds another solver's counters in, each row by its merge rule.
    Stats& operator+=(const Stats& other) {
#define ADVBIST_LP_STATS_MERGE(name, merge) merge_##merge(name, other.name);
      ADVBIST_LP_STATS(ADVBIST_LP_STATS_MERGE)
#undef ADVBIST_LP_STATS_MERGE
      return *this;
    }

    /// Mean nnz(L+U) / nnz(B) over all refactorizations (1.0 = no fill).
    [[nodiscard]] double fill_ratio() const {
      return fill_ratio_of(factor_basis_nnz, factor_fill_nnz);
    }
    /// (basis + fill) / basis for the two factor_* counters; 1.0 when
    /// nothing was factorized.
    [[nodiscard]] static double fill_ratio_of(long long basis_nnz,
                                              long long fill_nnz) {
      return basis_nnz > 0 ? static_cast<double>(basis_nnz + fill_nnz) /
                                 static_cast<double>(basis_nnz)
                           : 1.0;
    }

   private:
    static void merge_sum(long long& into, long long v) { into += v; }
    static void merge_max(long long& into, long long v) {
      if (v > into) into = v;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Forces an immediate refactorization of the current basis
  /// (cold-starting one first if none exists), discarding the LU updates
  /// and any accumulated drift. Returns false if the basis was singular under
  /// both factorization paths (the solver then cold-starts). The exit
  /// audit uses this to recompute the claimed dual bound on fresh factors.
  bool refresh_factorization();

  // --- testing/diagnostic hooks (tests/lp/factorization_diff_test.cpp) ---
  /// Test-suite alias for refresh_factorization().
  bool refactorize_for_testing() { return refresh_factorization(); }
  /// Solves B w = rhs with the current (updated) factors. `rhs` is
  /// indexed by original row; the result by basis position.
  [[nodiscard]] std::vector<double> ftran_for_testing(
      std::vector<double> rhs) const;
  /// Solves y' B = cb'. `cb` is indexed by basis position; the result by
  /// original row.
  [[nodiscard]] std::vector<double> btran_for_testing(
      const std::vector<double>& cb) const;
  /// Dense column-major copy of the current basis matrix (m x m; column i
  /// is the column of basis()[i]).
  [[nodiscard]] std::vector<double> dense_basis_for_testing() const;
  /// Exchanges basis position `pos` for the nonbasic column `col` (tableau
  /// indexing) through the same LU update a simplex pivot uses; the
  /// leaving variable goes nonbasic at a finite bound (0 if free). Basic
  /// values are recomputed by the next solve. Returns false, leaving the
  /// basis unchanged, when the pivot element |(B^-1 a_col)_pos| is under
  /// pivot_tol or the update fails its stability test (the unchanged basis
  /// is then refactorized).
  bool replace_basic_for_testing(int pos, int col);
  [[nodiscard]] int num_rows() const { return m_; }
  [[nodiscard]] const std::vector<int>& basis() const { return basis_; }

  /// One dual pivot as seen by the ratio test: the leaving row, the column
  /// chosen to enter, and the full eligible candidate set in breakpoint
  /// order. The hypersparse differential suite records paired solvers
  /// (indexed walk vs dense pass) and requires the sequences identical.
  struct DualPivotTrace {
    int leaving_row;
    int entering_col;
    std::vector<int> candidates;
  };
  /// Testing hook: when non-null, every dual pivot appends one trace
  /// record. The pointer must outlive subsequent solve_dual() calls
  /// (nullptr detaches).
  void set_dual_trace_for_testing(std::vector<DualPivotTrace>* trace) {
    dual_trace_ = trace;
  }
  /// Testing hook: max |incrementally maintained dual_d_ - freshly
  /// recomputed reduced cost| over the nonbasic non-fixed columns.
  /// Meaningful right after a solve_dual() that finished on the dual path
  /// with a zero-pivot primal certificate (primal pivots do not maintain
  /// dual_d_); the drift suite checks that precondition. Fixed columns are
  /// excluded by design: they can neither enter nor flip, and their
  /// reduced costs are refreshed at every solve entry.
  [[nodiscard]] double dual_reduced_cost_drift_for_testing() const;

 private:
  enum Status : std::int8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };

  void cold_start();
  void compute_basic_values();
  /// Rebuilds the LU factors from basis_: Markowitz first (when enabled),
  /// dense sweep as the singularity fallback; false if both flag the basis
  /// singular.
  bool refactorize();
  bool refactorize_markowitz();  // sparse elimination; false if singular
  bool refactorize_dense();      // dense partial-pivot sweep; false if singular
  /// Shared tail of both factorization paths: fill stats, then
  /// reset_updates().
  void finish_factorization(long long basis_nnz);
  /// Restarts the update state on fresh factors: U sequence and L column
  /// list, inverse column permutation, empty row-eta files, update budget.
  void reset_updates();
  /// Forrest–Tomlin update after basis position `pos` took the column
  /// whose spike the last entering FTRAN saved; `alpha` is that FTRAN's
  /// pivot element w[pos]. Returns false — factors unusable, the caller
  /// refactorizes — when no spike is saved or the stability test fails.
  bool update_factors(int pos, double alpha);

  /// Numerical-recovery escalation ladder, called on a troubled iteration
  /// (rc == 3: rejected pivots, residual drift). Fresh incidents — at
  /// least one pivot since the last trouble — restart at rung 0; repeated
  /// trouble with no progress climbs: refactorize -> tighten markowitz_tol
  /// and pivot_tol -> force the dense LU -> cold primal restart. Returns
  /// false when even the top rung was already spent (the caller abandons
  /// the solve: kIterLimit on the primal path, primal fallback on the dual
  /// path). Leaves basic values recomputed on success.
  bool escalate_recovery();

  /// Controller poll for the iteration loops: true when the solve must
  /// abort. Checks every 16 iterations to keep the hot path cheap.
  [[nodiscard]] bool poll_abort() {
    return ctrl_ != nullptr && (iterations_ & 15) == 0 &&
           ctrl_->check() != util::StopReason::kNone;
  }

  /// In-place B^{-1} v for a dense vector indexed by original row; the
  /// result is indexed by basis position. `keep_spike` saves the partial
  /// solve R L^-1 P v for a following update_factors().
  void ftran_vec(std::vector<double>& v, bool keep_spike = false) const;
  /// w = B^{-1} a_col for a (structural or slack) column.
  void ftran(int col, std::vector<double>& w, bool keep_spike = false) const;
  /// y' = cb' B^{-1}: cb is indexed by basis position, y by original row.
  void btran(const std::vector<double>& cb, std::vector<double>& y) const;

  [[nodiscard]] double reduced_cost(int col, const std::vector<double>& y,
                                    const std::vector<double>& cost) const;
  /// LARGEST single bound violation over the basic variables (not the sum:
  /// phase-1 costs, the dual pricing loop and the ratio test all deadband
  /// per row at feas_tol, so the feasibility verdict must grade on the same
  /// per-row scale — a long warm-start trajectory legitimately accumulates
  /// many sub-tolerance residuals whose SUM crosses any fixed threshold,
  /// and phase 1, seeing no costed column, would certify a feasible LP
  /// infeasible).
  [[nodiscard]] double infeasibility() const;

  /// Pricing helper: eligibility of nonbasic column j under `cost`/duals
  /// `y`. Returns +1/-1 entering direction, 0 if not eligible; `score` is
  /// the Dantzig score |reduced cost|.
  int price_column(int j, const std::vector<double>& y,
                   const std::vector<double>& cost, double& score) const;

  /// One pricing+pivot step. `phase1` selects the composite objective.
  /// Returns: 0 = pivoted, 1 = no improving column (optimal for the phase),
  /// 2 = unbounded (phase 2 only), 3 = numerical trouble (refactor & retry).
  int iterate(bool phase1, bool bland);

  /// Applies a pivot (leaving_row >= 0) or bound flip (leaving_row < 0)
  /// along the FTRANed entering column w. A pivot first runs the LU update;
  /// if that fails its stability test the pivot is rejected — basis and
  /// values untouched, factors marked unusable — and false is returned
  /// (the caller reports numerical trouble, rc 3).
  [[nodiscard]] bool pivot(int entering, int leaving_row, double t,
                           int entering_dir, const std::vector<double>& w,
                           Status leaving_status);

  // --- dual simplex internals (solve_dual) ---
  /// The primal phase-1/phase-2 loop shared by solve() and the dual
  /// fallback; assumes counters were reset by the public entry point.
  LpResult run_primal();
  /// True when the loops must refactorize before the next iteration: the
  /// factors are unusable (a rejected update or a singular
  /// refactorization), the update cap is reached, or U and the row etas
  /// outgrew their budget (FTRAN/BTRAN would cost more than the
  /// refactorization saves).
  [[nodiscard]] bool needs_refactor() const;
  /// Refactorizes factors a failed update left unusable. Returns has_basis_:
  /// false when there is no basis or it proved singular (dropped, so the
  /// next solve cold-starts).
  bool ensure_factors();
  /// Fills the per-solve iteration split of `result` and folds it into the
  /// cumulative stats. Must run exactly once per public solve entry.
  void finalize_result(LpResult& result, LpStatus status);
  /// Recomputes the full reduced-cost vector dual_d_ (one BTRAN + one pass
  /// over the columns) for the current basis.
  void compute_dual_reduced_costs();
  /// Flips boxed nonbasic variables whose reduced cost has the wrong sign
  /// for their bound onto the other bound. Returns false when a wrong-sign
  /// variable cannot flip (infinite opposite bound): the basis cannot be
  /// made dual-feasible by flipping and solve_dual must fall back.
  bool restore_dual_feasibility();
  /// One dual pivot: leaving row by the configured pricing rule (Devex /
  /// steepest-edge weights or largest primal bound violation), entering
  /// column by a bound-flipping dual ratio test over the BTRANed pivot
  /// row. Returns 0 = pivoted, 1 = primal feasible (dual optimal),
  /// 2 = primal infeasible (dual ray), 3 = numerical trouble.
  int iterate_dual();
  /// Re-initializes the dual pricing weights to the all-ones reference
  /// framework when they are missing or stale.
  void ensure_dual_weights();
  /// Devex / exact steepest-edge weight update after a dual pivot with
  /// leaving row r, FTRANed entering column w (pivot element w[r]) and
  /// BTRANed pivot row rho (= e_r' B^-1, indexed by original row). Both
  /// vectors are exactly zero off their support, so the weight loops
  /// value-skip and cost O(nnz), never O(m) of multiplies.
  void update_dual_weights(int r, const std::vector<double>& w,
                           const std::vector<double>& rho);

  // --- hypersparse dual ratio test ---
  /// Rebuilds the row-wise CSR mirror of the structural columns from the
  /// CSC arrays. The SINGLE choke point for mirror maintenance — called
  /// from the constructor, add_rows() and delete_rows() right after the
  /// CSC arrays change, so a stale mirror is impossible by construction.
  void rebuild_row_mirror();

  // --- problem data (immutable except bounds and appended cut rows) ---
  int n_ = 0;          // structural variables
  int m_ = 0;          // rows (model rows + appended cut rows)
  int initial_m_ = 0;  // rows at construction
  int total_ = 0;      // n_ + m_
  // Structural columns in compressed sparse column form.
  std::vector<int> col_start_;   // size n_+1
  std::vector<int> col_row_;     // row indices, size nnz
  std::vector<double> col_val_;  // coefficients, size nnz
  std::vector<double> lb_, ub_;  // size total_
  std::vector<double> cost_;     // size total_ (phase-2 costs)
  std::vector<double> rhs_;      // size m_

  // --- scaling (SimplexOptions::scaling, lp/scaling.hpp) ---
  // While active, col_val_/rhs_/cost_/lb_/ub_ hold the SCALED problem
  // (A' = R A C, b' = R b, c' = C c, bounds / C); every public boundary
  // unscales. Slack bounds (0 / +-inf) are invariant under positive row
  // scaling, so slacks carry no factor. row_scale_ grows with add_rows
  // (per-cut-row factor) and shrinks with delete_rows.
  bool scaling_active_ = false;
  std::vector<double> row_scale_;  // size m_ while active
  std::vector<double> col_scale_;  // size n_ while active

  // --- simplex state ---
  std::vector<int> basis_;          // size m_: column basic in each row
  std::vector<std::int8_t> vstat_;  // size total_
  std::vector<double> x_;           // size total_
  bool has_basis_ = false;
  int pivots_since_refactor_ = 0;
  int iterations_ = 0;
  int degenerate_run_ = 0;
  // Per-solve iteration split (reset by solve()/solve_dual(), reported in
  // LpResult and accumulated into stats_).
  int iter_phase1_ = 0;
  int iter_phase2_ = 0;
  int iter_dual_ = 0;

  // --- basis factorization ---
  // Both refactorization paths (sparse Markowitz elimination; dense
  // column-major sweep as fallback) emit the same factors of the current
  // basis, P B Q = L R^-1 U, over one "factor index" space. perm_ is the
  // row permutation P, cperm_ the column permutation Q (identity for the
  // dense sweep, which pivots columns in basis order). L is unit lower
  // triangular in factor-index order: fixed columns from the
  // factorization plus row etas for the rows add_rows bordered on. R is
  // the product of the Forrest–Tomlin row etas. U is upper triangular
  // with respect to its pivot sequence u_seq_, which starts as the factor
  // order and sends each updated index to the end. All arrays are flat
  // and keep their capacity across refactorizations.
  std::vector<int> perm_;       // factor row i <- original row perm_[i]
  std::vector<int> cperm_;      // factor index k <- basis position cperm_[k]
  std::vector<int> cperm_inv_;  // basis position -> factor index
  std::vector<int> l_start_, l_idx_;  // unit-L off-diagonal columns (i > k)
  std::vector<double> l_val_;
  std::vector<int> l_cols_;  // indices with a non-empty L column, ascending
  /// Row-eta file over factor indices. Eta e rewrites entry pivot[e] as
  /// v[pivot[e]] -= sum of val[p] * v[idx[p]] for p in [start[e],
  /// start[e+1]) (FTRAN, oldest first); the transposed application
  /// (BTRAN, newest first) scatters v[pivot[e]] along the same entries.
  struct RowEtaFile {
    std::vector<int> pivot;
    std::vector<int> start{0};
    std::vector<int> idx;
    std::vector<double> val;
    void clear() {
      pivot.clear();
      start.assign(1, 0);
      idx.clear();
      val.clear();
    }
    /// Closes the entries appended since the last close as the eta of
    /// factor index `row`.
    void close(int row) {
      pivot.push_back(row);
      start.push_back(static_cast<int>(idx.size()));
    }
    void ftran(std::vector<double>& v) const;
    void btran(std::vector<double>& v) const;
  };
  RowEtaFile l_rows_;   // L rows bordered on by add_rows
  RowEtaFile ft_etas_;  // Forrest–Tomlin row etas (R)
  // U columns as segments of one arena: factor index k owns entries
  // u_beg_[k] .. u_beg_[k] + u_len_[k] of u_idx_/u_val_ (factor-index rows
  // before k in u_seq_). An update appends the new column at the arena's
  // end and abandons the old segment, so the arena only grows until the
  // next refactorization.
  std::vector<int> u_beg_, u_len_;
  std::vector<int> u_idx_;
  std::vector<double> u_val_;
  std::vector<double> u_diag_;  // U diagonal, size m_
  // U pivot order of the nontrivial indices (trivial ones — no column,
  // unit diagonal — precede them implicitly); -1 marks a vacated slot.
  std::vector<int> u_seq_;
  std::vector<int> u_seq_pos_;  // factor index -> its slot in u_seq_, or -1
  bool factors_valid_ = false;  // factors describe basis_
  long long update_budget_ = 0;  // arena + row-eta nnz that trigger a refactor
  // Spike of the last keep_spike FTRAN (factor-index space), consumed by
  // update_factors. Mutable: the FTRAN that saves it is a const solve.
  mutable std::vector<int> spike_idx_;
  mutable std::vector<double> spike_val_;
  mutable bool spike_valid_ = false;
  // update_factors scratch: row-eta multipliers, exactly zero between uses.
  std::vector<double> ft_r_;
  std::vector<int> ft_touched_;

  // --- partial pricing state ---
  std::vector<int> candidates_;  // surviving candidate columns
  int price_cursor_ = 0;         // roving start of the cyclic block scan

  // --- scratch (avoid per-iteration allocation) ---
  mutable std::vector<double> work_;        // ftran/btran solves
  std::vector<double> phase_cost_;          // composite phase-1 objective
  std::vector<double> duals_;               // y
  std::vector<double> cb_;                  // basic costs
  std::vector<double> wcol_;                // FTRANed entering column

  // --- dual simplex scratch (sized lazily in solve_dual) ---
  std::vector<double> dual_d_;      // reduced costs, size total_
  std::vector<double> dual_rho_;    // BTRANed leaving row, size m_
  std::vector<double> dual_unit_;   // e_r scratch for the dense rho BTRAN
  /// Candidate entering columns of one dual ratio test.
  struct DualCandidate {
    int col;
    double ratio;
    double alpha;  // signed pivot-row entry sgn * (rho' a_col)
  };
  std::vector<DualCandidate> dual_cands_;
  /// The live pivot-row entries of one dual ratio test: every nonbasic
  /// non-fixed column whose alpha is above the cancellation-noise drop
  /// tolerance (1e-4 * pivot_tol) — NOT filtered at pivot_tol. The theta
  /// update must move every real reduced cost the pivot row touches;
  /// filtering small-but-real alphas out of the update (the pre-PR-7
  /// dense array did) makes dual_d_ drift by theta*alpha per pivot,
  /// which the drift suite pins. pivot_tol still gates candidate
  /// eligibility (pivot safety), just not the bookkeeping; below the
  /// drop tolerance an alpha is accumulation noise and is treated as an
  /// exact zero everywhere, keeping pivot sequences noise-independent.
  struct DualRowEntry {
    int col;
    double alpha;
  };
  std::vector<DualRowEntry> dual_row_;
  std::vector<int> dual_flips_;     // columns flipped by the BFRT walk
  std::vector<double> dual_fcol_;   // accumulated flip column, size m_
  // Dual pricing weights (Devex reference framework / exact steepest-edge
  // row norms), valid only while dual_w_valid_: any primal pivot,
  // refactorization, cold start or row add/delete invalidates them and the
  // next dual iteration resets to all ones (counted in stats_).
  std::vector<double> dual_w_;      // size m_ while valid
  bool dual_w_valid_ = false;
  std::vector<double> dual_tau_;    // B^-1 rho scratch (steepest edge only)

  // --- hypersparse dual pricing state ---
  // Row-wise CSR mirror of the structural columns: row_start_[i] ..
  // row_start_[i+1] lists the (column, coefficient) entries of row i,
  // sorted by column. Rebuilt WHOLE by rebuild_row_mirror() — the single
  // choke point called from the constructor, add_rows() and
  // delete_rows() — so it cannot go stale against the CSC arrays.
  std::vector<int> row_start_, row_col_;
  std::vector<double> row_val_;
  // Alpha accumulator over the structural columns (indexed ratio walk);
  // exactly zero between uses.
  std::vector<double> row_acc_;  // size n_
  std::vector<DualPivotTrace>* dual_trace_ = nullptr;  // testing hook

  // Markowitz elimination workspace, reused across refactorizations so the
  // per-row vectors keep their capacity (no allocation churn in the hot
  // path). Cleared, not shrunk, at the start of each factorization.
  struct MarkowitzWorkspace {
    // Active submatrix, row-wise with exact values; rows hold only active
    // columns. cl[j] is the column's row pattern and may carry stale
    // entries (frozen rows, cancelled entries) that are skipped/compacted
    // lazily on scan.
    std::vector<std::vector<std::pair<int, double>>> rows;
    std::vector<std::vector<int>> cl;
    std::vector<int> rowcount, colcount;
    std::vector<int> rowpos, colpos;  // pivot step, -1 while active
    std::vector<int> colq, rowq;      // singleton candidate stacks
    // Scatter of the current pivot row during elimination.
    std::vector<double> wrow;
    std::vector<char> mark, hit;
    std::vector<int> pcols;
    // Row-seen marker + entry scratch for column scans (dedup + no churn).
    std::vector<char> rmark;
    std::vector<std::pair<int, double>> scan_entries;
    // L accumulated in step order with *original* row indices (remapped to
    // permuted positions once the full pivot order is known).
    std::vector<int> l_orig_rows;
    std::vector<double> l_vals;
    std::vector<int> l_starts;
    // U entries frozen as (active column, pivot step, value) triplets in
    // freeze order; grouped into factor columns once the pivot order is
    // known (ufill is the grouping cursor).
    std::vector<int> u_col, u_step, ufill;
    std::vector<double> u_val;
    // Count buckets for the bump search: bhead[c] heads an intrusive
    // doubly linked list (bnext/bprev) of the active columns with colcount
    // c; bmin is a lower bound on the smallest non-empty bucket and
    // blinked the number of linked columns.
    std::vector<int> bhead, bnext, bprev;
    int bmin = 0;
    int blinked = 0;
  };
  MarkowitzWorkspace mw_;

  Stats stats_;
  Options opt_;
  // Escalation-ladder state (see escalate_recovery): the configured
  // markowitz_tol and pivot_tol are restored at every public solve entry
  // after a rung-1 tighten, and the rung restarts at 0.
  double cfg_markowitz_tol_ = 0.1;
  double cfg_pivot_tol_ = 1e-9;
  // The constructor's max_iterations: a solve_dual() under a lower
  // set_max_iterations cap is a bounded probe (see Stats::dual_solves).
  int cfg_max_iterations_ = 0;
  // Recovery rung 1 caps the LU update chain at kShortChainUpdates until
  // the solve's iteration count reaches short_chain_until_ (reset at every
  // public solve entry).
  static constexpr int kShortChainUpdates = 25;
  // An update refuses pivots |alpha| <= kUpdatePivotScale * pivot_tol:
  // on these O(1)-coefficient models such a pivot is FTRAN cancellation
  // noise, and taking it makes the basis singular. Recovery rung 1 raises
  // pivot_tol to the same level, so the ratio tests stop offering them.
  static constexpr double kUpdatePivotScale = 100.0;
  static constexpr int kShortChainIterations = 1000;
  int short_chain_until_ = 0;
  int recovery_rung_ = 0;
  int iters_at_last_trouble_ = -1;
  util::SolveController* ctrl_ = nullptr;
};

}  // namespace advbist::lp
