#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "lp/scaling.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "util/logging.hpp"

namespace advbist::lp {

namespace {
constexpr double kInf = kInfinity;
}

SimplexSolver::SimplexSolver(const Model& model, Options options)
    : opt_(options),
      cfg_markowitz_tol_(options.markowitz_tol),
      cfg_pivot_tol_(options.pivot_tol),
      cfg_max_iterations_(options.max_iterations) {
  n_ = model.num_variables();
  m_ = model.num_constraints();
  initial_m_ = m_;
  total_ = n_ + m_;

  lb_.assign(total_, 0.0);
  ub_.assign(total_, 0.0);
  cost_.assign(total_, 0.0);
  rhs_.assign(m_, 0.0);

  for (int v = 0; v < n_; ++v) {
    const VariableDef& def = model.variable(v);
    lb_[v] = def.lower;
    ub_[v] = def.upper;
    cost_[v] = def.objective;
  }

  // Structural columns in CSC form: count, prefix-sum, fill.
  col_start_.assign(n_ + 1, 0);
  for (int r = 0; r < m_; ++r)
    for (const Term& t : model.constraint(r).terms) ++col_start_[t.var + 1];
  for (int v = 0; v < n_; ++v) col_start_[v + 1] += col_start_[v];
  col_row_.assign(col_start_[n_], 0);
  col_val_.assign(col_start_[n_], 0.0);
  std::vector<int> fill(col_start_.begin(), col_start_.end() - 1);
  for (int r = 0; r < m_; ++r) {
    const ConstraintDef& c = model.constraint(r);
    for (const Term& t : c.terms) {
      const int p = fill[t.var]++;
      col_row_[p] = r;
      col_val_[p] = t.coeff;
    }
    rhs_[r] = c.rhs;
    const int slack = n_ + r;
    switch (c.sense) {
      case Sense::kLessEqual:
        lb_[slack] = 0.0;
        ub_[slack] = kInf;
        break;
      case Sense::kGreaterEqual:
        lb_[slack] = -kInf;
        ub_[slack] = 0.0;
        break;
      case Sense::kEqual:
        lb_[slack] = 0.0;
        ub_[slack] = 0.0;
        break;
    }
  }

  // Scaling: transform the internal copy of the problem (the Model is
  // untouched). Power-of-two factors keep every transform exact; slack
  // bounds (0 / +-inf) are invariant under positive row scaling so only
  // structural data moves. A well-conditioned model comes back trivial
  // and pays nothing — scaling_active_ stays false.
  if (opt_.scaling) {
    ScalingFactors sf = compute_scaling(model);
    if (!sf.trivial) {
      scaling_active_ = true;
      row_scale_ = std::move(sf.row);
      col_scale_ = std::move(sf.col);
      for (int v = 0; v < n_; ++v) {
        cost_[v] *= col_scale_[v];
        lb_[v] /= col_scale_[v];
        ub_[v] /= col_scale_[v];
        for (int p = col_start_[v]; p < col_start_[v + 1]; ++p)
          col_val_[p] *= row_scale_[col_row_[p]] * col_scale_[v];
      }
      for (int r = 0; r < m_; ++r) rhs_[r] *= row_scale_[r];
    }
  }

  basis_.assign(m_, -1);
  vstat_.assign(total_, kAtLower);
  x_.assign(total_, 0.0);
  stats_.peak_rows = m_;
  perm_.assign(m_, 0);
  cperm_.assign(m_, 0);
  u_diag_.assign(m_, 0.0);
  work_.assign(m_, 0.0);
}

void SimplexSolver::set_variable_bounds(int var, double lower, double upper) {
  ADVBIST_REQUIRE(var >= 0 && var < n_, "structural variable index");
  ADVBIST_REQUIRE(lower <= upper, "bounds crossed");
  if (scaling_active_) {
    // Callers speak original units; the internal arrays are scaled. The
    // power-of-two factor keeps variable_lower/upper() an exact inverse.
    lower /= col_scale_[var];
    upper /= col_scale_[var];
  }
  lb_[var] = lower;
  ub_[var] = upper;
  if (vstat_[var] == kBasic) return;
  // A nonbasic variable must sit on one of its (possibly moved) bounds. If
  // its bound became infinite, move it to the other bound — and keep
  // vstat_ consistent with the value it actually sits at, otherwise the
  // next warm start prices it against the wrong bound.
  if (vstat_[var] == kAtUpper && !std::isfinite(upper)) {
    vstat_[var] = kAtLower;
  } else if (vstat_[var] == kAtLower && !std::isfinite(lower)) {
    if (std::isfinite(upper)) vstat_[var] = kAtUpper;
  }
  if (vstat_[var] == kAtLower)
    x_[var] = std::isfinite(lower) ? lower : 0.0;  // free: pinned at 0
  else
    x_[var] = upper;
}

void SimplexSolver::invalidate_basis() { has_basis_ = false; }

void SimplexSolver::add_rows(const std::vector<ConstraintDef>& rows_in) {
  if (rows_in.empty()) return;
  // Scaling: cut rows arrive in original units. Each appended row gets its
  // own equilibrating power-of-two factor (computed against the fixed
  // column factors) BEFORE the border solve below reads any coefficient.
  std::vector<ConstraintDef> scaled_rows;
  if (scaling_active_) {
    scaled_rows = rows_in;
    for (ConstraintDef& row : scaled_rows) {
      const double rs = row_scale_for(row.terms, col_scale_);
      for (Term& t : row.terms) t.coeff *= rs * col_scale_[t.var];
      row.rhs *= rs;
      row_scale_.push_back(rs);
    }
  }
  const std::vector<ConstraintDef>& rows =
      scaling_active_ ? scaled_rows : rows_in;
  const int old_m = m_;
  const int add = static_cast<int>(rows.size());

  // The LU update keeps the factors describing the current basis, so the
  // extension below borders them directly; only factors a failed update
  // left unusable are rebuilt first. A basis singular under both
  // factorization paths falls back to a cold start at the new size.
  const bool extend = ensure_factors();

  // Border rows l' = g' U^-1 R of the extended L, where g is the new row
  // over the basic columns in factor order; each becomes the L row eta of
  // its new factor index old_m + i. Solved before any array is resized.
  if (extend) {
    std::vector<int> basis_pos(total_, -1);
    for (int j = 0; j < old_m; ++j) basis_pos[basis_[j]] = j;
    std::vector<double>& q = work_;
    q.resize(old_m);
    for (int i = 0; i < add; ++i) {
      std::fill(q.begin(), q.end(), 0.0);
      bool any = false;
      for (const Term& t : rows[i].terms) {
        ADVBIST_REQUIRE(t.var >= 0 && t.var < n_, "cut row variable index");
        const int bp = basis_pos[t.var];
        if (bp >= 0) {
          q[cperm_inv_[bp]] = t.coeff;
          any = true;
        }
      }
      if (any) {
        // l' U = g' over the U sequence (btran's transposed U step), then
        // l' <- l' R (btran's row-eta step).
        for (const int j : u_seq_) {
          if (j < 0) continue;
          double acc = q[j];
          const int end = u_beg_[j] + u_len_[j];
          for (int p = u_beg_[j]; p < end; ++p) acc -= q[u_idx_[p]] * u_val_[p];
          q[j] = acc / u_diag_[j];
        }
        ft_etas_.btran(q);
        for (int k = 0; k < old_m; ++k) {
          if (std::abs(q[k]) <= 1e-14) continue;
          l_rows_.idx.push_back(k);
          l_rows_.val.push_back(q[k]);
        }
      }
      l_rows_.close(old_m + i);
    }
  }

  // Append row data; the new slacks take indices n_ + old_m + i, after the
  // existing slacks, so no column is renumbered.
  for (int i = 0; i < add; ++i) {
    rhs_.push_back(rows[i].rhs);
    double slo = 0.0, shi = 0.0;
    switch (rows[i].sense) {
      case Sense::kLessEqual:
        slo = 0.0;
        shi = kInf;
        break;
      case Sense::kGreaterEqual:
        slo = -kInf;
        shi = 0.0;
        break;
      case Sense::kEqual:
        slo = shi = 0.0;
        break;
    }
    lb_.push_back(slo);
    ub_.push_back(shi);
    cost_.push_back(0.0);
    vstat_.push_back(kBasic);
    x_.push_back(0.0);
    basis_.push_back(n_ + old_m + i);
  }

  // Merge the new rows' structural coefficients into the CSC arrays.
  std::vector<int> extra(n_, 0);
  int extra_total = 0;
  for (const ConstraintDef& row : rows)
    for (const Term& t : row.terms) {
      ++extra[t.var];
      ++extra_total;
    }
  if (extra_total > 0) {
    std::vector<int> ncs(n_ + 1, 0);
    for (int v = 0; v < n_; ++v)
      ncs[v + 1] = ncs[v] + (col_start_[v + 1] - col_start_[v]) + extra[v];
    std::vector<int> nrow(ncs[n_]);
    std::vector<double> nval(ncs[n_]);
    std::vector<int> fill(ncs.begin(), ncs.end() - 1);
    for (int v = 0; v < n_; ++v)
      for (int p = col_start_[v]; p < col_start_[v + 1]; ++p) {
        nrow[fill[v]] = col_row_[p];
        nval[fill[v]++] = col_val_[p];
      }
    for (int i = 0; i < add; ++i)
      for (const Term& t : rows[i].terms) {
        nrow[fill[t.var]] = old_m + i;
        nval[fill[t.var]++] = t.coeff;
      }
    col_start_ = std::move(ncs);
    col_row_ = std::move(nrow);
    col_val_ = std::move(nval);
  }

  m_ += add;
  total_ = n_ + m_;
  stats_.peak_rows = std::max<long long>(stats_.peak_rows, m_);

  if (extend) {
    // Extend the factors: identity rows/columns in P, Q and U (each new
    // index is trivial in U: empty column, unit diagonal); the border rows
    // are already in l_rows_, and L's columns gain no entries.
    for (int i = 0; i < add; ++i) {
      const int k = old_m + i;
      perm_.push_back(k);
      cperm_.push_back(k);
      cperm_inv_.push_back(k);
      u_diag_.push_back(1.0);
      u_beg_.push_back(0);
      u_len_.push_back(0);
      u_seq_pos_.push_back(-1);  // trivial: implicitly first in the order
    }
    l_start_.resize(m_ + 1, l_start_[old_m]);
    spike_valid_ = false;
  } else {
    has_basis_ = false;  // next solve() cold-starts at the new size
  }

  // Appended cut rows reset the partial-pricing state (the candidate list's
  // scores are stale against the new duals anyway) and the dual pricing
  // weights (the row dimension changed).
  candidates_.clear();
  dual_w_valid_ = false;
}

std::vector<double> SimplexSolver::reduced_costs() const {
  std::vector<double> cb(m_);
  for (int i = 0; i < m_; ++i) cb[i] = cost_[basis_[i]];
  std::vector<double> y;
  btran(cb, y);
  std::vector<double> d(n_);
  for (int v = 0; v < n_; ++v) d[v] = reduced_cost(v, y, cost_);
  // Scaled reduced costs are d' = C d; divide the (power-of-two) factor
  // back out so callers reason in original units.
  if (scaling_active_)
    for (int v = 0; v < n_; ++v) d[v] /= col_scale_[v];
  return d;
}

void SimplexSolver::cold_start() {
  for (int v = 0; v < n_; ++v) {
    if (std::isfinite(lb_[v])) {
      vstat_[v] = kAtLower;
      x_[v] = lb_[v];
    } else if (std::isfinite(ub_[v])) {
      vstat_[v] = kAtUpper;
      x_[v] = ub_[v];
    } else {
      vstat_[v] = kAtLower;  // free variable pinned at 0
      x_[v] = 0.0;
    }
  }
  for (int r = 0; r < m_; ++r) {
    basis_[r] = n_ + r;
    vstat_[n_ + r] = kBasic;
  }
  // The all-slack basis is the identity: trivial factors, no updates.
  l_start_.assign(m_ + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_beg_.assign(m_, 0);
  u_len_.assign(m_, 0);
  u_idx_.clear();
  u_val_.clear();
  u_diag_.assign(m_, 1.0);
  perm_.resize(m_);   // add_rows may have grown the LP since construction
  cperm_.resize(m_);
  for (int r = 0; r < m_; ++r) perm_[r] = r;
  for (int r = 0; r < m_; ++r) cperm_[r] = r;
  reset_updates();
  candidates_.clear();
  has_basis_ = true;
}

void SimplexSolver::compute_basic_values() {
  // residual = rhs - A_N x_N, then x_B = B^{-1} residual.
  std::vector<double> residual(rhs_);
  for (int v = 0; v < n_; ++v) {
    if (vstat_[v] == kBasic || x_[v] == 0.0) continue;
    const double xv = x_[v];
    for (int p = col_start_[v]; p < col_start_[v + 1]; ++p)
      residual[col_row_[p]] -= col_val_[p] * xv;
  }
  for (int r = 0; r < m_; ++r) {
    const int slack = n_ + r;
    if (vstat_[slack] != kBasic && x_[slack] != 0.0) residual[r] -= x_[slack];
  }
  ftran_vec(residual);
  for (int i = 0; i < m_; ++i) x_[basis_[i]] = residual[i];
}

bool SimplexSolver::refactorize() {
  // Both paths overwrite the factors as they go: they describe basis_ again
  // only once one of them succeeds.
  factors_valid_ = false;
  // Fault-injection hook: a forced "singular" verdict fails the WHOLE
  // refactorization (sparse and dense path alike), so the callers'
  // recovery ladder is exercised exactly like a real rank drop would —
  // not silently absorbed by the dense second opinion.
  if (auto* fi = util::FaultInjector::active();
      fi != nullptr && fi->fire(util::FaultSite::kFactorSingular))
    return false;
  if (opt_.sparse_factorization && opt_.markowitz_tol > 0.0) {
    if (refactorize_markowitz()) return true;
    // Markowitz flagged the basis singular (or numerically empty columns):
    // the dense sweep gets a second opinion before the caller cold-starts.
    ++stats_.sparse_fallbacks;
  }
  return refactorize_dense();
}

bool SimplexSolver::escalate_recovery() {
  // A pivot landed since the last trouble: that incident was resolved, so
  // this one restarts at the bottom of the ladder. With NO progress since
  // the last trouble the same incident persists and the next rung fires —
  // which is also what bounds the ladder: a stuck solve climbs through all
  // four rungs and then gives up instead of refactorizing forever.
  if (iterations_ > iters_at_last_trouble_) recovery_rung_ = 0;
  iters_at_last_trouble_ = iterations_;
  while (recovery_rung_ < 4) {
    switch (recovery_rung_++) {
      case 0:
        ++stats_.recovery_refactorize;
        if (refactorize()) {
          compute_basic_values();
          return true;
        }
        break;  // singular: climb
      case 1:
        ++stats_.recovery_tighten;
        // More stability, more fill: admit only pivots within 5x of the
        // column max, and refuse ratio-test pivots under 100x the pivot
        // tolerance (capped at 1e-7) — a repeatedly rejected LU update is
        // a simplex pivot on FTRAN noise that fresh factors reproduce.
        // Trouble that survived a fresh refactorization also means drift
        // builds up fast, so the update chain is cut short for the next
        // kShortChainIterations iterations. The tolerances are restored
        // to the configured values on the next solve.
        opt_.markowitz_tol = std::min(0.99, opt_.markowitz_tol * 5.0);
        opt_.pivot_tol = std::max(opt_.pivot_tol,
                                  std::min(1e-7, opt_.pivot_tol * 100.0));
        short_chain_until_ = iterations_ + kShortChainIterations;
        if (refactorize()) {
          compute_basic_values();
          return true;
        }
        break;
      case 2: {
        ++stats_.recovery_dense;
        const bool sparse = opt_.sparse_factorization;
        opt_.sparse_factorization = false;
        const bool ok = refactorize();
        opt_.sparse_factorization = sparse;
        if (ok) {
          compute_basic_values();
          return true;
        }
        break;
      }
      case 3:
        ++stats_.recovery_cold;
        cold_start();
        compute_basic_values();
        return true;
    }
  }
  ++stats_.recovery_exhausted;
  return false;
}

bool SimplexSolver::refactorize_markowitz() {
  // Sparse right-looking LU with Markowitz pivoting and relative threshold
  // stability (Suhl-style). Only the active submatrix (unpivoted rows x
  // unpivoted columns) is stored and updated; entries freeze into L/U as
  // their row/column is pivoted, so the work is proportional to fill. The
  // two singleton phases pivot count-1 columns (no multipliers, no update)
  // and count-1 rows (multipliers, no fill) first — slack-heavy bases
  // triangularize almost entirely this way — and the residual bump is
  // eliminated by Markowitz count (rowcount-1)*(colcount-1), smallest
  // first, among threshold-admissible entries.
  const int m = m_;
  MarkowitzWorkspace& w = mw_;
  w.rows.resize(m);
  w.cl.resize(m);
  for (int i = 0; i < m; ++i) w.rows[i].clear();
  for (int j = 0; j < m; ++j) w.cl[j].clear();
  w.u_col.clear();
  w.u_step.clear();
  w.u_val.clear();
  w.bhead.assign(m + 1, -1);
  w.bnext.resize(m);
  w.bprev.resize(m);
  w.bmin = m;
  w.blinked = 0;
  bool buckets_live = false;
  w.rowcount.assign(m, 0);
  w.colcount.assign(m, 0);
  w.rowpos.assign(m, -1);
  w.colpos.assign(m, -1);
  w.colq.clear();
  w.rowq.clear();
  w.wrow.assign(m, 0.0);
  w.mark.assign(m, 0);
  w.hit.assign(m, 0);
  w.rmark.assign(m, 0);
  w.l_orig_rows.clear();
  w.l_vals.clear();
  w.l_starts.assign(1, 0);

  long long basis_nnz = 0;
  for (int j = 0; j < m; ++j) {
    const int col = basis_[j];
    if (col < n_) {
      for (int p = col_start_[col]; p < col_start_[col + 1]; ++p) {
        w.rows[col_row_[p]].emplace_back(j, col_val_[p]);
        w.cl[j].push_back(col_row_[p]);
      }
    } else {
      w.rows[col - n_].emplace_back(j, 1.0);
      w.cl[j].push_back(col - n_);
    }
  }
  for (int i = 0; i < m; ++i) {
    w.rowcount[i] = static_cast<int>(w.rows[i].size());
    basis_nnz += w.rowcount[i];
    if (w.rowcount[i] == 1) w.rowq.push_back(i);
  }
  for (int j = 0; j < m; ++j) {
    w.colcount[j] = static_cast<int>(w.cl[j].size());
    if (w.colcount[j] == 1) w.colq.push_back(j);
  }

  const double mtol = std::clamp(opt_.markowitz_tol, 1e-4, 1.0);

  // Count buckets of the active columns for the bump search: bucket c is
  // an intrusive doubly linked list of the columns with colcount c. They
  // are built when the bump phase first runs (the singleton phases never
  // read them) and from then on every colcount write goes through
  // set_colcount, so the buckets always mirror colcount exactly.
  auto bucket_link = [&](int j) {
    const int c = std::min(w.colcount[j], m);
    w.bprev[j] = -1;
    w.bnext[j] = w.bhead[c];
    if (w.bhead[c] >= 0) w.bprev[w.bhead[c]] = j;
    w.bhead[c] = j;
    w.bmin = std::min(w.bmin, c);
    ++w.blinked;
  };
  auto bucket_unlink = [&](int j) {
    const int c = std::min(w.colcount[j], m);
    if (w.bprev[j] >= 0)
      w.bnext[w.bprev[j]] = w.bnext[j];
    else
      w.bhead[c] = w.bnext[j];
    if (w.bnext[j] >= 0) w.bprev[w.bnext[j]] = w.bprev[j];
    --w.blinked;
  };
  auto set_colcount = [&](int j, int count) {
    if (buckets_live) bucket_unlink(j);
    w.colcount[j] = count;
    if (buckets_live) bucket_link(j);
  };

  // Finds the (value, row) of active column j while compacting stale cl
  // entries; returns the number of active entries (== colcount[j]).
  auto find_in_row = [&](int i, int j) -> std::pair<double, int> {
    const auto& row = w.rows[i];
    for (int p = 0; p < static_cast<int>(row.size()); ++p)
      if (row[p].first == j) return {row[p].second, p};
    return {0.0, -1};
  };

  // Freezes pivot row r (minus the pivot entry itself, already removed) at
  // step k: its entries become U entries of their columns and leave the
  // active column counts. Also scatters them for the elimination updates.
  auto freeze_pivot_row = [&](int r, int k) {
    w.pcols.clear();
    for (const auto& [j, v] : w.rows[r]) {
      w.u_col.push_back(j);
      w.u_step.push_back(k);
      w.u_val.push_back(v);
      set_colcount(j, w.colcount[j] - 1);
      if (w.colcount[j] == 1 && w.colpos[j] < 0) w.colq.push_back(j);
      w.wrow[j] = v;
      w.mark[j] = 1;
      w.pcols.push_back(j);
    }
  };

  // Eliminates column c against the frozen pivot row (scattered in wrow):
  // emits L multipliers and updates the still-active rows.
  auto eliminate_column = [&](int c, int r, double piv) {
    for (const int i : w.cl[c]) {
      if (i == r || w.rowpos[i] >= 0) continue;  // stale: frozen row
      auto [vi, pos] = find_in_row(i, c);
      if (pos < 0) continue;  // stale: entry cancelled earlier
      auto& row = w.rows[i];
      row[pos] = row.back();
      row.pop_back();
      --w.rowcount[i];
      const double mult = vi / piv;
      w.l_orig_rows.push_back(i);
      w.l_vals.push_back(mult);
      if (!w.pcols.empty()) {
        // row_i -= mult * pivot_row: update matching entries, then append
        // fill-in for pivot-row columns the row did not yet touch.
        for (auto& [j, vj] : row) {
          if (!w.mark[j]) continue;
          vj -= mult * w.wrow[j];
          w.hit[j] = 1;
        }
        for (const int j : w.pcols) {
          if (w.hit[j]) {
            w.hit[j] = 0;
            continue;
          }
          const double nv = -mult * w.wrow[j];
          if (std::abs(nv) < 1e-14) continue;  // exact/near cancellation
          row.emplace_back(j, nv);
          w.cl[j].push_back(i);
          ++w.rowcount[i];
          set_colcount(j, w.colcount[j] + 1);
        }
      }
      if (w.rowcount[i] == 1) w.rowq.push_back(i);
    }
    // Drop entries a cancellation drove to (near) zero so counts stay honest.
    for (const int i : w.cl[c]) {
      if (w.rowpos[i] >= 0) continue;
      auto& row = w.rows[i];
      for (int p = static_cast<int>(row.size()) - 1; p >= 0; --p) {
        if (std::abs(row[p].second) >= 1e-14) continue;
        const int j = row[p].first;
        row[p] = row.back();
        row.pop_back();
        --w.rowcount[i];
        set_colcount(j, w.colcount[j] - 1);
        if (w.rowcount[i] == 1) w.rowq.push_back(i);
        if (w.colcount[j] == 1 && w.colpos[j] < 0) w.colq.push_back(j);
      }
    }
    for (const int j : w.pcols) {
      w.mark[j] = 0;
      w.wrow[j] = 0.0;
    }
  };

  // Scans active column j: column max magnitude plus the admissible entry
  // with the smallest Markowitz cost, and the unrestricted best cost (what
  // the threshold vetoed, for the rejection diagnostic). Compacts stale and
  // duplicate cl entries in place — fill-in re-inserts can duplicate a row
  // in the pattern, and an undeduplicated recount would corrupt colcount.
  struct ColScan {
    double colmax = 0.0;
    int best_row = -1;
    double best_val = 0.0;
    long long best_cost = 0;
    long long best_any_cost = -1;  ///< ignoring the threshold; -1 if empty
  };
  auto scan_column = [&](int j) -> ColScan {
    ColScan s;
    auto& pat = w.cl[j];
    auto& entries = w.scan_entries;
    entries.clear();
    std::size_t keep = 0;
    for (const int i : pat) {
      if (w.rowpos[i] >= 0 || w.rmark[i]) continue;
      auto [vi, pos] = find_in_row(i, j);
      if (pos < 0) continue;
      w.rmark[i] = 1;
      pat[keep++] = i;
      entries.emplace_back(i, vi);
      s.colmax = std::max(s.colmax, std::abs(vi));
    }
    pat.resize(keep);
    for (const int i : pat) w.rmark[i] = 0;
    if (w.colcount[j] != static_cast<int>(keep))
      set_colcount(j, static_cast<int>(keep));
    const double admit = std::max(mtol * s.colmax, opt_.pivot_tol);
    for (const auto& [i, vi] : entries) {
      const long long cost = static_cast<long long>(w.rowcount[i] - 1) *
                             (w.colcount[j] - 1);
      if (s.best_any_cost < 0 || cost < s.best_any_cost)
        s.best_any_cost = cost;
      if (std::abs(vi) < admit) continue;
      if (s.best_row < 0 || cost < s.best_cost ||
          (cost == s.best_cost && std::abs(vi) > std::abs(s.best_val))) {
        s.best_row = i;
        s.best_val = vi;
        s.best_cost = cost;
      }
    }
    return s;
  };

  for (int k = 0; k < m; ++k) {
    int pr = -1, pc = -1;
    double piv = 0.0;

    // Phase A1: singleton columns — a pivot with no multipliers and no
    // update work; only the pivot row's other entries freeze into U.
    while (!w.colq.empty() && pr < 0) {
      const int j = w.colq.back();
      w.colq.pop_back();
      if (w.colpos[j] >= 0 || w.colcount[j] != 1) continue;
      for (const int i : w.cl[j]) {
        if (w.rowpos[i] >= 0) continue;
        auto [vi, pos] = find_in_row(i, j);
        if (pos < 0) continue;
        if (std::abs(vi) <= opt_.pivot_tol) return false;  // singular
        pr = i;
        pc = j;
        piv = vi;
        auto& row = w.rows[i];
        row[pos] = row.back();
        row.pop_back();
        break;
      }
      // colcount said one active entry exists; an empty scan means the
      // active part of the column vanished (numerically) — singular.
      if (pr < 0) return false;
    }

    // Phase A2: singleton rows — multipliers but zero fill-in. Subject to
    // the relative threshold against the pivot column's other entries.
    while (pr < 0 && !w.rowq.empty()) {
      const int i = w.rowq.back();
      w.rowq.pop_back();
      if (w.rowpos[i] >= 0 || w.rowcount[i] != 1) continue;
      const int j = w.rows[i].front().first;
      const double vi = w.rows[i].front().second;
      const ColScan s = scan_column(j);
      if (std::abs(vi) <= opt_.pivot_tol ||
          std::abs(vi) < mtol * s.colmax) {
        ++stats_.pivot_rejections;
        continue;  // unstable as a pivot; the bump phase will cover it
      }
      pr = i;
      pc = j;
      piv = vi;
      w.rows[i].clear();
    }

    // Phase B: Markowitz search over the bump. Examine a handful of
    // smallest-count active columns — the kCandidates smallest by
    // (colcount, index), read off the count buckets in O(bucket size)
    // instead of a sweep over all m columns; fall back to a full scan
    // when none of them yields an admissible pivot.
    if (pr < 0) {
      if (!buckets_live) {
        buckets_live = true;
        for (int j = 0; j < m; ++j)
          if (w.colpos[j] < 0) bucket_link(j);
      }
      constexpr int kCandidates = 4;
      int cand[kCandidates];
      int ncand = 0;
      const int want = std::min(kCandidates, w.blinked);
      while (w.bmin < m && w.bhead[w.bmin] < 0) ++w.bmin;
      for (int c = w.bmin; c <= m && ncand < want; ++c) {
        // The lowest indices of bucket c, kept sorted after the
        // candidates taken from smaller buckets.
        const int base = ncand;
        for (int j = w.bhead[c]; j >= 0; j = w.bnext[j]) {
          int at = ncand;
          for (; at > base && cand[at - 1] > j; --at) {
          }
          if (at >= kCandidates) continue;
          if (ncand < kCandidates) ++ncand;
          for (int q = ncand - 1; q > at; --q) cand[q] = cand[q - 1];
          cand[at] = j;
        }
      }
      long long best_cost = 0;
      double best_val = 0.0;
      long long best_any = -1;  // cheapest cost the threshold may have vetoed
      auto consider = [&](int j, const ColScan& s) {
        if (s.best_any_cost >= 0 &&
            (best_any < 0 || s.best_any_cost < best_any))
          best_any = s.best_any_cost;
        if (s.best_row < 0) return;
        if (pr < 0 || s.best_cost < best_cost ||
            (s.best_cost == best_cost &&
             std::abs(s.best_val) > std::abs(best_val))) {
          pr = s.best_row;
          pc = j;
          piv = s.best_val;
          best_cost = s.best_cost;
          best_val = s.best_val;
        }
      };
      for (int q = 0; q < ncand; ++q) consider(cand[q], scan_column(cand[q]));
      if (pr < 0) {
        // None of the low-count candidates was admissible: full sweep.
        for (int j = 0; j < m; ++j) {
          if (w.colpos[j] >= 0) continue;
          consider(j, scan_column(j));
        }
      }
      if (pr < 0) return false;  // no admissible pivot anywhere: singular
      // Diagnostic: the stability threshold forced a strictly costlier
      // pivot this step (counted once per step, not per rescan).
      if (best_any >= 0 && best_any < best_cost) ++stats_.pivot_rejections;
      const auto [v, pos] = find_in_row(pr, pc);
      auto& row = w.rows[pr];
      row[pos] = row.back();
      row.pop_back();
    }

    // Commit pivot (pr, pc) as step k and eliminate.
    if (buckets_live) bucket_unlink(pc);
    w.rowpos[pr] = k;
    w.colpos[pc] = k;
    perm_[k] = pr;
    cperm_[k] = pc;
    u_diag_[k] = piv;
    freeze_pivot_row(pr, k);
    eliminate_column(pc, pr, piv);
    w.l_starts.push_back(static_cast<int>(w.l_orig_rows.size()));
  }

  // Emit the factors in the layout FTRAN/BTRAN consume. L row indices are
  // remapped from original rows to their final pivot position (always > k
  // since an eliminated row is pivoted after the step that eliminated it).
  // U entries were frozen as (column, step, value) triplets in freeze
  // order; a stable counting sort by the column's pivot step groups them
  // into factor columns with each column's entries in freeze order.
  l_start_.assign(m + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  for (int k = 0; k < m; ++k) {
    for (int p = w.l_starts[k]; p < w.l_starts[k + 1]; ++p) {
      l_idx_.push_back(w.rowpos[w.l_orig_rows[p]]);
      l_val_.push_back(w.l_vals[p]);
    }
    l_start_[k + 1] = static_cast<int>(l_idx_.size());
  }
  const int unnz = static_cast<int>(w.u_col.size());
  u_len_.assign(m, 0);
  for (int e = 0; e < unnz; ++e) ++u_len_[w.colpos[w.u_col[e]]];
  u_beg_.resize(m);
  for (int k = 0, at = 0; k < m; ++k) {
    u_beg_[k] = at;
    at += u_len_[k];
  }
  u_idx_.resize(unnz);
  u_val_.resize(unnz);
  w.ufill.assign(u_beg_.begin(), u_beg_.end());
  for (int e = 0; e < unnz; ++e) {
    const int p = w.ufill[w.colpos[w.u_col[e]]]++;
    u_idx_[p] = w.u_step[e];
    u_val_[p] = w.u_val[e];
  }

  ++stats_.sparse_refactorizations;
  finish_factorization(basis_nnz);
  return true;
}

bool SimplexSolver::refactorize_dense() {
  // Dense LU with partial pivoting, column-major (right-looking). Rows are
  // physically swapped as pivots are chosen; perm_ records the mapping
  // lu row i <- original row perm_[i]. The dense sweep is cheap in practice
  // because zero multiplier columns are skipped; the factors are then
  // compressed into sparse column arrays for the solves and the m*m
  // scratch is released (it would otherwise dominate per-worker memory).
  const std::size_t mm = static_cast<std::size_t>(m_);
  std::vector<double> lu(mm * mm, 0.0);
  long long basis_nnz = 0;
  for (int k = 0; k < m_; ++k) {
    const int col = basis_[k];
    double* lucol = lu.data() + static_cast<std::size_t>(k) * mm;
    if (col < n_) {
      for (int p = col_start_[col]; p < col_start_[col + 1]; ++p)
        lucol[col_row_[p]] = col_val_[p];
      basis_nnz += col_start_[col + 1] - col_start_[col];
    } else {
      lucol[col - n_] = 1.0;
      ++basis_nnz;
    }
  }
  for (int r = 0; r < m_; ++r) perm_[r] = r;
  for (int r = 0; r < m_; ++r) cperm_[r] = r;  // columns stay in basis order

  for (int k = 0; k < m_; ++k) {
    double* colk = lu.data() + static_cast<std::size_t>(k) * mm;
    int prow = -1;
    double best = opt_.pivot_tol;
    for (int i = k; i < m_; ++i) {
      const double v = std::abs(colk[i]);
      if (v > best) {
        best = v;
        prow = i;
      }
    }
    if (prow < 0) return false;  // singular basis
    if (prow != k) {
      for (int j = 0; j < m_; ++j)
        std::swap(lu[static_cast<std::size_t>(j) * mm + prow],
                  lu[static_cast<std::size_t>(j) * mm + k]);
      std::swap(perm_[prow], perm_[k]);
    }
    const double inv_piv = 1.0 / colk[k];
    for (int i = k + 1; i < m_; ++i) colk[i] *= inv_piv;
    for (int j = k + 1; j < m_; ++j) {
      double* colj = lu.data() + static_cast<std::size_t>(j) * mm;
      const double ujk = colj[k];
      if (ujk == 0.0) continue;
      for (int i = k + 1; i < m_; ++i) colj[i] -= colk[i] * ujk;
    }
  }

  // Compress L (unit diagonal implicit) and U into sparse columns.
  l_start_.assign(m_ + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_beg_.resize(m_);
  u_len_.resize(m_);
  u_idx_.clear();
  u_val_.clear();
  if (m_ > 0) u_beg_[0] = 0;
  for (int k = 0; k < m_; ++k) {
    const double* colk = lu.data() + static_cast<std::size_t>(k) * mm;
    for (int i = 0; i < k; ++i) {
      if (colk[i] != 0.0) {
        u_idx_.push_back(i);
        u_val_.push_back(colk[i]);
      }
    }
    u_diag_[k] = colk[k];
    for (int i = k + 1; i < m_; ++i) {
      if (colk[i] != 0.0) {
        l_idx_.push_back(i);
        l_val_.push_back(colk[i]);
      }
    }
    u_len_[k] = static_cast<int>(u_idx_.size()) - u_beg_[k];
    if (k + 1 < m_) u_beg_[k + 1] = static_cast<int>(u_idx_.size());
    l_start_[k + 1] = static_cast<int>(l_idx_.size());
  }

  ++stats_.dense_refactorizations;
  finish_factorization(basis_nnz);
  return true;
}

void SimplexSolver::finish_factorization(long long basis_nnz) {
  const long long fresh_nnz =
      static_cast<long long>(l_idx_.size() + u_idx_.size());
  stats_.factor_basis_nnz += basis_nnz;
  stats_.factor_fill_nnz += fresh_nnz + m_ - basis_nnz;
  ++stats_.refactorizations;
  reset_updates();
}

void SimplexSolver::reset_updates() {
  // Only nontrivial indices (a U column or a diagonal other than 1) enter
  // the U sequence. A trivial index leaves every triangular solve
  // unchanged and depends on no other index, so it sits implicitly at the
  // front of the order and the solves skip it — on slack-heavy bases that
  // is most of them. Likewise only the non-empty L columns are listed.
  u_seq_.clear();
  u_seq_pos_.assign(m_, -1);
  l_cols_.clear();
  cperm_inv_.resize(m_);
  for (int k = 0; k < m_; ++k) {
    cperm_inv_[cperm_[k]] = k;
    if (u_len_[k] > 0 || u_diag_[k] != 1.0) {
      u_seq_pos_[k] = static_cast<int>(u_seq_.size());
      u_seq_.push_back(k);
    }
    if (l_start_[k + 1] > l_start_[k]) l_cols_.push_back(k);
  }
  l_rows_.clear();
  ft_etas_.clear();
  // Refactorize once the U arena and the row etas have grown by twice
  // the fresh factors plus m: the updates then cost every FTRAN and BTRAN
  // more than a refactorization saves (measured on the root-heavy Table 2
  // cells against a growth of 1x and 4x).
  const long long fresh =
      static_cast<long long>(u_idx_.size() + l_idx_.size()) + m_;
  update_budget_ = static_cast<long long>(u_idx_.size()) + 2 * fresh;
  pivots_since_refactor_ = 0;
  spike_valid_ = false;
  factors_valid_ = true;
  dual_w_valid_ = false;  // refactorization resets the pricing framework
}

void SimplexSolver::RowEtaFile::ftran(std::vector<double>& v) const {
  const int num = static_cast<int>(pivot.size());
  for (int e = 0; e < num; ++e) {
    double acc = v[pivot[e]];
    for (int p = start[e]; p < start[e + 1]; ++p) acc -= val[p] * v[idx[p]];
    v[pivot[e]] = acc;
  }
}

void SimplexSolver::RowEtaFile::btran(std::vector<double>& v) const {
  for (int e = static_cast<int>(pivot.size()) - 1; e >= 0; --e) {
    const double vt = v[pivot[e]];
    if (vt == 0.0) continue;
    for (int p = start[e]; p < start[e + 1]; ++p) v[idx[p]] -= val[p] * vt;
  }
}

void SimplexSolver::ftran_vec(std::vector<double>& v, bool keep_spike) const {
  std::vector<double>& w = work_;
  w.resize(m_);
  for (int i = 0; i < m_; ++i) w[i] = v[perm_[i]];
  // L solve (unit lower), sparse columns, skipping zero positions; then
  // the bordered L rows and the update row etas.
  for (const int k : l_cols_) {
    const double wk = w[k];
    if (wk == 0.0) continue;
    for (int p = l_start_[k]; p < l_start_[k + 1]; ++p)
      w[l_idx_[p]] -= l_val_[p] * wk;
  }
  l_rows_.ftran(w);
  ft_etas_.ftran(w);
  if (keep_spike) {
    spike_idx_.clear();
    spike_val_.clear();
    for (int k = 0; k < m_; ++k) {
      if (w[k] == 0.0) continue;
      spike_idx_.push_back(k);
      spike_val_.push_back(w[k]);
    }
    spike_valid_ = true;
  }
  // U solve, backward over the U sequence.
  for (int q = static_cast<int>(u_seq_.size()) - 1; q >= 0; --q) {
    const int k = u_seq_[q];
    if (k < 0) continue;
    const double wk = w[k] / u_diag_[k];
    w[k] = wk;
    if (wk == 0.0) continue;
    const int end = u_beg_[k] + u_len_[k];
    for (int p = u_beg_[k]; p < end; ++p) w[u_idx_[p]] -= u_val_[p] * wk;
  }
  // Scatter from factor-column order back to basis position (cperm_ is the
  // identity after a dense sweep; the Markowitz path pivots columns freely).
  for (int k = 0; k < m_; ++k) v[cperm_[k]] = w[k];
}

void SimplexSolver::ftran(int col, std::vector<double>& w,
                          bool keep_spike) const {
  w.assign(m_, 0.0);
  if (col < n_) {
    for (int p = col_start_[col]; p < col_start_[col + 1]; ++p)
      w[col_row_[p]] = col_val_[p];
  } else {
    w[col - n_] = 1.0;
  }
  ftran_vec(w, keep_spike);
}

void SimplexSolver::btran(const std::vector<double>& cb,
                          std::vector<double>& y) const {
  // Gather into factor-column order before the transposed solves.
  std::vector<double>& q = work_;
  q.resize(m_);
  for (int k = 0; k < m_; ++k) q[k] = cb[cperm_[k]];
  // v' U = q' (forward over the U sequence), then the row etas and the
  // bordered L rows transposed (newest first), then u' L = v' (backward).
  for (const int j : u_seq_) {
    if (j < 0) continue;
    double acc = q[j];
    const int end = u_beg_[j] + u_len_[j];
    for (int p = u_beg_[j]; p < end; ++p) acc -= q[u_idx_[p]] * u_val_[p];
    q[j] = acc / u_diag_[j];
  }
  ft_etas_.btran(q);
  l_rows_.btran(q);
  for (auto it = l_cols_.rbegin(); it != l_cols_.rend(); ++it) {
    const int j = *it;
    double acc = q[j];
    for (int p = l_start_[j]; p < l_start_[j + 1]; ++p)
      acc -= q[l_idx_[p]] * l_val_[p];
    q[j] = acc;
  }
  y.resize(m_);  // perm_ is a permutation: every entry is written
  for (int i = 0; i < m_; ++i) y[perm_[i]] = q[i];
}

double SimplexSolver::reduced_cost(int col, const std::vector<double>& y,
                                   const std::vector<double>& cost) const {
  double d = cost[col];
  if (col < n_) {
    for (int p = col_start_[col]; p < col_start_[col + 1]; ++p)
      d -= y[col_row_[p]] * col_val_[p];
  } else {
    d -= y[col - n_];
  }
  return d;
}

double SimplexSolver::infeasibility() const {
  double worst = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int col = basis_[i];
    if (x_[col] < lb_[col]) worst = std::max(worst, lb_[col] - x_[col]);
    if (x_[col] > ub_[col]) worst = std::max(worst, x_[col] - ub_[col]);
  }
  return worst;
}

int SimplexSolver::price_column(int j, const std::vector<double>& y,
                                const std::vector<double>& cost,
                                double& score) const {
  if (vstat_[j] == kBasic) return 0;
  if (lb_[j] == ub_[j]) return 0;  // fixed
  const double d = reduced_cost(j, y, cost);
  if (vstat_[j] == kAtLower && d < -opt_.opt_tol) {
    score = -d;
    return +1;  // increase from lower bound
  }
  if (vstat_[j] == kAtUpper && d > opt_.opt_tol) {
    score = d;
    return -1;  // decrease from upper bound
  }
  return 0;
}

int SimplexSolver::iterate(bool phase1, bool bland) {
  // --- cost vector for this phase ---
  const std::vector<double>* cost = &cost_;
  if (phase1) {
    phase_cost_.assign(total_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const int col = basis_[i];
      if (x_[col] < lb_[col] - opt_.feas_tol)
        phase_cost_[col] = -1.0;
      else if (x_[col] > ub_[col] + opt_.feas_tol)
        phase_cost_[col] = 1.0;
    }
    cost = &phase_cost_;
  }

  // --- duals: one BTRAN per iteration ---
  cb_.resize(m_);
  for (int i = 0; i < m_; ++i) cb_[i] = (*cost)[basis_[i]];
  btran(cb_, duals_);
  const std::vector<double>& y = duals_;

  // --- pricing ---
  int entering = -1;
  int dir = +1;  // +1: increase from lower, -1: decrease from upper
  double best_score = opt_.opt_tol;
  if (bland) {
    // Bland's rule: first eligible index, full scan — guarantees
    // termination under degeneracy.
    for (int j = 0; j < total_; ++j) {
      double score = 0.0;
      const int cand_dir = price_column(j, y, *cost, score);
      if (cand_dir != 0) {
        entering = j;
        dir = cand_dir;
        break;
      }
    }
  } else {
    // 1) Re-price the surviving candidate list (cheap: a handful of
    //    columns priced against the fresh duals). On small instances a
    //    full Dantzig scan is already cheap and picks strictly better
    //    pivots, so the list is bypassed there.
    if (total_ <= 256) candidates_.clear();
    std::size_t keep = 0;
    for (const int j : candidates_) {
      double score = 0.0;
      const int cand_dir = price_column(j, y, *cost, score);
      if (cand_dir == 0) continue;
      candidates_[keep++] = j;
      if (score > best_score) {
        best_score = score;
        entering = j;
        dir = cand_dir;
      }
    }
    candidates_.resize(keep);
    // 2) Cursor-based block scan when the list went dry. Optimality is
    //    only declared after a full wrap finds nothing eligible.
    if (entering < 0) {
      candidates_.clear();
      const int block =  // columns per pricing block; small: one full scan
          (total_ <= 256) ? total_ : std::clamp(total_ / 8, 32, 256);
      constexpr int kTargetCandidates = 8;
      int scanned = 0;
      int j = (price_cursor_ < total_) ? price_cursor_ : 0;
      while (scanned < total_) {
        const int stop = std::min(scanned + block, total_);
        for (; scanned < stop; ++scanned, j = (j + 1 == total_) ? 0 : j + 1) {
          double score = 0.0;
          const int cand_dir = price_column(j, y, *cost, score);
          if (cand_dir == 0) continue;
          candidates_.push_back(j);
          if (score > best_score) {
            best_score = score;
            entering = j;
            dir = cand_dir;
          }
        }
        if (static_cast<int>(candidates_.size()) >= kTargetCandidates) break;
      }
      price_cursor_ = j;
    }
  }
  if (entering < 0) return 1;  // phase optimal

  // --- ratio test ---
  std::vector<double>& w = wcol_;
  ftran(entering, w, /*keep_spike=*/true);

  double t_max = ub_[entering] - lb_[entering];  // bound flip distance
  int leaving_row = -1;
  Status leaving_status = kAtLower;

  for (int i = 0; i < m_; ++i) {
    // Effective movement of basic var i per unit of entering movement:
    // x_Bi changes by -dir * w[i] * t.
    const double delta = -dir * w[i];
    if (std::abs(delta) <= opt_.pivot_tol) continue;
    const int col = basis_[i];
    const double xi = x_[col];
    double limit = kInf;
    Status st = kAtLower;
    if (delta < 0.0) {  // x_Bi decreasing
      if (phase1 && xi > ub_[col] + opt_.feas_tol) {
        limit = (xi - ub_[col]) / (-delta);
        st = kAtUpper;
      } else if (xi >= lb_[col] - opt_.feas_tol) {
        if (std::isfinite(lb_[col])) {
          limit = (xi - lb_[col]) / (-delta);
          st = kAtLower;
        }
      }
      // else: already below lower and sinking — linear in phase-1 cost,
      // no breakpoint.
    } else {  // x_Bi increasing
      if (phase1 && xi < lb_[col] - opt_.feas_tol) {
        limit = (lb_[col] - xi) / delta;
        st = kAtLower;
      } else if (xi <= ub_[col] + opt_.feas_tol) {
        if (std::isfinite(ub_[col])) {
          limit = (ub_[col] - xi) / delta;
          st = kAtUpper;
        }
      }
    }
    if (limit < -opt_.feas_tol) limit = 0.0;
    limit = std::max(limit, 0.0);
    const bool better =
        limit < t_max - 1e-12 ||
        (leaving_row >= 0 && limit < t_max + 1e-12 &&
         (bland ? basis_[i] < basis_[leaving_row]
                : std::abs(w[i]) > std::abs(w[leaving_row])));
    if (better) {
      t_max = limit;
      leaving_row = i;
      leaving_status = st;
    }
  }

  if (!std::isfinite(t_max)) {
    if (phase1) return 3;  // numerical trouble: infeasibility is bounded below
    return 2;              // unbounded LP
  }

  if (t_max <= 1e-12)
    ++degenerate_run_;
  else
    degenerate_run_ = 0;

  if (!pivot(entering, leaving_row, t_max, dir, w, leaving_status))
    return 3;  // unstable LU update: pivot rejected
  // A primal pivot (fallback, phase 1 repair, or the phase-2 certificate)
  // moves the basis outside the dual pricing framework: reset it.
  dual_w_valid_ = false;
  if (phase1)
    ++iter_phase1_;
  else
    ++iter_phase2_;
  return 0;
}

bool SimplexSolver::pivot(int entering, int leaving_row, double t,
                          int entering_dir, const std::vector<double>& w,
                          Status leaving_status) {
  if (leaving_row >= 0) {
    // Update the factors first: an update that fails its stability test
    // rejects the whole pivot, leaving the basis and every value as they
    // were. Only the factors are lost (the update edits U in place); the
    // caller's recovery ladder refactorizes the unchanged basis, whose
    // fresh FTRANs then re-decide the pivot.
    const double alpha = w[leaving_row];
    ADVBIST_ENSURE(std::abs(alpha) > opt_.pivot_tol, "pivot element too small");
    if (!update_factors(leaving_row, alpha)) {
      ++stats_.lu_update_rejections;
      factors_valid_ = false;
      return false;
    }
  }

  // Move the entering variable and update basic values. The value scans
  // below skip w's exact zeros, so they walk only the FTRAN result's true
  // support.
  x_[entering] += entering_dir * t;
  if (t > 0.0) {
    for (int i = 0; i < m_; ++i) {
      if (w[i] == 0.0) continue;
      x_[basis_[i]] -= entering_dir * t * w[i];
    }
  }
  ++iterations_;

  if (leaving_row < 0) {
    // Bound flip: entering stays nonbasic at its opposite bound.
    vstat_[entering] = (entering_dir > 0) ? kAtUpper : kAtLower;
    x_[entering] = (entering_dir > 0) ? ub_[entering] : lb_[entering];
    ++stats_.bound_flips;
    return true;
  }

  const int leaving = basis_[leaving_row];
  // Snap the leaving variable exactly onto its bound to stop drift.
  x_[leaving] = (leaving_status == kAtLower) ? lb_[leaving] : ub_[leaving];
  vstat_[leaving] = (leaving_status == kAtLower) ? kAtLower : kAtUpper;
  basis_[leaving_row] = entering;
  vstat_[entering] = kBasic;
  ++pivots_since_refactor_;
  ++stats_.basis_pivots;
  return true;
}

bool SimplexSolver::update_factors(int pos, double alpha) {
  if (!spike_valid_) return false;
  spike_valid_ = false;
  const int t = cperm_inv_[pos];
  const double old_diag = u_diag_[t];

  // Row-eta multipliers: r' U_after = (row t of U)_after over the columns
  // after t in the U sequence, one dot-product pass (btran's transposed U
  // step restricted to that tail). The same pass strikes row t's entries
  // from those columns — the row eta eliminates them.
  if (static_cast<int>(ft_r_.size()) < m_) ft_r_.resize(m_, 0.0);
  std::vector<double>& r = ft_r_;
  ft_touched_.clear();
  const int slot = u_seq_pos_[t];  // -1: trivial, implicitly first
  const int num_slots = static_cast<int>(u_seq_.size());
  for (int q = slot + 1; q < num_slots; ++q) {
    const int j = u_seq_[q];
    if (j < 0) continue;
    double acc = 0.0;
    int end = u_beg_[j] + u_len_[j];
    for (int p = u_beg_[j]; p < end; ++p) {
      if (u_idx_[p] != t) {
        acc -= r[u_idx_[p]] * u_val_[p];
        continue;
      }
      acc += u_val_[p];
      --end;  // swap-remove; re-examine the entry moved into p
      u_idx_[p] = u_idx_[end];
      u_val_[p] = u_val_[end];
      --u_len_[j];
      --p;
    }
    if (acc == 0.0) continue;
    r[j] = acc / u_diag_[j];
    ft_touched_.push_back(j);
  }

  // New diagonal: the spike's row-t entry after the row eta.
  double diag = 0.0;
  const int spike_nnz = static_cast<int>(spike_idx_.size());
  for (int e = 0; e < spike_nnz; ++e) {
    const int i = spike_idx_[e];
    if (i == t)
      diag += spike_val_[e];
    else
      diag -= r[i] * spike_val_[e];
  }
  for (const int j : ft_touched_) {
    ft_etas_.idx.push_back(j);
    ft_etas_.val.push_back(r[j]);
    r[j] = 0.0;
  }
  if (!ft_touched_.empty()) ft_etas_.close(t);

  // Stability test: det(B') / det(B) = alpha, and the update changes only
  // the diagonal at t, so the new diagonal must equal alpha * old_diag.
  // A disagreement means the update lost accuracy to cancellation; a
  // numerically zero diagonal means U would be near-singular; and a pivot
  // within kUpdatePivotScale of pivot_tol is FTRAN noise.
  const double expect = alpha * old_diag;
  if (std::abs(alpha) <= kUpdatePivotScale * cfg_pivot_tol_ ||
      std::abs(diag) <= opt_.pivot_tol ||
      std::abs(diag - expect) > 1e-8 * std::abs(diag))
    return false;

  // The spike replaces column t, and t moves to the end of the sequence:
  // every other row is then before it, so U stays triangular.
  u_beg_[t] = static_cast<int>(u_idx_.size());
  for (int e = 0; e < spike_nnz; ++e) {
    if (spike_idx_[e] == t) continue;
    u_idx_.push_back(spike_idx_[e]);
    u_val_.push_back(spike_val_[e]);
  }
  u_len_[t] = static_cast<int>(u_idx_.size()) - u_beg_[t];
  u_diag_[t] = diag;
  if (slot >= 0) u_seq_[slot] = -1;
  u_seq_pos_[t] = num_slots;
  u_seq_.push_back(t);
  // Fault-injection hook: a perturbed U diagonal is the residual drift a
  // long update chain can accumulate past the stability test, compressed
  // into one pivot — the recovery ladder must absorb it.
  if (auto* fi = util::FaultInjector::active();
      fi != nullptr && fi->fire(util::FaultSite::kEtaPerturb))
    u_diag_[t] *= 1.0 + fi->perturbation();
  ++stats_.lu_updates;
  return true;
}

bool SimplexSolver::ensure_factors() {
  if (has_basis_ && !factors_valid_ && !refactorize()) has_basis_ = false;
  return has_basis_;
}

bool SimplexSolver::needs_refactor() const {
  const int cap = iterations_ < short_chain_until_
                      ? std::min(opt_.refactor_every, kShortChainUpdates)
                      : opt_.refactor_every;
  return !factors_valid_ || pivots_since_refactor_ >= cap ||
         static_cast<long long>(u_idx_.size() + ft_etas_.idx.size()) >
             update_budget_;
}

void SimplexSolver::finalize_result(LpResult& result, LpStatus status) {
  result.status = status;
  result.iterations = iterations_;
  result.phase1_iterations = iter_phase1_;
  result.phase2_iterations = iter_phase2_;
  result.dual_iterations = iter_dual_;
  stats_.primal_phase1_iterations += iter_phase1_;
  stats_.primal_phase2_iterations += iter_phase2_;
  stats_.dual_iterations += iter_dual_;
}

LpResult SimplexSolver::solve() {
  iterations_ = 0;
  iter_phase1_ = 0;
  iter_phase2_ = 0;
  iter_dual_ = 0;
  recovery_rung_ = 0;
  iters_at_last_trouble_ = -1;
  opt_.markowitz_tol = cfg_markowitz_tol_;  // undo any rung-1 tighten
  opt_.pivot_tol = cfg_pivot_tol_;
  short_chain_until_ = 0;
  return run_primal();
}

LpResult SimplexSolver::run_primal() {
  LpResult result;
  if (!ensure_factors()) cold_start();
  // A warm start keeps the existing (updated) factors: the basis did not
  // change, only bounds. needs_refactor() below refactorizes once the
  // updates have grown past their budget.
  compute_basic_values();

  degenerate_run_ = 0;
  constexpr int kBlandTrigger = 60;

  // Every exit of the primal loop (and of the dual path, which tails into
  // it) goes through finalize_result exactly once: the iteration split is
  // filled and folded into the cumulative counters.
  auto finalize = [&](LpStatus st) {
    finalize_result(result, st);
    return result;
  };

  // An infeasibility verdict is as load-bearing as an optimality proof
  // (the branch & bound prunes a whole subtree on it — or declares the
  // model infeasible at the root), so it is only ever issued on a FRESH
  // factorization: update drift that manufactured the residual is wiped
  // and the phase-1 conclusion re-derived. One certification per
  // conclusion attempt; new pivots re-arm it.
  int infeasibility_certified_at = -1;
  auto certify_infeasible = [&] {
    if (infeasibility_certified_at == iterations_) return true;  // re-derived
    infeasibility_certified_at = iterations_;
    if (!refactorize()) {
      // Cannot refresh — pivots chosen on drifted numbers can assemble a
      // genuinely singular basis, and a verdict that cannot be re-derived
      // on clean factors is never issued. Restart from the all-slack basis
      // (always factorizable) and let the conclusion re-derive from there.
      cold_start();
      ++stats_.recovery_cold;
    }
    compute_basic_values();
    return false;  // clean numbers: re-run the conclusion
  };

  // ---- phase 1: drive basic-variable bound violations to zero ----
  while (infeasibility() > opt_.feas_tol) {
    if (iterations_ >= opt_.max_iterations) return finalize(LpStatus::kIterLimit);
    if (poll_abort()) {
      ++stats_.aborted_solves;
      return finalize(LpStatus::kAborted);
    }
    if (needs_refactor()) {
      // A scheduled refactorization that comes back singular climbs the
      // same ladder as pivot trouble (tighten, dense, cold) instead of
      // jumping straight to a cold start.
      if (refactorize())
        compute_basic_values();
      else if (!escalate_recovery())
        return finalize(LpStatus::kIterLimit);
    }
    const bool bland = degenerate_run_ > kBlandTrigger;
    const int rc = iterate(/*phase1=*/true, bland);
    if (rc == 1) {
      if (infeasibility() > opt_.feas_tol * (1.0 + std::abs(infeasibility()))) {
        if (!certify_infeasible()) continue;
        return finalize(LpStatus::kInfeasible);
      }
      break;
    }
    if (rc == 3) {
      // Numerical trouble: climb the recovery ladder; with it exhausted
      // the solve is abandoned like an iteration limit (the caller's node
      // is dropped honestly, its bound folded into the reduction).
      if (!escalate_recovery()) return finalize(LpStatus::kIterLimit);
    }
  }

  // ---- phase 2: optimize the true objective ----
  for (;;) {
    if (iterations_ >= opt_.max_iterations) return finalize(LpStatus::kIterLimit);
    if (poll_abort()) {
      ++stats_.aborted_solves;
      return finalize(LpStatus::kAborted);
    }
    if (needs_refactor()) {
      if (refactorize())
        compute_basic_values();
      else if (!escalate_recovery())
        return finalize(LpStatus::kIterLimit);
    }
    // Phase 2 must stay feasible; a drift back to infeasibility (numerics)
    // sends us through a phase-1 repair.
    if (infeasibility() > opt_.feas_tol * 10.0) {
      const int rc1 = iterate(/*phase1=*/true, degenerate_run_ > kBlandTrigger);
      if (rc1 == 1 && infeasibility() > opt_.feas_tol * 10.0) {
        if (!certify_infeasible()) continue;
        return finalize(LpStatus::kInfeasible);
      }
      continue;
    }
    const bool bland = degenerate_run_ > kBlandTrigger;
    const int rc = iterate(/*phase1=*/false, bland);
    if (rc == 0) continue;
    if (rc == 2) return finalize(LpStatus::kUnbounded);
    if (rc == 3) {
      if (!escalate_recovery()) return finalize(LpStatus::kIterLimit);
      continue;
    }
    break;  // rc == 1: optimal
  }

  result.x.assign(x_.begin(), x_.begin() + n_);
  // Unscale the point (x = C x'; exact, powers of two). The objective is
  // already exact in either frame: c'.x' == c.x identically.
  if (scaling_active_)
    for (int v = 0; v < n_; ++v) result.x[v] *= col_scale_[v];
  double obj = 0.0;
  for (int v = 0; v < n_; ++v) obj += cost_[v] * x_[v];
  result.objective = obj;
  return finalize(LpStatus::kOptimal);
}

void SimplexSolver::compute_dual_reduced_costs() {
  cb_.resize(m_);
  for (int i = 0; i < m_; ++i) cb_[i] = cost_[basis_[i]];
  btran(cb_, duals_);
  dual_d_.assign(total_, 0.0);
  for (int j = 0; j < total_; ++j) {
    if (vstat_[j] == kBasic) continue;
    dual_d_[j] = reduced_cost(j, duals_, cost_);
  }
}

bool SimplexSolver::restore_dual_feasibility() {
  for (int j = 0; j < total_; ++j) {
    if (vstat_[j] == kBasic || lb_[j] == ub_[j]) continue;
    const double d = dual_d_[j];
    if (vstat_[j] == kAtLower && d < -opt_.opt_tol) {
      if (!std::isfinite(ub_[j])) return false;
      vstat_[j] = kAtUpper;
      x_[j] = ub_[j];
      ++stats_.dual_bound_flips;
    } else if (vstat_[j] == kAtUpper && d > opt_.opt_tol) {
      if (!std::isfinite(lb_[j])) return false;
      vstat_[j] = kAtLower;
      x_[j] = lb_[j];
      ++stats_.dual_bound_flips;
    }
  }
  return true;
}

void SimplexSolver::ensure_dual_weights() {
  if (dual_w_valid_ && static_cast<int>(dual_w_.size()) == m_) return;
  dual_w_.assign(m_, 1.0);  // the all-ones reference framework
  dual_w_valid_ = true;
  ++stats_.devex_resets;
}

void SimplexSolver::update_dual_weights(int r, const std::vector<double>& w,
                                        const std::vector<double>& rho) {
  if (!dual_w_valid_) return;
  const double wr = w[r];
  if (wr == 0.0) {
    dual_w_valid_ = false;
    return;
  }
  const double inv_wr2 = 1.0 / (wr * wr);
  if (opt_.dual_pricing == DualPricing::kDevex) {
    // Devex: w_i approximates ||e_i' B^-1||^2 relative to the reference
    // framework; the update needs only the FTRANed entering column already
    // in hand. Monotone (max), so a degraded framework is detected by
    // weight growth and restarted rather than silently trusted. The loop
    // skips w's exact zeros by value, so it already walks only the FTRAN
    // result's true support.
    const double ref = dual_w_[r];
    double worst = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (i == r || w[i] == 0.0) continue;
      const double cand = w[i] * w[i] * inv_wr2 * ref;
      if (cand > dual_w_[i]) dual_w_[i] = cand;
      if (dual_w_[i] > worst) worst = dual_w_[i];
    }
    dual_w_[r] = std::max(ref * inv_wr2, 1.0);
    if (std::max(worst, dual_w_[r]) > 1e7) dual_w_valid_ = false;
  } else {
    // Dual steepest edge (Forrest-Goldfarb): gamma_r = ||rho||^2 is exact
    // (the BTRANed pivot row is in hand); the other rows follow the exact
    // update recurrence via tau = B^-1 rho — the one extra FTRAN that
    // makes this the expensive reference mode the Devex approximation is
    // validated against. (Weights still restart from all-ones at each
    // framework reset, so they are true row norms only between resets.)
    double gamma_r = 0.0;
    for (int i = 0; i < m_; ++i) gamma_r += rho[i] * rho[i];
    dual_tau_.assign(rho.begin(), rho.end());
    ftran_vec(dual_tau_);  // original-row input -> basis-position output
    for (int i = 0; i < m_; ++i) {
      if (i == r || w[i] == 0.0) continue;
      const double k = w[i] / wr;
      const double g = dual_w_[i] - 2.0 * k * dual_tau_[i] + k * k * gamma_r;
      dual_w_[i] = std::max(g, std::max(k * k * gamma_r, 1e-10));
    }
    dual_w_[r] = std::max(gamma_r * inv_wr2, 1e-10);
  }
}

int SimplexSolver::iterate_dual() {
  // --- leaving row: the largest violation^2 / w_i, where w_i
  // (approximately) carries ||e_i' B^-1||^2 — a violation is only worth
  // chasing if the dual step it buys is long in the steepest-edge norm. ---
  ensure_dual_weights();
  int r = -1;
  double best_score = 0.0;
  double viol = 0.0;
  int sgn = 0;  // -1: below its lower bound (leaves at lower), +1: above upper
  for (int i = 0; i < m_; ++i) {
    const int col = basis_[i];
    const double below = lb_[col] - x_[col];
    const double above = x_[col] - ub_[col];
    const double v = below > above ? below : above;
    if (v <= opt_.feas_tol) continue;
    const double score = v * v / std::max(dual_w_[i], 1e-10);
    if (score > best_score) {
      best_score = score;
      viol = v;
      r = i;
      sgn = below > above ? -1 : +1;
    }
  }
  if (r < 0) return 1;  // primal feasible: dual optimal

  // --- pivot row: rho' = e_r' B^{-1}; alpha_j = sgn * rho' a_j for every
  // nonbasic column (the sign normalization makes "d_j decreasing with the
  // dual step" read the same for both violation directions). ---
  if (static_cast<int>(dual_unit_.size()) != m_) dual_unit_.assign(m_, 0.0);
  dual_unit_[r] = 1.0;  // e_r; dual_unit_ is all-zero between uses
  btran(dual_unit_, dual_rho_);
  dual_unit_[r] = 0.0;

  dual_row_.clear();
  dual_cands_.clear();
  // Two-level zero test for the pivot row. Below drop_tol an alpha is
  // cancellation noise from the rho'a_j accumulation — treating it as an
  // exact zero everywhere keeps the pivot sequence independent of noise.
  // Between drop_tol and pivot_tol the alpha is genuinely small but REAL:
  // it is too small to pivot on, yet its reduced cost still moves by
  // theta*alpha in the dual step. Filtering the theta update at pivot_tol
  // would let such columns drift from their true reduced costs by
  // theta*alpha per pivot (flushed only at the next refactorization);
  // tests/lp/dual_simplex_test.cpp pins this.
  const double drop_tol = 1e-4 * opt_.pivot_tol;
  for (int j = 0; j < total_; ++j) {
    if (vstat_[j] == kBasic || lb_[j] == ub_[j]) continue;
    double a;
    if (j < n_) {
      a = 0.0;
      for (int p = col_start_[j]; p < col_start_[j + 1]; ++p)
        a += dual_rho_[col_row_[p]] * col_val_[p];
    } else {
      a = dual_rho_[j - n_];
    }
    const double at = sgn * a;
    if (std::abs(at) <= drop_tol) continue;
    dual_row_.push_back(DualRowEntry{j, at});
    if (std::abs(at) <= opt_.pivot_tol) continue;
    // Eligible entering columns: their reduced cost is driven towards zero
    // as the dual step grows; the breakpoint is the dual ratio.
    double ratio;
    if (vstat_[j] == kAtLower && at > 0.0)
      ratio = std::max(dual_d_[j], 0.0) / at;
    else if (vstat_[j] == kAtUpper && at < 0.0)
      ratio = std::min(dual_d_[j], 0.0) / at;
    else
      continue;
    dual_cands_.push_back(DualCandidate{j, ratio, at});
  }
  if (dual_cands_.empty()) return 2;  // dual ray: primal infeasible

  // --- bound-flipping ratio test: walk the breakpoints in dual-step order;
  // a boxed candidate whose full flip still leaves the leaving variable
  // violated is flipped (no basis change, reduced cost crosses zero
  // consistently with the new bound) and the walk continues with the
  // residual violation; the first candidate that cannot be passed enters.
  // The walk consumes a lazy min-heap instead of sorting: pops follow the
  // exact (ratio, col) total order a full sort would give — identical
  // flip/entering sequence — but typical pivots consume only a few
  // breakpoints out of hundreds of candidates, so the O(c log c) sort
  // shrinks to O(c) heapification plus a handful of O(log c) pops. ---
  const auto cand_after = [](const DualCandidate& a, const DualCandidate& b) {
    return a.ratio != b.ratio ? a.ratio > b.ratio : a.col > b.col;
  };
  std::make_heap(dual_cands_.begin(), dual_cands_.end(), cand_after);
  const auto pop_next = [&]() {
    std::pop_heap(dual_cands_.begin(), dual_cands_.end(), cand_after);
    const DualCandidate c = dual_cands_.back();
    dual_cands_.pop_back();
    return c;
  };
  double delta = viol;
  dual_flips_.clear();
  int chosen = -1;
  double theta = 0.0;
  double chosen_alpha = 0.0;
  while (!dual_cands_.empty()) {
    const DualCandidate cand = pop_next();
    const double range = ub_[cand.col] - lb_[cand.col];
    const double gain = std::abs(cand.alpha) * range;
    if (!dual_cands_.empty() && std::isfinite(range) &&
        delta - gain > opt_.feas_tol) {
      dual_flips_.push_back(cand.col);
      delta -= gain;
      continue;
    }
    // Entering candidate found at this breakpoint. These LPs are heavily
    // dual degenerate (stacks of ratio-0 ties); among the near-ties pick
    // the largest |alpha|: the primal step delta/|alpha| shrinks with it,
    // so fewer new violations cascade out of the pivot (and the pivot is
    // numerically safer). The tie window scales with the feasibility
    // tolerance AND the breakpoint magnitude (ratios are reduced costs
    // over pivots, so an absolute window would vanish on badly scaled
    // objectives); at the defaults it is the historical 1e-9 for the
    // dominant ratio-0 degenerate stacks.
    const double tie =
        1e-2 * opt_.feas_tol * (1.0 + std::abs(cand.ratio));
    chosen = cand.col;
    theta = std::max(cand.ratio, 0.0);
    chosen_alpha = cand.alpha;
    double best_alpha = std::abs(cand.alpha);
    while (!dual_cands_.empty() &&
           dual_cands_.front().ratio <= cand.ratio + tie) {
      const DualCandidate t = pop_next();
      if (std::abs(t.alpha) > best_alpha) {
        best_alpha = std::abs(t.alpha);
        chosen = t.col;
        theta = std::max(t.ratio, 0.0);
        chosen_alpha = t.alpha;
      }
    }
    break;
  }
  const double d_chosen = dual_d_[chosen];

  // --- dual step: every nonbasic reduced cost moves along the pivot row.
  // Flipped candidates cross zero (consistent with their new bound); the
  // entering column lands exactly at zero. dual_row_ carries every column
  // with a real (above-drop_tol) alpha, including the sub-pivot_tol ones
  // the old code skipped — that skip is the reduced-cost drift bug. ---
  if (theta > 0.0) {
    for (const DualRowEntry& e : dual_row_) dual_d_[e.col] -= theta * e.alpha;
  }
  dual_d_[chosen] = 0.0;

  // --- apply the flips: nonbasic values jump to the opposite bound; one
  // accumulated FTRAN updates every basic value. ---
  if (!dual_flips_.empty()) {
    dual_fcol_.assign(m_, 0.0);
    for (const int j : dual_flips_) {
      const double old = x_[j];
      double nv;
      if (vstat_[j] == kAtLower) {
        vstat_[j] = kAtUpper;
        nv = ub_[j];
      } else {
        vstat_[j] = kAtLower;
        nv = lb_[j];
      }
      x_[j] = nv;
      const double dx = nv - old;
      if (j < n_) {
        for (int p = col_start_[j]; p < col_start_[j + 1]; ++p)
          dual_fcol_[col_row_[p]] += col_val_[p] * dx;
      } else {
        dual_fcol_[j - n_] += dx;
      }
    }
    ftran_vec(dual_fcol_);
    for (int i = 0; i < m_; ++i)
      if (dual_fcol_[i] != 0.0) x_[basis_[i]] -= dual_fcol_[i];
    stats_.dual_bound_flips += static_cast<long long>(dual_flips_.size());
  }

  // --- entering column FTRAN + primal step onto the violated bound ---
  std::vector<double>& w = wcol_;
  ftran(chosen, w, /*keep_spike=*/true);
  const double wr = w[r];
  // w[r] and the BTRANed pivot-row entry are the same number computed two
  // ways; a disagreement (or a tiny pivot) flags factorization drift.
  const double a_chosen = sgn * chosen_alpha;
  if (std::abs(wr) <= opt_.pivot_tol ||
      std::abs(wr - a_chosen) > 1e-5 * std::max(1.0, std::abs(wr)))
    return 3;

  const int leaving = basis_[r];
  const double target = (sgn < 0) ? lb_[leaving] : ub_[leaving];
  const int dir = (vstat_[chosen] == kAtUpper) ? -1 : +1;
  double t = (x_[leaving] - target) / (dir * wr);
  if (!(t > 0.0)) t = 0.0;  // flips covered the violation: degenerate pivot

  // Degenerate when the dual objective barely moved: theta*|alpha| is the
  // reduced-cost distance the entering column travelled, measured against
  // its own magnitude so the test is invariant to cost scaling (the old
  // absolute `theta <= 1e-12` silently misclassified large- or
  // small-cost problems). At the defaults and |alpha| ~ 1 this is the
  // historical threshold.
  if (theta * std::abs(chosen_alpha) <=
      1e-5 * opt_.opt_tol * (1.0 + std::abs(d_chosen)))
    ++degenerate_run_;
  else
    degenerate_run_ = 0;

  // The dual iteration computed both vectors the weight update needs: the
  // FTRANed entering column and the BTRANed pivot row.
  update_dual_weights(r, w, dual_rho_);
  if (!pivot(chosen, r, t, dir, w, sgn < 0 ? kAtLower : kAtUpper))
    return 3;  // unstable LU update: pivot rejected
  ++iter_dual_;
  dual_d_[leaving] = -sgn * theta;  // the leaving variable's new reduced cost
  return 0;
}

LpResult SimplexSolver::solve_dual() {
  // A bounded probe (capped below the configured budget) routinely runs
  // out; it says nothing about warm-start quality, so it is not counted.
  const bool counted = opt_.max_iterations >= cfg_max_iterations_;
  if (counted) ++stats_.dual_solves;
  iterations_ = 0;
  iter_phase1_ = 0;
  iter_phase2_ = 0;
  iter_dual_ = 0;
  degenerate_run_ = 0;
  recovery_rung_ = 0;
  iters_at_last_trouble_ = -1;
  opt_.markowitz_tol = cfg_markowitz_tol_;  // undo any rung-1 tighten
  opt_.pivot_tol = cfg_pivot_tol_;
  short_chain_until_ = 0;

  auto fallback = [&] {
    if (counted) ++stats_.dual_fallbacks;
    LpResult r = run_primal();
    r.dual_fallback = true;
    return r;
  };

  // No warm basis to be dual-feasible about: the primal cold start is the
  // right tool.
  if (!ensure_factors()) return fallback();

  compute_dual_reduced_costs();
  if (!restore_dual_feasibility()) return fallback();
  compute_basic_values();

  constexpr int kDualDegenerateCap = 2000;
  // Stall cap: a healthy warm dual re-solve finishes in a small multiple of
  // the basis dimension. Far past that the incrementally maintained reduced
  // costs are oscillating on noise (thetas small enough to go nowhere, big
  // enough to dodge the degeneracy counter) — burning the remaining
  // iteration budget proves nothing, so hand the basis to the primal path
  // while there is still budget left for it to finish honestly.
  const long long dual_stall_cap = 2000 + 20LL * (m_ + n_);
  bool infeasibility_reverified = false;

  for (;;) {
    if (iterations_ >= opt_.max_iterations) return fallback();
    if (poll_abort()) {
      ++stats_.aborted_solves;
      LpResult result;
      finalize_result(result, LpStatus::kAborted);
      return result;
    }
    if (needs_refactor()) {
      if (!refactorize()) {
        // Ladder-recover like pivot trouble; a recovery that lost dual
        // feasibility beyond bound-flip repair ends on the primal path.
        if (!escalate_recovery()) return fallback();
        compute_dual_reduced_costs();
        if (!restore_dual_feasibility()) return fallback();
        compute_basic_values();
      } else {
        compute_basic_values();
      }
      // Every refactorization inside the dual loop refreshes dual_d_ from
      // a fresh BTRAN of the basic costs. Together with the theta update in
      // iterate_dual covering every real alpha (dual_row_ is drop_tol-, not
      // pivot_tol-filtered) this is what keeps the incrementally maintained
      // reduced costs honest — tests/lp/dual_simplex_test.cpp pins the drift.
      compute_dual_reduced_costs();
    }
    const int rc = iterate_dual();
    if (rc == 0) {
      if (degenerate_run_ > kDualDegenerateCap) return fallback();
      if (iter_dual_ > dual_stall_cap) return fallback();
      infeasibility_reverified = false;
      continue;
    }
    if (rc == 1) break;  // primal feasible: let the primal loop certify
    if (rc == 2) {
      // Re-verify the dual ray on a fresh factorization before trusting it
      // (the pivot row and reduced costs may carry update drift).
      if (!infeasibility_reverified) {
        infeasibility_reverified = true;
        if (!refactorize()) {
          cold_start();
          return fallback();
        }
        compute_basic_values();
        compute_dual_reduced_costs();
        continue;
      }
      LpResult result;
      finalize_result(result, LpStatus::kInfeasible);
      return result;
    }
    // rc == 3: numerical trouble — climb the recovery ladder, then rebuild
    // the dual state on the recovered basis. A rung that had to cold-start
    // (or any recovery that lost dual feasibility beyond what bound flips
    // repair) ends on the primal path via restore_dual_feasibility.
    if (!escalate_recovery()) return fallback();
    compute_dual_reduced_costs();
    if (!restore_dual_feasibility()) return fallback();
    compute_basic_values();
  }

  // Primal-feasible and dual-feasible: the primal loop verifies optimality
  // (in the clean case, zero further pivots) and assembles the result.
  return run_primal();
}

void SimplexSolver::delete_rows(const std::vector<int>& rows) {
  if (rows.empty()) return;
  const int del = static_cast<int>(rows.size());
  int prev = initial_m_ - 1;
  for (const int r : rows) {
    ADVBIST_REQUIRE(r > prev && r < m_,
                    "delete_rows: strictly increasing appended-row indices");
    ADVBIST_REQUIRE(vstat_[n_ + r] == kBasic,
                    "delete_rows: slack must be basic (aged-out cut row)");
    prev = r;
  }

  // Old row -> new row mapping (-1 = deleted).
  std::vector<int> new_row(m_);
  {
    int k = 0, next = 0;
    for (int r = 0; r < m_; ++r) {
      if (k < del && rows[k] == r) {
        new_row[r] = -1;
        ++k;
      } else {
        new_row[r] = next++;
      }
    }
  }
  const int nm = m_ - del;
  auto renumber = [&](int col) {
    return col < n_ ? col : n_ + new_row[col - n_];
  };

  // Basis: drop the positions holding the deleted slacks (each was a unit
  // column, so the remaining basis over the remaining rows is nonsingular
  // and the surviving basic values are untouched — the deleted slack was
  // the only basic variable in its row).
  {
    std::size_t keep = 0;
    for (int i = 0; i < m_; ++i) {
      const int col = basis_[i];
      if (col >= n_ && new_row[col - n_] < 0) continue;
      basis_[keep++] = renumber(col);
    }
    basis_.resize(keep);
  }

  // Per-column state: erase the deleted slacks' slots.
  auto compact_cols = [&](auto& v) {
    std::size_t keep = n_;
    for (int r = 0; r < m_; ++r)
      if (new_row[r] >= 0) v[keep++] = v[n_ + r];
    v.resize(keep);
  };
  compact_cols(lb_);
  compact_cols(ub_);
  compact_cols(cost_);
  compact_cols(x_);
  compact_cols(vstat_);

  {
    std::size_t keep = 0;
    for (int r = 0; r < m_; ++r)
      if (new_row[r] >= 0) rhs_[keep++] = rhs_[r];
    rhs_.resize(keep);
  }
  if (scaling_active_) {
    std::size_t keep = 0;
    for (int r = 0; r < m_; ++r)
      if (new_row[r] >= 0) row_scale_[keep++] = row_scale_[r];
    row_scale_.resize(keep);
  }

  // CSC: drop entries of deleted rows, remap the rest (in-place compaction;
  // the write cursor never passes the read cursor).
  {
    int write = 0;
    for (int v = 0; v < n_; ++v) {
      const int begin = col_start_[v];
      const int end = col_start_[v + 1];
      col_start_[v] = write;
      for (int p = begin; p < end; ++p) {
        const int nr = new_row[col_row_[p]];
        if (nr < 0) continue;
        col_row_[write] = nr;
        col_val_[write] = col_val_[p];
        ++write;
      }
    }
    col_start_[n_] = write;
    col_row_.resize(write);
    col_val_.resize(write);
  }

  m_ = nm;
  total_ = n_ + m_;
  perm_.resize(m_);
  cperm_.resize(m_);
  u_diag_.resize(m_);
  work_.resize(m_);
  candidates_.clear();
  price_cursor_ = 0;
  dual_w_valid_ = false;  // basis positions shifted: weights are stale
  stats_.rows_deleted += del;

  if (has_basis_) {
    // Rebuild the factors at the shrunken size. This is where the fill
    // accounting must see the *current* row count: refactorize() measures
    // basis and fill nnz against m_, which has already been shrunk, so
    // aged-out rows neither inflate the basis term nor deflate the ratio.
    if (!refactorize()) has_basis_ = false;  // next solve() cold-starts
  }
}

double SimplexSolver::dual_reduced_cost_drift_for_testing() const {
  if (!has_basis_ || !factors_valid_ ||
      static_cast<int>(dual_d_.size()) != total_)
    return 0.0;
  std::vector<double> cb(m_);
  for (int i = 0; i < m_; ++i) cb[i] = cost_[basis_[i]];
  std::vector<double> y;
  btran(cb, y);
  double worst = 0.0;
  for (int j = 0; j < total_; ++j) {
    if (vstat_[j] == kBasic || lb_[j] == ub_[j]) continue;
    const double fresh = reduced_cost(j, y, cost_);
    worst = std::max(worst, std::abs(dual_d_[j] - fresh));
  }
  return worst;
}

bool SimplexSolver::refresh_factorization() {
  if (!has_basis_) cold_start();
  if (refactorize()) return true;
  cold_start();
  return false;
}

std::vector<double> SimplexSolver::ftran_for_testing(
    std::vector<double> rhs) const {
  ADVBIST_REQUIRE(static_cast<int>(rhs.size()) == m_, "rhs size");
  ftran_vec(rhs);
  return rhs;
}

std::vector<double> SimplexSolver::btran_for_testing(
    const std::vector<double>& cb) const {
  ADVBIST_REQUIRE(static_cast<int>(cb.size()) == m_, "cb size");
  std::vector<double> y;
  btran(cb, y);
  return y;
}

bool SimplexSolver::replace_basic_for_testing(int pos, int col) {
  ADVBIST_REQUIRE(pos >= 0 && pos < m_, "basis position");
  ADVBIST_REQUIRE(col >= 0 && col < total_ && vstat_[col] != kBasic,
                  "entering column must be nonbasic");
  if (!ensure_factors()) cold_start();
  std::vector<double>& w = wcol_;
  ftran(col, w, /*keep_spike=*/true);
  if (std::abs(w[pos]) <= opt_.pivot_tol) {
    spike_valid_ = false;
    return false;
  }
  const int leaving = basis_[pos];
  const Status st = std::isfinite(lb_[leaving]) || !std::isfinite(ub_[leaving])
                        ? kAtLower
                        : kAtUpper;
  if (!pivot(col, pos, 0.0, +1, w, st)) {
    ensure_factors();  // the rejected update left the factors unusable
    return false;
  }
  if (!std::isfinite(x_[leaving])) x_[leaving] = 0.0;  // free: pinned at 0
  return true;
}

std::vector<double> SimplexSolver::dense_basis_for_testing() const {
  std::vector<double> b(static_cast<std::size_t>(m_) * m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    const int col = basis_[i];
    double* c = b.data() + static_cast<std::size_t>(i) * m_;
    if (col < n_) {
      for (int p = col_start_[col]; p < col_start_[col + 1]; ++p)
        c[col_row_[p]] = col_val_[p];
    } else {
      c[col - n_] = 1.0;
    }
  }
  return b;
}

bool SimplexSolver::tableau_row(int pos, std::vector<double>& alpha,
                                double& beta) const {
  if (!has_basis_ || !factors_valid_ || pos < 0 || pos >= m_) return false;
  // rho' = e_pos' B^-1: one BTRAN of a unit vector; rho is indexed by
  // original row, so alpha'_j = rho . (scaled column j).
  std::vector<double> cb(m_, 0.0);
  cb[pos] = 1.0;
  std::vector<double> rho;
  btran(cb, rho);
  alpha.assign(static_cast<std::size_t>(n_) + m_, 0.0);
  for (int j = 0; j < n_; ++j) {
    double a = 0.0;
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p)
      a += rho[col_row_[p]] * col_val_[p];
    alpha[j] = a;
  }
  for (int r = 0; r < m_; ++r) alpha[static_cast<std::size_t>(n_) + r] = rho[r];
  const int b = basis_[pos];
  // The row's constant is rho . rhs (NOT the basic variable's current
  // value, which also folds in the nonbasic columns at their bounds).
  beta = 0.0;
  for (int r = 0; r < m_; ++r) beta += rho[r] * rhs_[r];
  if (scaling_active_) {
    // Original variable j relates to its scaled twin by x_j = C_j x'_j with
    // C_j = col_scale_[j] for structurals and 1/row_scale_[r] for slack r
    // (s'_r = R_r s_r). Dividing the scaled tableau row through by the
    // basic variable's factor C_B gives alpha_j = alpha'_j C_B / C_j and
    // beta = C_B beta' — all power-of-two multiplies, so exact.
    const double cB = b < n_ ? col_scale_[b] : 1.0 / row_scale_[b - n_];
    for (int j = 0; j < n_; ++j) alpha[j] *= cB / col_scale_[j];
    for (int r = 0; r < m_; ++r)
      alpha[static_cast<std::size_t>(n_) + r] *= cB * row_scale_[r];
    beta *= cB;
  }
  alpha[b] = 1.0;  // B^-1 B = I exactly; overwrite the ~1 numeric value
  return true;
}

void SimplexSolver::original_rows(std::vector<std::vector<Term>>& rows,
                                  std::vector<double>& rhs) const {
  // One pass over the CSC columns leaves each row's terms in ascending
  // column order.
  rows.assign(m_, {});
  for (int col = 0; col < n_; ++col)
    for (int p = col_start_[col]; p < col_start_[col + 1]; ++p) {
      const int row = col_row_[p];
      double v = col_val_[p];
      if (scaling_active_) v /= row_scale_[row] * col_scale_[col];
      rows[row].push_back({col, v});
    }
  rhs.resize(m_);
  for (int row = 0; row < m_; ++row)
    rhs[row] = scaling_active_ ? rhs_[row] / row_scale_[row] : rhs_[row];
}

void SimplexSolver::original_row(int row, std::vector<Term>& terms,
                                 double& rhs) const {
  ADVBIST_REQUIRE(row >= 0 && row < m_, "original_row index");
  std::vector<std::vector<Term>> rows;
  std::vector<double> all_rhs;
  original_rows(rows, all_rhs);
  terms = std::move(rows[row]);
  rhs = all_rhs[row];
}

}  // namespace advbist::lp
