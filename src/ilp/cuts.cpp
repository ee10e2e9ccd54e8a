#include "ilp/cuts.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <utility>

#include "ilp/conflict_graph.hpp"
#include "ilp/tolerances.hpp"
#include "lp/scaling.hpp"
#include "lp/simplex.hpp"
#include "util/check.hpp"

namespace advbist::ilp {

using lp::ConstraintDef;
using lp::Model;
using lp::Sense;
using lp::Term;
using lp::VarType;

double Cut::activity(const std::vector<double>& x) const {
  double a = 0.0;
  for (const Term& t : terms) a += t.coeff * x[t.var];
  return a;
}

Cut clique_cut_from_literals(const std::vector<int>& literals) {
  // sum of true literals <= 1: a positive literal contributes +x, a
  // complement literal contributes (1 - x), i.e. -x on the left and -1 off
  // the right-hand side.
  Cut cut;
  cut.cut_class = CutClass::kClique;
  cut.rhs = 1.0;
  cut.terms.reserve(literals.size());
  for (const int l : literals) {
    if (ConflictGraph::lit_val(l)) {
      cut.terms.push_back(Term{ConflictGraph::lit_var(l), 1.0});
    } else {
      cut.terms.push_back(Term{ConflictGraph::lit_var(l), -1.0});
      cut.rhs -= 1.0;
    }
  }
  std::sort(cut.terms.begin(), cut.terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  return cut;
}

namespace {

/// One complemented knapsack item: weight * y <= capacity with
/// y = x (complemented == false) or y = 1 - x (complemented == true).
struct KnapItem {
  int var;
  double weight;      // > 0
  double ystar;       // fractional value of y at the LP point
  bool complemented;
};

/// Builds the cover cut over the chosen items (plus the lifted extension)
/// back in x-space.
Cut build_cover_cut(const std::vector<KnapItem>& items,
                    const std::vector<int>& chosen, int cover_size) {
  Cut cut;
  cut.cut_class = CutClass::kCover;
  cut.rhs = static_cast<double>(cover_size) - 1.0;
  cut.terms.reserve(chosen.size());
  for (const int idx : chosen) {
    const KnapItem& it = items[idx];
    if (it.complemented) {
      // y = 1 - x: +y becomes -x and shifts the rhs.
      cut.terms.push_back(Term{it.var, -1.0});
      cut.rhs -= 1.0;
    } else {
      cut.terms.push_back(Term{it.var, 1.0});
    }
  }
  std::sort(cut.terms.begin(), cut.terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  return cut;
}

/// Separates cover cuts for one knapsack side sum w_j y_j <= cap.
void separate_knapsack(const std::vector<KnapItem>& items, double cap,
                       double min_violation, std::vector<Cut>& out,
                       std::vector<double>& viol_out) {
  double total = 0.0;
  for (const KnapItem& it : items) total += it.weight;
  if (cap < -kActivityEps) return;    // infeasible row; presolve's business
  if (total <= cap + kIntEps) return;  // no cover exists

  // Greedy cover: take items by ascending (1 - y*)/w — cheapest violation
  // mass per unit of weight — until the weight passes the capacity.
  std::vector<int> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return (1.0 - items[a].ystar) / items[a].weight <
           (1.0 - items[b].ystar) / items[b].weight;
  });
  std::vector<int> cover;
  double cover_weight = 0.0;
  for (const int idx : order) {
    cover.push_back(idx);
    cover_weight += items[idx].weight;
    if (cover_weight > cap + kIntEps) break;
  }
  if (cover_weight <= cap + kIntEps) return;  // numerical dust

  // Minimalize: drop members (largest violation contribution 1 - y* first)
  // while the remainder still overflows the capacity. Every drop both
  // raises the violation and shrinks max weight, strengthening the lift.
  std::vector<int> by_slack(cover);
  std::stable_sort(by_slack.begin(), by_slack.end(), [&](int a, int b) {
    return 1.0 - items[a].ystar > 1.0 - items[b].ystar;
  });
  std::vector<char> dropped(items.size(), 0);
  for (const int idx : by_slack) {
    if (cover_weight - items[idx].weight > cap + kIntEps) {
      cover_weight -= items[idx].weight;
      dropped[idx] = 1;
    }
  }
  std::vector<int> minimal;
  for (const int idx : cover)
    if (!dropped[idx]) minimal.push_back(idx);
  if (minimal.size() < 2) return;  // single-item covers are bound changes

  double lhs = 0.0, max_weight = 0.0;
  for (const int idx : minimal) {
    lhs += items[idx].ystar;
    max_weight = std::max(max_weight, items[idx].weight);
  }
  const int cover_size = static_cast<int>(minimal.size());

  // Lift by extension: any variable at least as heavy as the cover's
  // heaviest member joins at coefficient 1 — any cover_size-subset of the
  // extended set outweighs the cover, so the <= cover_size - 1 bound
  // holds. The comparison is exact: admitting a weight even epsilon below
  // the cover maximum would void that argument.
  std::vector<int> chosen(minimal);
  std::vector<char> in_cover(items.size(), 0);
  for (const int idx : minimal) in_cover[idx] = 1;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (in_cover[i] || items[i].weight < max_weight) continue;
    chosen.push_back(static_cast<int>(i));
    lhs += items[i].ystar;
  }

  const double violation = lhs - (static_cast<double>(cover_size) - 1.0);
  if (violation <= min_violation) return;
  out.push_back(build_cover_cut(items, chosen, cover_size));
  viol_out.push_back(violation);
}

}  // namespace

std::vector<Cut> separate_cover_cuts(const Model& model,
                                     const std::vector<bool>& skip_row,
                                     const std::vector<double>& x,
                                     double min_violation, int max_cuts) {
  std::vector<Cut> cuts;
  std::vector<double> violations;
  if (max_cuts <= 0) return cuts;

  std::vector<KnapItem> items;
  for (int c = 0; c < model.num_constraints(); ++c) {
    if (!skip_row.empty() && skip_row[c]) continue;
    const ConstraintDef& row = model.constraint(c);
    if (row.terms.size() < 2) continue;

    // A row yields up to two knapsacks: the <= side as-is and the >= side
    // negated. Build each by complementing negative weights so all weights
    // are positive; fixed and non-binary variables disqualify only through
    // fixed values (folded into the capacity) — a free non-binary term
    // makes the row unusable for cover logic.
    for (const int side : {0, 1}) {
      if (side == 0 && row.sense == Sense::kGreaterEqual) continue;
      if (side == 1 && row.sense == Sense::kLessEqual) continue;
      const double sign = side == 0 ? 1.0 : -1.0;
      double cap = sign * row.rhs;
      items.clear();
      bool usable = true;
      for (const Term& t : row.terms) {
        const auto& v = model.variable(t.var);
        const double a = sign * t.coeff;
        const bool binary = v.type == VarType::kInteger && v.lower >= 0.0 &&
                            v.upper <= 1.0 && v.lower < v.upper;
        if (!binary) {
          if (v.lower == v.upper) {
            cap -= a * v.lower;  // fixed: constant contribution
            continue;
          }
          usable = false;
          break;
        }
        if (a > 0.0) {
          items.push_back(KnapItem{t.var, a, x[t.var], false});
        } else if (a < 0.0) {
          // a*x = a - a*(1-x): complement flips the weight positive.
          items.push_back(KnapItem{t.var, -a, 1.0 - x[t.var], true});
          cap -= a;
        }
      }
      if (!usable || items.size() < 2) continue;
      separate_knapsack(items, cap, min_violation, cuts, violations);
    }
  }

  // Best violation first, capped.
  std::vector<int> order(cuts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return violations[a] > violations[b];
  });
  if (static_cast<int>(order.size()) > max_cuts) order.resize(max_cuts);
  std::vector<Cut> best;
  best.reserve(order.size());
  for (const int idx : order) best.push_back(std::move(cuts[idx]));
  return best;
}

// ---------------------------------------------------------------------------
// Gomory mixed-integer cuts
// ---------------------------------------------------------------------------

namespace {

/// Gomory coefficient of one shifted nonbasic term t_j >= 0 in
/// sum g_j t_j >= f0: the mixed-integer rounding function for integer
/// columns, the sign-split linear function for continuous ones.
double gomory_coeff(double a, bool integer, double f0) {
  if (integer) {
    const double f = a - std::floor(a);
    return f <= f0 ? f : f0 * (1.0 - f) / (1.0 - f0);
  }
  return a >= 0.0 ? a : f0 * (-a) / (1.0 - f0);
}

}  // namespace

std::vector<Cut> separate_gomory_cuts(
    const lp::SimplexSolver& lp_solver, const Model& model,
    const std::vector<double>& x, const std::vector<double>& global_lb,
    const std::vector<double>& global_ub, double min_violation, int max_cuts) {
  std::vector<Cut> cuts;
  std::vector<double> violations;
  if (max_cuts <= 0) return cuts;
  const int n = lp_solver.num_structural();
  const int m = lp_solver.num_rows();
  constexpr double kAway = 1e-2;       // min distance of f0 from 0 and 1
  constexpr double kFixedTol = 1e-12;  // bound interval below this: fixed
  constexpr double kCoeffDrop = 1e-9;  // x-space cleanup threshold
  constexpr double kMaxDynamism = 1e6;
  constexpr double kMaxMagnitude = 1e8;
  constexpr int kBasic = 2;  // SimplexSolver column_status basic value

  std::vector<double> alpha;
  std::vector<double> coeff(static_cast<std::size_t>(n), 0.0);
  std::vector<int> touched;
  std::vector<char> in_touched(static_cast<std::size_t>(n), 0);
  // Slack substitution reads the LP's rows: fetched once per call, on
  // first use, since one call substitutes slacks of up to every row.
  std::vector<std::vector<Term>> rows;
  std::vector<double> rows_rhs;
  const std::vector<int>& basis = lp_solver.basis();

  for (int pos = 0; pos < m; ++pos) {
    const int b = basis[pos];
    // Source rows: fractional integer structurals basic in the row.
    if (b >= n || model.variable(b).type != VarType::kInteger) continue;
    const double bfrac = x[b] - std::floor(x[b]);
    if (bfrac < kAway || bfrac > 1.0 - kAway) continue;
    double beta = 0.0;
    if (!lp_solver.tableau_row(pos, alpha, beta)) break;

    // Pass 1 over the nonbasic columns: shift each to a globally valid
    // bound (t_j = x_j - lb or ub - x_j, always >= 0 at EVERY feasible
    // point, not just in the separating node's subtree) and fold the shift
    // into the row constant. Structurals shift against the GLOBAL bounds;
    // slack bounds are row properties and globally valid as-is. A needed
    // shift against an infinite bound kills the row.
    struct NbCol {
      int col;
      double a;      // tableau coefficient, sign-adjusted for the shift
      double bound;  // the bound shifted against
      bool at_upper;
      bool integer;  // t_j integral at every integer-feasible point
    };
    std::vector<NbCol> nb;
    double beta_shifted = beta;
    bool usable = true;
    for (int col = 0; col < n + m; ++col) {
      if (col == b) continue;
      if (lp_solver.column_status(col) == kBasic) continue;
      const double a = alpha[col];
      bool integer = false;
      double lo, hi;
      if (col < n) {
        lo = global_lb[col];
        hi = global_ub[col];
        integer = model.variable(col).type == VarType::kInteger;
      } else {
        lo = lp_solver.tableau_column_lower(col);
        hi = lp_solver.tableau_column_upper(col);
      }
      if (hi - lo < kFixedTol) continue;  // fixed column: t == 0 everywhere
      const bool at_upper = lp_solver.column_status(col) == 1;
      const double bound = at_upper ? hi : lo;
      if (!std::isfinite(bound)) {
        usable = false;
        break;
      }
      // t_j integrality needs both the variable and the shift bound
      // integral (x integer minus integer bound).
      integer = integer && std::floor(bound) == bound;
      beta_shifted -= a * bound;
      nb.push_back({col, at_upper ? -a : a, bound, at_upper, integer});
    }
    if (!usable) continue;
    const double f0 = beta_shifted - std::floor(beta_shifted);
    if (f0 < kAway || f0 > 1.0 - kAway) continue;

    // Pass 2: Gomory mixed-integer cut  sum g_j t_j >= f0  translated back
    // to structural space (t -> x shift; slack t -> original_rows
    // substitution s_r = rhs_r - a_r.x). Collected as sum c_v x_v >= K.
    std::fill(coeff.begin(), coeff.end(), 0.0);
    for (const int v : touched) in_touched[v] = 0;
    touched.clear();
    double K = f0;
    auto add_coeff = [&](int v, double c) {
      // Membership must not key on coeff[v] == 0.0: a variable whose
      // running sum transiently cancels to exact zero and then receives
      // another contribution would be pushed twice, and the cleanup pass
      // below would emit its term twice — doubling the coefficient in the
      // finished cut (an invalid cut; the separator fuzzer catches this).
      if (c != 0.0 && !in_touched[v]) {
        in_touched[v] = 1;
        touched.push_back(v);
      }
      coeff[v] += c;
    };
    for (const NbCol& c : nb) {
      const double g = gomory_coeff(c.a, c.integer, f0);
      if (g == 0.0) continue;
      // g applies to t = sign (z - bound) with sign = -1 at upper bound.
      const double sign = c.at_upper ? -1.0 : 1.0;
      if (c.col < n) {
        add_coeff(c.col, g * sign);
        K += g * sign * c.bound;
      } else {
        // Slack bound is always 0, so g t = g sign s_r.
        if (rows.empty()) lp_solver.original_rows(rows, rows_rhs);
        const int r = c.col - n;
        const double cs = g * sign;
        for (const Term& t : rows[r]) add_coeff(t.var, -cs * t.coeff);
        K -= cs * rows_rhs[r];
      }
    }

    // Cleanup + quality gates on the >=-form cut  sum c_v x_v >= K.
    // Dropping a tiny coefficient relaxes K by the worst case of the
    // dropped term over the variable's global box (needs finite bounds).
    double max_abs = 0.0, min_abs = std::numeric_limits<double>::infinity();
    std::vector<Term> terms;
    usable = true;
    for (const int v : touched) {
      const double c = coeff[v];
      if (std::abs(c) < kCoeffDrop) {
        if (c == 0.0) continue;
        const double lo = global_lb[v], hi = global_ub[v];
        if (!std::isfinite(lo) || !std::isfinite(hi)) {
          usable = false;
          break;
        }
        K -= std::max(c * lo, c * hi);
        continue;
      }
      terms.push_back({v, c});
      max_abs = std::max(max_abs, std::abs(c));
      min_abs = std::min(min_abs, std::abs(c));
    }
    if (!usable || terms.empty()) continue;
    if (max_abs / min_abs > kMaxDynamism) continue;
    if (max_abs > kMaxMagnitude || std::abs(K) > kMaxMagnitude) continue;
    if (static_cast<int>(terms.size()) > std::max(8, (3 * n) / 4)) continue;

    // Normalize by a power of two (exact) and negate into the pool's
    // <=-convention; a hair of rhs slack absorbs factorization-level error
    // in the tableau row. add_rows() re-scales the row via row_scale_for
    // when lp_scaling is active, so no scaling work is needed here.
    const double inv = 1.0 / lp::snap_pow2(max_abs);
    Cut cut;
    cut.cut_class = CutClass::kGomory;
    cut.terms.reserve(terms.size());
    for (Term& t : terms) cut.terms.push_back({t.var, -t.coeff * inv});
    std::sort(cut.terms.begin(), cut.terms.end(),
              [](const Term& a, const Term& b) { return a.var < b.var; });
    cut.rhs = -K * inv;
    cut.rhs += 1e-9 * (1.0 + std::abs(cut.rhs));
    const double viol = cut.violation(x);
    if (viol <= min_violation) continue;
    cuts.push_back(std::move(cut));
    violations.push_back(viol);
  }

  // Best violation first, capped.
  std::vector<int> order(cuts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return violations[a] > violations[b];
  });
  if (static_cast<int>(order.size()) > max_cuts) order.resize(max_cuts);
  std::vector<Cut> best;
  best.reserve(order.size());
  for (const int idx : order) best.push_back(std::move(cuts[idx]));
  return best;
}

// ---------------------------------------------------------------------------
// Lifted odd-cycle cuts
// ---------------------------------------------------------------------------

std::vector<Cut> separate_odd_cycle_cuts(const ConflictGraph& graph,
                                         const std::vector<double>& x,
                                         double min_violation, int max_cuts) {
  std::vector<Cut> out;
  const int nvar = graph.num_variables();
  const int nlit = 2 * nvar;
  if (max_cuts <= 0 || nlit == 0 || graph.num_edges() == 0) return out;

  auto weight = [&](int l) {
    const double v = x[ConflictGraph::lit_var(l)];
    const double w = ConflictGraph::lit_val(l) ? v : 1.0 - v;
    return std::min(1.0, std::max(0.0, w));
  };
  // Edge cost (1 - w_u - w_v)/2, clamped at 0: an odd closed walk of total
  // cost < 1/2 is exactly a violated odd-cycle inequality (each vertex
  // appears in two edges, so the cycle's cost is |C|/2 - sum w).
  auto cost = [&](int u, int v) {
    return std::max(0.0, (1.0 - weight(u) - weight(v)) * 0.5);
  };

  // Start literals: fractional, strongest first, capped (each start is one
  // Dijkstra run over the double cover).
  std::vector<int> starts;
  for (int l = 0; l < nlit; ++l) {
    const double w = weight(l);
    if (w > 0.1 && w < 0.9 && !graph.neighbors(l).empty()) starts.push_back(l);
  }
  std::sort(starts.begin(), starts.end(),
            [&](int a, int b) { return weight(a) > weight(b); });
  if (starts.size() > 64) starts.resize(64);

  // Double cover: vertex 2l + parity; crossing an edge flips parity, so a
  // shortest (s,0) -> (s,1) path is a minimum-cost odd closed walk at s.
  const int nv = 2 * nlit;
  std::vector<double> dist(nv);
  std::vector<int> parent(nv);
  std::vector<std::vector<int>> seen_cycles;
  std::vector<double> violations;

  for (const int s : starts) {
    std::fill(dist.begin(), dist.end(),
              std::numeric_limits<double>::infinity());
    std::fill(parent.begin(), parent.end(), -1);
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    const int src = 2 * s, dst = 2 * s + 1;
    dist[src] = 0.0;
    pq.push({0.0, src});
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u] + 1e-15) continue;
      if (u == dst) break;
      const int ul = u >> 1, up = u & 1;
      for (const int vl : graph.neighbors(ul)) {
        const int v = 2 * vl + (up ^ 1);
        const double nd = d + cost(ul, vl);
        if (nd < dist[v] - 1e-15) {
          dist[v] = nd;
          parent[v] = u;
          pq.push({nd, v});
        }
      }
    }
    if (dist[dst] >= 0.5) continue;  // no violated odd walk through s

    // Walk the path back: the closed walk is s -> l1 -> ... -> l_{k-1} -> s
    // with k edges, so the pushed literals [s, l_{k-1}, ..., l1] are the
    // cycle. Keep only simple odd cycles over distinct variables (the
    // inequality needs pairwise-distinct variables).
    std::vector<int> cycle;
    bool simple = true;
    int u = dst;
    while (u != src && u != -1) {
      cycle.push_back(u >> 1);
      u = parent[u];
    }
    if (u != src) continue;  // broken parent chain
    if (cycle.size() < 3 || cycle.size() % 2 == 0) continue;
    std::vector<int> vars;
    for (const int l : cycle) vars.push_back(ConflictGraph::lit_var(l));
    std::sort(vars.begin(), vars.end());
    for (std::size_t i = 1; i < vars.size(); ++i)
      if (vars[i] == vars[i - 1]) simple = false;
    if (!simple) continue;

    std::vector<int> key = cycle;
    std::sort(key.begin(), key.end());
    bool duplicate = false;
    for (const std::vector<int>& k : seen_cycles)
      if (k == key) duplicate = true;
    if (duplicate) continue;
    seen_cycles.push_back(std::move(key));

    // Sequential (conservative) lifting: a literal of a NEW variable in
    // conflict with the entire current support joins with the hub
    // coefficient (|C|-1)/2 — at most one hub can be true (hubs are
    // pairwise adjacent), and a true hub forces every cycle literal to 0.
    const double hub = static_cast<double>(cycle.size() - 1) / 2.0;
    std::vector<int> support = cycle;
    std::vector<int> lifted;
    std::vector<int> cands(graph.neighbors(cycle[0]).begin(),
                           graph.neighbors(cycle[0]).end());
    std::sort(cands.begin(), cands.end(),
              [&](int a, int b) { return weight(a) > weight(b); });
    for (const int cand : cands) {
      if (weight(cand) < 0.05) break;  // sorted: the rest are weaker
      const int cv = ConflictGraph::lit_var(cand);
      bool ok = true;
      for (const int l : support) {
        if (ConflictGraph::lit_var(l) == cv ||
            !graph.conflicts_with(cand, l)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      lifted.push_back(cand);
      support.push_back(cand);
    }

    // Translate to x-space: coefficient 1 per cycle literal, `hub` per
    // lifted literal; a complement literal folds a negated coefficient and
    // shifts the rhs (same convention as clique_cut_from_literals).
    Cut cut;
    cut.cut_class = CutClass::kOddCycle;
    cut.rhs = hub;
    auto add_literal = [&cut](int l, double c) {
      if (ConflictGraph::lit_val(l)) {
        cut.terms.push_back({ConflictGraph::lit_var(l), c});
      } else {
        cut.terms.push_back({ConflictGraph::lit_var(l), -c});
        cut.rhs -= c;
      }
    };
    for (const int l : cycle) add_literal(l, 1.0);
    for (const int l : lifted) add_literal(l, hub);
    std::sort(cut.terms.begin(), cut.terms.end(),
              [](const Term& a, const Term& b) { return a.var < b.var; });
    const double viol = cut.violation(x);
    if (viol <= min_violation) continue;
    out.push_back(std::move(cut));
    violations.push_back(viol);
  }

  std::vector<int> order(out.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return violations[a] > violations[b];
  });
  if (static_cast<int>(order.size()) > max_cuts) order.resize(max_cuts);
  std::vector<Cut> best;
  best.reserve(order.size());
  for (const int idx : order) best.push_back(std::move(out[idx]));
  return best;
}

// ---------------------------------------------------------------------------
// CutPool
// ---------------------------------------------------------------------------

std::uint64_t CutPool::hash_cut(const Cut& cut) {
  // FNV-1a over the sorted terms and the rhs bit patterns.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const Term& t : cut.terms) {
    mix(static_cast<std::uint64_t>(t.var));
    std::uint64_t bits;
    std::memcpy(&bits, &t.coeff, sizeof(bits));
    mix(bits);
  }
  std::uint64_t bits;
  std::memcpy(&bits, &cut.rhs, sizeof(bits));
  mix(bits);
  return h;
}

bool CutPool::add(Cut cut) {
  const std::uint64_t h = hash_cut(cut);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (hashes_[i] != h) continue;
    const Cut& other = entries_[i].cut;
    if (other.terms.size() == cut.terms.size() &&
        std::abs(other.rhs - cut.rhs) < kBoundEps &&
        std::equal(other.terms.begin(), other.terms.end(), cut.terms.begin(),
                   [](const Term& a, const Term& b) {
                     return a.var == b.var &&
                            std::abs(a.coeff - b.coeff) < kBoundEps;
                   })) {
      entries_[i].lives = 3;  // re-separated: the cut is active again
      return false;
    }
  }
  if (static_cast<int>(entries_.size()) >= max_size_) {
    // Evict the unapplied entry with the fewest lives left.
    int victim = -1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].applied) continue;
      if (victim < 0 || entries_[i].lives < entries_[victim].lives)
        victim = static_cast<int>(i);
    }
    if (victim < 0) return false;  // every pooled cut is an LP row already
    // Capacity replacement, deliberately not counted in aged_out_: that
    // stat tracks inactivity evictions only.
    entries_[victim] = Entry{std::move(cut), 3, false};
    hashes_[victim] = h;
    return true;
  }
  entries_.push_back(Entry{std::move(cut), 3, false});
  hashes_.push_back(h);
  return true;
}

bool CutPool::restore_applied(Cut cut) {
  const std::uint64_t h = hash_cut(cut);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (hashes_[i] != h) continue;
    Entry& e = entries_[i];
    if (e.cut.terms.size() == cut.terms.size() &&
        std::abs(e.cut.rhs - cut.rhs) < kBoundEps &&
        std::equal(e.cut.terms.begin(), e.cut.terms.end(), cut.terms.begin(),
                   [](const Term& a, const Term& b) {
                     return a.var == b.var &&
                            std::abs(a.coeff - b.coeff) < kBoundEps;
                   })) {
      if (e.applied) return false;
      e.applied = true;
      applied_.push_back(e.cut);
      return true;
    }
  }
  // Applied entries are never evicted (they live as LP rows), so restoring
  // past max_size_ is deliberate — the rows existed in the interrupted run.
  entries_.push_back(Entry{cut, 3, true});
  hashes_.push_back(h);
  applied_.push_back(std::move(cut));
  return true;
}

std::vector<Cut> CutPool::take_violated(const std::vector<double>& x,
                                        double min_violation, int max_cuts) {
  struct Candidate {
    double efficacy;  // violation / ||a||: distance the cut pushes the point
    int index;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < entries_.size();) {
    Entry& e = entries_[i];
    if (e.applied) {
      ++i;
      continue;
    }
    const double v = e.cut.violation(x);
    if (v > min_violation) {
      double norm2 = 0.0;
      for (const Term& t : e.cut.terms) norm2 += t.coeff * t.coeff;
      candidates.push_back(
          Candidate{v / std::sqrt(std::max(norm2, 1.0)),
                    static_cast<int>(i)});
      ++i;
    } else if (--e.lives <= 0) {
      // Aged out. Swap-remove: recorded candidate indices stay valid (they
      // are all < i and only position i and the tail change); the entry
      // brought forward is unvisited, so i does not advance.
      entries_[i] = std::move(entries_.back());
      entries_.pop_back();
      hashes_[i] = hashes_.back();
      hashes_.pop_back();
      ++aged_out_;
    } else {
      ++i;
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.efficacy > b.efficacy;
                   });

  // Greedy efficacy-ordered selection with an orthogonality filter: a cut
  // whose variable support mostly repeats an already-taken cut's adds a
  // near-parallel (and degeneracy-feeding) row for little extra bound, so
  // it stays pooled for a later round instead.
  std::vector<Cut> taken;
  std::vector<const Cut*> kept;
  for (const Candidate& c : candidates) {
    if (static_cast<int>(taken.size()) >= max_cuts) break;
    const Cut& cut = entries_[c.index].cut;
    bool parallel = false;
    for (const Cut* k : kept) {
      std::size_t overlap = 0, ai = 0, bi = 0;
      while (ai < cut.terms.size() && bi < k->terms.size()) {
        if (cut.terms[ai].var == k->terms[bi].var) {
          ++overlap;
          ++ai;
          ++bi;
        } else if (cut.terms[ai].var < k->terms[bi].var) {
          ++ai;
        } else {
          ++bi;
        }
      }
      const std::size_t smaller = std::min(cut.terms.size(), k->terms.size());
      if (overlap * 10 >= smaller * 8) {  // >= 80% of the smaller support
        parallel = true;
        break;
      }
    }
    if (parallel) continue;
    entries_[c.index].applied = true;
    applied_.push_back(cut);
    taken.push_back(cut);
    kept.push_back(&entries_[c.index].cut);  // entries_ is stable here
  }
  return taken;
}

int CutPool::num_pooled() const { return static_cast<int>(entries_.size()); }

std::size_t CutPool::approx_bytes() const {
  std::size_t bytes = entries_.capacity() * sizeof(Entry) +
                      hashes_.capacity() * sizeof(std::uint64_t) +
                      applied_.capacity() * sizeof(Cut);
  for (const Entry& e : entries_)
    bytes += e.cut.terms.capacity() * sizeof(lp::Term);
  for (const Cut& c : applied_)
    bytes += c.terms.capacity() * sizeof(lp::Term);
  return bytes;
}

}  // namespace advbist::ilp
