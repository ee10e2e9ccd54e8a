// Cutting planes for the 0/1-dominated MILPs of the BIST formulation.
//
// Four separators, all producing globally valid <=-rows (they never exclude
// an integer-feasible point, so cuts can be shared freely between branch &
// bound workers and separated from any node's fractional LP point):
//
//  * Clique cuts from the conflict graph (see ilp/conflict_graph.hpp):
//    sum of the clique's literals <= 1, translated back to variable space
//    (a complement literal 1 - x folds a -1 coefficient and shifts the rhs).
//
//  * Lifted knapsack cover cuts on <=-rows: complementing negative
//    coefficients turns a row into  sum a_j y_j <= b  with a_j > 0 over
//    binary y_j in {x_j, 1 - x_j}; a greedy minimal cover C with
//    sum_{C} a_j > b yields  sum_{C} y_j <= |C| - 1, lifted by extension
//    with every variable whose weight reaches max_{C} a_j (any |C|-subset
//    of the extension outweighs C, so the bound survives). >=-rows are
//    negated first; equality rows contribute both sides.
//
//  * Gomory mixed-integer cuts read straight off the LU factors: one BTRAN
//    per fractional integer basic gives the tableau row
//    (SimplexSolver::tableau_row, original units), nonbasics are shifted to
//    their GLOBAL bounds (so the cut is valid everywhere, not just in the
//    separating node's subtree), the mixed-integer rounding function
//    strengthens integer columns, and slacks are substituted back out via
//    original_rows(). Cuts above a dynamism/density threshold are rejected;
//    coefficients are normalized by a power-of-two factor so the pooled
//    cut stays well-scaled whether or not lp_scaling is active.
//
//  * Lifted odd-cycle cuts from the conflict graph: an odd cycle C of
//    literals (pairwise-distinct variables) satisfies
//    sum_{l in C} w_l <= (|C|-1)/2 at every 0/1 point, where w_l is the
//    literal's value. Violated cycles are found by shortest-path search in
//    the bipartite double cover of the literal graph (edge cost
//    max(0, (1 - w_u - w_v)/2); an odd closed walk of cost < 1/2 is a
//    violated cycle), then sequentially lifted: a literal in conflict with
//    the entire current support joins with the hub coefficient (|C|-1)/2.
//
// The CutPool deduplicates cuts structurally (sorted term vector + rhs) and
// ages them by activity: a pooled-but-unapplied cut that stays slack at the
// fractional points it is re-evaluated against loses a life per round and
// is evicted at zero, so the pool holds the cuts that keep separating, not
// everything ever found.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace advbist::lp {
class SimplexSolver;
}

namespace advbist::ilp {

class ConflictGraph;

enum class CutClass : std::uint8_t { kClique, kCover, kGomory, kOddCycle };

struct Cut {
  std::vector<lp::Term> terms;  ///< sorted by var, unique, nonzero
  double rhs = 0.0;             ///< sense is always <=
  CutClass cut_class = CutClass::kClique;

  /// Activity a'x at a point (terms only; compare against rhs).
  [[nodiscard]] double activity(const std::vector<double>& x) const;
  /// Violation at a point: activity - rhs (positive = cut off).
  [[nodiscard]] double violation(const std::vector<double>& x) const {
    return activity(x) - rhs;
  }
};

/// Translates a clique literal set (see ConflictGraph::separate_cliques)
/// into a <=-cut over the variables.
[[nodiscard]] Cut clique_cut_from_literals(const std::vector<int>& literals);

/// Separates violated lifted cover cuts from the <=-/>=-/equality rows of
/// `model` at fractional point `x`. Rows flagged in `skip_row` (when
/// non-empty) and rows with non-binary unfixed variables are ignored.
/// Returns at most `max_cuts` cuts with violation > min_violation,
/// best first.
[[nodiscard]] std::vector<Cut> separate_cover_cuts(
    const lp::Model& model, const std::vector<bool>& skip_row,
    const std::vector<double>& x, double min_violation, int max_cuts);

/// Separates Gomory mixed-integer cuts from the optimal basis held by
/// `lp_solver` (which must have just solved `model`'s current LP to
/// optimality — the tableau rows are read off its LU factors). `x` is the
/// LP point over the structural variables; `global_lb`/`global_ub` are the
/// GLOBALLY valid integer-variable bounds (root bounds plus broadcast
/// fixings, NOT node-local branching bounds): nonbasic structurals are
/// shifted against these so the resulting cut never excludes an
/// integer-feasible point of the original model. Returns at most
/// `max_cuts` cuts with violation > min_violation at `x`, best first.
[[nodiscard]] std::vector<Cut> separate_gomory_cuts(
    const lp::SimplexSolver& lp_solver, const lp::Model& model,
    const std::vector<double>& x, const std::vector<double>& global_lb,
    const std::vector<double>& global_ub, double min_violation, int max_cuts);

/// Separates lifted odd-cycle cuts from the conflict graph at fractional
/// point `x`. Returns at most `max_cuts` cuts with violation >
/// min_violation, best first.
[[nodiscard]] std::vector<Cut> separate_odd_cycle_cuts(
    const ConflictGraph& graph, const std::vector<double>& x,
    double min_violation, int max_cuts);

/// Cut-pool capacity: least-active unapplied cuts are evicted beyond it.
inline constexpr int kMaxPoolCuts = 1024;

/// Deduplicating cut pool with activity aging. Not thread-safe; the solver
/// serializes access under its search mutex.
class CutPool {
 public:
  explicit CutPool(int max_size = kMaxPoolCuts) : max_size_(max_size) {}

  /// Adds a cut unless a structurally identical one is already pooled.
  /// Returns true if the cut was new.
  bool add(Cut cut);

  /// Re-evaluates every pooled, not-yet-applied cut at `x`: violated ones
  /// are returned (best violation first, at most `max_cuts`) and marked
  /// applied; slack ones lose a life and are evicted at zero. Applied cuts
  /// are never aged out — they live as LP rows.
  [[nodiscard]] std::vector<Cut> take_violated(const std::vector<double>& x,
                                               double min_violation,
                                               int max_cuts);

  /// Cuts applied so far, in application order (workers replay this list
  /// into their own LPs; it only ever grows).
  [[nodiscard]] const std::vector<Cut>& applied() const { return applied_; }

  /// Checkpoint restore: inserts `cut` directly as an APPLIED row (workers
  /// replay the applied list, so the restored cut reaches every LP). A
  /// structurally identical pooled cut is promoted instead of duplicated;
  /// an already-applied duplicate is a no-op. Returns true when the
  /// applied list grew.
  bool restore_applied(Cut cut);

  [[nodiscard]] int num_pooled() const;
  [[nodiscard]] long long aged_out() const { return aged_out_; }

  /// Approximate heap footprint of the pooled + applied cuts, reported to
  /// the solve controller's cooperative memory accounting.
  [[nodiscard]] std::size_t approx_bytes() const;

 private:
  struct Entry {
    Cut cut;
    int lives = 3;
    bool applied = false;
  };
  [[nodiscard]] static std::uint64_t hash_cut(const Cut& cut);

  int max_size_;
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> hashes_;  // parallel to entries_
  std::vector<Cut> applied_;
  long long aged_out_ = 0;
};

}  // namespace advbist::ilp
