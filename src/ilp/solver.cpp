#include "ilp/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <memory>
#include <optional>
#include <thread>

#include "ilp/checkpoint.hpp"
#include "ilp/conflict_graph.hpp"
#include "ilp/cuts.hpp"
#include "ilp/presolve.hpp"
#include "ilp/pseudocost.hpp"
#include "ilp/tolerances.hpp"
#include "lp/sanitizer.hpp"
#include "lp/simplex.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "util/logging.hpp"
#include "util/solve_controller.hpp"
#include "util/stopwatch.hpp"

namespace advbist::ilp {

using lp::ConstraintDef;
using lp::LpResult;
using lp::LpStatus;
using lp::Model;
using lp::Sense;
using lp::SimplexSolver;
using lp::VarType;

double Solution::gap() const {
  if (status == SolveStatus::kOptimal) return 0.0;
  if (!has_solution()) return lp::kInfinity;
  const double denom = std::max(1.0, std::abs(objective));
  return (objective - stats.best_bound) / denom;
}

long long Solution::value_as_int(int var) const {
  ADVBIST_REQUIRE(has_solution(), "no incumbent solution");
  ADVBIST_REQUIRE(var >= 0 && var < static_cast<int>(values.size()),
                  "variable index");
  return std::llround(values[var]);
}

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kFeasible: return "feasible (limit)";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kNoSolutionFound: return "no solution (limit)";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kTimeLimit: return "time limit";
    case SolveStatus::kCancelled: return "cancelled";
    case SolveStatus::kMemoryLimit: return "memory limit";
    case SolveStatus::kInvalidModel: return "invalid model";
  }
  return "?";
}

namespace {

struct BoundChange {
  int var;
  double lower;
  double upper;
};

struct Node {
  std::vector<BoundChange> changes;  ///< relative to root bounds
  double parent_bound;               ///< LP bound inherited from parent
  int depth = 0;
  // Pseudocost bookkeeping: the branching that created this node. When its
  // LP is solved, the observed objective degradation per unit of bound
  // movement feeds the branching-variable statistics.
  int branch_var = -1;       ///< variable branched on (-1: root)
  bool branch_up = false;    ///< true: the x >= ceil child
  double branch_dist = 0.0;  ///< |bound movement| of the branching
  double parent_obj = 0.0;   ///< parent's raw LP objective
  /// id_ of the worker that published this node as a far child; -1 for the
  /// root, resumed-frontier and stop-returned nodes.
  int owner = -1;
};

/// How far back from the pool's end a worker looks for the newest node it
/// published itself (see Worker::take).
constexpr std::size_t kAffinityWindow = 64;

/// A reduced-cost (or probing) domain restriction broadcast to workers
/// after the search started. Only ever tightens.
struct Fixing {
  int var;
  double lower;
  double upper;
};

/// Simplex iteration cap of one strong-branching or reliability probe
/// re-solve; a probe that runs out records nothing. Fixed, not a knob.
constexpr int kProbeLpIters = 200;

/// True when some integer variable of `x` lies farther than
/// kIntegralityTol from an integer.
bool has_fractional(const Model& model, const std::vector<double>& x) {
  for (int v = 0; v < model.num_variables(); ++v) {
    if (model.variable(v).type != VarType::kInteger) continue;
    const double frac = x[v] - std::floor(x[v]);
    if (std::min(frac, 1.0 - frac) > kIntegralityTol) return true;
  }
  return false;
}

/// Rounds every integer variable of `x` to its nearest integer.
void round_integers(const Model& model, std::vector<double>& x) {
  for (int v = 0; v < model.num_variables(); ++v)
    if (model.variable(v).type == VarType::kInteger) x[v] = std::round(x[v]);
}

/// Approximate heap footprint of one pooled node, for the controller's
/// cooperative memory accounting.
std::size_t node_bytes(const Node& node) {
  return sizeof(Node) + node.changes.capacity() * sizeof(BoundChange);
}

int resolve_num_threads(int requested) {
  // Only exactly 0 means auto; negative values (unset sentinels, parse
  // slips) fall back to serial rather than silently going wide.
  if (requested < 0) return 1;
  int n = requested;
  if (n == 0) n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 64);
}

/// State shared by every worker of one tree search. The node pool, the
/// incumbent vector, the cut pool and the termination bookkeeping live
/// under one mutex; the cutoff is additionally mirrored in an atomic so
/// pruning tests never take the lock.
struct SearchContext {
  // --- immutable during the search ---
  const Model* model = nullptr;    ///< presolved working model (branching)
  const Model* cut_model = nullptr;  ///< LP model + root cuts (cover source)
  const ConflictGraph* graph = nullptr;  ///< clique + odd-cycle source
  const Options* options = nullptr;
  std::vector<double> root_lb, root_ub;  ///< incl. probing + root rc fixing
  bool integral_obj = false;
  int num_workers = 1;
  std::size_t root_applied_cuts = 0;  ///< pool cuts already rows of cut_model
  util::Stopwatch watch;

  // --- node pool and termination (guarded by mutex) ---
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Node> pool;
  long long pops_since_resort = 0;
  long long stolen_nodes = 0;  ///< pops of another worker's published node
  int idle_workers = 0;
  bool done = false;  ///< pool drained with every worker idle
  bool stop = false;  ///< limit hit / unbounded root: abandon the search

  // --- live checkpoint capture (periodic writer; guarded by mutex) ---
  // With track_current set, each worker mirrors the node it took into its
  // current_nodes slot INSIDE take()'s critical section, so at any instant
  // pool + slots cover every unexplored region (a slot may additionally
  // cover already-published children — redundant, never missing). Off by
  // default: zero cost unless periodic checkpointing is configured.
  bool track_current = false;
  std::vector<std::optional<Node>> current_nodes;  ///< one slot per worker
  std::atomic<int> next_worker_id{0};

  // --- shared pseudocosts (lock-free atomics; see PseudocostStore) ---
  PseudocostStore* pseudocosts = nullptr;

  // --- cut pool (guarded by mutex) ---
  CutPool* cut_pool = nullptr;
  std::atomic<std::size_t> pool_applied{0};  ///< mirror of applied().size()
  std::atomic<long long> clique_separated{0};
  std::atomic<long long> cover_separated{0};
  std::atomic<long long> gomory_separated{0};
  std::atomic<long long> odd_cycle_separated{0};

  // --- in-tree reliability branching (shared probe budget + accounting) ---
  std::atomic<long long> reliability_budget{0};
  std::atomic<long long> reliability_probed{0};
  std::atomic<int> reliability_fixed{0};
  std::atomic<int> reliability_tightened{0};

  // --- incumbent ---
  std::atomic<double> cutoff{lp::kInfinity};
  std::vector<double> incumbent;        ///< guarded by mutex
  double dropped_bound = lp::kInfinity;  // min over dropped nodes (guarded)

  // --- reduced-cost fixing (root LP certificate; immutable post-root) ---
  bool root_rc_valid = false;
  double root_obj = -lp::kInfinity;
  std::vector<double> root_x, root_d;
  // Current globally tightened bounds + broadcast log (guarded by mutex;
  // num_fixings is the lock-free "anything new?" hint).
  std::vector<double> rc_lb, rc_ub;
  std::vector<Fixing> fixings;
  std::atomic<std::size_t> num_fixings{0};
  int rc_fixed_incumbent = 0;  // guarded

  // --- LP factorization counters, summed as workers retire (guarded) ---
  lp::SimplexSolver::Stats lp_stats;
  bool lp_scaling_active = false;  // any worker LP engaged scaling (guarded)

  // --- accounting ---
  std::atomic<long long> nodes{0};
  std::atomic<long long> lp_iterations{0};
  std::atomic<long long> dropped_nodes{0};
  std::atomic<bool> exhausted{true};
  std::atomic<bool> root_unbounded{false};

  // --- solve lifecycle (deadline / cancel / budgets; see SolveController) ---
  util::SolveController* controller = nullptr;
  // Soft memory pressure sheds optional work before the hard stop: cut
  // separation and diving switch off, the pool re-sort (best-bound bias)
  // pauses so the search drains depth-first. Sticky once set.
  std::atomic<bool> shed_cuts{false};
  std::atomic<bool> shed_diving{false};
  std::size_t cut_pool_bytes = 0;  ///< gauge mirror of the pool (guarded)

  /// Re-reports the cut pool's footprint to the controller. Caller holds
  /// the mutex (or is the only thread).
  void update_cut_pool_bytes(std::size_t now) {
    if (now > cut_pool_bytes)
      controller->reserve(now - cut_pool_bytes);
    else
      controller->release(cut_pool_bytes - now);
    cut_pool_bytes = now;
  }

  // First worker exception (guarded by mutex); rethrown on the main thread.
  std::exception_ptr failure;

  [[nodiscard]] double node_bound(double lp_obj) const {
    return integral_obj ? std::ceil(lp_obj - kIntEps) : lp_obj;
  }
  [[nodiscard]] bool prunable(double bound) const {
    const double cut = cutoff.load(std::memory_order_relaxed);
    if (!std::isfinite(cut)) return false;
    return integral_obj ? bound >= cut - 0.5 : bound >= cut - kBoundEps;
  }
  /// Objective threshold a solution must beat to be worth keeping; the
  /// basis of every reduced-cost fixing decision.
  [[nodiscard]] double improvement_threshold(double cut) const {
    return integral_obj ? cut - 0.5 : cut - kBoundEps;
  }

  /// Reduced-cost domain tightening against the root LP certificate
  /// (z_root, d, x_root): any solution better than the threshold satisfies
  /// d_v * (x_v - x_root_v) < threshold - z_root for every variable.
  /// Appends newly implied restrictions to the fixing log. Caller holds
  /// the mutex (or is the only thread).
  int rc_fix_against(double cut) {
    if (!root_rc_valid) return 0;
    const double gap = improvement_threshold(cut) - root_obj;
    if (!std::isfinite(gap)) return 0;
    int tightened = 0;
    const Model& m = *model;
    for (int v = 0; v < m.num_variables(); ++v) {
      if (m.variable(v).type != VarType::kInteger) continue;
      if (rc_lb[v] >= rc_ub[v]) continue;  // already fixed
      const double d = root_d[v];
      double lo = rc_lb[v], hi = rc_ub[v];
      // The epsilon rounds towards KEEPING values (like presolve's
      // ceil(lo - eps)): LP round-off in the cap may only weaken a fixing,
      // never exclude an integer value the certificate permits.
      if (d > 1e-7) {
        const double cap = std::floor(root_x[v] + gap / d + kIntEps);
        hi = std::min(hi, cap);
      } else if (d < -1e-7) {
        const double cap = std::ceil(root_x[v] + gap / d - kIntEps);
        lo = std::max(lo, cap);
      }
      if (lo > hi) continue;  // no improving solution at all; search decides
      if (lo > rc_lb[v] + kBoundEps || hi < rc_ub[v] - kBoundEps) {
        rc_lb[v] = lo;
        rc_ub[v] = hi;
        fixings.push_back(Fixing{v, lo, hi});
        ++tightened;
      }
    }
    if (tightened > 0)
      num_fixings.store(fixings.size(), std::memory_order_release);
    return tightened;
  }

  /// Installs a candidate incumbent (single writer section; the atomic
  /// cutoff mirror keeps lock-free pruning reads consistent, and turns a
  /// non-improving offer away without the lock). An improved cutoff re-runs
  /// reduced-cost fixing against the root certificate.
  void offer_incumbent(double objective, std::vector<double> values) {
    if (objective >= cutoff.load(std::memory_order_relaxed) - kObjImproveEps)
      return;
    std::lock_guard<std::mutex> lock(mutex);
    if (objective < cutoff.load(std::memory_order_relaxed) - kObjImproveEps) {
      cutoff.store(objective, std::memory_order_relaxed);
      incumbent = std::move(values);
      if (options->use_rc_fixing)
        rc_fixed_incumbent += rc_fix_against(objective);
    }
  }

  /// Rounding heuristic: offers `x` with its integers rounded when that
  /// point is feasible.
  void offer_rounded(std::vector<double> x) {
    round_integers(*model, x);
    if (model->max_violation(x, true) > kActivityEps) return;
    const double obj = model->objective_value(x);
    offer_incumbent(obj, std::move(x));
  }

  /// One separation round at the LP point `x`, the root's and every
  /// worker's: clique, cover and odd-cycle cuts, then with `gomory` Gomory
  /// MI cuts read off `lp`, which must have just solved `x` to optimality.
  /// Gomory shifts go against [lb, ub], which must be globally valid (root
  /// bounds plus broadcast fixings, NOT a node's branching bounds) so the
  /// cuts hold pool-wide. Bumps the per-class counters; returns every cut
  /// found, before pool dedup.
  std::vector<Cut> separate(const std::vector<double>& x,
                            const SimplexSolver& lp,
                            const std::vector<double>& lb,
                            const std::vector<double>& ub, bool gomory) {
    const Options& opt = *options;
    const int max_cuts = opt.max_cuts_per_round;
    std::vector<Cut> found;
    const auto keep = [&found](std::vector<Cut> cuts,
                               std::atomic<long long>& counter) {
      counter.fetch_add(static_cast<long long>(cuts.size()));
      for (Cut& c : cuts) found.push_back(std::move(c));
    };
    if (opt.use_clique_cuts) {
      std::vector<Cut> cliques;
      for (const auto& lits :
           graph->separate_cliques(x, kCutViolationEps, max_cuts))
        cliques.push_back(clique_cut_from_literals(lits));
      keep(std::move(cliques), clique_separated);
    }
    if (opt.use_cover_cuts)
      keep(separate_cover_cuts(*cut_model, {}, x, kCutViolationEps, max_cuts),
           cover_separated);
    if (opt.odd_cycle_cuts)
      keep(separate_odd_cycle_cuts(*graph, x, kCutViolationEps, max_cuts),
           odd_cycle_separated);
    if (gomory)
      keep(separate_gomory_cuts(lp, *cut_model, x, lb, ub, kCutViolationEps,
                                max_cuts),
           gomory_separated);
    return found;
  }

  /// One side of a strong-branching or reliability probe on `lp`, warm at
  /// its optimum `base_obj` with x_v = xv: bounds v to the down (x_v <=
  /// floor) or up (x_v >= floor + 1) side of [lo, hi], re-solves by the dual
  /// simplex capped at kProbeLpIters, restores [lo, hi] and, when the probe
  /// is optimal, records its exact per-unit degradation at full reliability
  /// weight. The caller skips an empty side. Capped probes stay out of the
  /// LP's dual_solves/dual_fallbacks warm-start diagnostic (see
  /// SimplexSolver::set_max_iterations).
  LpStatus probe_side(SimplexSolver& lp, int v, bool up, double xv,
                      double base_obj, double lo, double hi) {
    const double fl = std::floor(xv);
    lp.set_variable_bounds(v, up ? fl + 1.0 : lo, up ? hi : fl);
    lp.set_max_iterations(kProbeLpIters);
    const LpResult probe = lp.solve_dual();
    lp.set_max_iterations(lp::SimplexOptions{}.max_iterations);
    lp.set_variable_bounds(v, lo, hi);
    lp_iterations.fetch_add(probe.iterations);
    if (probe.status == LpStatus::kOptimal) {
      const double dist = up ? fl + 1.0 - xv : xv - fl;
      pseudocosts->record(v, up,
                          std::max(0.0, probe.objective - base_obj) /
                              std::max(dist, 1e-9),
                          kPseudocostReliability);
    }
    return probe.status;
  }
};

/// One search worker: a private warm-starting SimplexSolver plus the node it
/// is currently plunging on. Workers share nodes through ctx_.pool — each
/// branching keeps the child nearer the LP value local and publishes the
/// other; when a plunge ends, the worker resumes the newest "far" subtree it
/// published itself and steals another worker's only when it has none — and
/// globally valid cutting planes through ctx_.cut_pool, replaying every cut
/// the pool has applied into their own LP via SimplexSolver::add_rows.
class Worker {
 public:
  Worker(SearchContext& ctx, const Model& reduced)
      : ctx_(ctx),
        reduced_(reduced),
        simplex_(reduced, simplex_options(*ctx.options)),
        id_(ctx.next_worker_id.fetch_add(1, std::memory_order_relaxed)),
        root_lb_(ctx.root_lb),
        root_ub_(ctx.root_ub),
        pool_consumed_(ctx.root_applied_cuts) {
    simplex_.set_controller(ctx.controller);
  }

  ~Worker() {
    // Release the accounted footprint of this worker's appended cut rows
    // (the LP itself is going away with the worker).
    std::size_t row_bytes = 0;
    for (const std::size_t b : lp_row_bytes_) row_bytes += b;
    if (row_bytes > 0) ctx_.controller->release(row_bytes);
    // Fold this worker's factorization counters into the shared totals.
    // Runs on normal retirement and on unwinding alike.
    std::lock_guard<std::mutex> lock(ctx_.mutex);
    ctx_.lp_stats += simplex_.stats();
    if (dive_lp_) ctx_.lp_stats += dive_lp_->stats();
    ctx_.lp_scaling_active |= simplex_.scaling_active();
  }

  static lp::SimplexOptions simplex_options(const Options& opt) {
    lp::SimplexOptions so;
    so.scaling = opt.lp_scaling;
    return so;
  }

  void run() {
    for (;;) {
      std::optional<Node> node = take();
      if (!node) return;
      process(std::move(*node));
    }
  }

 private:
  std::optional<Node> take() {
    std::unique_lock<std::mutex> lock(ctx_.mutex);
    for (;;) {
      if (ctx_.stop || ctx_.done) {
        // Abandoned search: the local node still carries a valid open bound.
        if (local_) {
          ctx_.controller->reserve(node_bytes(*local_));
          ctx_.pool.push_back(std::move(*local_));
          local_.reset();
        }
        if (ctx_.track_current) ctx_.current_nodes[id_].reset();
        return std::nullopt;
      }
      if (local_) {
        Node n = std::move(*local_);
        local_.reset();
        // Mirror the taken node while still holding the lock: a periodic
        // checkpoint capture must see every region that is in neither the
        // pool nor a slot — there is no such window this side of the lock.
        if (ctx_.track_current) ctx_.current_nodes[id_] = n;
        return n;
      }
      if (!ctx_.pool.empty()) {
        // Hybrid node selection: depth-first plunging finds incumbents
        // fast; a periodic re-sort brings the best-bound open node to the
        // top, which closes the proven gap the way best-first search does.
        // Under memory pressure the re-sort pauses: pure DFS drains the
        // pool (and its accounted bytes) fastest.
        bool resorted = false;
        if (++ctx_.pops_since_resort >= 256 && ctx_.pool.size() > 1 &&
            !ctx_.controller->memory_pressure()) {
          ctx_.pops_since_resort = 0;
          std::sort(ctx_.pool.begin(), ctx_.pool.end(),
                    [](const Node& a, const Node& b) {
                      return a.parent_bound > b.parent_bound;  // best at back
                    });
          resorted = true;
        }
        // Worker-affine selection: outside the best-bound pop, a worker
        // resumes the newest node it published itself. That node is the far
        // sibling of a node on its own current path, so apply_node changes
        // few bounds and the warm dual re-solve needs few pivots; another
        // worker's node would start from an unrelated basis.
        std::size_t pick = ctx_.pool.size() - 1;
        if (!resorted && ctx_.num_workers > 1) {
          const std::size_t first =
              ctx_.pool.size() - std::min(ctx_.pool.size(), kAffinityWindow);
          for (std::size_t i = ctx_.pool.size(); i-- > first;)
            if (ctx_.pool[i].owner == id_) {
              pick = i;
              break;
            }
        }
        Node n = std::move(ctx_.pool[pick]);
        ctx_.pool.erase(ctx_.pool.begin() + static_cast<std::ptrdiff_t>(pick));
        if (n.owner >= 0 && n.owner != id_) ++ctx_.stolen_nodes;
        ctx_.controller->release(node_bytes(n));
        if (ctx_.track_current) ctx_.current_nodes[id_] = n;
        return n;
      }
      ++ctx_.idle_workers;
      if (ctx_.idle_workers == ctx_.num_workers) {
        ctx_.done = true;  // every worker idle over an empty pool: finished
        ctx_.cv.notify_all();
        return std::nullopt;
      }
      ctx_.cv.wait(lock, [&] {
        return ctx_.stop || ctx_.done || !ctx_.pool.empty();
      });
      --ctx_.idle_workers;
    }
  }

  /// Flags a limit hit: the search stops but `node` (and every worker's
  /// local node) is returned to the pool so the final best-bound reduction
  /// still sees it.
  void signal_stop(Node node) {
    std::lock_guard<std::mutex> lock(ctx_.mutex);
    ctx_.stop = true;
    ctx_.exhausted = false;
    node.owner = -1;
    ctx_.controller->reserve(node_bytes(node));
    ctx_.pool.push_back(std::move(node));
    ctx_.cv.notify_all();
  }

  /// Pulls reduced-cost fixings broadcast since the last sync into the
  /// local root bounds (and the LP, for variables the current node does
  /// not override).
  void sync_fixings() {
    if (fixings_consumed_ >=
        ctx_.num_fixings.load(std::memory_order_acquire))
      return;
    fresh_fixings_.clear();
    {
      std::lock_guard<std::mutex> lock(ctx_.mutex);
      fresh_fixings_.assign(ctx_.fixings.begin() + fixings_consumed_,
                            ctx_.fixings.end());
      fixings_consumed_ = ctx_.fixings.size();
    }
    for (const Fixing& f : fresh_fixings_) {
      root_lb_[f.var] = std::max(root_lb_[f.var], f.lower);
      root_ub_[f.var] = std::min(root_ub_[f.var], f.upper);
      bool overridden = false;
      for (const BoundChange& bc : applied_)
        if (bc.var == f.var) {
          overridden = true;  // next apply_node intersects for us
          break;
        }
      if (!overridden)
        simplex_.set_variable_bounds(f.var, root_lb_[f.var], root_ub_[f.var]);
    }
  }

  /// Replays cuts the shared pool has applied since the last sync into this
  /// worker's LP (slack-basic row append; no cold start). Each appended
  /// row's approximate footprint is reserved with the controller and
  /// released again when age_cut_rows() deletes it (or the worker retires)
  /// — a long solve must not creep toward the shed threshold on memory
  /// the LP already freed.
  void sync_pool_cuts() {
    if (ctx_.cut_pool == nullptr) return;
    if (pool_consumed_ >= ctx_.pool_applied.load(std::memory_order_acquire))
      return;
    new_rows_.clear();
    {
      std::lock_guard<std::mutex> lock(ctx_.mutex);
      const std::vector<Cut>& applied = ctx_.cut_pool->applied();
      for (std::size_t i = pool_consumed_; i < applied.size(); ++i)
        new_rows_.push_back(ConstraintDef{applied[i].terms, Sense::kLessEqual,
                                          applied[i].rhs, ""});
      pool_consumed_ = applied.size();
    }
    std::size_t added_bytes = 0;
    for (const ConstraintDef& row : new_rows_) {
      const std::size_t b =
          sizeof(ConstraintDef) + row.terms.size() * sizeof(lp::Term);
      lp_row_bytes_.push_back(b);
      added_bytes += b;
    }
    if (added_bytes > 0) ctx_.controller->reserve(added_bytes);
    simplex_.add_rows(new_rows_);
  }

  /// Separates cuts at the fractional point `x`, publishes them through the
  /// pool and appends every newly applied pool cut to the own LP. Returns
  /// the number of cuts the pool applied for this point.
  int separate_at(const std::vector<double>& x) {
    const Options& opt = *ctx_.options;
    std::vector<Cut> found = ctx_.separate(x, simplex_, root_lb_, root_ub_,
                                           opt.gomory_rounds > 0);
    int applied = 0;
    {
      std::lock_guard<std::mutex> lock(ctx_.mutex);
      auto* fi = util::FaultInjector::active();
      for (Cut& c : found) {
        // Fault-injection hook: a refused pool allocation only loses the
        // cut (cuts are optional strengthening, never correctness).
        if (fi != nullptr && fi->fire(util::FaultSite::kCutAlloc)) continue;
        ctx_.cut_pool->add(std::move(c));
      }
      applied = static_cast<int>(
          ctx_.cut_pool
              ->take_violated(x, kCutViolationEps, opt.max_cuts_per_round)
              .size());
      ctx_.pool_applied.store(ctx_.cut_pool->applied().size(),
                              std::memory_order_release);
      ctx_.update_cut_pool_bytes(ctx_.cut_pool->approx_bytes());
    }
    sync_pool_cuts();
    return applied;
  }

  /// One node LP re-solve by the dual simplex (the warm basis stays
  /// dual-feasible across branching bound changes and slack-basic row
  /// appends; lp::SimplexSolver falls back to the primal path itself when
  /// it is not), followed by cut-row aging.
  LpResult resolve_lp() {
    LpResult lp = simplex_.solve_dual();
    if (lp.status == LpStatus::kIterLimit) {
      // A warm re-solve that burned the whole iteration budget is almost
      // always a mangled warm basis (degenerate stalling after bound
      // set/restore churn), not a genuinely hard LP: retry once from the
      // all-slack basis before the caller forfeits the subtree's proof.
      ctx_.lp_iterations.fetch_add(lp.iterations);
      simplex_.invalidate_basis();
      lp = simplex_.solve();
    }
    age_cut_rows();
    return lp;
  }

  /// LP-side cut aging, mirroring the pool's: an appended cut row whose
  /// slack stayed basic (cut not binding) for lp_row_age_limit consecutive
  /// re-solves is deleted from the LP, so FTRAN/BTRAN and refactorizations
  /// stop paying for it. Deletion only ever shrinks this worker's LP; the
  /// shared pool is untouched (the cut stays valid and applied elsewhere).
  void age_cut_rows() {
    const int limit = ctx_.options->lp_row_age_limit;
    if (limit <= 0) return;
    const int added = simplex_.num_added_rows();
    row_age_.resize(added, 0);
    doomed_rows_.clear();
    const int base = simplex_.num_rows() - added;
    for (int i = 0; i < added; ++i) {
      if (simplex_.added_row_slack_basic(i)) {
        if (++row_age_[i] >= limit) doomed_rows_.push_back(base + i);
      } else {
        row_age_[i] = 0;
      }
    }
    if (doomed_rows_.empty()) return;
    simplex_.delete_rows(doomed_rows_);
    std::size_t keep = 0;
    std::size_t next_doomed = 0;
    std::size_t freed_bytes = 0;
    for (int i = 0; i < added; ++i) {
      if (next_doomed < doomed_rows_.size() &&
          doomed_rows_[next_doomed] - base == i) {
        ++next_doomed;
        freed_bytes += lp_row_bytes_[i];
        continue;
      }
      lp_row_bytes_[keep] = lp_row_bytes_[i];
      row_age_[keep++] = row_age_[i];
    }
    row_age_.resize(keep);
    lp_row_bytes_.resize(keep);
    // The deleted rows' accounted footprint is returned immediately — the
    // LP stopped paying for them, so the memory budget stops charging.
    if (freed_bytes > 0) ctx_.controller->release(freed_bytes);
  }

  /// Pseudocost branching: among fractional integers of top priority, pick
  /// the variable with the best product of estimated per-unit objective
  /// degradations (up x down). The estimates come from the SHARED store —
  /// every worker's observed branchings plus the root strong-branching
  /// seed — with a reliability blend towards the global average until a
  /// variable+direction has kPseudocostReliability observations of its
  /// own. Degenerate 0/1 relaxations carry many alternative optima, so
  /// "closest to 0.5" alone is nearly a coin flip — steering by observed
  /// bound movement is what keeps the proven bound climbing.
  int pick_branch(const std::vector<double>& x) {
    const Model& model = *ctx_.model;
    const std::vector<int>& priority = ctx_.options->branch_priority;
    const int n = model.num_variables();
    const PseudocostStore& pc = *ctx_.pseudocosts;
    // The global averages are an O(n) scan over shared atomics; refreshing
    // them every few picks (instead of every pick) keeps the branching
    // hot path off the cross-worker cache lines record() keeps dirtying.
    // Staleness only perturbs the blend for under-observed variables.
    if (--pc_avg_cooldown_ < 0) {
      pc_avg_cooldown_ = 7;
      pc.global_averages(pc_avg_up_, pc_avg_down_);
    }
    const double avg_up = pc_avg_up_;
    const double avg_down = pc_avg_down_;

    int best = -1;
    int best_prio = std::numeric_limits<int>::min();
    double best_score = -1.0;
    for (int v = 0; v < n; ++v) {
      if (model.variable(v).type != VarType::kInteger) continue;
      const double frac = x[v] - std::floor(x[v]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= kIntegralityTol) continue;
      const int prio = priority.empty() ? 0 : priority[v];
      const double est_up =
          pc.estimate(v, true, kPseudocostReliability, avg_up);
      const double est_down =
          pc.estimate(v, false, kPseudocostReliability, avg_down);
      // The product rule, floored so a zero estimate (no data at all, or a
      // genuinely free direction) degrades to most-fractional scoring
      // instead of flattening every candidate to zero.
      const double score = std::max(est_up * (1.0 - frac), 1e-6 * dist) *
                           std::max(est_down * frac, 1e-6 * dist);
      if (prio > best_prio || (prio == best_prio && score > best_score)) {
        best = v;
        best_prio = prio;
        best_score = score;
      }
    }
    return best;
  }

  /// Feeds the observed LP objective degradation of a branched node back
  /// into the shared pseudocosts of the variable that was branched on.
  void record_pseudocost(const Node& node, double lp_obj) {
    if (node.branch_var < 0 || node.branch_dist <= 1e-9) return;
    const double per_unit =
        std::max(0.0, lp_obj - node.parent_obj) / node.branch_dist;
    ctx_.pseudocosts->record(node.branch_var, node.branch_up, per_unit);
  }

  enum class ProbeOutcome { kContinue, kPrune, kStop, kDrop };

  /// In-tree reliability branching: bounded dual-simplex probes on THIS
  /// worker's warm node basis, for fractional candidates still below the
  /// pseudocost reliability threshold. Each probe is
  /// SearchContext::probe_side, the one root strong branching runs, so an
  /// optimal probe feeds the EXACT degradation into the shared store at
  /// full reliability weight. An infeasible probe tightens:
  /// globally (broadcast through the fixing log, like rc fixing) when the
  /// node still sits on the root box, node-locally otherwise — an empty
  /// branch below a branched node proves nothing outside its subtree. The
  /// probes draw on one GLOBAL budget whose per-node allowance decays with
  /// depth (reliability_probe_allowance), so the whole tree shares a fixed
  /// amount of probing and spends it near the root where branching
  /// mistakes are costliest. On kContinue, `lp`, `bound` and `branch_var`
  /// reflect any tightening-driven re-solve.
  ProbeOutcome probe_reliability(Node& node, LpResult& lp, double& bound,
                                 int& branch_var) {
    PseudocostStore& pc = *ctx_.pseudocosts;
    const Model& model = *ctx_.model;
    int allowance = reliability_probe_allowance(
        ctx_.reliability_budget.load(std::memory_order_relaxed), node.depth);
    if (allowance <= 0) return ProbeOutcome::kContinue;

    // Unreliable fractional candidates, most fractional first (the root
    // strong-branching order): they are both the likeliest branch picks
    // and the ones a probe teaches the most about.
    struct Cand {
      int v;
      double dist;
    };
    std::vector<Cand> cands;
    for (int v = 0; v < model.num_variables(); ++v) {
      if (model.variable(v).type != VarType::kInteger) continue;
      const double frac = lp.x[v] - std::floor(lp.x[v]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= kIntegralityTol) continue;
      if (pc.count(v, true) >= kPseudocostReliability &&
          pc.count(v, false) >= kPseudocostReliability)
        continue;
      cands.push_back(Cand{v, dist});
    }
    if (cands.empty()) return ProbeOutcome::kContinue;
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.dist != b.dist) return a.dist > b.dist;
      return a.v < b.v;
    });

    bool infeasible_node = false;
    bool tightened_node = false;
    for (const Cand& c : cands) {
      if (allowance <= 0 || infeasible_node || tightened_node) break;
      const double xv = lp.x[c.v];
      const double fl = std::floor(xv);
      const double lo = simplex_.variable_lower(c.v);
      const double hi = simplex_.variable_upper(c.v);
      for (const bool up : {false, true}) {
        if (allowance <= 0) break;
        if (pc.count(c.v, up) >= kPseudocostReliability) continue;
        if (up ? fl + 1.0 > hi : lo > fl) continue;  // empty side
        // One unit of the GLOBAL budget per probe solve. The decrement
        // races benignly across workers: a brief overshoot costs a couple
        // of capped LP solves, never correctness.
        if (ctx_.reliability_budget.fetch_sub(
                1, std::memory_order_relaxed) <= 0) {
          ctx_.reliability_budget.fetch_add(1, std::memory_order_relaxed);
          allowance = 0;
          break;
        }
        --allowance;
        const LpStatus probe =
            ctx_.probe_side(simplex_, c.v, up, xv, lp.objective, lo, hi);
        ctx_.reliability_probed.fetch_add(1, std::memory_order_relaxed);
        if (probe == LpStatus::kInfeasible) {
          const double nlo = up ? lo : fl + 1.0;
          const double nhi = up ? fl : hi;
          if (nlo > nhi) {  // both directions empty: so is the node region
            infeasible_node = true;
            break;
          }
          if (applied_.empty()) {
            // The node still sits on the (rc-tightened) root box, so the
            // empty branch is empty under the same improving-solution
            // standard as rc fixing: broadcast the complement bound
            // globally, exactly like the root strong-branching pass, and
            // purge the fixed variable's pseudocost history.
            std::lock_guard<std::mutex> lock(ctx_.mutex);
            const double glo = std::max(ctx_.rc_lb[c.v], nlo);
            const double ghi = std::min(ctx_.rc_ub[c.v], nhi);
            if (glo <= ghi && (glo > ctx_.rc_lb[c.v] + kBoundEps ||
                               ghi < ctx_.rc_ub[c.v] - kBoundEps)) {
              ctx_.rc_lb[c.v] = glo;
              ctx_.rc_ub[c.v] = ghi;
              ctx_.fixings.push_back(Fixing{c.v, glo, ghi});
              ctx_.num_fixings.store(ctx_.fixings.size(),
                                     std::memory_order_release);
              ctx_.reliability_fixed.fetch_add(1, std::memory_order_relaxed);
              pc.purge(c.v);
            }
          } else {
            ctx_.reliability_tightened.fetch_add(1,
                                                 std::memory_order_relaxed);
          }
          // Either way the tightening holds on THIS node's region: fold it
          // into the node's own bound changes so both children inherit it.
          bool had_change = false;
          for (BoundChange& bc : node.changes)
            if (bc.var == c.v) {
              bc.lower = std::max(bc.lower, nlo);
              bc.upper = std::min(bc.upper, nhi);
              had_change = true;
            }
          if (!had_change)
            node.changes.push_back(BoundChange{c.v, nlo, nhi});
          applied_ = node.changes;
          simplex_.set_variable_bounds(c.v, std::max(nlo, root_lb_[c.v]),
                                       std::min(nhi, root_ub_[c.v]));
          tightened_node = true;
          break;  // the relaxation moved; probing stale fractions is noise
        } else if (probe != LpStatus::kOptimal &&
                   probe != LpStatus::kIterLimit) {
          // Aborted mid-probe (controller latch): stop probing quietly;
          // the caller's normal controller checks handle the real stop.
          allowance = 0;
        }
      }
    }
    if (infeasible_node) return ProbeOutcome::kPrune;
    if (!tightened_node) return ProbeOutcome::kContinue;
    // A tightening moved the relaxation: re-solve (uncapped) so branching
    // works from the true node optimum.
    lp = resolve_lp();
    ctx_.lp_iterations.fetch_add(lp.iterations);
    if (lp.status == LpStatus::kInfeasible) return ProbeOutcome::kPrune;
    if (lp.status == LpStatus::kAborted) return ProbeOutcome::kStop;
    if (lp.status != LpStatus::kOptimal) return ProbeOutcome::kDrop;
    bound = ctx_.node_bound(lp.objective);
    if (ctx_.prunable(bound)) return ProbeOutcome::kPrune;
    branch_var = pick_branch(lp.x);
    return ProbeOutcome::kContinue;
  }

  /// Fractional diving primal heuristic. From the node relaxation, fix the
  /// most-integral fractional variable to its rounding and re-solve (dual
  /// warm re-solves are what make this affordable); an infeasible or
  /// cutoff-crossing fixing is repaired once by flipping to the opposite
  /// integer before the dive gives up. Runs on a private warm-started
  /// solver so the tree search's own simplex (and therefore the node
  /// exploration order) is completely unaffected; the only side effect is
  /// a candidate incumbent.
  void dive(const LpResult& start) {
    const Options& opt = *ctx_.options;
    const Model& model = *ctx_.model;
    const int n = model.num_variables();
    if (!dive_lp_) {
      dive_lp_ = std::make_unique<SimplexSolver>(reduced_,
                                                 simplex_options(opt));
      dive_lp_->set_controller(ctx_.controller);
    }
    // Mirror the node's bounds (they already fold in root rc fixings).
    for (int v = 0; v < n; ++v)
      dive_lp_->set_variable_bounds(v, simplex_.variable_lower(v),
                                    simplex_.variable_upper(v));
    std::vector<double> x = start.x;
    int repairs = 0;
    for (int step = 0; step < 4 * n; ++step) {
      // A dive is pure heuristic work: never let it outlive the search
      // limits (each step below is a full LP re-solve).
      if (ctx_.controller->check_nodes(ctx_.nodes.load()) !=
          util::StopReason::kNone)
        return;
      int pick = -1;
      double pick_dist = 1.0;
      for (int v = 0; v < n; ++v) {
        if (model.variable(v).type != VarType::kInteger) continue;
        if (dive_lp_->variable_lower(v) >= dive_lp_->variable_upper(v))
          continue;
        const double dist = std::abs(x[v] - std::round(x[v]));
        if (dist <= kIntegralityTol) continue;
        if (dist < pick_dist) {
          pick_dist = dist;
          pick = v;
        }
      }
      if (pick < 0) {
        // Integral relaxation: a feasible point of the original model.
        ctx_.offer_rounded(std::move(x));
        return;
      }
      const double lo = dive_lp_->variable_lower(pick);
      const double hi = dive_lp_->variable_upper(pick);
      double t = std::clamp(std::round(x[pick]), lo, hi);
      for (int attempt = 0;; ++attempt) {
        dive_lp_->set_variable_bounds(pick, t, t);
        LpResult lp = dive_lp_->solve_dual();
        ctx_.lp_iterations.fetch_add(lp.iterations);
        const bool ok = lp.status == LpStatus::kOptimal &&
                        !ctx_.prunable(ctx_.node_bound(lp.objective));
        if (ok) {
          x = std::move(lp.x);
          break;
        }
        // Repair: the nearest rounding hit a wall — try the opposite
        // integer once (one-hot rows make this a common rescue).
        const double t2 =
            std::clamp(t + (x[pick] > t ? 1.0 : -1.0), lo, hi);
        if (attempt > 0 || ++repairs > 16 || t2 == t) return;
        t = t2;
      }
    }
  }

  /// Applies the node's bound changes on top of the (rc-tightened) root
  /// bounds. Returns false when a change crosses a tightened root bound:
  /// the node region then contains no solution better than the incumbent
  /// and is pruned.
  bool apply_node(const Node& node) {
    for (const BoundChange& bc : applied_)
      simplex_.set_variable_bounds(bc.var, root_lb_[bc.var],
                                   root_ub_[bc.var]);
    applied_ = node.changes;
    for (const BoundChange& bc : applied_) {
      const double lo = std::max(bc.lower, root_lb_[bc.var]);
      const double hi = std::min(bc.upper, root_ub_[bc.var]);
      if (lo > hi) return false;  // reset on the next apply_node
      simplex_.set_variable_bounds(bc.var, lo, hi);
    }
    return true;
  }

  void process(Node node) {
    const Options& opt = *ctx_.options;
    // Fault-injection hook: spontaneous cancellation at an arbitrary node
    // exercises the cancel path without a real signal.
    if (auto* fi = util::FaultInjector::active();
        fi != nullptr && fi->fire(util::FaultSite::kCancel))
      ctx_.controller->request_cancel();
    if (ctx_.controller->check_nodes(ctx_.nodes.load()) !=
        util::StopReason::kNone) {
      signal_stop(std::move(node));
      return;
    }
    // Soft memory pressure: shed the optional work (cuts, dives) before
    // the hard budget trips the whole solve.
    if (ctx_.controller->memory_pressure()) {
      ctx_.shed_cuts.store(true, std::memory_order_relaxed);
      ctx_.shed_diving.store(true, std::memory_order_relaxed);
    }
    if (ctx_.prunable(node.parent_bound)) return;

    sync_fixings();
    sync_pool_cuts();
    if (!apply_node(node)) return;  // crossed an rc-tightened root bound
    ctx_.nodes.fetch_add(1);

    LpResult lp = resolve_lp();
    ctx_.lp_iterations.fetch_add(lp.iterations);
    if (lp.status == LpStatus::kInfeasible) return;
    if (lp.status == LpStatus::kAborted) {
      // The controller tripped mid-LP: the node is unexplored — return it
      // to the pool so the final best-bound reduction still sees it.
      signal_stop(std::move(node));
      return;
    }
    if (lp.status == LpStatus::kUnbounded) {
      // Integer feasibility cannot rescue an unbounded relaxation at the
      // root; deeper nodes inherit the verdict only if the root saw it.
      if (node.depth == 0) {
        ctx_.root_unbounded = true;
        std::lock_guard<std::mutex> lock(ctx_.mutex);
        ctx_.stop = true;
        ctx_.cv.notify_all();
        return;
      }
      // A deeper unbounded verdict on these bounded models is numerical
      // noise: abandon the subtree honestly instead of discarding its
      // bound (the proof is forfeited, not silently faked).
      drop_node(node, "unbounded relaxation");
      return;
    }
    if (lp.status != LpStatus::kOptimal) {
      drop_node(node, "LP iteration limit");
      return;
    }

    record_pseudocost(node, lp.objective);
    double bound = ctx_.node_bound(lp.objective);
    if (ctx_.prunable(bound)) return;

    // Rounding heuristic: cheap incumbent to seed pruning. One rounding +
    // feasibility check is O(nnz), noise next to the node's LP re-solve, so
    // it runs at every node — incumbents surface long before the tree
    // search reaches an integral leaf by branching alone.
    if (opt.use_rounding_heuristic) ctx_.offer_rounded(lp.x);

    // Branching target; in-tree separation may tighten the LP and retry.
    // The pool exists only when some separator class is on.
    int branch_var = pick_branch(lp.x);
    const bool cuts_on = opt.cut_node_interval > 0 && ctx_.cut_pool != nullptr &&
                         !ctx_.shed_cuts.load(std::memory_order_relaxed);
    if (cuts_on && branch_var >= 0 &&
        ++nodes_since_separation_ >= opt.cut_node_interval) {
      nodes_since_separation_ = 0;
      for (int pass = 0; pass < 2 && branch_var >= 0; ++pass) {
        if (separate_at(lp.x) == 0) break;
        lp = resolve_lp();
        ctx_.lp_iterations.fetch_add(lp.iterations);
        if (lp.status == LpStatus::kInfeasible) return;  // cuts are valid
        if (lp.status == LpStatus::kAborted) {
          signal_stop(std::move(node));
          return;
        }
        if (lp.status != LpStatus::kOptimal) {
          // Post-separation re-solve failed (iteration limit / numerical
          // wall): the subtree is abandoned, its bound joins the reduction.
          drop_node(node, "post-separation re-solve failure");
          return;
        }
        bound = ctx_.node_bound(lp.objective);
        if (ctx_.prunable(bound)) return;
        branch_var = pick_branch(lp.x);
      }
    }

    // In-tree reliability branching: when the picked candidate's pseudocosts
    // are still unreliable and the global probe budget has depth-decayed
    // allowance left, spend bounded dual probes before trusting the pick.
    if (branch_var >= 0 && opt.reliability_probe_budget > 0 &&
        ctx_.reliability_budget.load(std::memory_order_relaxed) > 0) {
      if (ctx_.pseudocosts->count(branch_var, true) < kPseudocostReliability ||
          ctx_.pseudocosts->count(branch_var, false) < kPseudocostReliability) {
        switch (probe_reliability(node, lp, bound, branch_var)) {
          case ProbeOutcome::kPrune:
            return;
          case ProbeOutcome::kStop:
            signal_stop(std::move(node));
            return;
          case ProbeOutcome::kDrop:
            drop_node(node, "post-probe re-solve failure");
            return;
          case ProbeOutcome::kContinue:
            break;
        }
      }
    }

    // Diving heuristic: at the root and periodically thereafter, chase the
    // fractional point down to an integer-feasible incumbent. (The naive
    // one-shot rounding above almost never survives the one-hot rows; the
    // dive re-solves its way to feasibility instead.)
    if (branch_var >= 0 && opt.use_rounding_heuristic &&
        !ctx_.shed_diving.load(std::memory_order_relaxed) &&
        (node.depth == 0 || ++nodes_since_dive_ >= 128)) {
      nodes_since_dive_ = 0;
      dive(lp);
    }

    if (branch_var < 0) {
      // Integral LP optimum: new incumbent.
      round_integers(*ctx_.model, lp.x);
      ctx_.offer_incumbent(lp.objective, std::move(lp.x));
      return;
    }

    const double xv = lp.x[branch_var];
    const double floor_v = std::floor(xv);
    // Children: "down" (x <= floor) and "up" (x >= floor+1). The side
    // nearer the LP value is plunged on locally; the other is published,
    // marked as this worker's, for it to resume once the plunge ends (or
    // for an idle worker to steal).
    Node down{node.changes, bound, node.depth + 1};
    double cur_lo = root_lb_[branch_var], cur_hi = root_ub_[branch_var];
    for (const BoundChange& bc : node.changes)
      if (bc.var == branch_var) {
        cur_lo = bc.lower;
        cur_hi = bc.upper;
      }
    down.changes.push_back(BoundChange{branch_var, cur_lo, floor_v});
    down.branch_var = branch_var;
    down.branch_up = false;
    down.branch_dist = xv - floor_v;
    down.parent_obj = lp.objective;
    Node up{std::move(node.changes), bound, node.depth + 1};
    up.changes.push_back(BoundChange{branch_var, floor_v + 1.0, cur_hi});
    up.branch_var = branch_var;
    up.branch_up = true;
    up.branch_dist = floor_v + 1.0 - xv;
    up.parent_obj = lp.objective;

    const bool down_first = (xv - floor_v) < 0.5;
    Node& near = down_first ? down : up;
    Node& far = down_first ? up : down;
    local_ = std::move(near);
    // Fault-injection hook: a refused node-pool allocation drops the far
    // child HONESTLY — its bound joins the reduction, the proof is
    // forfeited, and the search never pretends the subtree was explored.
    if (auto* fi = util::FaultInjector::active();
        fi != nullptr && fi->fire(util::FaultSite::kNodeAlloc)) {
      drop_node(far, "node-pool allocation refused");
    } else {
      std::lock_guard<std::mutex> lock(ctx_.mutex);
      far.owner = id_;
      ctx_.controller->reserve(node_bytes(far));
      ctx_.pool.push_back(std::move(far));
    }
    ctx_.cv.notify_one();
  }

  /// Abandons a subtree unexplored (LP failure, refused allocation, ...).
  /// The search can no longer prove optimality or infeasibility, and the
  /// node's inherited bound must stay part of the final best-bound
  /// reduction.
  void drop_node(const Node& node, const char* why) {
    util::log_warn() << why << " at node " << ctx_.nodes.load()
                     << "; dropping the node (optimality proof forfeited)";
    ctx_.dropped_nodes.fetch_add(1);
    ctx_.exhausted = false;
    std::lock_guard<std::mutex> lock(ctx_.mutex);
    ctx_.dropped_bound = std::min(ctx_.dropped_bound, node.parent_bound);
  }

  SearchContext& ctx_;
  const Model& reduced_;  ///< LP model workers are built from (dive solver)
  SimplexSolver simplex_;
  /// Slot index into ctx_.current_nodes (checkpoint capture) and the owner
  /// tag of the far children this worker publishes.
  const int id_;
  std::unique_ptr<SimplexSolver> dive_lp_;  ///< lazily built dive solver
  std::vector<double> root_lb_, root_ub_;  ///< local rc-tightened root bounds
  std::vector<BoundChange> applied_;  ///< changes currently applied
  std::optional<Node> local_;         ///< child being plunged on
  std::size_t pool_consumed_ = 0;     ///< pool.applied() rows already in LP
  std::size_t fixings_consumed_ = 0;  ///< ctx.fixings entries already applied
  int nodes_since_separation_ = 0;
  int nodes_since_dive_ = 0;
  // Cached pseudocost global averages (refreshed every few picks; see
  // pick_branch). Start expired so the first pick reads fresh values.
  double pc_avg_up_ = 0.0, pc_avg_down_ = 0.0;
  int pc_avg_cooldown_ = 0;
  std::vector<int> row_age_;  ///< consecutive slack-basic re-solves per cut row
  std::vector<std::size_t> lp_row_bytes_;  ///< accounted bytes per cut row
  std::vector<Fixing> fresh_fixings_;       // scratch
  std::vector<ConstraintDef> new_rows_;     // scratch
  std::vector<int> doomed_rows_;            // scratch (age_cut_rows)
};

/// Constructs and runs one worker, capturing any exception (including a
/// throwing SimplexSolver constructor) into ctx.failure so the main thread
/// can rethrow it after the join instead of std::terminate firing.
void run_worker(SearchContext& ctx, const Model& reduced) {
  try {
    Worker(ctx, reduced).run();
  } catch (...) {
    std::lock_guard<std::mutex> lock(ctx.mutex);
    if (!ctx.failure) ctx.failure = std::current_exception();
    ctx.stop = true;
    ctx.exhausted = false;
    ctx.cv.notify_all();
  }
}

/// Snapshots the search state into a checkpoint. The caller either holds
/// ctx.mutex (periodic writer) or is the only live thread (post-join): the
/// incumbent, cutoff, tightened bounds and pool are mutated together under
/// that mutex, so the copy is a consistent cut of the search. Cheap copies
/// only — serialization and file I/O happen outside any lock.
SolveCheckpoint capture_checkpoint(const SearchContext& ctx,
                                   const PseudocostStore& pcstore,
                                   std::uint64_t fingerprint, int n) {
  SolveCheckpoint ck;
  ck.model_fingerprint = fingerprint;
  ck.num_variables = n;
  ck.cutoff = ctx.cutoff.load(std::memory_order_relaxed);
  ck.has_incumbent = !ctx.incumbent.empty();
  if (ck.has_incumbent) {
    ck.incumbent = ctx.incumbent;
    ck.incumbent_objective = ck.cutoff;  // offers keep the two in lockstep
  }
  ck.dropped_bound = ctx.dropped_bound;
  ck.nodes_explored = ctx.nodes.load(std::memory_order_relaxed);
  ck.global_lb = ctx.rc_lb;
  ck.global_ub = ctx.rc_ub;
  const auto push_node = [&ck](const Node& node) {
    CheckpointNode cn;
    cn.changes.reserve(node.changes.size());
    for (const BoundChange& bc : node.changes)
      cn.changes.push_back(CheckpointNode::Change{bc.var, bc.lower, bc.upper});
    cn.parent_bound = node.parent_bound;
    cn.depth = node.depth;
    cn.branch_var = node.branch_var;
    cn.branch_up = node.branch_up;
    cn.branch_dist = node.branch_dist;
    cn.parent_obj = node.parent_obj;
    ck.frontier.push_back(std::move(cn));
  };
  for (const Node& node : ctx.pool) push_node(node);
  // Mid-search captures additionally cover each worker's in-flight node
  // (mirrored by take() under the same mutex). A slot may overlap children
  // already published to the pool — redundant coverage is sound; a missing
  // region would not be.
  for (const std::optional<Node>& slot : ctx.current_nodes)
    if (slot) push_node(*slot);
  if (ctx.cut_pool != nullptr) {
    for (const Cut& c : ctx.cut_pool->applied()) {
      CheckpointCut cc;
      cc.terms = c.terms;
      cc.rhs = c.rhs;
      cc.cut_class = static_cast<std::uint8_t>(c.cut_class);
      ck.cuts.push_back(std::move(cc));
    }
  }
  pcstore.capture(ck.pseudocosts);
  return ck;
}

/// Resume gate: a snapshot is only trusted after every structural and
/// semantic check passes against the caller's PRE-PRESOLVE model. The
/// checksum already rejected random corruption at load; these checks
/// reject stale or mismatched snapshots (different model, different
/// formulation build) and anything the decoder cannot prove harmless.
bool validate_checkpoint(const SolveCheckpoint& ck, const Model& original,
                         std::uint64_t fingerprint, std::string& why) {
  const int n = original.num_variables();
  const auto fail = [&why](const char* w) {
    why = w;
    return false;
  };
  if (ck.model_fingerprint != fingerprint)
    return fail("model fingerprint mismatch");
  if (ck.num_variables != n) return fail("variable count mismatch");
  if (static_cast<int>(ck.global_lb.size()) != n ||
      static_cast<int>(ck.global_ub.size()) != n)
    return fail("global bound vectors malformed");
  for (int v = 0; v < n; ++v) {
    const double lo = ck.global_lb[v], hi = ck.global_ub[v];
    const lp::VariableDef& var = original.variable(v);
    // Written to also reject NaN (every comparison with NaN is false).
    if (!(lo <= hi) || !(lo >= var.lower - kBoundEps) ||
        !(hi <= var.upper + kBoundEps))
      return fail("restored bounds outside the model's");
  }
  if (std::isnan(ck.cutoff) || std::isnan(ck.dropped_bound))
    return fail("cutoff/dropped bound is NaN");
  if (ck.has_incumbent) {
    if (static_cast<int>(ck.incumbent.size()) != n)
      return fail("incumbent length mismatch");
    for (const double x : ck.incumbent)
      if (!std::isfinite(x)) return fail("incumbent value not finite");
    if (!std::isfinite(ck.incumbent_objective) || !std::isfinite(ck.cutoff) ||
        std::abs(ck.cutoff - ck.incumbent_objective) >
            1e-6 * std::max(1.0, std::abs(ck.incumbent_objective)))
      return fail("cutoff out of lockstep with the incumbent");
    // The exit-audit feasibility standard, applied at entry: a snapshot
    // whose incumbent fails the original model proves nothing.
    if (original.max_violation(ck.incumbent, true) > 10 * kActivityEps)
      return fail("restored incumbent infeasible on the original model");
    const double obj = original.objective_value(ck.incumbent);
    if (std::abs(obj - ck.incumbent_objective) >
        1e-6 * std::max(1.0, std::abs(obj)))
      return fail("restored incumbent objective mismatch");
  } else if (!ck.incumbent.empty()) {
    return fail("incumbent flag/vector mismatch");
  }
  for (const CheckpointNode& node : ck.frontier) {
    if (node.depth < 0 || std::isnan(node.parent_bound))
      return fail("frontier node malformed");
    for (const CheckpointNode::Change& c : node.changes) {
      if (c.var < 0 || c.var >= n)
        return fail("frontier variable out of range");
      if (std::isnan(c.lower) || std::isnan(c.upper))
        return fail("frontier bound is NaN");
    }
  }
  for (const CheckpointCut& cut : ck.cuts) {
    if (cut.terms.empty() || !std::isfinite(cut.rhs))
      return fail("cut row malformed");
    if (cut.cut_class > static_cast<std::uint8_t>(CutClass::kOddCycle))
      return fail("unknown cut class");
    int prev = -1;
    for (const lp::Term& t : cut.terms) {
      if (t.var <= prev || t.var >= n || !std::isfinite(t.coeff))
        return fail("cut terms malformed");
      prev = t.var;
    }
  }
  for (const CheckpointPseudocost& p : ck.pseudocosts) {
    if (p.var < 0 || p.var >= n || p.up_cnt < 0 || p.down_cnt < 0 ||
        !std::isfinite(p.up_sum) || !std::isfinite(p.down_sum))
      return fail("pseudocost entry malformed");
  }
  return true;
}

}  // namespace

int reliability_probe_allowance(long long remaining, int depth) {
  if (remaining <= 0) return 0;
  const int halvings = depth < 0 ? 0 : depth / 2;
  if (halvings >= 5) return 0;  // 16 >> 5 == 0: nothing from depth 10 on
  const long long cap = 16LL >> halvings;
  return static_cast<int>(std::min(remaining, cap));
}

Solver::Solver(Options options) : options_(std::move(options)) {}

Solution Solver::solve_impl(const Model& input,
                            const SolveCheckpoint* snapshot) const {
  Solution sol;
  SearchContext ctx;
  // The root LP solver, built by the root cut loop or strong branching:
  // both run on its warm basis, and the exit audit re-solves it.
  std::optional<SimplexSolver> root_lp;
  // Per-phase wall clock: `phase` is the running phase's Stats field, timed
  // from phase_mark.
  double* phase = &sol.stats.presolve_seconds;
  double phase_mark = 0.0;
  const auto next_phase = [&](double* next) {
    const double now = ctx.watch.seconds();
    *phase = now - phase_mark;
    phase = next;
    phase_mark = now;
  };
  // Copies the LP work into the stats, once per solve: the root LP's plus
  // every retired worker's.
  const auto report_lp = [&] {
    if (root_lp) {
      ctx.lp_stats += root_lp->stats();
      ctx.lp_scaling_active |= root_lp->scaling_active();
    }
    sol.stats.lp_iterations = ctx.lp_iterations.load();
    sol.stats.lp_scaling_active = ctx.lp_scaling_active;
#define ADVBIST_LP_STATS_COPY(name, merge) \
  sol.stats.lp_##name = ctx.lp_stats.name;
    ADVBIST_LP_STATS(ADVBIST_LP_STATS_COPY)
#undef ADVBIST_LP_STATS_COPY
  };
  // Every return before the tree search.
  const auto finish = [&](SolveStatus status) {
    *phase = ctx.watch.seconds() - phase_mark;
    report_lp();
    sol.status = status;
    sol.stats.seconds = ctx.watch.seconds();
    return sol;
  };

  // Sanitizer gate: every model — built-in, file-sourced or serve job —
  // passes through lp::sanitize_model before presolve sees it. Rejection
  // (non-finite data, corrupt indices) is an honest kInvalidModel refusal;
  // a structurally contradictory model is an honest kInfeasible without a
  // search; a repaired model replaces the input for the whole solve
  // (including the exit audit — the repairs are solve-equivalent).
  lp::SanitizeResult sanitized = lp::sanitize_model(input);
  sol.stats.sanitizer_class = lp::to_string(sanitized.diag.cls);
  sol.stats.sanitizer_duplicates_merged = sanitized.diag.duplicate_terms_merged;
  sol.stats.sanitizer_zero_coeffs_dropped = sanitized.diag.zero_coeffs_dropped;
  sol.stats.sanitizer_vacuous_rows_dropped =
      sanitized.diag.vacuous_rows_dropped;
  sol.stats.sanitizer_contradictory_rows = sanitized.diag.contradictory_rows;
  sol.stats.sanitizer_crossed_bounds = sanitized.diag.crossed_bounds;
  sol.stats.sanitizer_fingerprint = sanitized.diag.fingerprint();
  if (sanitized.diag.cls == lp::ModelClass::kRejected) {
    util::log_warn() << "sanitizer: model rejected ("
                     << sanitized.diag.first_issue << ")";
    return finish(SolveStatus::kInvalidModel);
  }
  if (sanitized.diag.proven_infeasible) {
    sol.stats.sanitizer_proven_infeasible = true;
    return finish(SolveStatus::kInfeasible);
  }
  const Model& original = sanitized.model;

  // One controller governs every phase of this solve: the deadline, the
  // node budget, the memory budget, and the caller's cancel flag are all
  // checked from the same latch, so the first reason to stop wins and is
  // reported unchanged as the termination status.
  util::SolveController controller;
  controller.set_deadline(options_.time_limit_seconds);
  controller.set_node_budget(options_.node_limit);
  controller.set_memory_budget(options_.memory_limit_bytes);
  controller.set_cancel_flag(options_.cancel_flag);
  ctx.controller = &controller;

  // Resume gate. A snapshot that fails any check degrades to a cold start
  // with the rejection counted — never to a wrong proof.
  const bool checkpointing = !options_.checkpoint_path.empty();
  const std::uint64_t fingerprint = (checkpointing || snapshot != nullptr)
                                        ? model_fingerprint(original)
                                        : 0;
  const SolveCheckpoint* restored = nullptr;
  if (snapshot != nullptr) {
    std::string why;
    if (validate_checkpoint(*snapshot, original, fingerprint, why)) {
      restored = snapshot;
      sol.stats.resumed = true;
      sol.stats.restored_nodes =
          static_cast<long long>(snapshot->frontier.size());
    } else {
      util::log_warn() << "resume: snapshot rejected (" << why
                       << "); cold start";
      sol.stats.resume_rejected = 1;
    }
  }

  Model model = original;  // working copy: presolve mutates bounds
  if (!options_.branch_priority.empty())
    ADVBIST_REQUIRE(static_cast<int>(options_.branch_priority.size()) ==
                        model.num_variables(),
                    "branch_priority size mismatch");

  const int n = model.num_variables();
  ConflictGraph graph(n);
  std::vector<bool> row_redundant;
  if (options_.use_presolve) {
    PresolveResult pre = presolve(model);
    if (pre.infeasible) return finish(SolveStatus::kInfeasible);
    row_redundant = std::move(pre.row_redundant);

    // Probing: one level of implication depth on every unfixed binary.
    // Fixings land in the model's bounds; implications in the conflict
    // graph. A successful probe pass feeds a second presolve sweep.
    if (options_.use_probing) {
      const ProbingResult probe =
          probe_binaries(model, row_redundant, graph);
      sol.stats.probing_probed = probe.probed;
      sol.stats.probing_fixed = probe.fixed;
      sol.stats.probing_implications = probe.implications;
      if (probe.infeasible) return finish(SolveStatus::kInfeasible);
      if (probe.fixed > 0 || probe.bounds_tightened > 0) {
        PresolveResult pre2 = presolve(model);
        if (pre2.infeasible) return finish(SolveStatus::kInfeasible);
        row_redundant = std::move(pre2.row_redundant);
      }
    }
    PresolveResult recount;  // final fixed/redundant tallies for the stats
    for (int v = 0; v < n; ++v)
      if (model.variable(v).lower == model.variable(v).upper)
        ++recount.variables_fixed;
    for (const bool r : row_redundant)
      if (r) ++recount.redundant_rows;
    sol.stats.presolve_fixed = recount.variables_fixed;
    sol.stats.presolve_redundant_rows = recount.redundant_rows;
  }

  // The LP model: redundant rows dropped, fixed variables substituted out.
  ReducedModelResult reduction = build_reduced_model(model, row_redundant);
  sol.stats.presolve_dropped_rows = reduction.dropped_rows;
  sol.stats.presolve_dropped_terms = reduction.dropped_terms;
  if (reduction.infeasible) return finish(SolveStatus::kInfeasible);
  Model& reduced = reduction.model;

  // Conflict edges readable straight off the surviving rows (one-hot and
  // clique rows, z <= x style implications); probing added the deeper ones.
  // Odd-cycle separation walks the same graph, so it keeps the row-derived
  // edges alive even with clique cuts switched off.
  if (options_.use_clique_cuts || options_.odd_cycle_cuts)
    graph.add_from_rows(reduced, {});
  graph.finalize();

  ctx.model = &model;
  ctx.cut_model = &reduced;
  ctx.graph = &graph;
  ctx.options = &options_;
  ctx.integral_obj = model.objective_is_integral();
  ctx.reliability_budget.store(
      std::max(0, options_.reliability_probe_budget),
      std::memory_order_relaxed);
  ctx.root_lb.resize(n);
  ctx.root_ub.resize(n);
  for (int v = 0; v < n; ++v) {
    ctx.root_lb[v] = model.variable(v).lower;
    ctx.root_ub[v] = model.variable(v).upper;
  }
  if (std::isfinite(options_.initial_cutoff)) {
    // Seeded bound: keep nodes that can still reach objective ==
    // initial_cutoff (callers pass a heuristic solution's value).
    ctx.cutoff = options_.initial_cutoff + (ctx.integral_obj ? 1.0 : kIntEps);
  }
  if (restored != nullptr && std::isfinite(restored->cutoff) &&
      restored->cutoff <= ctx.cutoff.load()) {
    // The interrupted run's cutoff (and incumbent, re-verified against the
    // original model above) picks up where it left off. A caller-seeded
    // cutoff tighter than the snapshot's wins instead, and the snapshot's
    // incumbent — no better than that seed — is dropped with it.
    ctx.cutoff.store(restored->cutoff);
    if (restored->has_incumbent) ctx.incumbent = restored->incumbent;
  }
  next_phase(&sol.stats.root_cut_seconds);

  // ---------------------------------------------------------------------
  // Root cut-and-fix loop: rounds of separation against the root LP (rows
  // appended in place on the factorized basis), a rounding incumbent per
  // round, and reduced-cost fixing off the final root basis.
  // ---------------------------------------------------------------------
  CutPool pool(std::max(kMaxPoolCuts, options_.max_cuts_per_round));
  const bool cuts_enabled =
      options_.use_clique_cuts || options_.use_cover_cuts ||
      options_.gomory_rounds > 0 || options_.odd_cycle_cuts;
  const bool run_root_loop =
      (options_.cut_rounds > 0 && cuts_enabled) || options_.use_rc_fixing;
  double root_bound = -lp::kInfinity;
  int rc_fixed_root = 0;
  LpResult rlp;  // most recent root LP result (kIterLimit until solved)

  if (run_root_loop) {
    root_lp.emplace(reduced, Worker::simplex_options(options_));
    root_lp->set_controller(&controller);
    rlp = root_lp->solve();
    ctx.lp_iterations.fetch_add(rlp.iterations);
    if (rlp.status == LpStatus::kInfeasible)
      return finish(SolveStatus::kInfeasible);
    if (rlp.status == LpStatus::kUnbounded)
      return finish(SolveStatus::kUnbounded);
    if (rlp.status == LpStatus::kOptimal) {
      sol.stats.root_lp_bound = ctx.node_bound(rlp.objective);
      // Before root_rc_valid, an offered incumbent fixes nothing.
      if (options_.use_rounding_heuristic) ctx.offer_rounded(rlp.x);

      if (options_.cut_rounds > 0 && cuts_enabled) {
        double prev_bound = rlp.objective;
        int stalled = 0;
        for (int round = 0; round < options_.cut_rounds; ++round) {
          // The per-round check catches deadline/cancel between LP solves;
          // the in-LP controller polling (via set_controller above) catches
          // them INSIDE a long re-solve, so no single round can overshoot.
          if (controller.check() != util::StopReason::kNone) break;
          const std::vector<double>& x = rlp.x;
          // An integral root concludes the search immediately.
          if (!has_fractional(model, x)) break;
          // Gomory shifts go against the ROOT bounds, so the cuts stay
          // valid pool-wide.
          for (Cut& c : ctx.separate(x, *root_lp, ctx.root_lb, ctx.root_ub,
                                     round < options_.gomory_rounds))
            pool.add(std::move(c));
          const std::vector<Cut> taken = pool.take_violated(
              x, kCutViolationEps, options_.max_cuts_per_round);
          if (taken.empty()) break;
          std::vector<ConstraintDef> rows;
          rows.reserve(taken.size());
          for (const Cut& c : taken) {
            rows.push_back(
                ConstraintDef{c.terms, Sense::kLessEqual, c.rhs, ""});
            lp::LinExpr expr;
            for (const lp::Term& t : c.terms) expr.add(t.var, t.coeff);
            reduced.add_constraint(std::move(expr), Sense::kLessEqual, c.rhs);
          }
          root_lp->add_rows(rows);
          // The appended rows enter slack-basic, so the dual re-solve path
          // applies at the root exactly as it does in the tree.
          rlp = root_lp->solve_dual();
          ctx.lp_iterations.fetch_add(rlp.iterations);
          // Valid cuts + feasible LP turned infeasible: no integer point.
          if (rlp.status == LpStatus::kInfeasible)
            return finish(SolveStatus::kInfeasible);
          if (rlp.status != LpStatus::kOptimal) break;
          if (options_.use_rounding_heuristic) ctx.offer_rounded(rlp.x);
          // Two consecutive stalled rounds end the loop: the pool keeps the
          // separated-but-idle cuts and ages them out.
          if (rlp.objective < prev_bound + kIntEps) {
            if (++stalled >= 2) break;
          } else {
            stalled = 0;
          }
          prev_bound = rlp.objective;
        }
      }

      if (rlp.status == LpStatus::kOptimal) {
        root_bound = ctx.node_bound(rlp.objective);
        sol.stats.root_cut_bound = root_bound;
        const double cut = ctx.cutoff.load();
        if (std::isfinite(cut) && cut - sol.stats.root_lp_bound > kIntEps)
          sol.stats.root_gap_closed =
              std::clamp((root_bound - sol.stats.root_lp_bound) /
                             (cut - sol.stats.root_lp_bound),
                         0.0, 1.0);

        // Root reduced-cost fixing: keep the certificate for incumbent
        // improvements during the search.
        if (options_.use_rc_fixing) {
          ctx.root_rc_valid = true;
          ctx.root_obj = rlp.objective;
          ctx.root_x = rlp.x;
          ctx.root_d = root_lp->reduced_costs();
          ctx.rc_lb = ctx.root_lb;
          ctx.rc_ub = ctx.root_ub;
          if (std::isfinite(cut) && !ctx.prunable(root_bound))
            rc_fixed_root = ctx.rc_fix_against(cut);
          // Bake the root fixings into the root bounds and the LP model
          // (workers copy both at construction).
          for (int v = 0; v < n; ++v) {
            if (ctx.rc_lb[v] > ctx.root_lb[v] ||
                ctx.rc_ub[v] < ctx.root_ub[v]) {
              ctx.root_lb[v] = ctx.rc_lb[v];
              ctx.root_ub[v] = ctx.rc_ub[v];
              reduced.set_bounds(v, ctx.rc_lb[v], ctx.rc_ub[v]);
            }
          }
          ctx.fixings.clear();  // baked in; workers need no replay
          ctx.num_fixings.store(0);
        }
      }
    }
  }
  next_phase(&sol.stats.strong_branch_seconds);

  // ---------------------------------------------------------------------
  // Root strong branching: bounded dual probing re-solves on the most
  // fractional candidates seed the shared pseudocost store, so no worker's
  // first branchings run on guesswork. The probes run on the root LP
  // solver's warm optimal basis (each probe is a bound change away from
  // it — exactly the dual re-solve pattern), so no second cold root solve
  // happens. A direction whose probe proves LP-infeasible fixes the
  // variable the other way — globally valid, like a reduced-cost fixing —
  // and two infeasible directions prove the whole model infeasible.
  // ---------------------------------------------------------------------
  PseudocostStore pcstore(n);
  ctx.pseudocosts = &pcstore;
  // A resumed run inherits the interrupted run's pseudocosts (restored
  // below) instead of re-paying the strong-branching probes: the restored
  // store already reflects real branching history.
  if (options_.strong_branch_vars > 0 && restored == nullptr &&
      controller.check() == util::StopReason::kNone) {
    if (!root_lp) {  // cuts + rc fixing disabled: no root solve happened yet
      root_lp.emplace(reduced, Worker::simplex_options(options_));
      root_lp->set_controller(&controller);
      rlp = root_lp->solve();
      ctx.lp_iterations.fetch_add(rlp.iterations);
    }
    SimplexSolver& sb = *root_lp;
    // Local copy: an infeasible probe that fixes a variable re-solves the
    // base, so later candidates measure degradation against the CURRENT
    // root optimum, not a stale pre-fixing one (their seeds enter the
    // store at full reliability weight — they must be exact).
    LpResult base = rlp;
    bool sb_infeasible = false;
    if (base.status == LpStatus::kOptimal) {
      struct Cand {
        int v;
        double frac;
        int prio;
      };
      std::vector<Cand> cands;
      for (int v = 0; v < n; ++v) {
        if (model.variable(v).type != VarType::kInteger) continue;
        const double frac = base.x[v] - std::floor(base.x[v]);
        if (std::min(frac, 1.0 - frac) <= kIntegralityTol) continue;
        cands.push_back(Cand{v, frac,
                             options_.branch_priority.empty()
                                 ? 0
                                 : options_.branch_priority[v]});
      }
      std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
        const double da = std::min(a.frac, 1.0 - a.frac);
        const double db = std::min(b.frac, 1.0 - b.frac);
        if (a.prio != b.prio) return a.prio > b.prio;
        if (da != db) return da > db;  // most fractional first
        return a.v < b.v;
      });
      if (static_cast<int>(cands.size()) > options_.strong_branch_vars)
        cands.resize(options_.strong_branch_vars);
      // Every probe is a BOUNDED dual re-solve (SearchContext::probe_side):
      // a probe that runs out of its iteration budget records nothing, so
      // strong branching cannot blow the root time up.
      for (const Cand& c : cands) {
        if (controller.check() != util::StopReason::kNone) break;
        // Re-derive fractionality from the CURRENT base (a fixing may have
        // re-solved it since the candidates were ranked).
        const double xv = base.x[c.v];
        const double fl = std::floor(xv);
        if (std::min(xv - fl, fl + 1.0 - xv) <= kIntegralityTol) continue;
        bool fixed_here = false;
        for (const bool up : {false, true}) {
          const double lo = ctx.root_lb[c.v], hi = ctx.root_ub[c.v];
          // A prior fixing may have emptied this side.
          if (up ? fl + 1.0 > hi : lo > fl) continue;
          ++sol.stats.strong_branch_probed;
          if (ctx.probe_side(sb, c.v, up, xv, base.objective, lo, hi) !=
              LpStatus::kInfeasible)
            continue;
          // No LP point in the branch, hence no integer point: the
          // complement bound is globally valid.
          const double nlo = up ? lo : fl + 1.0;
          const double nhi = up ? fl : hi;
          if (nlo > nhi) {
            sb_infeasible = true;  // both directions empty
            break;
          }
          ctx.root_lb[c.v] = nlo;
          ctx.root_ub[c.v] = nhi;
          if (ctx.root_rc_valid) {
            ctx.rc_lb[c.v] = std::max(ctx.rc_lb[c.v], nlo);
            ctx.rc_ub[c.v] = std::min(ctx.rc_ub[c.v], nhi);
          }
          reduced.set_bounds(c.v, nlo, nhi);
          sb.set_variable_bounds(c.v, nlo, nhi);
          ++sol.stats.strong_branch_fixed;
          // A fixed variable is never branched on again: drop its seeded
          // history so it cannot skew the global pseudocost averages.
          pcstore.purge(c.v);
          fixed_here = true;
          break;  // the base moved; re-solve before probing further
        }
        if (sb_infeasible) break;
        if (fixed_here) {
          // A fixing moved the root optimum: re-solve (uncapped) so every
          // later candidate's degradation is measured against the true
          // current base.
          const LpResult rebase = sb.solve_dual();
          ctx.lp_iterations.fetch_add(rebase.iterations);
          if (rebase.status == LpStatus::kInfeasible) {
            sb_infeasible = true;
            break;
          }
          if (rebase.status != LpStatus::kOptimal) break;  // stop probing
          base = rebase;
        }
      }
    }
    if (sb_infeasible) return finish(SolveStatus::kInfeasible);
  }
  next_phase(&sol.stats.search_seconds);

  if (restored != nullptr) {
    // Bake the interrupted run's globally tightened bounds (probing +
    // strong branching + rc fixing, all valid given the restored and
    // re-verified incumbent) the same way root rc fixings are baked. A
    // restored bound conflicting with a freshly derived one would make
    // the box empty — skip that variable; restored bounds are an
    // optimization, never required for soundness.
    for (int v = 0; v < n; ++v) {
      const double lo = std::max(ctx.root_lb[v], restored->global_lb[v]);
      const double hi = std::min(ctx.root_ub[v], restored->global_ub[v]);
      if (lo > hi || (lo <= ctx.root_lb[v] && hi >= ctx.root_ub[v])) continue;
      ctx.root_lb[v] = lo;
      ctx.root_ub[v] = hi;
      reduced.set_bounds(v, lo, hi);
      if (ctx.root_rc_valid) {
        ctx.rc_lb[v] = std::max(ctx.rc_lb[v], lo);
        ctx.rc_ub[v] = std::min(ctx.rc_ub[v], hi);
      }
    }
  }

  ctx.cut_pool = cuts_enabled ? &pool : nullptr;
  ctx.root_applied_cuts = pool.applied().size();
  if (restored != nullptr && cuts_enabled) {
    // Replay the interrupted run's applied cuts through the pool: workers
    // pick them up via their normal applied-list sync, and cuts the root
    // loop re-derived this run dedup away structurally.
    for (const CheckpointCut& c : restored->cuts) {
      Cut cut;
      cut.terms = c.terms;
      cut.rhs = c.rhs;
      // validate_checkpoint already capped cut_class at kOddCycle.
      cut.cut_class = static_cast<CutClass>(c.cut_class);
      pool.restore_applied(std::move(cut));
    }
  }
  ctx.pool_applied.store(pool.applied().size());
  if (cuts_enabled) ctx.update_cut_pool_bytes(pool.approx_bytes());
  if (!ctx.root_rc_valid) {
    ctx.rc_lb = ctx.root_lb;
    ctx.rc_ub = ctx.root_ub;
  }

  if (restored == nullptr) {
    Node root{{}, root_bound, 0};
    controller.reserve(node_bytes(root));
    ctx.pool.push_back(std::move(root));
  } else {
    // The restored frontier replaces the root node: together with the
    // restored cutoff it covers every region the interrupted run had not
    // finished (see ilp/checkpoint.hpp for the monotonicity argument). An
    // empty frontier means that run had explored the whole tree before its
    // limit latched — nothing left to search.
    for (const CheckpointNode& cn : restored->frontier) {
      Node node;
      node.changes.reserve(cn.changes.size());
      for (const CheckpointNode::Change& c : cn.changes)
        node.changes.push_back(BoundChange{c.var, c.lower, c.upper});
      node.parent_bound = cn.parent_bound;
      node.depth = cn.depth;
      node.branch_var = cn.branch_var;
      node.branch_up = cn.branch_up;
      node.branch_dist = cn.branch_dist;
      node.parent_obj = cn.parent_obj;
      controller.reserve(node_bytes(node));
      ctx.pool.push_back(std::move(node));
    }
    if (std::isfinite(restored->dropped_bound)) {
      // A forfeited proof stays forfeited: the dropped subtrees' bound
      // folds back into this run's final reduction.
      ctx.dropped_bound = restored->dropped_bound;
      ctx.exhausted = false;
    }
    for (const CheckpointPseudocost& p : restored->pseudocosts)
      pcstore.restore(p);
  }
  ctx.num_workers = resolve_num_threads(options_.num_threads);
  sol.stats.threads = ctx.num_workers;

  // Periodic checkpoint writer: a dedicated thread snapshots the live
  // search every checkpoint_interval_seconds. State is copied under the
  // search mutex (cheap vector copies — workers block only for the copy);
  // serialization and the atomic file write happen outside it.
  std::atomic<int> checkpoints_written{0};
  std::atomic<double> checkpoint_seconds{0.0};
  const bool periodic_ck =
      checkpointing && options_.checkpoint_interval_seconds > 0.0;
  std::thread ck_writer;
  std::mutex ck_mutex;
  std::condition_variable ck_cv;
  bool ck_stop = false;
  if (periodic_ck) {
    ctx.track_current = true;
    ctx.current_nodes.assign(static_cast<std::size_t>(ctx.num_workers),
                             std::nullopt);
    ck_writer = std::thread([&] {
      std::unique_lock<std::mutex> lock(ck_mutex);
      const auto interval =
          std::chrono::duration<double>(options_.checkpoint_interval_seconds);
      while (!ck_cv.wait_for(lock, interval, [&] { return ck_stop; })) {
        const double mark = ctx.watch.seconds();
        SolveCheckpoint ck;
        {
          std::lock_guard<std::mutex> search_lock(ctx.mutex);
          ck = capture_checkpoint(ctx, pcstore, fingerprint, n);
        }
        if (save_checkpoint(options_.checkpoint_path, ck))
          checkpoints_written.fetch_add(1, std::memory_order_relaxed);
        checkpoint_seconds.fetch_add(ctx.watch.seconds() - mark,
                                     std::memory_order_relaxed);
      }
    });
  }

  if (ctx.num_workers == 1) {
    run_worker(ctx, reduced);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(ctx.num_workers);
    for (int t = 0; t < ctx.num_workers; ++t)
      threads.emplace_back([&ctx, &reduced] { run_worker(ctx, reduced); });
    for (std::thread& t : threads) t.join();
  }
  if (periodic_ck) {
    {
      std::lock_guard<std::mutex> lock(ck_mutex);
      ck_stop = true;
    }
    ck_cv.notify_all();
    ck_writer.join();
  }
  if (ctx.failure) std::rethrow_exception(ctx.failure);

  // Deterministic single-threaded result reduction: every branch below
  // reads the joined workers' state under no concurrency.
  sol.stats.search_seconds = ctx.watch.seconds() - phase_mark;
  sol.stats.nodes = ctx.nodes.load();
  report_lp();
  sol.stats.dropped_nodes = ctx.dropped_nodes.load();
  sol.stats.stolen_nodes = ctx.stolen_nodes;
  sol.stats.termination = controller.reason();
  sol.stats.shed_cuts = ctx.shed_cuts.load();
  sol.stats.shed_diving = ctx.shed_diving.load();
  sol.stats.peak_memory_bytes = controller.peak_memory();
  sol.stats.seconds = ctx.watch.seconds();
  sol.stats.cuts_clique_separated = ctx.clique_separated.load();
  sol.stats.cuts_cover_separated = ctx.cover_separated.load();
  sol.stats.cuts_gomory_separated = ctx.gomory_separated.load();
  sol.stats.cuts_odd_cycle_separated = ctx.odd_cycle_separated.load();
  for (const Cut& c : pool.applied()) {
    switch (c.cut_class) {
      case CutClass::kClique: ++sol.stats.cuts_clique_applied; break;
      case CutClass::kCover: ++sol.stats.cuts_cover_applied; break;
      case CutClass::kGomory: ++sol.stats.cuts_gomory_applied; break;
      case CutClass::kOddCycle: ++sol.stats.cuts_odd_cycle_applied; break;
    }
  }
  sol.stats.cuts_aged_out = pool.aged_out();
  sol.stats.reliability_probed = ctx.reliability_probed.load();
  sol.stats.reliability_fixed = ctx.reliability_fixed.load();
  sol.stats.reliability_tightened = ctx.reliability_tightened.load();
  sol.stats.rc_fixed_root = rc_fixed_root;
  sol.stats.rc_fixed_incumbent = ctx.rc_fixed_incumbent;

  // Final checkpoint: any early stop persists the complete frontier —
  // take() returned every worker's local node to the pool before exit, so
  // the post-join pool IS the set of unexplored regions. A natural
  // completion instead removes a leftover snapshot: resuming from it would
  // redo work the finished proof already covers.
  if (checkpointing && !ctx.root_unbounded.load()) {
    if (sol.stats.termination != util::StopReason::kNone) {
      const double mark = ctx.watch.seconds();
      const SolveCheckpoint ck = capture_checkpoint(ctx, pcstore, fingerprint, n);
      if (save_checkpoint(options_.checkpoint_path, ck))
        checkpoints_written.fetch_add(1, std::memory_order_relaxed);
      else
        util::log_warn() << "checkpoint: write to " << options_.checkpoint_path
                         << " failed";
      checkpoint_seconds.fetch_add(ctx.watch.seconds() - mark,
                                   std::memory_order_relaxed);
    } else {
      std::remove(options_.checkpoint_path.c_str());
    }
  }
  sol.stats.checkpoints_written = checkpoints_written.load();
  sol.stats.checkpoint_seconds = checkpoint_seconds.load();

  // End-of-solve accounting teardown: release the open nodes and zero the
  // cut-pool gauge (workers already released their LP cut rows when they
  // retired). Whatever remains accounted is a reserve/release imbalance —
  // reported in the stats instead of silently leaked.
  for (const Node& open : ctx.pool) controller.release(node_bytes(open));
  if (cuts_enabled) ctx.update_cut_pool_bytes(0);
  sol.stats.memory_unreleased_bytes = controller.memory_used();

  if (ctx.root_unbounded.load()) {
    sol.status = SolveStatus::kUnbounded;
    return sol;
  }

  const bool exhausted = ctx.exhausted.load();
  const double cutoff = ctx.cutoff.load();

  // Final bound: min over open nodes, dropped nodes and, if exhausted, the
  // incumbent.
  double best_bound = exhausted ? cutoff : lp::kInfinity;
  for (const Node& open : ctx.pool)
    best_bound = std::min(best_bound, open.parent_bound);
  best_bound = std::min(best_bound, ctx.dropped_bound);
  if (ctx.pool.empty() && exhausted) best_bound = cutoff;
  sol.stats.best_bound = best_bound;

  // Honest termination statuses: a deadline, cancellation or memory-budget
  // stop is reported as itself (with or without an incumbent; see
  // Solution::has_solution). A node-limit stop keeps the legacy
  // kFeasible / kNoSolutionFound mapping; stats.termination says why.
  const auto limit_status = [&](SolveStatus fallback) {
    switch (sol.stats.termination) {
      case util::StopReason::kTimeLimit: return SolveStatus::kTimeLimit;
      case util::StopReason::kCancelled: return SolveStatus::kCancelled;
      case util::StopReason::kMemoryLimit: return SolveStatus::kMemoryLimit;
      default: return fallback;
    }
  };
  if (!ctx.incumbent.empty()) {
    sol.values = std::move(ctx.incumbent);
    sol.objective = cutoff;
    const bool proven = exhausted ||
                        (std::isfinite(best_bound) &&
                         (ctx.integral_obj ? best_bound >= cutoff - 0.5
                                           : best_bound >= cutoff - kBoundEps));
    sol.status =
        proven ? SolveStatus::kOptimal : limit_status(SolveStatus::kFeasible);
    if (sol.status == SolveStatus::kOptimal) sol.stats.best_bound = cutoff;
  } else if (exhausted && !std::isfinite(options_.initial_cutoff) &&
             !(restored != nullptr && std::isfinite(restored->cutoff))) {
    // A restored finite cutoff without an incumbent means the interrupted
    // run was itself seeded — regions at or above that seed were pruned,
    // so "no solution below the seed" is the strongest honest claim.
    sol.status = SolveStatus::kInfeasible;
  } else {
    // Either a limit was hit, or a seeded cutoff pruned everything (the
    // problem may still be feasible at or above the seed).
    sol.status = limit_status(SolveStatus::kNoSolutionFound);
  }

  // ---------------------------------------------------------------------
  // Exit audit (ON by default): no proof leaves the solver unbacked.
  //  (a) The incumbent is re-verified against the ORIGINAL pre-presolve
  //      model (presolve/probing/fixing all preserve variable indices, so
  //      the mapping is the identity). A failing incumbent is DROPPED —
  //      an infeasible "solution" is never handed out.
  //  (b) The root dual bound is recomputed on a FRESH factorization of
  //      the final root LP (cuts + globally valid fixings as the search
  //      left them), so eta-file drift cannot survive into the reported
  //      certificate. A recomputed bound that comes in BELOW the recorded
  //      root bound means the root certificate was corrupted: a kOptimal
  //      claim resting on it is downgraded to kFeasible.
  // ---------------------------------------------------------------------
  if (options_.exit_audit) {
    const double audit_start = ctx.watch.seconds();
    sol.stats.audit_ran = true;
    bool incumbent_dropped = false;
    if (!sol.values.empty()) {
      const double viol = original.max_violation(sol.values, true);
      const double audit_obj = original.objective_value(sol.values);
      sol.stats.audit_max_violation = viol;
      if (viol <= 10 * kActivityEps &&
          std::abs(audit_obj - sol.objective) <=
              1e-6 * std::max(1.0, std::abs(audit_obj))) {
        sol.stats.audit_incumbent_ok = true;
        sol.objective = audit_obj;  // report the re-verified objective
      } else {
        util::log_warn() << "exit audit: incumbent failed re-verification "
                            "(violation "
                         << viol << ", objective " << audit_obj << " vs "
                         << sol.objective << "); solution dropped";
        sol.values.clear();
        sol.objective = lp::kInfinity;
        incumbent_dropped = true;
        sol.stats.audit_downgraded = true;
        sol.status = limit_status(SolveStatus::kNoSolutionFound);
        sol.stats.best_bound = -lp::kInfinity;  // claims rested on the drop
      }
    }
    // (b) Certified root bound. Skipped when the incumbent was dropped:
    // the reduced model's incumbent-driven rc fixings were conditioned on
    // it, so its root LP certifies nothing about the original model.
    if (!incumbent_dropped) {
      if (!root_lp) root_lp.emplace(reduced, Worker::simplex_options(options_));
      SimplexSolver& audit_lp = *root_lp;
      audit_lp.set_controller(nullptr);  // the audit itself always finishes
      audit_lp.refresh_factorization();
      const LpResult alp = audit_lp.solve();
      sol.stats.audit_lp_iterations = alp.iterations;
      const double recorded = sol.stats.root_cut_bound;
      // Integral bounds are ceil'ed integers: any disagreement is a whole
      // unit. Continuous bounds get a relative drift tolerance.
      const double drift_tol =
          ctx.integral_obj ? 0.5
                           : std::max(1e-6, 1e-9 * std::abs(recorded));
      if (alp.status == LpStatus::kOptimal) {
        const double cert = ctx.node_bound(alp.objective);
        sol.stats.audit_root_bound = cert;
        if (std::isfinite(recorded) && cert < recorded - drift_tol) {
          // Fresh factors disagree with the bound the search pruned with.
          util::log_warn() << "exit audit: recomputed root bound " << cert
                           << " below recorded " << recorded
                           << "; optimality proof not certified";
          if (sol.status == SolveStatus::kOptimal) {
            sol.status = SolveStatus::kFeasible;
            sol.stats.audit_downgraded = true;
          }
          sol.stats.best_bound = std::min(sol.stats.best_bound, cert);
        } else {
          sol.stats.audit_bound_ok = true;
          // The certified bound can only strengthen a non-proven claim.
          if (sol.status != SolveStatus::kOptimal) {
            const double glob =
                sol.values.empty() ? cert : std::min(sol.objective, cert);
            sol.stats.best_bound =
                std::isfinite(sol.stats.best_bound)
                    ? std::max(sol.stats.best_bound, glob)
                    : glob;
          }
        }
      } else if (sol.status == SolveStatus::kOptimal) {
        // The audit could not recompute the bound at all (numerical wall):
        // the proof is unbacked — downgrade rather than overclaim.
        util::log_warn() << "exit audit: root LP re-solve failed (status "
                         << static_cast<int>(alp.status)
                         << "); optimality claim downgraded";
        sol.status = SolveStatus::kFeasible;
        sol.stats.audit_downgraded = true;
      }
    }
    sol.stats.audit_seconds = ctx.watch.seconds() - audit_start;
    sol.stats.seconds = ctx.watch.seconds();
  }
  return sol;
}

Solution Solver::solve(const Model& original) const {
  if (options_.resume_path.empty()) return solve_impl(original, nullptr);
  std::optional<SolveCheckpoint> ck = load_checkpoint(options_.resume_path);
  if (ck) return solve_impl(original, &*ck);
  // Distinguish "no snapshot yet" (a fresh job: plain cold start) from a
  // present-but-unreadable file (torn write, truncation, corruption):
  // only the latter counts as a rejected resume.
  bool existed = false;
  if (std::FILE* f = std::fopen(options_.resume_path.c_str(), "rb")) {
    std::fclose(f);
    existed = true;
    util::log_warn() << "resume: snapshot " << options_.resume_path
                     << " unreadable (bad frame or checksum); cold start";
  }
  Solution sol = solve_impl(original, nullptr);
  if (existed) ++sol.stats.resume_rejected;
  return sol;
}

Solution Solver::resume(const Model& original,
                        const SolveCheckpoint& snapshot) const {
  return solve_impl(original, &snapshot);
}

}  // namespace advbist::ilp
