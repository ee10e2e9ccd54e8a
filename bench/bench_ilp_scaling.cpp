// Solver scaling sweep: threads x problem size over the built-in HLS
// benchmarks, emitting machine-readable JSON (BENCH_solver.json) so future
// PRs can diff nodes/sec against this one. Run via bench/run_bench.sh or the
// CMake `bench` target.
//
// Environment knobs:
//   ADVBIST_BENCH_MODELS   comma-separated circuits (default fig1,tseng,paulin)
//   ADVBIST_BENCH_THREADS  comma-separated thread counts (default 1,2,4).
//                          Counts above hardware_concurrency are skipped —
//                          on an undersized container they would record
//                          queueing overhead, not scaling — unless
//                          ADVBIST_BENCH_OVERSUBSCRIBE=1 keeps them
//                          (annotated "oversubscribed": true in the JSON).
//   ADVBIST_BENCH_NODES    node budget per solve (default 1000)
//   ADVBIST_BENCH_CUTS     0|1: run only the cuts-off or cuts-on config.
//                          Unset: run BOTH per model x thread combination,
//                          so the JSON carries an A/B pair ("cuts": bool)
//                          and the cut win stays visible in the trajectory.
//   ADVBIST_BENCH_DUAL     0|1: pin dual-simplex re-solves off or on for
//                          every run. Unset: cuts-on runs record a
//                          dual-on/dual-off A/B pair ("dual": bool); the
//                          cuts-off run uses the solver default (dual on) —
//                          cuts-off already exists as the other axis of the
//                          A/B grid and a third axis would double the sweep.
//   ADVBIST_BENCH_DUAL_PRICING  dantzig|devex|se: pin the dual leaving-row
//                          pricing rule for every run. Unset: the
//                          cuts-on/dual-on configuration records a
//                          devex/dantzig A/B pair ("pricing": string) so
//                          the pricing win stays visible per circuit; the
//                          other configurations use the solver default
//                          (devex).
//   ADVBIST_BENCH_HYPERSPARSE  0|1: pin the hyper-sparse dual ratio test
//                          off or on for every run. Unset: the
//                          cuts-on/dual-on/devex configuration records an
//                          on/off A/B pair ("hypersparse": bool) so the
//                          indexed-walk cost/win stays visible per circuit;
//                          the other configurations use the solver default
//                          (on).
//   ADVBIST_BENCH_RELIABILITY  0|1: pin in-tree reliability probing off or
//                          on (solver default: on, budget 64) for every
//                          run. Unset: the cuts-on/dual-on/devex/
//                          hypersparse-on configuration records an on/off
//                          A/B pair ("rel": bool; columns rel_probes,
//                          rel_fixed, rel_tightened) so the probe win in
//                          node counts stays visible per circuit.
//   ADVBIST_BENCH_GOMORY   0|1: pin the PR-10 separator pair — Gomory MI
//                          (4 rounds) + lifted odd-cycle — off or on for
//                          every cuts-on run. The solver default is OFF
//                          (on the built-in circuits the warm-dual path
//                          proves optima in fewer nodes without them).
//                          Unset: the default configuration records an
//                          off/on A/B pair ("gomory": bool; columns
//                          cuts_gomory, cuts_odd_cycle carry the per-class
//                          applied counts) so the separators' cost/win
//                          stays measured in the trajectory.
//   ADVBIST_BENCH_ODD_CYCLE  0|1: pin the odd-cycle separator alone,
//                          overriding the pair toggle (isolates one class).
//   ADVBIST_BENCH_STRONG_BRANCH  root strong-branching candidate count
//                          (0 disables the probing + pseudocost seeding)
//   ADVBIST_BENCH_PC_REL   pseudocost reliability threshold (observations
//                          per variable+direction before its own average
//                          is trusted alone)
//   ADVBIST_BENCH_ROW_AGE  LP cut-row age limit (consecutive slack-basic
//                          re-solves before deletion; 0 = never delete)
//   ADVBIST_BENCH_CUT_ROUNDS    root separation rounds (default: solver)
//   ADVBIST_BENCH_CUT_INTERVAL  in-tree separation interval (default: solver)
//   ADVBIST_BENCH_MAX_CUTS      cuts per separation round (default: solver)
//   ADVBIST_BENCH_PROBING=0     disable binary probing in the cuts-on config
//   ADVBIST_BENCH_RCFIX=0       disable reduced-cost fixing in cuts-on
//   ADVBIST_BENCH_REFACTOR cap on LU updates between refactorizations
//                          (default: solver default)
//   ADVBIST_BENCH_DENSE_LU=1  disable the sparse Markowitz factorization
//   ADVBIST_BENCH_AUDIT=0  disable the exit audit (A/B for its overhead;
//                          default on, and the recorded audit_seconds
//                          column keeps the cost visible per run)
//   ADVBIST_BENCH_CKPT_INTERVAL  periodic-checkpoint interval in seconds
//                          for every run (default 0 = checkpointing off).
//                          The recorded checkpoint_seconds / checkpoints
//                          columns keep the snapshot overhead visible; the
//                          default-off baseline records them as zero.
//   ADVBIST_BENCH_SERVE=1  append a warm-vs-cold serve throughput pair: a
//                          k-sweep batch is solved cold through the serve
//                          spool, then re-submitted under new job ids so
//                          every job is answered from the result cache.
//                          Lands as a "serve" object in the JSON
//                          (cold/warm seconds, cache hits, sheds).
//   ADVBIST_BENCH_OUT      output directory for BENCH_solver.json (default .)
//   ADVBIST_GIT_COMMIT     commit hash recorded in the JSON (default unknown)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/formulation.hpp"
#include "core/serve.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/solver.hpp"
#include "lp/instance_gen.hpp"
#include "lp/mps_reader.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace advbist;
using bench::split_csv;

struct Row {
  std::string model;
  int vars = 0;
  int rows = 0;
  int threads = 0;
  bool cuts = false;
  bool dual = false;
  std::string pricing;
  bool oversubscribed = false;
  long long nodes = 0;
  long long lp_iterations = 0;
  long long lp_primal1 = 0;
  long long lp_primal2 = 0;
  long long lp_dual = 0;
  long long dual_solves = 0;
  long long dual_fallbacks = 0;
  bool hypersparse = true;
  bool rel = true;      // solver default: reliability probing on
  bool gomory = false;  // solver default: Gomory + odd-cycle off
  long long hs_pivots = 0;
  long long hs_dense_pivots = 0;
  long long rho_nnz = 0;
  long long bound_flips = 0;
  long long devex_resets = 0;
  int sb_probes = 0;
  int sb_fixed = 0;
  long long rows_deleted = 0;
  int peak_rows = 0;
  long long dropped_nodes = 0;
  long long refactorizations = 0;
  long long sparse_refactorizations = 0;
  double fill_ratio = 1.0;
  long long cuts_applied = 0;
  long long cuts_clique = 0;
  long long cuts_cover = 0;
  long long cuts_gomory = 0;
  long long cuts_odd_cycle = 0;
  long long rel_probes = 0;
  int rel_fixed = 0;
  int rel_tightened = 0;
  int probing_fixed = 0;
  int rc_fixed = 0;
  double root_gap_closed = 0.0;
  double best_bound = 0.0;
  double gap = 0.0;
  double seconds = 0.0;
  double audit_seconds = 0.0;
  bool audit_verified = false;
  double checkpoint_seconds = 0.0;
  int checkpoints = 0;
  int resume_count = 0;
  long long restored_nodes = 0;
  long long lp_recoveries = 0;
  long long lp_recovery_cold = 0;
  double objective = 0.0;
  std::string status;
  bool scaling = false;            // some LP ran with non-trivial factors
  std::string sanitizer = "clean"; // pre-solve gate verdict
};

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name))
    if (std::atoi(env) > 0) return std::atoi(env);
  return fallback;
}

/// env_int that also honors an explicit "0" (a meaningful disable for the
/// cut-rounds / cut-interval knobs, matching the CLI's --cut-* flags).
int env_int_or_zero(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    if (env[0] == '0' && env[1] == '\0') return 0;
    if (std::atoi(env) > 0) return std::atoi(env);
  }
  return fallback;
}

bool env_disabled(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env == '0';
}

}  // namespace

int main() {
  const std::vector<std::string> circuits =
      split_csv(std::getenv("ADVBIST_BENCH_MODELS"), "fig1,tseng,paulin");
  const std::vector<std::string> thread_list =
      split_csv(std::getenv("ADVBIST_BENCH_THREADS"), "1,2,4");
  long long node_budget = 1000;
  if (const char* env = std::getenv("ADVBIST_BENCH_NODES"))
    if (std::atoll(env) > 0) node_budget = std::atoll(env);
  const int refactor_every = env_int("ADVBIST_BENCH_REFACTOR", 0);
  const char* dense_env = std::getenv("ADVBIST_BENCH_DENSE_LU");
  const bool dense_lu = dense_env != nullptr && *dense_env == '1';
  const bool audit = !env_disabled("ADVBIST_BENCH_AUDIT");
  const char* over_env = std::getenv("ADVBIST_BENCH_OVERSUBSCRIBE");
  const bool keep_oversubscribed = over_env != nullptr && *over_env == '1';
  const char* out_env = std::getenv("ADVBIST_BENCH_OUT");
  const std::string out_dir = out_env != nullptr && *out_env ? out_env : ".";
  const char* commit_env = std::getenv("ADVBIST_GIT_COMMIT");
  const std::string commit =
      commit_env != nullptr && *commit_env ? commit_env : "unknown";
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  // Cuts A/B selection: "0" -> off only, "1" -> on only, unset -> both.
  // Anything else is a typo; falling back to both keeps the A/B pair in
  // the JSON instead of silently dropping one configuration.
  std::vector<bool> cut_configs = {true, false};
  if (const char* env = std::getenv("ADVBIST_BENCH_CUTS")) {
    if (env[0] == '1' && env[1] == '\0') {
      cut_configs = {true};
    } else if (env[0] == '0' && env[1] == '\0') {
      cut_configs = {false};
    } else {
      std::fprintf(stderr,
                   "ADVBIST_BENCH_CUTS=%s not understood (want 0 or 1); "
                   "recording both configurations\n",
                   env);
    }
  }

  // Dual-simplex A/B: unset records dual-on AND dual-off for the cuts-on
  // configuration (the dual win on the in-tree re-solves is the pair that
  // matters); "0"/"1" pins one side for every run.
  int dual_pin = -1;
  if (const char* env = std::getenv("ADVBIST_BENCH_DUAL")) {
    if ((env[0] == '0' || env[0] == '1') && env[1] == '\0') {
      dual_pin = env[0] - '0';
    } else {
      std::fprintf(stderr,
                   "ADVBIST_BENCH_DUAL=%s not understood (want 0 or 1); "
                   "recording the A/B pair\n",
                   env);
    }
  }
  // Hyper-sparse A/B: unset records on AND off for the cuts-on / dual-on /
  // devex configuration (the indexed ratio-test walk only runs on the dual
  // re-solves); "0"/"1" pins one side for every run.
  int hs_pin = -1;
  if (const char* env = std::getenv("ADVBIST_BENCH_HYPERSPARSE")) {
    if ((env[0] == '0' || env[0] == '1') && env[1] == '\0') {
      hs_pin = env[0] - '0';
    } else {
      std::fprintf(stderr,
                   "ADVBIST_BENCH_HYPERSPARSE=%s not understood (want 0 or "
                   "1); recording the A/B pair\n",
                   env);
    }
  }
  // Reliability-probing A/B: unset records on AND off for the default
  // (cuts-on / dual-on / devex / hypersparse-on) configuration so the
  // probe win in node counts stays visible; "0"/"1" pins one side for
  // every run.
  int rel_pin = -1;
  if (const char* env = std::getenv("ADVBIST_BENCH_RELIABILITY")) {
    if ((env[0] == '0' || env[0] == '1') && env[1] == '\0') {
      rel_pin = env[0] - '0';
    } else {
      std::fprintf(stderr,
                   "ADVBIST_BENCH_RELIABILITY=%s not understood (want 0 or "
                   "1); recording the A/B pair\n",
                   env);
    }
  }
  // Separator-pair A/B (Gomory + odd-cycle together; the classes shipped
  // as one PR and win/lose together on the built-ins). The solver default
  // is off, so the off side IS the default configuration and the on side
  // enables both classes explicitly.
  int gomory_pin = -1;
  if (const char* env = std::getenv("ADVBIST_BENCH_GOMORY")) {
    if ((env[0] == '0' || env[0] == '1') && env[1] == '\0') {
      gomory_pin = env[0] - '0';
    } else {
      std::fprintf(stderr,
                   "ADVBIST_BENCH_GOMORY=%s not understood (want 0 or 1); "
                   "recording the A/B pair\n",
                   env);
    }
  }
  int oc_pin = -1;
  if (const char* env = std::getenv("ADVBIST_BENCH_ODD_CYCLE")) {
    if ((env[0] == '0' || env[0] == '1') && env[1] == '\0') {
      oc_pin = env[0] - '0';
    } else {
      std::fprintf(stderr,
                   "ADVBIST_BENCH_ODD_CYCLE=%s not understood (want 0 or 1); "
                   "following the pair toggle\n",
                   env);
    }
  }
  double ckpt_interval = 0.0;
  if (const char* env = std::getenv("ADVBIST_BENCH_CKPT_INTERVAL"))
    if (std::atof(env) > 0) ckpt_interval = std::atof(env);
  const char* serve_env = std::getenv("ADVBIST_BENCH_SERVE");
  const bool bench_serve = serve_env != nullptr && *serve_env == '1';
  const int row_age = env_int_or_zero("ADVBIST_BENCH_ROW_AGE", -1);
  const int strong_branch =
      env_int_or_zero("ADVBIST_BENCH_STRONG_BRANCH", -1);
  const int pc_rel = env_int("ADVBIST_BENCH_PC_REL", -1);

  // Dual-pricing A/B: unset records devex AND dantzig for the cuts-on /
  // dual-on configuration (the pricing win on the in-tree dual re-solves is
  // the pair that matters); a valid value pins one rule for every run.
  std::string pricing_pin;
  if (const char* env = std::getenv("ADVBIST_BENCH_DUAL_PRICING")) {
    lp::DualPricing parsed;
    if (lp::parse_dual_pricing(env, parsed)) {
      pricing_pin = env;
    } else {
      std::fprintf(stderr,
                   "ADVBIST_BENCH_DUAL_PRICING=%s not understood (want "
                   "dantzig, devex or se); recording the A/B pair\n",
                   env);
    }
  }

  std::vector<Row> rows;
  for (const std::string& name : circuits) {
    const hls::Benchmark b = hls::benchmark_by_name(name);
    core::FormulationOptions fo;
    fo.include_bist = true;
    fo.k = 2;
    const core::Formulation f(b.dfg, b.modules, fo);
    for (const std::string& t : thread_list) {
      for (const bool with_cuts : cut_configs) {
        std::vector<bool> dual_configs;
        if (dual_pin >= 0)
          dual_configs = {dual_pin == 1};
        else if (with_cuts)
          dual_configs = {true, false};
        else
          dual_configs = {true};  // solver default; cuts-off is its own axis
        bool skipped_oversubscribed = false;
        for (const bool with_dual : dual_configs) {
        std::vector<std::string> pricing_configs;
        if (!pricing_pin.empty())
          pricing_configs = {pricing_pin};
        else if (with_cuts && with_dual)
          pricing_configs = {"devex", "dantzig"};  // the A/B pair per circuit
        else
          pricing_configs = {"devex"};  // solver default; pricing is
                                        // irrelevant when dual is off
        for (const std::string& pricing : pricing_configs) {
        std::vector<bool> hs_configs;
        if (hs_pin >= 0)
          hs_configs = {hs_pin == 1};
        else if (with_cuts && with_dual && pricing == "devex")
          hs_configs = {true, false};  // the A/B pair per circuit
        else
          hs_configs = {true};  // solver default; the walk only runs on the
                                // dual re-solves
        for (const bool with_hs : hs_configs) {
        std::vector<bool> rel_configs;
        if (rel_pin >= 0)
          rel_configs = {rel_pin == 1};
        else if (with_cuts && with_dual && pricing == "devex" && with_hs)
          rel_configs = {true, false};  // the A/B pair per circuit
        else
          rel_configs = {true};  // solver default (budget 64)
        for (const bool with_rel : rel_configs) {
        std::vector<bool> gomory_configs;
        if (gomory_pin >= 0)
          gomory_configs = {gomory_pin == 1};
        else if (with_cuts && with_dual && pricing == "devex" && with_hs &&
                 with_rel)
          gomory_configs = {false, true};  // the A/B pair per circuit
        else
          gomory_configs = {false};  // solver default (both classes off)
        for (const bool with_gomory : gomory_configs) {
        ilp::Options opt;
        // Mirror bench::num_threads(): only a literal "0" selects auto;
        // typos fall back to serial so the recorded baseline stays serial.
        const int n = std::atoi(t.c_str());
        opt.num_threads = (n > 0 || t == "0") ? n : 1;
        opt.node_limit = node_budget;
        opt.time_limit_seconds = 120.0;
        if (refactor_every > 0) opt.lp_refactor_every = refactor_every;
        opt.exit_audit = audit;
        opt.lp_sparse_factorization = !dense_lu;
        opt.lp_dual_simplex = with_dual;
        opt.lp_hypersparse = with_hs;
        lp::parse_dual_pricing(pricing, opt.lp_dual_pricing);
        if (strong_branch >= 0) opt.strong_branch_vars = strong_branch;
        if (pc_rel > 0) opt.pseudocost_reliability = pc_rel;
        if (row_age >= 0) opt.lp_row_age_limit = row_age;
        if (!with_rel) opt.reliability_probe_budget = 0;
        if (with_cuts) {
          opt.cut_rounds =
              env_int_or_zero("ADVBIST_BENCH_CUT_ROUNDS", opt.cut_rounds);
          opt.cut_node_interval = env_int_or_zero("ADVBIST_BENCH_CUT_INTERVAL",
                                                  opt.cut_node_interval);
          opt.max_cuts_per_round =
              env_int("ADVBIST_BENCH_MAX_CUTS", opt.max_cuts_per_round);
          opt.use_probing = !env_disabled("ADVBIST_BENCH_PROBING");
          opt.use_rc_fixing = !env_disabled("ADVBIST_BENCH_RCFIX");
          if (with_gomory) {
            opt.gomory_rounds = 4;
            opt.odd_cycle_cuts = true;
          }
          if (oc_pin >= 0) opt.odd_cycle_cuts = oc_pin == 1;
        } else {
          opt.cut_rounds = 0;
          opt.cut_node_interval = 0;
          opt.use_clique_cuts = false;
          opt.use_cover_cuts = false;
          opt.gomory_rounds = 0;
          opt.odd_cycle_cuts = false;
          opt.use_probing = false;
          opt.use_rc_fixing = false;
        }
        const bool oversub = hw > 0 && opt.num_threads > hw;
        if (oversub && !keep_oversubscribed) {
          // More workers than cores measures scheduler queueing, not solver
          // scaling; a 1-CPU container would record it as a "scaling" row.
          std::printf(
              "%-8s threads=%d skipped (> hardware_concurrency=%d; set "
              "ADVBIST_BENCH_OVERSUBSCRIBE=1 to record anyway)\n",
              name.c_str(), opt.num_threads, hw);
          skipped_oversubscribed = true;
          break;  // same for every cut/dual config
        }
        if (ckpt_interval > 0) {
          // One snapshot path per run, removed afterwards: the overhead
          // lands in checkpoint_seconds, never in a later run's resume.
          opt.checkpoint_path = out_dir + "/bench_ckpt.tmp";
          opt.checkpoint_interval_seconds = ckpt_interval;
        }
        const ilp::Solution s = ilp::Solver(opt).solve(f.model());
        if (!opt.checkpoint_path.empty())
          std::remove(opt.checkpoint_path.c_str());
        Row row;
        row.model = name;
        row.vars = f.model().num_variables();
        row.rows = f.model().num_constraints();
        row.threads = s.stats.threads;
        row.cuts = with_cuts;
        row.dual = with_dual;
        row.pricing = pricing;
        row.oversubscribed = oversub;
        row.nodes = s.stats.nodes;
        row.lp_iterations = s.stats.lp_iterations;
        row.lp_primal1 = s.stats.lp_primal_phase1_iterations;
        row.lp_primal2 = s.stats.lp_primal_phase2_iterations;
        row.lp_dual = s.stats.lp_dual_iterations;
        row.dual_solves = s.stats.lp_dual_solves;
        row.dual_fallbacks = s.stats.lp_dual_fallbacks;
        row.hypersparse = with_hs;
        row.rel = with_rel;
        row.gomory = with_gomory;
        row.hs_pivots = s.stats.lp_dual_hypersparse_pivots;
        row.hs_dense_pivots = s.stats.lp_dual_dense_pivots;
        row.rho_nnz = s.stats.lp_dual_rho_nnz;
        row.bound_flips = s.stats.lp_bound_flips;
        row.devex_resets = s.stats.lp_devex_resets;
        row.sb_probes = s.stats.strong_branch_probed;
        row.sb_fixed = s.stats.strong_branch_fixed;
        row.rows_deleted = s.stats.lp_rows_deleted;
        row.peak_rows = s.stats.lp_peak_rows;
        row.dropped_nodes = s.stats.dropped_nodes;
        row.refactorizations = s.stats.lp_refactorizations;
        row.sparse_refactorizations = s.stats.lp_sparse_refactorizations;
        row.fill_ratio = s.stats.lp_fill_ratio;
        row.cuts_clique = s.stats.cuts_clique_applied;
        row.cuts_cover = s.stats.cuts_cover_applied;
        row.cuts_gomory = s.stats.cuts_gomory_applied;
        row.cuts_odd_cycle = s.stats.cuts_odd_cycle_applied;
        row.cuts_applied = s.stats.cuts_clique_applied +
                           s.stats.cuts_cover_applied +
                           s.stats.cuts_gomory_applied +
                           s.stats.cuts_odd_cycle_applied;
        row.rel_probes = s.stats.reliability_probed;
        row.rel_fixed = s.stats.reliability_fixed;
        row.rel_tightened = s.stats.reliability_tightened;
        row.probing_fixed = s.stats.probing_fixed;
        row.rc_fixed = s.stats.rc_fixed_root + s.stats.rc_fixed_incumbent;
        row.root_gap_closed = s.stats.root_gap_closed;
        row.best_bound =
            std::isfinite(s.stats.best_bound) ? s.stats.best_bound : 0.0;
        row.gap = std::isfinite(s.gap()) ? s.gap() : -1.0;
        row.seconds = s.stats.seconds;
        row.audit_seconds = s.stats.audit_seconds;
        row.audit_verified = s.stats.audit_ran && s.stats.audit_incumbent_ok &&
                             s.stats.audit_bound_ok;
        row.checkpoint_seconds = s.stats.checkpoint_seconds;
        row.checkpoints = s.stats.checkpoints_written;
        row.resume_count = s.stats.resumed ? 1 : 0;
        row.restored_nodes = s.stats.restored_nodes;
        row.lp_recoveries =
            s.stats.lp_recovery_refactorize + s.stats.lp_recovery_tighten +
            s.stats.lp_recovery_dense + s.stats.lp_recovery_cold;
        row.lp_recovery_cold = s.stats.lp_recovery_cold;
        row.objective = s.has_solution() ? s.objective : 0.0;
        row.status = ilp::to_string(s.status);
        row.scaling = s.stats.lp_scaling_active;
        row.sanitizer = s.stats.sanitizer_class;
        rows.push_back(row);
        std::printf(
            "%-8s threads=%d cuts=%d dual=%d pricing=%s hs=%d rel=%d gmi=%d "
            "nodes=%lld t=%.2fs nodes/s=%.0f cuts=%lld "
            "(gmi=%lld oc=%lld) probes=%lld rows_del=%lld gap=%.4f "
            "audit=%.3fs rec=%lld hs_piv=%lld/%lld (%s)%s\n",
            name.c_str(), row.threads, with_cuts ? 1 : 0, with_dual ? 1 : 0,
            pricing.c_str(), with_hs ? 1 : 0, with_rel ? 1 : 0,
            with_gomory ? 1 : 0, row.nodes, row.seconds,
            row.seconds > 0 ? row.nodes / row.seconds : 0.0, row.cuts_applied,
            row.cuts_gomory, row.cuts_odd_cycle, row.rel_probes,
            row.rows_deleted, row.gap, row.audit_seconds, row.lp_recoveries,
            row.hs_pivots, row.hs_pivots + row.hs_dense_pivots,
            row.status.c_str(),
            row.oversubscribed ? " [oversubscribed]" : "");
        }
        if (skipped_oversubscribed) break;  // same for every gomory config
        }
        if (skipped_oversubscribed) break;  // same for every rel config
        }
        if (skipped_oversubscribed) break;  // same for every hs config
        }
        if (skipped_oversubscribed) break;  // same for every pricing config
        }
        if (skipped_oversubscribed) break;  // same for every cut config
      }
    }
  }

  // Generated-corpus rows: seeded random 0/1 instances pushed through the
  // FULL untrusted-instance frontend (generator -> write_mps -> defensive
  // reader -> sanitizer gate -> solve), so the committed trajectory records
  // the file path end to end, not just the in-memory formulation path. The
  // instances are feasible by construction (planted assignment); an
  // "infeasible" status here is a frontend or solver bug, and the
  // regression gate would catch the status change. ADVBIST_BENCH_GEN sets
  // the count (default 6; the last instance is the badly-scaled variant
  // exercising the scaling knob; 0 disables the section).
  int gen_count = 6;
  if (const char* env = std::getenv("ADVBIST_BENCH_GEN"))
    gen_count = std::atoi(env);
  for (int g = 0; g < gen_count; ++g) {
    lp::GenOptions gopt;
    gopt.seed = 100 + static_cast<std::uint64_t>(g);
    gopt.num_vars = 40;
    gopt.num_rows = 60;
    gopt.badly_scaled = g == gen_count - 1 && gen_count > 1;
    const std::string gname = lp::instance_name(gopt);
    const std::string mps_path = out_dir + "/" + gname + ".mps";
    {
      std::ofstream mps(mps_path, std::ios::trunc);
      mps << lp::write_mps(lp::generate_instance(gopt), gname);
    }
    const lp::ReadResult rr = lp::read_model_file(mps_path);
    std::remove(mps_path.c_str());
    if (!rr.ok) {
      std::fprintf(stderr, "%s: frontend parse failed: %s\n", gname.c_str(),
                   rr.error.to_string().c_str());
      return 1;  // a broken round-trip must fail the bench, not skip a row
    }
    ilp::Options opt;
    opt.num_threads = 1;
    opt.node_limit = node_budget;
    opt.time_limit_seconds = 60.0;
    opt.exit_audit = audit;
    const ilp::Solution s = ilp::Solver(opt).solve(rr.model);
    Row row;
    row.model = gname;
    row.vars = rr.model.num_variables();
    row.rows = rr.model.num_constraints();
    row.threads = s.stats.threads;
    row.cuts = true;
    row.dual = true;
    row.pricing = "devex";
    row.hypersparse = true;
    row.nodes = s.stats.nodes;
    row.lp_iterations = s.stats.lp_iterations;
    row.lp_primal1 = s.stats.lp_primal_phase1_iterations;
    row.lp_primal2 = s.stats.lp_primal_phase2_iterations;
    row.lp_dual = s.stats.lp_dual_iterations;
    row.dual_solves = s.stats.lp_dual_solves;
    row.dual_fallbacks = s.stats.lp_dual_fallbacks;
    row.hs_pivots = s.stats.lp_dual_hypersparse_pivots;
    row.hs_dense_pivots = s.stats.lp_dual_dense_pivots;
    row.rho_nnz = s.stats.lp_dual_rho_nnz;
    row.bound_flips = s.stats.lp_bound_flips;
    row.devex_resets = s.stats.lp_devex_resets;
    row.sb_probes = s.stats.strong_branch_probed;
    row.sb_fixed = s.stats.strong_branch_fixed;
    row.rows_deleted = s.stats.lp_rows_deleted;
    row.peak_rows = s.stats.lp_peak_rows;
    row.dropped_nodes = s.stats.dropped_nodes;
    row.refactorizations = s.stats.lp_refactorizations;
    row.sparse_refactorizations = s.stats.lp_sparse_refactorizations;
    row.fill_ratio = s.stats.lp_fill_ratio;
    row.cuts_clique = s.stats.cuts_clique_applied;
    row.cuts_cover = s.stats.cuts_cover_applied;
    row.cuts_gomory = s.stats.cuts_gomory_applied;
    row.cuts_odd_cycle = s.stats.cuts_odd_cycle_applied;
    row.cuts_applied = s.stats.cuts_clique_applied +
                       s.stats.cuts_cover_applied +
                       s.stats.cuts_gomory_applied +
                       s.stats.cuts_odd_cycle_applied;
    row.rel_probes = s.stats.reliability_probed;
    row.rel_fixed = s.stats.reliability_fixed;
    row.rel_tightened = s.stats.reliability_tightened;
    row.probing_fixed = s.stats.probing_fixed;
    row.rc_fixed = s.stats.rc_fixed_root + s.stats.rc_fixed_incumbent;
    row.root_gap_closed = s.stats.root_gap_closed;
    row.best_bound =
        std::isfinite(s.stats.best_bound) ? s.stats.best_bound : 0.0;
    row.gap = std::isfinite(s.gap()) ? s.gap() : -1.0;
    row.seconds = s.stats.seconds;
    row.audit_seconds = s.stats.audit_seconds;
    row.audit_verified = s.stats.audit_ran && s.stats.audit_incumbent_ok &&
                         s.stats.audit_bound_ok;
    row.lp_recoveries =
        s.stats.lp_recovery_refactorize + s.stats.lp_recovery_tighten +
        s.stats.lp_recovery_dense + s.stats.lp_recovery_cold;
    row.lp_recovery_cold = s.stats.lp_recovery_cold;
    row.objective = s.has_solution() ? s.objective : 0.0;
    row.status = ilp::to_string(s.status);
    row.scaling = s.stats.lp_scaling_active;
    row.sanitizer = s.stats.sanitizer_class;
    rows.push_back(row);
    std::printf(
        "%-18s nodes=%lld t=%.2fs scaling=%d sanitizer=%s gap=%.4f (%s)\n",
        gname.c_str(), row.nodes, row.seconds,
        s.stats.lp_scaling_active ? 1 : 0, s.stats.sanitizer_class.c_str(),
        row.gap, row.status.c_str());
  }

  // Warm-vs-cold serve throughput pair: the same k-sweep batch is solved
  // cold through the spool, then re-submitted under fresh job ids so every
  // job is answered from the result cache. The pair makes the cache win —
  // and any serve-layer regression (failed jobs, lost cache hits, queue
  // sheds on a healthy run) — visible in the committed trajectory.
  bool have_serve = false;
  int serve_jobs = 0;
  double serve_cold_seconds = 0.0, serve_warm_seconds = 0.0;
  core::ServeStats serve_cold, serve_warm;
  if (bench_serve) {
    const std::string spool = out_dir + "/bench_spool";
    std::filesystem::remove_all(spool);
    core::ServeOptions so;
    so.dir = spool;
    so.default_time_limit = 120.0;
    const auto submit_batch = [&](const std::string& suffix) {
      int n = 0;
      for (const std::string& name : circuits)
        for (int k = 1; k <= 2; ++k) {
          core::JobSpec spec;
          spec.id = name + "-k" + std::to_string(k) + suffix;
          spec.circuit = name;
          spec.k = k;
          if (core::submit_job(spool, spec)) ++n;
        }
      return n;
    };
    serve_jobs = submit_batch("");
    util::Stopwatch cold_watch;
    serve_cold = core::serve(so);
    serve_cold_seconds = cold_watch.seconds();
    submit_batch("-warm");
    util::Stopwatch warm_watch;
    serve_warm = core::serve(so);
    serve_warm_seconds = warm_watch.seconds();
    std::filesystem::remove_all(spool);
    have_serve = true;
    std::printf(
        "serve    jobs=%d cold=%.2fs warm=%.2fs cache_hits=%d/%d "
        "failed=%d shed=%lld\n",
        serve_jobs, serve_cold_seconds, serve_warm_seconds,
        serve_warm.cache_hits, serve_warm.jobs_completed,
        serve_cold.jobs_failed + serve_warm.jobs_failed,
        serve_cold.jobs_shed + serve_warm.jobs_shed);
  }

  std::ostringstream json;
  json << "{\n";
  json << "  \"commit\": \"" << commit << "\",\n";
  json << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n";
  json << "  \"node_budget\": " << node_budget << ",\n";
  json << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const long long hs_total = r.hs_pivots + r.hs_dense_pivots;
    char buf[3072];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"model\": \"%s\", \"vars\": %d, \"rows\": %d, \"threads\": %d, "
        "\"cuts\": %s, \"dual\": %s, \"pricing\": \"%s\", \"nodes\": %lld, "
        "\"lp_iterations\": %lld, \"lp_primal_phase1\": %lld, "
        "\"lp_primal_phase2\": %lld, \"lp_dual\": %lld, "
        "\"dual_solves\": %lld, \"dual_fallbacks\": %lld, "
        "\"hypersparse\": %s, \"hs_pivots\": %lld, "
        "\"hs_dense_pivots\": %lld, \"rho_nnz_mean\": %.1f, "
        "\"bound_flips\": %lld, \"devex_resets\": %lld, \"sb_probes\": %d, "
        "\"sb_fixed\": %d, \"rows_deleted\": %lld, \"peak_rows\": %d, "
        "\"dropped_nodes\": %lld, \"refactorizations\": %lld, "
        "\"sparse_refactorizations\": %lld, \"fill_ratio\": %.4f, "
        "\"rel\": %s, \"gomory\": %s, "
        "\"cuts_applied\": %lld, \"cuts_clique\": %lld, \"cuts_cover\": %lld, "
        "\"cuts_gomory\": %lld, \"cuts_odd_cycle\": %lld, "
        "\"rel_probes\": %lld, \"rel_fixed\": %d, \"rel_tightened\": %d, "
        "\"probing_fixed\": %d, \"rc_fixed\": %d, \"root_gap_closed\": %.4f, "
        "\"best_bound\": %.6f, \"gap\": %.6f, \"seconds\": %.4f, "
        "\"audit_seconds\": %.4f, \"audit_verified\": %s, "
        "\"checkpoint_seconds\": %.4f, \"checkpoints\": %d, "
        "\"resume_count\": %d, \"restored_nodes\": %lld, "
        "\"lp_recoveries\": %lld, \"lp_recovery_cold\": %lld, "
        "\"nodes_per_sec\": %.1f, \"objective\": %.6f, \"status\": \"%s\", "
        "\"scaling\": %s, \"sanitizer\": \"%s\"%s}%s\n",
        r.model.c_str(), r.vars, r.rows, r.threads, r.cuts ? "true" : "false",
        r.dual ? "true" : "false", r.pricing.c_str(), r.nodes,
        r.lp_iterations, r.lp_primal1,
        r.lp_primal2, r.lp_dual, r.dual_solves, r.dual_fallbacks,
        r.hypersparse ? "true" : "false", r.hs_pivots, r.hs_dense_pivots,
        hs_total > 0 ? static_cast<double>(r.rho_nnz) / hs_total : 0.0,
        r.bound_flips, r.devex_resets, r.sb_probes, r.sb_fixed,
        r.rows_deleted, r.peak_rows, r.dropped_nodes,
        r.refactorizations,
        r.sparse_refactorizations, r.fill_ratio,
        r.rel ? "true" : "false", r.gomory ? "true" : "false",
        r.cuts_applied, r.cuts_clique,
        r.cuts_cover, r.cuts_gomory, r.cuts_odd_cycle, r.rel_probes,
        r.rel_fixed, r.rel_tightened,
        r.probing_fixed, r.rc_fixed, r.root_gap_closed,
        r.best_bound, r.gap, r.seconds, r.audit_seconds,
        r.audit_verified ? "true" : "false", r.checkpoint_seconds,
        r.checkpoints, r.resume_count, r.restored_nodes, r.lp_recoveries,
        r.lp_recovery_cold,
        r.seconds > 0 ? r.nodes / r.seconds : 0.0, r.objective,
        r.status.c_str(), r.scaling ? "true" : "false", r.sanitizer.c_str(),
        r.oversubscribed ? ", \"oversubscribed\": true" : "",
        i + 1 < rows.size() ? "," : "");
    json << buf;
  }
  json << "  ]";
  if (have_serve) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        ",\n  \"serve\": {\"jobs\": %d, \"cold_seconds\": %.4f, "
        "\"warm_seconds\": %.4f, \"cold_jobs_per_sec\": %.2f, "
        "\"warm_completed\": %d, \"warm_cache_hits\": %d, "
        "\"jobs_failed\": %d, \"jobs_shed\": %lld, "
        "\"checkpoints_written\": %d, \"resume_rejected\": %d}",
        serve_jobs, serve_cold_seconds, serve_warm_seconds,
        serve_cold_seconds > 0 ? serve_jobs / serve_cold_seconds : 0.0,
        serve_warm.jobs_completed, serve_warm.cache_hits,
        serve_cold.jobs_failed + serve_warm.jobs_failed,
        serve_cold.jobs_shed + serve_warm.jobs_shed,
        serve_cold.checkpoints_written + serve_warm.checkpoints_written,
        serve_cold.resume_rejected + serve_warm.resume_rejected);
    json << buf;
  }
  json << "\n}\n";

  const std::string path = out_dir + "/BENCH_solver.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
