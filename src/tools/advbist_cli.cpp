// advbist — command-line front end.
//
//   advbist synth   <circuit|file.dfg> [--k N] [--time S] [--threads N]
//                                      [--verilog out.v]
//   advbist sweep   <circuit|file.dfg> [--time S] [--threads N]  # all k
//   advbist compare <circuit|file.dfg> [--time S] [--threads N]  # heuristics
//   advbist print   <circuit>                            # dump .dfg text
//   advbist solve   <file.mps|file.lp> [--time S] [--threads N] [--nodes N]
//                                      [--scale 0|1] [... solver knobs]
//                   # solve an untrusted MPS / CPLEX-LP instance directly:
//                   # defensive reader -> sanitizer gate -> branch & cut.
//                   # A malformed file is a typed parse error with its
//                   # line:column; non-finite data is an honest "invalid
//                   # model" — never a crash, never a wrong proof.
//   advbist submit  <dir> <circuit|file.dfg|file.mps|file.lp> [--job ID]
//                                      [--k N] [--time S]
//                                      [--threads N] [--nodes N]
//   advbist serve   <dir> [--queue N] [--retries N] [--time S] [--threads N]
//                         [--ckpt-interval S] [--watch] [--poll S]
//                         [--mem-limit MB] [--seed X]
//
// --threads N runs the branch & bound on N worker threads (0 = one per
// hardware thread); parallel solves prove the same optimum as serial ones.
//
// LP factorization knobs (all commands that solve):
//   --refactor N   cap on LU updates between refactorizations (default 200)
//   --mtol X       Markowitz threshold-pivoting tolerance in (0,1]
//                  (default 0.1; larger = more stable, more fill)
//   --dense-lu     disable the sparse Markowitz factorization (dense sweep)
//   --dual 0|1     dual-simplex warm re-solves after bound changes and cut
//                  appends (default 1; 0 = primal phase-1/2 re-solves)
//   --dual-pricing dantzig|devex|se
//                  leaving-row rule for the dual re-solves: devex reference
//                  weights (default), exact steepest edge (se, one extra
//                  FTRAN per pivot) or plain largest violation (dantzig)
//   --hypersparse 0|1
//                  hyper-sparse dual ratio test (default 1): walk only the
//                  columns the BTRANed pivot row actually touches instead
//                  of the dense rho'A pass; bit-exact, dense rows fall back
//                  (counted, never silent)
//   --row-age N    delete a cut row after its slack stayed basic for N
//                  consecutive re-solves (default 40, 0 = never delete)
//   --scale 0|1    geometric-mean + equilibration scaling of the worker LPs
//                  (default 1). Factors are powers of two, so unscaling is
//                  bit-exact and well-scaled models (all nonzeros within
//                  [2^-6, 2^6]) skip the transform entirely — the built-in
//                  benchmarks solve bit-identically either way.
//
// Cut-and-bound knobs (all commands that solve):
//   --cuts 0|1       master cut switch (default 1); 0 silences every
//                    separator class (clique, cover, Gomory, odd-cycle)
//   --gomory N       Gomory mixed-integer cut separation rounds read off the
//                    LU factors at fractional LP optima (default 0 = off:
//                    on the built-in circuits the warm-dual path wins
//                    without them; they pay on weaker configurations)
//   --odd-cycle 0|1  lifted odd-cycle cuts from the conflict graph
//                    (default 0, same measured reason as --gomory)
//   --cut-rounds N   root separation rounds (default 8)
//   --cut-interval N in-tree separation every N nodes, 0 = off (default 16)
//   --max-cuts N     cuts applied per separation round (default 64)
//   --probing 0|1    binary probing presolve (default 1)
//   --rcfix 0|1      reduced-cost fixing (default 1)
//
// Branching knobs (all commands that solve):
//   --strong-branch N  fractional root variables probed by strong branching
//                      to seed the shared pseudocosts (default 12, 0 = off)
//   --rel-probes N     global budget of in-tree reliability probes: bounded
//                      dual-simplex strong branching at nodes whose pick is
//                      still below the pseudocost reliability threshold,
//                      allowance decaying with depth (default 64, 0 = off)
//
// Solve-lifecycle knobs (all commands that solve):
//   --mem-limit MB   cooperative memory budget for the node + cut pools;
//                    soft pressure sheds cuts/diving, the hard limit stops
//                    the solve with an honest "memory limit" status (0 = off)
//   --no-audit       skip the exit audit (incumbent re-verification against
//                    the original model + fresh-factorization bound
//                    recertification; ON by default)
//
// Checkpoint/resume knobs (synth only):
//   --checkpoint F     write a crash-safe solve snapshot to F on any early
//                      stop (deadline, ^C/SIGTERM, memory/node limit); a
//                      natural completion removes F instead
//   --resume F         resume a solve from snapshot F; an invalid or stale
//                      snapshot degrades to a cold start (counted), never
//                      a wrong proof
//   --ckpt-interval S  with --checkpoint: also snapshot every S seconds
//                      from a dedicated writer thread
//
// SIGINT (Ctrl-C) and SIGTERM cancel the solve cooperatively: the search
// stops at the next controller poll and reports the best incumbent + bound
// found so far with status "cancelled" instead of dying mid-proof (with
// --checkpoint the frontier is snapshotted on the way out). In serve mode
// SIGTERM/SIGINT drains: the in-flight job checkpoints, queued jobs stay
// pending on disk, and a restarted serve resumes all of them.
//
// The full knob/stat reference lives in docs/solver.md.
//
// <circuit> is a built-in benchmark name (fig1, tseng, paulin, fir6, iir3,
// dct4, wavelet6); anything containing '.' is read as a .dfg text file.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "baselines/baselines.hpp"
#include "bist/verilog.hpp"
#include "core/serve.hpp"
#include "core/synthesizer.hpp"
#include "hls/benchmarks.hpp"
#include "hls/dfg_parser.hpp"
#include "lp/mps_reader.hpp"

using namespace advbist;

namespace {

// SIGINT/SIGTERM flip this flag; the solve controller polls it from every
// layer (an atomic store is all the handler does — async-signal-safe). In
// serve mode the same flag is the drain request.
std::atomic<bool> g_cancel{false};

void handle_cancel_signal(int) {
  g_cancel.store(true, std::memory_order_relaxed);
}

hls::ParsedDesign load_design(const std::string& spec) {
  if (spec.find('.') == std::string::npos) {
    const hls::Benchmark b = hls::benchmark_by_name(spec);
    return hls::ParsedDesign{b.dfg, b.modules};
  }
  std::ifstream in(spec);
  if (!in) throw std::invalid_argument("cannot open " + spec);
  std::ostringstream text;
  text << in.rdbuf();
  return hls::parse_dfg_text(text.str());
}

int usage() {
  std::fprintf(stderr,
               "usage: advbist <synth|sweep|compare|print> "
               "<circuit|file.dfg> [--k N] [--time S] [--threads N] "
               "[--refactor N] [--mtol X] [--dense-lu] [--dual 0|1] "
               "[--dual-pricing dantzig|devex|se] [--hypersparse 0|1] "
               "[--row-age N] "
               "[--strong-branch N] [--rel-probes N] [--cuts 0|1] "
               "[--gomory N] [--odd-cycle 0|1] "
               "[--cut-rounds N] [--cut-interval N] [--max-cuts N] "
               "[--probing 0|1] [--rcfix 0|1] [--mem-limit MB] [--no-audit] "
               "[--checkpoint F] [--resume F] [--ckpt-interval S] "
               "[--scale 0|1] [--verilog out.v]\n"
               "       advbist solve <file.mps|file.lp> [--time S] "
               "[--threads N] [--nodes N] [--scale 0|1] [solver knobs]\n"
               "       advbist submit <dir> <circuit|file.dfg|file.mps"
               "|file.lp> [--job ID] "
               "[--k N] [--time S] [--threads N] [--nodes N]\n"
               "       advbist serve <dir> [--queue N] [--retries N] "
               "[--time S] [--threads N] [--ckpt-interval S] [--watch] "
               "[--poll S] [--mem-limit MB] [--seed X]\n");
  return 2;
}

int cmd_submit(int argc, char** argv) {
  const std::string dir = argv[2];
  if (argc < 4) return usage();
  core::JobSpec spec;
  spec.circuit = argv[3];
  for (int i = 4; i < argc; ++i) {
    if (i + 1 >= argc) return usage();
    char* end = nullptr;
    if (std::strcmp(argv[i], "--job") == 0) spec.id = argv[i + 1];
    else if (std::strcmp(argv[i], "--k") == 0) {
      spec.k = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || spec.k < 1) return usage();
    } else if (std::strcmp(argv[i], "--time") == 0) {
      spec.time_limit = std::strtod(argv[i + 1], &end);
      if (end == nullptr || *end != '\0' || spec.time_limit <= 0)
        return usage();
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      spec.threads = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || spec.threads < 0) return usage();
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      spec.node_limit = std::strtoll(argv[i + 1], &end, 10);
      if (end == nullptr || *end != '\0' || spec.node_limit < 0)
        return usage();
    } else {
      return usage();
    }
    ++i;
  }
  if (spec.id.empty()) {
    // Default id: circuit + session count, with path characters flattened.
    spec.id = spec.circuit + "-k" + std::to_string(spec.k);
    for (char& c : spec.id)
      if (c == '/' || c == '\\') c = '_';
  }
  if (!core::submit_job(dir, spec)) {
    std::fprintf(stderr, "advbist: submit failed (bad job id or spool dir)\n");
    return 1;
  }
  std::printf("submitted %s (circuit %s, k=%d) to %s\n", spec.id.c_str(),
              spec.circuit.c_str(), spec.k, dir.c_str());
  return 0;
}

int cmd_serve(int argc, char** argv) {
  core::ServeOptions so;
  so.dir = argv[2];
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--watch") == 0) {
      so.watch = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    char* end = nullptr;
    if (std::strcmp(argv[i], "--queue") == 0) {
      so.queue_capacity = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || so.queue_capacity < 1)
        return usage();
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      so.max_retries = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || so.max_retries < 0) return usage();
    } else if (std::strcmp(argv[i], "--time") == 0) {
      so.default_time_limit = std::strtod(argv[i + 1], &end);
      if (end == nullptr || *end != '\0' || so.default_time_limit <= 0)
        return usage();
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      so.default_threads = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || so.default_threads < 0)
        return usage();
    } else if (std::strcmp(argv[i], "--ckpt-interval") == 0) {
      so.checkpoint_interval_seconds = std::strtod(argv[i + 1], &end);
      if (end == nullptr || *end != '\0' ||
          so.checkpoint_interval_seconds < 0)
        return usage();
    } else if (std::strcmp(argv[i], "--poll") == 0) {
      so.poll_seconds = std::strtod(argv[i + 1], &end);
      if (end == nullptr || *end != '\0' || so.poll_seconds <= 0)
        return usage();
    } else if (std::strcmp(argv[i], "--mem-limit") == 0) {
      const long long mb = std::strtoll(argv[i + 1], &end, 10);
      if (end == nullptr || *end != '\0' || mb < 0) return usage();
      so.solver.memory_limit_bytes =
          static_cast<std::size_t>(mb) * 1024 * 1024;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      so.backoff.seed = std::strtoull(argv[i + 1], &end, 10);
      if (end == nullptr || *end != '\0') return usage();
    } else {
      return usage();
    }
    ++i;
  }
  so.drain = &g_cancel;
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);
  const core::ServeStats st = core::serve(so);
  for (const core::JobOutcome& o : st.outcomes)
    std::printf("job %s: %s area=%d attempts=%d%s%s%s\n", o.id.c_str(),
                o.status.c_str(), o.area, o.attempts,
                o.resumed ? " resumed" : "", o.verified ? " verified" : "",
                o.from_cache ? " cached" : "");
  std::printf(
      "serve: %d completed, %d failed, %d malformed, %lld shed%s, "
      "%d retries, %d cache hits, %d resumed, %d checkpoints, "
      "%d snapshots rejected%s\n",
      st.jobs_completed, st.jobs_failed, st.jobs_malformed, st.jobs_shed,
      st.memory_pressure_shed ? " (memory pressure)" : "", st.retries,
      st.cache_hits, st.resumed_jobs, st.checkpoints_written,
      st.resume_rejected, st.drained ? ", drained" : "");
  return (st.jobs_failed > 0 || st.jobs_malformed > 0) ? 1 : 0;
}

// advbist solve <file.mps|file.lp>: the untrusted-instance path. The
// defensive reader parses the file (typed line:column errors, hard caps),
// the sanitizer gate inside the solver classifies/repairs the model, and
// the branch & cut runs with scaling on by default. Exit codes: 0 solve
// ran (any honest status), 2 parse error, 3 sanitizer-rejected model.
int cmd_solve(int argc, char** argv) {
  const std::string path = argv[2];
  ilp::Options opt;
  opt.time_limit_seconds = 20.0;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-audit") == 0) {
      opt.exit_audit = false;
      continue;
    }
    if (i + 1 >= argc) return usage();
    char* end = nullptr;
    if (std::strcmp(argv[i], "--time") == 0) {
      opt.time_limit_seconds = std::strtod(argv[i + 1], &end);
      if (end == nullptr || *end != '\0' || opt.time_limit_seconds <= 0)
        return usage();
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const int n = std::atoi(argv[i + 1]);
      opt.num_threads = (n > 0 || std::strcmp(argv[i + 1], "0") == 0) ? n : 1;
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      opt.node_limit = std::strtoll(argv[i + 1], &end, 10);
      if (end == nullptr || *end != '\0' || opt.node_limit < 0) return usage();
    } else if (std::strcmp(argv[i], "--mem-limit") == 0) {
      const long long mb = std::strtoll(argv[i + 1], &end, 10);
      if (end == nullptr || *end != '\0' || mb < 0) return usage();
      opt.memory_limit_bytes = static_cast<std::size_t>(mb) * 1024 * 1024;
    } else if (std::strcmp(argv[i], "--strong-branch") == 0) {
      const int v = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || v < 0) return usage();
      opt.strong_branch_vars = v;
    } else if (std::strcmp(argv[i], "--gomory") == 0) {
      const int v = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || v < 0) return usage();
      opt.gomory_rounds = v;
    } else if (std::strcmp(argv[i], "--rel-probes") == 0) {
      const int v = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || v < 0) return usage();
      opt.reliability_probe_budget = v;
    } else if (std::strcmp(argv[i], "--dual-pricing") == 0) {
      if (!lp::parse_dual_pricing(argv[i + 1], opt.lp_dual_pricing))
        return usage();
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      opt.checkpoint_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      opt.resume_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--ckpt-interval") == 0) {
      opt.checkpoint_interval_seconds = std::strtod(argv[i + 1], &end);
      if (end == nullptr || *end != '\0' ||
          opt.checkpoint_interval_seconds < 0)
        return usage();
    } else if (std::strcmp(argv[i], "--scale") == 0 ||
               std::strcmp(argv[i], "--cuts") == 0 ||
               std::strcmp(argv[i], "--probing") == 0 ||
               std::strcmp(argv[i], "--rcfix") == 0 ||
               std::strcmp(argv[i], "--dual") == 0 ||
               std::strcmp(argv[i], "--odd-cycle") == 0 ||
               std::strcmp(argv[i], "--hypersparse") == 0) {
      const char* val = argv[i + 1];
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        std::fprintf(stderr, "advbist: %s wants 0 or 1\n", argv[i]);
        return usage();
      }
      const bool on = val[0] == '1';
      if (argv[i][2] == 's') opt.lp_scaling = on;
      else if (argv[i][2] == 'c') {
        // Master cut switch: 0 silences every separator class.
        opt.use_clique_cuts = on;
        opt.use_cover_cuts = on;
        if (!on) {
          opt.cut_rounds = 0;
          opt.cut_node_interval = 0;
          opt.gomory_rounds = 0;
          opt.odd_cycle_cuts = false;
        }
      } else if (argv[i][2] == 'p') opt.use_probing = on;
      else if (argv[i][2] == 'd') opt.lp_dual_simplex = on;
      else if (argv[i][2] == 'h') opt.lp_hypersparse = on;
      else if (argv[i][2] == 'o') opt.odd_cycle_cuts = on;
      else opt.use_rc_fixing = on;
    } else {
      return usage();
    }
    ++i;
  }

  const lp::ReadResult rr = lp::read_model_file(path);
  if (!rr.ok) {
    std::fprintf(stderr, "advbist: %s: %s\n", path.c_str(),
                 rr.error.to_string().c_str());
    return 2;
  }
  int integers = 0;
  for (int v = 0; v < rr.model.num_variables(); ++v)
    if (rr.model.variable(v).type == lp::VarType::kInteger) ++integers;
  std::printf("%s: %s, %d rows, %d cols (%d integer), %s%s%s\n",
              rr.name.empty() ? path.c_str() : rr.name.c_str(),
              rr.format.c_str(), rr.model.num_constraints(),
              rr.model.num_variables(), integers,
              rr.maximize ? "maximize" : "minimize",
              rr.num_ranges > 0 ? ", ranges expanded" : "",
              rr.crossed_bounds > 0 ? ", crossed bounds" : "");

  opt.cancel_flag = &g_cancel;
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);
  const ilp::Solver solver(opt);
  const ilp::Solution r = solver.solve(rr.model);
  const ilp::Stats& st = r.stats;

  if (st.sanitizer_class != "clean" || st.sanitizer_proven_infeasible)
    std::printf(
        "sanitizer: %s%s (%lld duplicates merged, %lld zero coeffs dropped, "
        "%lld vacuous rows, %lld contradictory rows, %lld crossed bounds), "
        "fingerprint %016llx\n",
        st.sanitizer_class.c_str(),
        st.sanitizer_proven_infeasible ? " [proven infeasible]" : "",
        st.sanitizer_duplicates_merged, st.sanitizer_zero_coeffs_dropped,
        st.sanitizer_vacuous_rows_dropped, st.sanitizer_contradictory_rows,
        st.sanitizer_crossed_bounds,
        static_cast<unsigned long long>(st.sanitizer_fingerprint));
  if (st.lp_scaling_active)
    std::printf("scaling: active (power-of-two geometric-mean + "
                "equilibration; solutions reported unscaled)\n");

  const auto user_value = [&](double z) {
    return (rr.maximize ? -z : z) + rr.objective_offset;
  };
  if (r.has_solution())
    std::printf("%s: objective %.10g (bound %.10g), %lld nodes, %lld LP "
                "iterations, %.2fs\n",
                ilp::to_string(r.status).c_str(), user_value(r.objective),
                user_value(st.best_bound), st.nodes, st.lp_iterations,
                st.seconds);
  else
    std::printf("%s: %lld nodes, %lld LP iterations, %.2fs\n",
                ilp::to_string(r.status).c_str(), st.nodes, st.lp_iterations,
                st.seconds);
  if (st.audit_ran)
    std::printf("audit: incumbent %s, bound %s (max violation %.2g)%s\n",
                st.audit_incumbent_ok ? "verified" : "not verified",
                st.audit_bound_ok ? "certified" : "uncertified",
                st.audit_max_violation,
                st.audit_downgraded ? " [claim downgraded]" : "");
  return r.status == ilp::SolveStatus::kInvalidModel ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "submit" || cmd == "serve" || cmd == "solve") {
    try {
      if (cmd == "submit") return cmd_submit(argc, argv);
      if (cmd == "serve") return cmd_serve(argc, argv);
      return cmd_solve(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "advbist: %s\n", e.what());
      return 1;
    }
  }
  const std::string spec = argv[2];
  int k = 1;
  double time_limit = 20.0;
  int threads = 1;
  int refactor_every = 0;      // 0: keep the solver default
  double markowitz_tol = 0.0;  // 0: keep the solver default
  bool dense_lu = false;
  int dual = -1;     // -1: keep the solver default
  int hypersparse = -1;  // -1: keep the solver default
  int row_age = -1;  // -1: keep the solver default
  std::string dual_pricing;  // empty: keep the solver default
  int strong_branch = -1;    // -1: keep the solver default
  int cuts = -1;          // -1: keep the solver default
  int cut_rounds = -1;
  int cut_interval = -1;
  int max_cuts = -1;
  int gomory = -1;      // -1: keep the solver default
  int odd_cycle = -1;   // -1: keep the solver default
  int rel_probes = -1;  // -1: keep the solver default
  int probing = -1;
  int rcfix = -1;
  int scale = -1;  // -1: keep the solver default (scaling on)
  long long mem_limit_mb = 0;  // 0: unlimited
  bool exit_audit = true;
  std::string checkpoint_path;
  std::string resume_path;
  double ckpt_interval = 0.0;
  std::string verilog_path;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dense-lu") == 0) {
      dense_lu = true;
      continue;
    }
    if (std::strcmp(argv[i], "--no-audit") == 0) {
      exit_audit = false;
      continue;
    }
    if (i + 1 >= argc) return usage();
    if (std::strcmp(argv[i], "--k") == 0) k = std::atoi(argv[i + 1]);
    else if (std::strcmp(argv[i], "--time") == 0) time_limit = std::atof(argv[i + 1]);
    else if (std::strcmp(argv[i], "--threads") == 0) {
      // Only a literal "0" selects auto (one worker per hardware thread);
      // typos and negatives fall back to serial rather than going wide.
      const int n = std::atoi(argv[i + 1]);
      threads = (n > 0 || std::strcmp(argv[i + 1], "0") == 0) ? n : 1;
    }
    else if (std::strcmp(argv[i], "--refactor") == 0) {
      char* end = nullptr;
      refactor_every = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || refactor_every < 1) {
        std::fprintf(stderr, "advbist: --refactor wants an integer >= 1\n");
        return usage();
      }
    }
    else if (std::strcmp(argv[i], "--mtol") == 0) {
      char* end = nullptr;
      markowitz_tol = std::strtod(argv[i + 1], &end);
      if (end == nullptr || *end != '\0' || markowitz_tol <= 0.0 ||
          markowitz_tol > 1.0) {
        std::fprintf(stderr, "advbist: --mtol wants a value in (0, 1]\n");
        return usage();
      }
    }
    else if (std::strcmp(argv[i], "--cuts") == 0 ||
             std::strcmp(argv[i], "--probing") == 0 ||
             std::strcmp(argv[i], "--rcfix") == 0 ||
             std::strcmp(argv[i], "--dual") == 0 ||
             std::strcmp(argv[i], "--scale") == 0 ||
             std::strcmp(argv[i], "--odd-cycle") == 0 ||
             std::strcmp(argv[i], "--hypersparse") == 0) {
      const char* val = argv[i + 1];
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        std::fprintf(stderr, "advbist: %s wants 0 or 1\n", argv[i]);
        return usage();
      }
      const int on = val[0] == '1' ? 1 : 0;
      if (argv[i][2] == 'c') cuts = on;
      else if (argv[i][2] == 'p') probing = on;
      else if (argv[i][2] == 'd') dual = on;
      else if (argv[i][2] == 'h') hypersparse = on;
      else if (argv[i][2] == 's') scale = on;
      else if (argv[i][2] == 'o') odd_cycle = on;
      else rcfix = on;
    }
    else if (std::strcmp(argv[i], "--gomory") == 0 ||
             std::strcmp(argv[i], "--rel-probes") == 0) {
      // 0 is a meaningful disable for both.
      char* end = nullptr;
      const int v = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || v < 0) {
        std::fprintf(stderr, "advbist: %s wants an integer >= 0\n", argv[i]);
        return usage();
      }
      if (argv[i][2] == 'g') gomory = v;
      else rel_probes = v;
    }
    else if (std::strcmp(argv[i], "--dual-pricing") == 0) {
      lp::DualPricing parsed;
      if (!lp::parse_dual_pricing(argv[i + 1], parsed)) {
        std::fprintf(stderr,
                     "advbist: --dual-pricing wants dantzig, devex or se\n");
        return usage();
      }
      dual_pricing = argv[i + 1];
    }
    else if (std::strcmp(argv[i], "--strong-branch") == 0) {
      // 0 is a meaningful disable (no root strong branching).
      char* end = nullptr;
      const int v = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || v < 0) {
        std::fprintf(stderr, "advbist: --strong-branch wants an integer >= 0\n");
        return usage();
      }
      strong_branch = v;
    }
    else if (std::strcmp(argv[i], "--row-age") == 0) {
      // 0 is a meaningful disable (rows are never deleted).
      char* end = nullptr;
      const int v = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || v < 0) {
        std::fprintf(stderr, "advbist: --row-age wants an integer >= 0\n");
        return usage();
      }
      row_age = v;
    }
    else if (std::strcmp(argv[i], "--cut-rounds") == 0 ||
             std::strcmp(argv[i], "--cut-interval") == 0 ||
             std::strcmp(argv[i], "--max-cuts") == 0) {
      // 0 is a meaningful disable for rounds/interval; --max-cuts needs a
      // positive count (use --cuts 0 to turn separation off entirely).
      const bool is_max_cuts = std::strcmp(argv[i], "--max-cuts") == 0;
      const int min_value = is_max_cuts ? 1 : 0;
      char* end = nullptr;
      const int v = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
      if (end == nullptr || *end != '\0' || v < min_value) {
        std::fprintf(stderr, "advbist: %s wants an integer >= %d\n", argv[i],
                     min_value);
        return usage();
      }
      if (std::strcmp(argv[i], "--cut-rounds") == 0) cut_rounds = v;
      else if (std::strcmp(argv[i], "--cut-interval") == 0) cut_interval = v;
      else max_cuts = v;
    }
    else if (std::strcmp(argv[i], "--mem-limit") == 0) {
      char* end = nullptr;
      mem_limit_mb = std::strtoll(argv[i + 1], &end, 10);
      if (end == nullptr || *end != '\0' || mem_limit_mb < 0) {
        std::fprintf(stderr, "advbist: --mem-limit wants megabytes >= 0\n");
        return usage();
      }
    }
    else if (std::strcmp(argv[i], "--checkpoint") == 0)
      checkpoint_path = argv[i + 1];
    else if (std::strcmp(argv[i], "--resume") == 0) resume_path = argv[i + 1];
    else if (std::strcmp(argv[i], "--ckpt-interval") == 0) {
      char* end = nullptr;
      ckpt_interval = std::strtod(argv[i + 1], &end);
      if (end == nullptr || *end != '\0' || ckpt_interval < 0) {
        std::fprintf(stderr, "advbist: --ckpt-interval wants seconds >= 0\n");
        return usage();
      }
    }
    else if (std::strcmp(argv[i], "--verilog") == 0) verilog_path = argv[i + 1];
    else return usage();
    ++i;
  }

  try {
    const hls::ParsedDesign design = load_design(spec);
    if (cmd == "print") {
      std::fputs(hls::to_dfg_text(design.dfg, design.modules).c_str(), stdout);
      return 0;
    }

    core::SynthesizerOptions options;
    options.solver.time_limit_seconds = time_limit;
    options.solver.num_threads = threads;
    if (refactor_every > 0) options.solver.lp_refactor_every = refactor_every;
    if (markowitz_tol > 0) options.solver.lp_markowitz_tol = markowitz_tol;
    if (dense_lu) options.solver.lp_sparse_factorization = false;
    if (dual >= 0) options.solver.lp_dual_simplex = dual == 1;
    if (hypersparse >= 0) options.solver.lp_hypersparse = hypersparse == 1;
    if (!dual_pricing.empty())
      lp::parse_dual_pricing(dual_pricing, options.solver.lp_dual_pricing);
    if (row_age >= 0) options.solver.lp_row_age_limit = row_age;
    if (strong_branch >= 0) options.solver.strong_branch_vars = strong_branch;
    if (cuts == 0) {
      options.solver.use_clique_cuts = false;
      options.solver.use_cover_cuts = false;
      options.solver.cut_rounds = 0;
      options.solver.cut_node_interval = 0;
      options.solver.gomory_rounds = 0;
      options.solver.odd_cycle_cuts = false;
    }
    if (cut_rounds >= 0) options.solver.cut_rounds = cut_rounds;
    if (cut_interval >= 0) options.solver.cut_node_interval = cut_interval;
    if (max_cuts > 0) options.solver.max_cuts_per_round = max_cuts;
    if (gomory >= 0) options.solver.gomory_rounds = gomory;
    if (odd_cycle >= 0) options.solver.odd_cycle_cuts = odd_cycle == 1;
    if (rel_probes >= 0)
      options.solver.reliability_probe_budget = rel_probes;
    if (probing >= 0) options.solver.use_probing = probing == 1;
    if (rcfix >= 0) options.solver.use_rc_fixing = rcfix == 1;
    if (scale >= 0) options.solver.lp_scaling = scale == 1;
    options.solver.memory_limit_bytes =
        static_cast<std::size_t>(mem_limit_mb) * 1024 * 1024;
    options.solver.exit_audit = exit_audit;
    options.solver.checkpoint_path = checkpoint_path;
    options.solver.resume_path = resume_path;
    options.solver.checkpoint_interval_seconds = ckpt_interval;
    options.solver.cancel_flag = &g_cancel;
    std::signal(SIGINT, handle_cancel_signal);
    std::signal(SIGTERM, handle_cancel_signal);
    const core::Synthesizer synth(design.dfg, design.modules, options);
    const core::SynthesisResult ref = synth.synthesize_reference();
    std::printf("%s: %d registers, %d modules, reference area %d%s\n",
                design.dfg.name().c_str(), ref.design.area.num_registers,
                design.modules.num_modules(), ref.design.area.total(),
                ref.hit_limit ? " (budget hit)" : "");

    auto report = [&](const core::SynthesisResult& r, int sessions) {
      std::printf(
          "k=%d: area %d (+%.1f%%) T=%d S=%d B=%d C=%d mux=%d %s (%s, %lld "
          "nodes)\n",
          sessions, r.design.area.total(),
          bist::overhead_percent(r.design.area, ref.design.area),
          r.design.area.tpgs, r.design.area.srs, r.design.area.bilbos,
          r.design.area.cbilbos, r.design.area.mux_inputs,
          r.hit_limit ? "*" : "", ilp::to_string(r.status).c_str(), r.nodes);
      const ilp::Stats& st = r.solver_stats;
      if (st.lp_refactorizations > 0)
        std::printf(
            "     lp: %lld iterations (%lld phase-1 / %lld phase-2 / %lld "
            "dual), %lld refactorizations (%lld sparse, "
            "%lld dense fallbacks), fill %.3f, %lld pivot rejections, "
            "%lld LU updates (%lld unstable), %d threads\n",
            st.lp_iterations, st.lp_primal_phase1_iterations,
            st.lp_primal_phase2_iterations, st.lp_dual_iterations,
            st.lp_refactorizations,
            st.lp_sparse_refactorizations, st.lp_sparse_fallbacks,
            st.lp_fill_ratio, st.lp_pivot_rejections, st.lp_lu_updates,
            st.lp_lu_update_rejections, st.threads);
      if (st.lp_dual_solves > 0)
        std::printf(
            "     dual: %lld re-solves (%lld fell back to primal), %lld "
            "bound flips, %lld pricing resets, %lld cut rows aged out of the "
            "LPs (peak %d rows)\n",
            st.lp_dual_solves, st.lp_dual_fallbacks, st.lp_bound_flips,
            st.lp_devex_resets, st.lp_rows_deleted, st.lp_peak_rows);
      if (st.lp_dual_hypersparse_pivots + st.lp_dual_dense_pivots > 0) {
        const long long piv =
            st.lp_dual_hypersparse_pivots + st.lp_dual_dense_pivots;
        std::printf(
            "     hypersparse: %lld of %lld dual pivots sparse (%.1f%%), "
            "mean rho nnz %.1f\n",
            st.lp_dual_hypersparse_pivots, piv,
            100.0 * static_cast<double>(st.lp_dual_hypersparse_pivots) /
                static_cast<double>(piv),
            static_cast<double>(st.lp_dual_rho_nnz) /
                static_cast<double>(piv));
      }
      if (st.strong_branch_probed > 0)
        std::printf(
            "     branching: %d strong-branch probes seeded the shared "
            "pseudocosts (%d variables fixed by infeasible probes)\n",
            st.strong_branch_probed, st.strong_branch_fixed);
      if (st.reliability_probed > 0)
        std::printf(
            "     reliability: %lld in-tree probes on unreliable pseudocosts "
            "(%d variables fixed, %d bounds tightened)\n",
            st.reliability_probed, st.reliability_fixed,
            st.reliability_tightened);
      if (st.cuts_clique_applied + st.cuts_cover_applied +
                  st.cuts_gomory_applied + st.cuts_odd_cycle_applied >
              0 ||
          st.probing_fixed > 0 || st.rc_fixed_root + st.rc_fixed_incumbent > 0)
        std::printf(
            "     cuts: %d clique + %d cover + %d gomory + %d odd-cycle "
            "applied (%lld/%lld/%lld/%lld separated, %lld aged out), probing "
            "fixed %d of %d probed, rc fixed %d+%d, root gap closed %.0f%%\n",
            st.cuts_clique_applied, st.cuts_cover_applied,
            st.cuts_gomory_applied, st.cuts_odd_cycle_applied,
            st.cuts_clique_separated, st.cuts_cover_separated,
            st.cuts_gomory_separated, st.cuts_odd_cycle_separated,
            st.cuts_aged_out, st.probing_fixed, st.probing_probed,
            st.rc_fixed_root, st.rc_fixed_incumbent,
            100.0 * st.root_gap_closed);
      if (st.termination != util::StopReason::kNone)
        std::printf("     stopped: %s (presolve %.2fs, root cuts %.2fs, "
                    "strong branch %.2fs, search %.2fs)%s%s\n",
                    util::to_string(st.termination), st.presolve_seconds,
                    st.root_cut_seconds, st.strong_branch_seconds,
                    st.search_seconds, st.shed_cuts ? ", cuts shed" : "",
                    st.shed_diving ? ", diving shed" : "");
      if (st.peak_memory_bytes > 0 && st.termination != util::StopReason::kNone)
        std::printf("     memory: peak %.1f MB accounted\n",
                    static_cast<double>(st.peak_memory_bytes) / (1024 * 1024));
      const long long recoveries =
          st.lp_recovery_refactorize + st.lp_recovery_tighten +
          st.lp_recovery_dense + st.lp_recovery_cold;
      if (recoveries > 0 || st.lp_recovery_exhausted > 0)
        std::printf(
            "     lp recovery: %lld refactorize / %lld tighten / %lld dense "
            "/ %lld cold restarts (%lld exhausted, %lld aborted solves)\n",
            st.lp_recovery_refactorize, st.lp_recovery_tighten,
            st.lp_recovery_dense, st.lp_recovery_cold,
            st.lp_recovery_exhausted, st.lp_aborted_solves);
      if (st.resumed || st.resume_rejected > 0 || st.checkpoints_written > 0)
        std::printf(
            "     checkpoint: %s%d frontier nodes restored, %d snapshots "
            "written (%.3fs), %d rejected\n",
            st.resumed ? "resumed, " : "", static_cast<int>(st.restored_nodes),
            st.checkpoints_written, st.checkpoint_seconds,
            st.resume_rejected);
      if (st.audit_ran)
        std::printf(
            "     audit: incumbent %s, bound %s (root bound %.6g, max "
            "violation %.2g, %lld LP iterations, %.3fs)%s\n",
            st.audit_incumbent_ok ? "verified" : "not verified",
            st.audit_bound_ok ? "certified" : "uncertified",
            st.audit_root_bound, st.audit_max_violation,
            st.audit_lp_iterations,
            st.audit_seconds, st.audit_downgraded ? " [claim downgraded]" : "");
    };

    if (cmd == "synth") {
      const core::SynthesisResult r = synth.synthesize_bist(k);
      report(r, k);
      if (!verilog_path.empty()) {
        bist::VerilogOptions vo;
        vo.module_name = design.dfg.name() + "_bist";
        std::ofstream out(verilog_path);
        out << bist::export_verilog(design.dfg, design.modules,
                                    r.design.datapath, r.design.bist, vo);
        std::printf("wrote %s\n", verilog_path.c_str());
      }
      return 0;
    }
    if (cmd == "sweep") {
      for (int s = 1; s <= design.modules.num_modules(); ++s)
        report(synth.synthesize_bist(s), s);
      return 0;
    }
    if (cmd == "compare") {
      const int sessions = design.modules.num_modules();
      report(synth.synthesize_bist(sessions), sessions);
      for (const char* method : {"ADVAN", "RALLOC", "BITS"}) {
        const auto r = baselines::run_baseline(method, design.dfg,
                                               design.modules, sessions,
                                               bist::CostModel::paper_8bit());
        std::printf("%-7s area %d (+%.1f%%) T=%d S=%d B=%d C=%d mux=%d\n",
                    method, r.area.total(),
                    bist::overhead_percent(r.area, ref.design.area),
                    r.area.tpgs, r.area.srs, r.area.bilbos, r.area.cbilbos,
                    r.area.mux_inputs);
      }
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "advbist: %s\n", e.what());
    return 1;
  }
}
