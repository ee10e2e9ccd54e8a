// advbist — command-line front end.
//
//   advbist synth   <circuit|file.dfg> [--k N] [--verilog out.v] [flags]
//   advbist sweep   <circuit|file.dfg> [flags]   # all k
//   advbist compare <circuit|file.dfg> [flags]   # vs the heuristics
//   advbist print   <circuit|file.dfg>           # dump .dfg text
//   advbist solve   <file.mps|file.lp> [--nodes N] [flags]
//                   # solve an untrusted MPS / CPLEX-LP instance directly:
//                   # defensive reader -> sanitizer gate -> branch & cut.
//                   # A malformed file is a typed parse error with its
//                   # line:column; non-finite data is an honest "invalid
//                   # model" — never a crash, never a wrong proof.
//   advbist submit  <dir> <circuit|file.dfg|file.mps|file.lp> [--job ID]
//                         [--k N] [--time S] [--threads N] [--nodes N]
//   advbist serve   <dir> [--queue N] [--retries N] [--time S] [--threads N]
//                         [--ckpt-interval S] [--watch] [--poll S]
//                         [--mem-limit MB] [--seed X]
//
// Every command reads its flags from one table (kSolveFlags, kSubmitFlags,
// kServeFlags below) and applies them left to right. --help or -h prints
// the usage and exits 0. A malformed or out-of-range number, a flag
// missing its value or an unknown flag exits 2 with a message naming the
// flag; runtime failures exit 1. `synth`, `sweep`, `compare`, `print` and
// `solve` share the solver flags (--time, --threads, the cut, branching,
// lifecycle and checkpoint knobs); docs/solver.md explains each of them.
//
// SIGINT (Ctrl-C) and SIGTERM cancel the solve cooperatively: the search
// stops at the next controller poll and reports the best incumbent + bound
// found so far with status "cancelled" instead of dying mid-proof (with
// --checkpoint the frontier is snapshotted on the way out). In serve mode
// SIGTERM/SIGINT drains: the in-flight job checkpoints, queued jobs stay
// pending on disk, and a restarted serve resumes all of them.
//
// <circuit> is a built-in benchmark name (fig1, tseng, paulin, fir6, iir3,
// dct4, wavelet6); anything containing '.' is read as a .dfg text file.
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>

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

// --- flag tables -----------------------------------------------------------

enum class Arg {
  kSwitch,       // takes no value
  kBool,         // 0 or 1
  kInt,          // an integer in [min, max]
  kPositive,     // a finite number of seconds > 0
  kNonNegative,  // a finite number of seconds >= 0
  kText,         // any string: a path or an id
};

struct Value {
  long long integer = 0;  // kBool, kInt
  double seconds = 0.0;   // kPositive, kNonNegative
  const char* text = "";  // kText
};

// Which commands take a flag of the synth/solve table.
enum Scope : unsigned { kDesign = 1, kModel = 2, kAnyCommand = 3 };

constexpr long long kMaxInt = std::numeric_limits<int>::max();
constexpr long long kMaxLong = std::numeric_limits<long long>::max();
constexpr long long kMaxMegabytes = 1LL << 30;

template <class Settings>
struct Flag {
  const char* name;
  const char* hint;  // the value's placeholder in the usage text
  Arg arg;
  long long min, max;  // inclusive kInt bounds
  void (*set)(Settings&, const Value&);
  unsigned scope = kAnyCommand;
};

// Parses `text` as the value of flag `name`; prints the refusal naming the
// flag and returns false when it does not fit.
bool parse_value(const char* name, Arg arg, long long min, long long max,
                 const char* text, Value& out) {
  char* end = nullptr;
  const bool blank = *text == '\0' ||
                     std::isspace(static_cast<unsigned char>(*text)) != 0;
  errno = 0;
  switch (arg) {
    case Arg::kSwitch:
      return true;
    case Arg::kText:
      out.text = text;
      return true;
    case Arg::kBool:
    case Arg::kInt: {
      if (arg == Arg::kBool) min = 0, max = 1;
      out.integer = std::strtoll(text, &end, 10);
      if (!blank && *end == '\0' && errno == 0 && out.integer >= min &&
          out.integer <= max)
        return true;
      if (arg == Arg::kBool)
        std::fprintf(stderr, "advbist: %s wants 0 or 1, got '%s'\n", name,
                     text);
      else if (max == kMaxInt || max == kMaxLong)
        std::fprintf(stderr, "advbist: %s wants an integer >= %lld, got '%s'\n",
                     name, min, text);
      else
        std::fprintf(stderr,
                     "advbist: %s wants an integer in [%lld, %lld], got '%s'\n",
                     name, min, max, text);
      return false;
    }
    case Arg::kPositive:
    case Arg::kNonNegative: {
      out.seconds = std::strtod(text, &end);
      const bool positive = arg == Arg::kPositive;
      if (!blank && *end == '\0' && std::isfinite(out.seconds) &&
          (positive ? out.seconds > 0 : out.seconds >= 0))
        return true;
      std::fprintf(stderr, "advbist: %s wants seconds %s 0, got '%s'\n", name,
                   positive ? ">" : ">=", text);
      return false;
    }
  }
  return false;
}

// Applies argv[first..argc) to `settings` through the entries of `table`
// whose scope meets `scope`. Prints the refusal and returns false on an
// unknown flag, a missing value or a value that does not parse.
template <class Settings>
bool apply_flags(int argc, char** argv, int first,
                 std::span<const Flag<Settings>> table, unsigned scope,
                 Settings& settings) {
  for (int i = first; i < argc; ++i) {
    const Flag<Settings>* flag = nullptr;
    for (const Flag<Settings>& f : table)
      if ((f.scope & scope) != 0 && std::strcmp(f.name, argv[i]) == 0)
        flag = &f;
    if (flag == nullptr) {
      std::fprintf(stderr,
                   "advbist: unknown flag '%s' for %s (see advbist --help)\n",
                   argv[i], argv[1]);
      return false;
    }
    Value value;
    if (flag->arg != Arg::kSwitch) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "advbist: %s wants a value\n", flag->name);
        return false;
      }
      if (!parse_value(flag->name, flag->arg, flag->min, flag->max,
                       argv[++i], value))
        return false;
    }
    flag->set(settings, value);
  }
  return true;
}

// Stores a parsed value in `field`: seconds into doubles, text into
// strings, integers into everything else.
template <class T>
void store(T& field, const Value& v) {
  if constexpr (std::is_same_v<T, double>)
    field = v.seconds;
  else if constexpr (std::is_same_v<T, std::string>)
    field = v.text;
  else
    field = static_cast<T>(v.integer);
}

// Setter for the member `field` of a flag table's settings.
template <auto field, class Settings>
void set(Settings& s, const Value& v) {
  store(s.*field, v);
}

// What synth/sweep/compare/print and solve read off the command line.
struct SolveArgs {
  ilp::Options solver;
  int k = 1;
  std::string verilog_path;
  SolveArgs() { solver.time_limit_seconds = 20.0; }
};

// Setter for the member `field` of the solver options.
template <auto field>
void set_solver(SolveArgs& a, const Value& v) {
  store(a.solver.*field, v);
}

// Setter for a --mem-limit in megabytes.
template <class Settings>
void set_megabytes(Settings& s, const Value& v) {
  s.solver.memory_limit_bytes = static_cast<std::size_t>(v.integer) << 20;
}

using O = ilp::Options;

const Flag<SolveArgs> kSolveFlags[] = {
    {"--k", "N", Arg::kInt, 1, kMaxInt, set<&SolveArgs::k>, kDesign},
    {"--time", "S", Arg::kPositive, 0, 0, set_solver<&O::time_limit_seconds>},
    {"--threads", "N", Arg::kInt, 0, kMaxInt, set_solver<&O::num_threads>},
    {"--nodes", "N", Arg::kInt, 0, kMaxLong, set_solver<&O::node_limit>,
     kModel},
    {"--row-age", "N", Arg::kInt, 0, kMaxInt,
     set_solver<&O::lp_row_age_limit>},
    {"--scale", "0|1", Arg::kBool, 0, 1, set_solver<&O::lp_scaling>},
    {"--cuts", "0|1", Arg::kBool, 0, 1,
     [](SolveArgs& a, const Value& v) {
       // Master switch: 0 silences every separator class.
       O& o = a.solver;
       o.use_clique_cuts = o.use_cover_cuts = v.integer == 1;
       if (v.integer == 0) {
         o.cut_rounds = 0;
         o.cut_node_interval = 0;
         o.gomory_rounds = 0;
         o.odd_cycle_cuts = false;
       }
     }},
    {"--gomory", "N", Arg::kInt, 0, kMaxInt, set_solver<&O::gomory_rounds>},
    {"--odd-cycle", "0|1", Arg::kBool, 0, 1, set_solver<&O::odd_cycle_cuts>},
    {"--cut-rounds", "N", Arg::kInt, 0, kMaxInt, set_solver<&O::cut_rounds>},
    {"--cut-interval", "N", Arg::kInt, 0, kMaxInt,
     set_solver<&O::cut_node_interval>},
    {"--max-cuts", "N", Arg::kInt, 1, kMaxInt,
     set_solver<&O::max_cuts_per_round>},
    {"--probing", "0|1", Arg::kBool, 0, 1, set_solver<&O::use_probing>},
    {"--rcfix", "0|1", Arg::kBool, 0, 1, set_solver<&O::use_rc_fixing>},
    {"--strong-branch", "N", Arg::kInt, 0, kMaxInt,
     set_solver<&O::strong_branch_vars>},
    {"--rel-probes", "N", Arg::kInt, 0, kMaxInt,
     set_solver<&O::reliability_probe_budget>},
    {"--mem-limit", "MB", Arg::kInt, 0, kMaxMegabytes,
     set_megabytes<SolveArgs>},
    {"--no-audit", "", Arg::kSwitch, 0, 0,
     [](SolveArgs& a, const Value&) { a.solver.exit_audit = false; }},
    {"--checkpoint", "F", Arg::kText, 0, 0, set_solver<&O::checkpoint_path>},
    {"--resume", "F", Arg::kText, 0, 0, set_solver<&O::resume_path>},
    {"--ckpt-interval", "S", Arg::kNonNegative, 0, 0,
     set_solver<&O::checkpoint_interval_seconds>},
    {"--verilog", "out.v", Arg::kText, 0, 0, set<&SolveArgs::verilog_path>,
     kDesign},
};

using Job = core::JobSpec;

const Flag<Job> kSubmitFlags[] = {
    {"--job", "ID", Arg::kText, 0, 0, set<&Job::id>},
    {"--k", "N", Arg::kInt, 1, kMaxInt, set<&Job::k>},
    {"--time", "S", Arg::kPositive, 0, 0, set<&Job::time_limit>},
    {"--threads", "N", Arg::kInt, 0, kMaxInt, set<&Job::threads>},
    {"--nodes", "N", Arg::kInt, 0, kMaxLong, set<&Job::node_limit>},
};

using Serve = core::ServeOptions;

const Flag<Serve> kServeFlags[] = {
    {"--queue", "N", Arg::kInt, 1, kMaxInt, set<&Serve::queue_capacity>},
    {"--retries", "N", Arg::kInt, 0, kMaxInt, set<&Serve::max_retries>},
    {"--time", "S", Arg::kPositive, 0, 0, set<&Serve::default_time_limit>},
    {"--threads", "N", Arg::kInt, 0, kMaxInt, set<&Serve::default_threads>},
    {"--ckpt-interval", "S", Arg::kNonNegative, 0, 0,
     set<&Serve::checkpoint_interval_seconds>},
    {"--watch", "", Arg::kSwitch, 0, 0,
     [](Serve& o, const Value&) { o.watch = true; }},
    {"--poll", "S", Arg::kPositive, 0, 0, set<&Serve::poll_seconds>},
    {"--mem-limit", "MB", Arg::kInt, 0, kMaxMegabytes, set_megabytes<Serve>},
    {"--seed", "X", Arg::kInt, 0, kMaxLong,
     [](Serve& o, const Value& v) {
       o.backoff.seed = static_cast<std::uint64_t>(v.integer);
     }},
};

template <class Settings>
void print_flags(std::FILE* out, const char* title,
                 std::span<const Flag<Settings>> table, unsigned scope) {
  std::fprintf(out, "%s flags:\n ", title);
  int column = 1;
  for (const Flag<Settings>& f : table) {
    if ((f.scope & scope) == 0) continue;
    char item[48];
    const int width = std::snprintf(item, sizeof item, " [%s%s%s]", f.name,
                                    *f.hint != '\0' ? " " : "", f.hint);
    if (column + width > 78) {
      std::fputs("\n ", out);
      column = 1;
    }
    std::fputs(item, out);
    column += width;
  }
  std::fputc('\n', out);
}

// Prints the usage, generated from the flag tables, to `out`; returns the
// exit code: 0 when asked for (stdout), 2 after misuse (stderr).
int usage(std::FILE* out) {
  std::fputs(
      "usage: advbist <synth|sweep|compare|print> <circuit|file.dfg> "
      "[flags]\n"
      "       advbist solve <file.mps|file.lp> [flags]\n"
      "       advbist submit <dir> <circuit|file.dfg|file.mps|file.lp> "
      "[flags]\n"
      "       advbist serve <dir> [flags]\n",
      out);
  print_flags<SolveArgs>(out, "synth/sweep/compare/print", kSolveFlags,
                         kDesign);
  print_flags<SolveArgs>(out, "solve", kSolveFlags, kModel);
  print_flags<Job>(out, "submit", kSubmitFlags, kAnyCommand);
  print_flags<Serve>(out, "serve", kServeFlags, kAnyCommand);
  return out == stdout ? 0 : 2;
}

// --- commands ----------------------------------------------------------------

int cmd_submit(int argc, char** argv) {
  const std::string dir = argv[2];
  Job spec;
  spec.circuit = argv[3];
  if (!apply_flags<Job>(argc, argv, 4, kSubmitFlags, kAnyCommand, spec))
    return 2;
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
  Serve so;
  so.dir = argv[2];
  if (!apply_flags<Serve>(argc, argv, 3, kServeFlags, kAnyCommand, so))
    return 2;
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
  SolveArgs args;
  if (!apply_flags<SolveArgs>(argc, argv, 3, kSolveFlags, kModel, args))
    return 2;
  ilp::Options& opt = args.solver;

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
  if (st.threads > 1)
    std::printf("workers: %d threads, %lld of %lld nodes stolen from another "
                "worker\n",
                st.threads, st.stolen_nodes, st.nodes);
  if (st.audit_ran)
    std::printf("audit: incumbent %s, bound %s (max violation %.2g)%s\n",
                st.audit_incumbent_ok ? "verified" : "not verified",
                st.audit_bound_ok ? "certified" : "uncertified",
                st.audit_max_violation,
                st.audit_downgraded ? " [claim downgraded]" : "");
  return r.status == ilp::SolveStatus::kInvalidModel ? 3 : 0;
}

// advbist synth/sweep/compare/print <circuit|file.dfg>: the Synthesizer
// path that reproduces the paper's tables.
int cmd_design(const std::string& cmd, int argc, char** argv) {
  SolveArgs args;
  if (!apply_flags<SolveArgs>(argc, argv, 3, kSolveFlags, kDesign, args))
    return 2;
  const hls::ParsedDesign design = load_design(argv[2]);
  if (cmd == "print") {
    std::fputs(hls::to_dfg_text(design.dfg, design.modules).c_str(), stdout);
    return 0;
  }
  const int k = args.k;
  if (cmd == "synth" && k > design.modules.num_modules()) {
    std::fprintf(stderr, "advbist: --k wants an integer in [1, %d] for %s\n",
                 design.modules.num_modules(), argv[2]);
    return 2;
  }

  core::SynthesizerOptions options;
  options.solver = args.solver;
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
          st.lp_fill_ratio(), st.lp_pivot_rejections, st.lp_lu_updates,
          st.lp_lu_update_rejections, st.threads);
    if (st.lp_dual_solves > 0)
      std::printf(
          "     dual: %lld re-solves (%lld fell back to primal), %lld "
          "bound flips, %lld pricing resets, %lld cut rows aged out of the "
          "LPs (peak %lld rows)\n",
          st.lp_dual_solves, st.lp_dual_fallbacks,
          st.lp_bound_flips + st.lp_dual_bound_flips,
          st.lp_devex_resets, st.lp_rows_deleted, st.lp_peak_rows);
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
    if (st.threads > 1)
      std::printf("     workers: %d threads, %lld of %lld nodes stolen from "
                  "another worker\n",
                  st.threads, st.stolen_nodes, st.nodes);
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
    if (!args.verilog_path.empty()) {
      bist::VerilogOptions vo;
      vo.module_name = design.dfg.name() + "_bist";
      std::ofstream out(args.verilog_path);
      out << bist::export_verilog(design.dfg, design.modules,
                                  r.design.datapath, r.design.bist, vo);
      std::printf("wrote %s\n", args.verilog_path.c_str());
    }
    return 0;
  }
  if (cmd == "sweep") {
    for (int s = 1; s <= design.modules.num_modules(); ++s)
      report(synth.synthesize_bist(s), s);
    return 0;
  }
  // compare: the ILP design at maximal sessions against the heuristics.
  const int sessions = design.modules.num_modules();
  report(synth.synthesize_bist(sessions), sessions);
  for (const char* method : {"ADVAN", "RALLOC", "BITS"}) {
    const auto r = baselines::run_baseline(method, design.dfg, design.modules,
                                           sessions,
                                           bist::CostModel::paper_8bit());
    std::printf("%-7s area %d (+%.1f%%) T=%d S=%d B=%d C=%d mux=%d\n", method,
                r.area.total(), bist::overhead_percent(r.area, ref.design.area),
                r.area.tpgs, r.area.srs, r.area.bilbos, r.area.cbilbos,
                r.area.mux_inputs);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0)
      return usage(stdout);
  if (argc < 2) return usage(stderr);
  const std::string cmd = argv[1];
  const bool design_cmd =
      cmd == "synth" || cmd == "sweep" || cmd == "compare" || cmd == "print";
  if (!design_cmd && cmd != "solve" && cmd != "submit" && cmd != "serve") {
    std::fprintf(stderr, "advbist: unknown command '%s'\n", cmd.c_str());
    return usage(stderr);
  }
  // Positional operands come before the flags.
  const int operands = cmd == "submit" ? 2 : 1;
  if (argc < 2 + operands) return usage(stderr);
  for (int i = 2; i < 2 + operands; ++i)
    if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "advbist: %s wants its operands before the flags, got "
                   "'%s'\n",
                   cmd.c_str(), argv[i]);
      return 2;
    }
  try {
    if (cmd == "submit") return cmd_submit(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "solve") return cmd_solve(argc, argv);
    return cmd_design(cmd, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "advbist: %s\n", e.what());
    return 1;
  }
}
