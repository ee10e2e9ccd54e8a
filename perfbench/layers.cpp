// The traced run: splits the product-path cells into the layers named in
// README.md. Spans are recorded in memory from this file, around calls
// into each module's public functions, and written out at the end; no
// code under src/ is instrumented.
//
// Per cell, in the seed's circuit order:
//   1. the untraced product call (core::Synthesizer), the reference for
//      the tracing overhead and the reproduction check;
//   2. the same pipeline re-run step by step under spans (formulation,
//      baseline seeding, ilp solve, decode, BIST check, RTL), which on a
//      serial workload must reproduce the product call's node count and
//      objective exactly;
//   3. the LP probe on the cell's formulation model;
//   4. proven-serial: the search attribution re-solves;
//      multi-thread workloads: the 1-thread baseline at the same budget.
// After the cells, proven-serial pushes its fig1/tseng BIST cells through
// core::submit_job + core::serve, cold and then warm.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "baselines/baselines.hpp"
#include "bist/bist_design.hpp"
#include "bist/verilog.hpp"
#include "core/serve.hpp"
#include "lp/simplex.hpp"
#include "perfbench.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

constexpr int kDiveSteps = 8;
constexpr int kRefactorizations = 5;
constexpr int kKernelSolves = 200;

/// In-memory span recorder (main thread only).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string cell;
    int parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
  };

  int begin(std::string name, std::string cell) {
    spans_.push_back({std::move(name), std::move(cell), open_, clock_.seconds(), 0.0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int id) {
    spans_[id].t1 = clock_.seconds();
    open_ = spans_[id].parent;
  }

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) sum += s.t1 - s.t0;
    return sum;
  }

  /// Prints count, total and self time (duration minus direct children)
  /// per span name.
  void print_layers() const {
    std::map<std::string, std::pair<int, std::pair<double, double>>> rows;
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.t1 - s.t0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& row = rows[spans_[i].name];
      const double d = spans_[i].t1 - spans_[i].t0;
      row.first += 1;
      row.second.first += d;
      row.second.second += d - child[i];
    }
    std::printf("%-22s %6s %11s %11s\n", "span", "count", "total_s", "self_s");
    for (const auto& [name, row] : rows)
      std::printf("%-22s %6d %11.4f %11.4f\n", name.c_str(), row.first,
                  row.second.first, row.second.second);
  }

  /// Chrome trace-event JSON (load it in any browser's trace viewer).
  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": 1, \"ts\": " << s.t0 * 1e6
          << ", \"dur\": " << (s.t1 - s.t0) * 1e6 << ", \"args\": {\"cell\": \""
          << s.cell << "\", \"id\": " << i << ", \"parent\": " << s.parent
          << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  util::Stopwatch clock_;
  std::vector<Span> spans_;
  int open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string cell)
      : tracer_(tracer), id_(tracer.begin(std::move(name), std::move(cell))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// The Synthesizer's cutoff for a heuristic design (mirrors
/// core/synthesizer.cpp; the reproduction check catches any drift).
double objective_equivalent(const bist::AreaBreakdown& area,
                            const bist::CostModel& cost, double offset) {
  return area.total() - offset - area.constant_tpg_transistors +
         static_cast<double>(area.constant_tpgs) * cost.constant_tpg_penalty();
}

/// One cell re-run step by step under spans.
struct Mirror {
  std::unique_ptr<core::Formulation> formulation;
  ilp::Options options;  ///< what the product path solved with
  ilp::Stats stats;
  double objective = 0.0;
  int seed_area = 0;    ///< best baseline design's area; 0 without seeding
  int final_area = 0;
};

Mirror run_mirror(const Circuit& circuit, int k,
                  const core::SynthesizerOptions& opt, Tracer& tracer,
                  const std::string& cell) {
  Mirror m;
  const ScopedSpan cell_span(tracer, "cell", cell);
  const hls::Dfg& dfg = circuit.bench.dfg;
  const hls::ModuleAllocation& alloc = circuit.bench.modules;

  {
    const ScopedSpan span(tracer, "core.formulation", cell);
    m.formulation = std::make_unique<core::Formulation>(
        dfg, alloc, formulation_options(opt, k));
  }
  const core::Formulation& f = *m.formulation;
  m.options = opt.solver;
  m.options.branch_priority = f.branch_priorities();

  std::optional<baselines::BaselineResult> seed;
  if (k > 0 && opt.seed_with_baselines) {
    const ScopedSpan span(tracer, "baselines.seed", cell);
    for (const char* method : {"ADVAN", "BITS", "RALLOC"}) {
      try {
        baselines::BaselineResult candidate =
            baselines::run_baseline(method, dfg, alloc, k, opt.cost);
        if (candidate.registers.num_registers() != f.num_registers()) continue;
        if (!seed || candidate.area.total() < seed->area.total())
          seed = std::move(candidate);
      } catch (const std::exception&) {
        // The product path skips a failing heuristic the same way.
      }
    }
    if (seed) {
      m.options.initial_cutoff =
          objective_equivalent(seed->area, opt.cost, f.objective_offset());
      m.seed_area = seed->area.total();
    }
  }

  ilp::Solution solution;
  {
    const ScopedSpan span(tracer, "ilp.solve", cell);
    solution = ilp::Solver(m.options).solve(f.model());
  }
  m.stats = solution.stats;

  core::DecodedDesign design;
  if (solution.has_solution()) {
    const ScopedSpan span(tracer, "core.decode", cell);
    design = f.decode(solution);
    m.objective = solution.objective + f.objective_offset();
  } else if (seed) {
    design.registers = seed->registers;
    design.ports = seed->ports;
    design.bist = seed->bist;
    design.datapath = seed->datapath;
    design.area = seed->area;
    m.objective = seed->area.total();
  } else {
    throw std::runtime_error("no solution: " + ilp::to_string(solution.status));
  }
  m.final_area = design.area.total();

  if (k > 0) {
    const ScopedSpan span(tracer, "bist.validate", cell);
    bist::validate_bist_design(design.datapath, design.bist);
  }
  const ScopedSpan span(tracer, "bist.verilog", cell);
  bist::VerilogOptions vo;
  vo.include_bist = k > 0;
  if (bist::export_verilog(dfg, alloc, design.datapath, design.bist, vo)
          .empty())
    throw std::runtime_error("empty Verilog");
  return m;
}

// --- LP probe ----------------------------------------------------------

struct LpTotals {
  double cold_s = 0.0;
  long long cold_iterations = 0;
  long long resolves = 0;
  double resolve_s = 0.0;
  long long resolve_pivots = 0;
  long long refactorizations = 0;
  double refactorize_s = 0.0;
  long long ftrans = 0;
  double ftran_s = 0.0;
  long long btrans = 0;
  double btran_s = 0.0;
  double fill_sum = 0.0;
  int models = 0;
};

volatile double g_sink = 0.0;  // keeps kernel results observable

/// Cold solve, a deterministic most-fractional dive of bound fixings with
/// dual re-solves, then FTRAN/BTRAN/refactorization on the final basis.
void probe_lp(const lp::Model& model, LpTotals& t, Tracer& tracer,
              const std::string& cell) {
  lp::SimplexOptions so;
  so.scaling = true;  // as every branch & bound worker LP (Options::lp_scaling)
  lp::SimplexSolver solver(model, so);
  lp::LpResult r;
  {
    const ScopedSpan span(tracer, "lp.cold_solve", cell);
    const util::Stopwatch watch;
    r = solver.solve();
    t.cold_s += watch.seconds();
  }
  if (r.status != lp::LpStatus::kOptimal)
    throw std::runtime_error("LP probe: cold solve not optimal");
  t.cold_iterations += r.iterations;

  {
    const ScopedSpan span(tracer, "lp.dual_dive", cell);
    for (int step = 0; step < kDiveSteps; ++step) {
      int pick = -1;
      double most = 1e-6;
      for (int v = 0; v < model.num_variables(); ++v) {
        if (model.variable(v).type != lp::VarType::kInteger) continue;
        const double frac = std::abs(r.x[v] - std::round(r.x[v]));
        if (frac > most) {
          most = frac;
          pick = v;
        }
      }
      if (pick < 0) break;
      const double value = std::round(r.x[pick]);
      solver.set_variable_bounds(pick, value, value);
      const util::Stopwatch watch;
      r = solver.solve_dual();
      t.resolve_s += watch.seconds();
      ++t.resolves;
      t.resolve_pivots += r.iterations;
      if (r.status != lp::LpStatus::kOptimal) break;
    }
  }

  const ScopedSpan span(tracer, "lp.kernels", cell);
  const int m = solver.num_rows();
  // FTRAN right-hand sides: columns of nonbasic structurals, as entering
  // columns are; BTRAN: unit vectors, as dual pivot rows are.
  std::vector<std::vector<double>> columns;
  std::vector<int> pick;
  for (int v = 0; v < solver.num_structural() && pick.size() < 32; ++v)
    if (solver.column_status(v) != 2) pick.push_back(v);  // 2 = basic
  std::vector<int> slot(model.num_variables(), -1);
  for (std::size_t i = 0; i < pick.size(); ++i) slot[pick[i]] = static_cast<int>(i);
  columns.assign(pick.size(), std::vector<double>(m, 0.0));
  for (int row = 0; row < model.num_constraints(); ++row)
    for (const lp::Term& term : model.constraint(row).terms)
      if (slot[term.var] >= 0) columns[slot[term.var]][row] = term.coeff;
  if (columns.empty()) columns.push_back(std::vector<double>(m, 1.0));

  double sink = 0.0;
  {
    const util::Stopwatch watch;
    for (int i = 0; i < kRefactorizations; ++i)
      sink += solver.refactorize_for_testing() ? 1.0 : 0.0;
    t.refactorize_s += watch.seconds();
    t.refactorizations += kRefactorizations;
  }
  {
    const util::Stopwatch watch;
    for (int i = 0; i < kKernelSolves; ++i)
      sink += solver.ftran_for_testing(columns[i % columns.size()])[0];
    t.ftran_s += watch.seconds();
    t.ftrans += kKernelSolves;
  }
  {
    std::vector<double> unit(m, 0.0);
    const util::Stopwatch watch;
    for (int i = 0; i < kKernelSolves; ++i) {
      const int pos = static_cast<int>((static_cast<long long>(i) * 7919) % m);
      unit[pos] = 1.0;
      sink += solver.btran_for_testing(unit)[0];
      unit[pos] = 0.0;
    }
    t.btran_s += watch.seconds();
    t.btrans += kKernelSolves;
  }
  g_sink = g_sink + sink;
  t.fill_sum += solver.stats().fill_ratio();
  ++t.models;
}

// --- search attribution --------------------------------------------------

struct Variant {
  const char* name;
  ilp::Options options;
  ilp::Solution solution;
  std::string error;
};

/// Re-solves `model` once per variant, concurrently (one serial solver
/// thread each).
void solve_variants(const lp::Model& model, std::vector<Variant>& variants) {
  std::vector<std::thread> threads;
  for (Variant& v : variants)
    threads.emplace_back([&model, &v] {
      try {
        v.solution = ilp::Solver(v.options).solve(model);
      } catch (const std::exception& e) {
        v.error = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
}

// --- serve pass-through ---------------------------------------------------

struct ServePass {
  double job_overhead_s = 0.0;  ///< cold serve wall beyond the solves, per job
  double cache_hit_s = 0.0;     ///< warm serve wall per job
  std::string error;
};

/// Pushes the fig1/tseng BIST cells of `product` through core::submit_job +
/// core::serve in a temporary spool, cold and then warm; every warm job
/// must be a cache hit.
ServePass serve_pass(const std::vector<CellRun>& product,
                     const core::SynthesizerOptions& opt,
                     const std::string& scratch_dir, std::atomic<bool>& cancel,
                     Tracer& tracer) {
  namespace fs = std::filesystem;
  const fs::path spool =
      fs::path(scratch_dir) / ("perfbench-spool-" + std::to_string(getpid()));
  fs::remove_all(spool);
  std::vector<const CellRun*> jobs;
  for (const CellRun& r : product)
    if (r.cell.k > 0 && (r.cell.circuit == "fig1" || r.cell.circuit == "tseng"))
      jobs.push_back(&r);
  const double njobs = static_cast<double>(jobs.size());
  core::ServeOptions so;
  so.dir = spool.string();
  so.solver = opt.solver;
  so.default_time_limit = opt.solver.time_limit_seconds;
  so.default_threads = 1;
  so.drain = &cancel;

  ServePass pass;
  double solve_wall = 0.0;
  for (const bool warm : {false, true}) {
    const std::string phase = warm ? "warm" : "cold";
    for (const CellRun* r : jobs) {
      core::JobSpec spec;
      spec.id = phase + "-" + r->cell.circuit + "-k" + std::to_string(r->cell.k);
      spec.circuit = r->cell.circuit;
      spec.k = r->cell.k;
      if (!core::submit_job(so.dir, spec)) pass.error = "submit_job refused";
      if (!warm) solve_wall += r->wall_s;
    }
    const util::Stopwatch watch;
    core::ServeStats stats;
    {
      const ScopedSpan span(tracer, "serve." + phase, "serve");
      stats = core::serve(so);
    }
    const double wall = watch.seconds();
    int good = 0;
    for (const core::JobOutcome& o : stats.outcomes)
      if (o.status == ilp::to_string(ilp::SolveStatus::kOptimal) &&
          o.from_cache == warm)
        ++good;
    if (good != static_cast<int>(jobs.size()) ||
        (warm && stats.cache_hits != static_cast<int>(jobs.size())))
      pass.error = "serve " + phase + ": " + std::to_string(good) + " of " +
                   std::to_string(jobs.size()) + " jobs as expected";
    if (warm)
      pass.cache_hit_s = wall / njobs;
    else
      pass.job_overhead_s = (wall - solve_wall) / njobs;
    std::printf("serve %s: %zu jobs  %.3f s  cache hits %d\n", phase.c_str(),
                jobs.size(), wall, stats.cache_hits);
  }
  fs::remove_all(spool);
  return pass;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

TracedResult run_traced(const Workload& w,
                        const std::vector<std::unique_ptr<Circuit>>& circuits,
                        const std::string& scratch_dir, int seed,
                        std::atomic<bool>& cancel) {
  const core::SynthesizerOptions opt = synth_options(w, &cancel);
  const bool serial = w.threads == 1;
  Tracer tracer;
  TracedResult out;
  std::vector<CellRun> product;

  LpTotals lpt;
  double product_wall = 0.0, product_overhead = 0.0;
  double presolve_s = 0, root_s = 0, strong_s = 0, search_s = 0, audit_s = 0;
  long long nodes = 0, lp_iters = 0, refactorizations = 0, cuts = 0,
            rel_probes = 0, vars = 0, rows = 0;
  double root_gap_closed = 0.0, seed_gap_sum = 0.0;
  int seeded = 0;
  double nodes_prod = 0, nodes_noprio = 0, nodes_nocut = 0, nodes_bare = 0;
  double serial_nodes = 0, serial_search = 0;

  for (const auto& circuit : circuits) {
    for (int k : circuit->ks) {
      ++out.attempted;
      CellRun ref = run_product_cell(*circuit, k, w, cancel);
      const std::string cell = ref.cell.label();
      std::string error = ref.error;
      double mirror_s = 0.0;
      try {
        const double before = tracer.total("cell");
        const Mirror m = run_mirror(*circuit, k, opt, tracer, cell);
        mirror_s = tracer.total("cell") - before;
        const ilp::Stats& st = m.stats;
        if (serial && error.empty() &&
            (st.nodes != ref.nodes || m.objective != ref.objective))
          error = "traced run diverged: " + std::to_string(st.nodes) +
                  " nodes / " + std::to_string(m.objective) + " vs " +
                  std::to_string(ref.nodes) + " / " +
                  std::to_string(ref.objective);

        product_wall += ref.wall_s;
        product_overhead += ref.wall_s - ref.solve_s;
        presolve_s += st.presolve_seconds;
        root_s += st.root_cut_seconds;
        strong_s += st.strong_branch_seconds;
        search_s += st.search_seconds;
        audit_s += st.audit_seconds;
        nodes += st.nodes;
        lp_iters += st.lp_iterations;
        refactorizations += st.lp_refactorizations;
        cuts += st.cuts_clique_applied + st.cuts_cover_applied +
                st.cuts_gomory_applied + st.cuts_odd_cycle_applied;
        rel_probes += st.reliability_probed;
        root_gap_closed += st.root_gap_closed;
        const lp::Model& model = m.formulation->model();
        vars += model.num_variables();
        rows += model.num_constraints();
        if (m.seed_area > 0) {
          seed_gap_sum += 100.0 * (m.seed_area - m.final_area) / m.final_area;
          ++seeded;
        }

        {
          const ScopedSpan span(tracer, "lp.probe", cell);
          probe_lp(model, lpt, tracer, cell);
        }

        if (w.must_prove) {
          const ScopedSpan span(tracer, "core.attribution", cell);
          const bool has_cutoff = std::isfinite(m.options.initial_cutoff);
          std::vector<Variant> variants;
          variants.reserve(3);
          variants.push_back({"no-priority", m.options, {}, {}});
          variants.back().options.branch_priority.clear();
          if (has_cutoff) {
            variants.push_back({"no-cutoff", m.options, {}, {}});
            variants.back().options.initial_cutoff = lp::kInfinity;
            variants.push_back({"bare", variants.back().options, {}, {}});
            variants.back().options.branch_priority.clear();
          }
          solve_variants(model, variants);
          const double offset = m.formulation->objective_offset();
          long long v_nodes[3] = {0, st.nodes, 0};  // no-priority, no-cutoff, bare
          for (std::size_t i = 0; i < variants.size(); ++i) {
            const Variant& v = variants[i];
            const double obj = v.solution.objective + offset;
            if (error.empty() &&
                (!v.error.empty() || !v.solution.is_optimal() ||
                 std::lround(obj) != pinned_optimum(ref.cell)))
              error = std::string(v.name) + " re-solve did not prove " +
                      std::to_string(pinned_optimum(ref.cell)) + ": " +
                      (v.error.empty() ? ilp::to_string(v.solution.status)
                                       : v.error);
            v_nodes[i] = v.solution.stats.nodes;
          }
          if (!has_cutoff) v_nodes[2] = v_nodes[0];
          nodes_prod += st.nodes;
          nodes_noprio += v_nodes[0];
          nodes_nocut += v_nodes[1];
          nodes_bare += v_nodes[2];
          std::printf("  attribution %-11s nodes product %lld  no-priority %lld"
                      "  no-cutoff %lld  bare %lld\n",
                      cell.c_str(), st.nodes, v_nodes[0], v_nodes[1],
                      v_nodes[2]);
        }

        if (!serial) {
          const ScopedSpan span(tracer, "ilp.serial_baseline", cell);
          ilp::Options one = m.options;
          one.num_threads = 1;
          const ilp::Solution s1 = ilp::Solver(one).solve(model);
          serial_nodes += s1.stats.nodes;
          serial_search += s1.stats.search_seconds;
        }
      } catch (const std::exception& e) {
        if (error.empty()) error = std::string("traced run threw: ") + e.what();
      }
      if (cancel && error.empty()) error = "run deadline reached";
      if (!error.empty()) ++out.failed;
      std::printf("%-12s %-18s obj %10.1f  nodes %8lld  wall %8.3f s  "
                  "traced %8.3f s  %s\n",
                  cell.c_str(), ilp::to_string(ref.status).c_str(),
                  ref.objective, ref.nodes, ref.wall_s, mirror_s,
                  error.empty() ? "ok" : ("FAILED: " + error).c_str());
      ref.error = error;
      product.push_back(std::move(ref));
    }
  }

  // Serve pass-through: the proven fig1/tseng BIST cells, cold then warm.
  ServePass serve;
  if (w.must_prove) {
    ++out.attempted;
    serve = serve_pass(product, opt, scratch_dir, cancel, tracer);
    if (!serve.error.empty()) {
      ++out.failed;
      std::printf("serve FAILED: %s\n", serve.error.c_str());
    }
  }

  const double mirror_wall = tracer.total("cell");
  const double ncells = static_cast<double>(product.size());
  const double efficiency =
      serial ? 1.0
             : ratio(ratio(nodes, search_s),
                     w.threads * ratio(serial_nodes, serial_search));
  const long long lp_pivots = lpt.cold_iterations + lpt.resolve_pivots;

  out.metrics = {
      {"lp.cold_solve_s", {lpt.cold_s, "s"}},
      {"lp.cold_iterations", {static_cast<double>(lpt.cold_iterations), "count"}},
      {"lp.dual_resolve_ms", {1e3 * ratio(lpt.resolve_s, lpt.resolves), "ms"}},
      {"lp.dual_pivots_per_resolve",
       {ratio(lpt.resolve_pivots, lpt.resolves), "count"}},
      {"lp.pivots_per_s", {ratio(lp_pivots, lpt.cold_s + lpt.resolve_s), "1/s"}},
      {"lp.refactorize_us",
       {1e6 * ratio(lpt.refactorize_s, lpt.refactorizations), "us"}},
      {"lp.ftran_us", {1e6 * ratio(lpt.ftran_s, lpt.ftrans), "us"}},
      {"lp.btran_us", {1e6 * ratio(lpt.btran_s, lpt.btrans), "us"}},
      {"lp.fill_ratio", {ratio(lpt.fill_sum, lpt.models), "ratio"}},
      {"ilp.solve_s", {tracer.total("ilp.solve"), "s"}},
      {"ilp.presolve_s", {presolve_s, "s"}},
      {"ilp.root_s", {root_s, "s"}},
      {"ilp.strong_branch_s", {strong_s, "s"}},
      {"ilp.search_s", {search_s, "s"}},
      {"ilp.audit_s", {audit_s, "s"}},
      {"ilp.nodes", {static_cast<double>(nodes), "count"}},
      {"ilp.nodes_per_s", {ratio(nodes, search_s), "1/s"}},
      {"ilp.lp_iters_per_node", {ratio(lp_iters, nodes), "count"}},
      {"ilp.refactorizations", {static_cast<double>(refactorizations), "count"}},
      {"ilp.cuts_applied", {static_cast<double>(cuts), "count"}},
      {"ilp.root_gap_closed", {ratio(root_gap_closed, ncells), "ratio"}},
      {"ilp.reliability_probes", {static_cast<double>(rel_probes), "count"}},
      {"ilp.parallel_efficiency", {efficiency, "ratio"}},
      {"core.formulation_s", {tracer.total("core.formulation"), "s"}},
      {"core.model_vars", {static_cast<double>(vars), "count"}},
      {"core.model_rows", {static_cast<double>(rows), "count"}},
      {"core.decode_s", {tracer.total("core.decode"), "s"}},
      {"core.pipeline_overhead_s", {product_overhead, "s"}},
      {"core.priority_node_ratio", {ratio(nodes_prod, nodes_noprio), "ratio"}},
      {"core.cutoff_node_ratio", {ratio(nodes_prod, nodes_nocut), "ratio"}},
      {"core.hints_node_ratio", {ratio(nodes_prod, nodes_bare), "ratio"}},
      {"baselines.seed_s", {tracer.total("baselines.seed"), "s"}},
      {"baselines.seed_gap_pct", {ratio(seed_gap_sum, seeded), "%"}},
      {"bist.validate_s", {tracer.total("bist.validate"), "s"}},
      {"bist.verilog_s", {tracer.total("bist.verilog"), "s"}},
      {"serve.job_overhead_s", {serve.job_overhead_s, "s"}},
      {"serve.cache_hit_s", {serve.cache_hit_s, "s"}},
      {"trace.overhead_pct",
       {100.0 * ratio(mirror_wall - product_wall, product_wall), "%"}},
  };

  std::printf("\n");
  tracer.print_layers();
  std::printf("\nuntraced product wall %.3f s, traced %.3f s (overhead %.2f %%)\n",
              product_wall, mirror_wall,
              100.0 * ratio(mirror_wall - product_wall, product_wall));
  // Shares of the traced wall, whose spans and Stats come from one solve.
  std::printf("layer split: ilp.search_s %.1f %% of traced wall, "
              "ilp.root_s+strong_branch_s+audit_s %.1f %%\n",
              100.0 * ratio(search_s, mirror_wall),
              100.0 * ratio(root_s + strong_s + audit_s, mirror_wall));
  for (const auto& [name, value] : out.metrics)
    std::printf("%-28s %16.6f %s\n", name.c_str(), value.first,
                value.second.c_str());

  const std::string path = (std::filesystem::path(scratch_dir) /
                            ("perfbench-trace-" + w.name + "-seed" +
                             std::to_string(seed) + ".json"))
                               .string();
  tracer.write_chrome(path);
  std::printf("trace written to %s\n", path.c_str());
  return out;
}

}  // namespace perfbench
