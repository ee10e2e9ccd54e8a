// Table 2 product-path benchmark: runs Table 2 cells through
// core::Synthesizer (the path behind `advbist synth/sweep`, bench_table2
// and `advbist serve`) and prints the end-to-end metrics, or with
// --trace 1 the per-layer metrics (layers.cpp). See README.md.
//
//   perfbench --workload proven-serial|root-heavy|parallel-4t --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every cell passed its correctness checks.
#include "perfbench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <random>
#include <thread>

#include "bist/bist_design.hpp"
#include "bist/verilog.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

/// Every run ends (cells cancelled and counted failed) before this many
/// seconds, well inside the 180 s a run may take.
constexpr double kRunDeadlineSeconds = 165.0;
/// Per-solve safety limit; no pinned cell comes near it.
constexpr double kSafetyTimeLimit = 150.0;
/// Set-up samples taken before the first solve; one more follows every cell.
constexpr int kSetupSamples = 5;

std::vector<Workload> workloads() {
  std::vector<Workload> all;
  Workload proven{"proven-serial", 1, -1, true, {}};
  for (const char* c : {"fig1", "tseng", "paulin"})
    for (int k : {0, 1, 2}) proven.cells.push_back({c, k});
  proven.cells.push_back({"dct4", 0});
  proven.cells.push_back({"iir3", 0});
  all.push_back(proven);

  all.push_back({"root-heavy", 1, 1, false,
                 {{"paulin", 3}, {"paulin", 4}, {"fir6", 2}, {"iir3", 3},
                  {"wavelet6", 3}}});
  all.push_back({"parallel-4t", 4, 4000, false,
                 {{"iir3", 1}, {"fir6", 0}, {"fir6", 1}, {"wavelet6", 1}}});
  return all;
}

/// Raises `flag` once `seconds` have passed, unless destroyed first.
class Watchdog {
 public:
  Watchdog(double seconds, std::atomic<bool>& flag)
      : thread_([this, seconds, &flag] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; }))
            flag = true;
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Circuits of `w` in seed-shuffled order, each with its own Synthesizer.
std::vector<std::unique_ptr<Circuit>> build_circuits(
    const Workload& w, int seed, const core::SynthesizerOptions& options) {
  std::vector<std::string> order;
  for (const Cell& c : w.cells)
    if (std::find(order.begin(), order.end(), c.circuit) == order.end())
      order.push_back(c.circuit);
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<std::unique_ptr<Circuit>> circuits;
  for (const std::string& name : order) {
    auto circuit = std::make_unique<Circuit>();
    circuit->bench = hls::benchmark_by_name(name);
    circuit->synth = std::make_unique<core::Synthesizer>(
        circuit->bench.dfg, circuit->bench.modules, options);
    for (const Cell& c : w.cells)
      if (c.circuit == name) circuit->ks.push_back(c.k);
    std::sort(circuit->ks.begin(), circuit->ks.end());
    circuits.push_back(std::move(circuit));
  }
  return circuits;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(bool correct, int attempted, int failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int pinned_optimum(const Cell& cell) {
  static const std::map<std::pair<std::string, int>, int> pins = {
      {{"fig1", 0}, 624},    {{"fig1", 1}, 1236},   {{"fig1", 2}, 1056},
      {{"tseng", 0}, 1360},  {{"tseng", 1}, 2036},  {{"tseng", 2}, 1856},
      {{"paulin", 0}, 1520}, {{"paulin", 1}, 2632}, {{"paulin", 2}, 2112},
      {{"dct4", 0}, 2080},   {{"iir3", 0}, 2240}};
  const auto it = pins.find({cell.circuit, cell.k});
  return it == pins.end() ? 0 : it->second;
}

core::FormulationOptions formulation_options(
    const core::SynthesizerOptions& options, int k) {
  core::FormulationOptions fo;
  fo.include_bist = k > 0;
  if (k > 0) fo.k = k;
  fo.num_registers = options.num_registers;
  fo.symmetry_reduction = options.symmetry_reduction;
  fo.commutative_swaps = options.commutative_swaps;
  fo.cost = options.cost;
  return fo;
}

core::SynthesizerOptions synth_options(const Workload& w,
                                       const std::atomic<bool>* cancel) {
  core::SynthesizerOptions o;
  o.solver.time_limit_seconds = kSafetyTimeLimit;
  o.solver.node_limit = w.node_limit;
  o.solver.num_threads = w.threads;
  o.solver.cancel_flag = cancel;
  return o;
}

CellRun run_product_cell(const Circuit& circuit, int k, const Workload& w,
                         const std::atomic<bool>& cancel) {
  CellRun run;
  run.cell = {circuit.bench.dfg.name(), k};
  const util::Stopwatch watch;
  try {
    const core::SynthesisResult r = k == 0
                                        ? circuit.synth->synthesize_reference()
                                        : circuit.synth->synthesize_bist(k);
    if (k > 0) bist::validate_bist_design(r.design.datapath, r.design.bist);
    bist::VerilogOptions vo;
    vo.include_bist = k > 0;
    const std::string rtl =
        bist::export_verilog(circuit.bench.dfg, circuit.bench.modules,
                             r.design.datapath, r.design.bist, vo);
    run.wall_s = watch.seconds();
    run.status = r.status;
    run.objective = r.objective;
    run.bound = r.best_bound;
    run.nodes = r.nodes;
    run.solve_s = r.solver_stats.seconds;
    run.proven = r.is_optimal();
    run.gap = run.proven ? 0.0
                         : std::max(0.0, (r.objective - r.best_bound) /
                                             std::abs(r.objective));

    const ilp::Stats& st = r.solver_stats;
    const int pin = pinned_optimum(run.cell);
    if (rtl.empty()) {
      run.error = "empty Verilog";
    } else if (!(r.objective > 0.0) ||
               r.best_bound > r.objective + 1e-6 * r.objective) {
      run.error = "bound above objective";
    } else if (run.proven && !r.from_heuristic_fallback &&
               !(st.audit_ran && st.audit_incumbent_ok && st.audit_bound_ok)) {
      run.error = "optimal claim not audit-verified";
    } else if (w.must_prove && !run.proven) {
      run.error = "not proven: " + ilp::to_string(r.status);
    } else if (w.must_prove && std::lround(r.objective) != pin) {
      run.error = "objective " + std::to_string(std::lround(r.objective)) +
                  " != pinned " + std::to_string(pin);
    } else if (cancel) {
      run.error = "run deadline reached";
    }
  } catch (const std::exception& e) {
    run.wall_s = watch.seconds();
    run.error = std::string("threw: ") + e.what();
  }
  return run;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name;
  std::string out_dir = ".";
  int seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && (*end != '\0' || end == value)) usage("bad number");
  }
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1))
    usage("--seed, --seconds and --trace are required");

  const std::vector<Workload> all = workloads();
  const auto found =
      std::find_if(all.begin(), all.end(),
                   [&](const Workload& w) { return w.name == workload_name; });
  if (found == all.end()) usage("unknown workload");
  const Workload& w = *found;

  std::atomic<bool> cancel{false};
  const Watchdog watchdog(kRunDeadlineSeconds, cancel);
  const core::SynthesizerOptions options = synth_options(w, &cancel);

  // Set-up is everything the product path does before its first pivot:
  // circuit construction, one Synthesizer per circuit, and the ILP
  // formulation of every cell. The circuits are built once for the run;
  // set-up samples build throw-away copies. The host's speed drifts over
  // seconds, so samples are taken before the first solve and again after
  // every cell, and setup_s is their median.
  const std::vector<std::unique_ptr<Circuit>> circuits =
      build_circuits(w, seed, options);
  std::vector<double> setup_samples;
  const auto sample_setup = [&] {
    const util::Stopwatch watch;
    for (const auto& c : build_circuits(w, seed, options))
      for (int k : c->ks)
        const core::Formulation f(c->bench.dfg, c->bench.modules,
                                  formulation_options(options, k));
    setup_samples.push_back(watch.seconds());
  };
  for (int i = 0; i < kSetupSamples; ++i) sample_setup();

  std::printf("workload %s  seed %d  threads %d  node limit %lld\n",
              w.name.c_str(), seed, w.threads, w.node_limit);
  std::printf("circuit order:");
  for (const auto& c : circuits) std::printf(" %s", c->bench.dfg.name().c_str());
  std::printf("\n");

  if (trace == 1) {
    const TracedResult traced = run_traced(w, circuits, out_dir, seed, cancel);
    print_result(traced.failed == 0, traced.attempted, traced.failed,
                 traced.metrics);
    return traced.failed == 0 ? 0 : 1;
  }

  // Passes over the cells until the next one would overrun --seconds
  // (always at least one); each cell's wall is its median over passes.
  std::map<std::string, std::vector<double>> walls;
  std::vector<CellRun> last_pass;
  std::vector<double> gaps;
  int attempted = 0;
  int failed = 0;
  int passes = 0;
  const util::Stopwatch measuring;
  double pass_s = 0.0;
  do {
    const util::Stopwatch pass_watch;
    last_pass.clear();
    for (const auto& circuit : circuits)
      for (int k : circuit->ks) {
        CellRun run = run_product_cell(*circuit, k, w, cancel);
        sample_setup();
        ++attempted;
        if (!run.error.empty()) ++failed;
        walls[run.cell.label()].push_back(run.wall_s);
        gaps.push_back(run.gap);
        last_pass.push_back(std::move(run));
      }
    pass_s = pass_watch.seconds();
    ++passes;
  } while (failed == 0 && measuring.seconds() + pass_s <= seconds);

  std::printf("%-12s %-10s %12s %12s %8s %10s %9s\n", "cell", "status",
              "objective", "bound", "gap%", "nodes", "wall_s");
  int proven = 0;
  for (const CellRun& r : last_pass) {
    proven += r.proven ? 1 : 0;
    std::printf("%-12s %-10s %12.1f %12.1f %8.2f %10lld %9.3f %s\n",
                r.cell.label().c_str(), ilp::to_string(r.status).c_str(),
                r.objective, r.bound, 100.0 * r.gap, r.nodes,
                median(walls[r.cell.label()]),
                r.error.empty() ? "" : ("FAILED: " + r.error).c_str());
  }

  double wall_s = 0.0;
  double log_sum = 0.0;
  for (const auto& [label, samples] : walls) {
    const double cell_wall = median(samples);
    wall_s += cell_wall;
    log_sum += std::log(cell_wall + 1.0);
  }
  const double sgm = std::exp(log_sum / static_cast<double>(walls.size())) - 1.0;
  double gap_sum = 0.0;
  for (double g : gaps) gap_sum += g;
  const double gap_pct = 100.0 * gap_sum / static_cast<double>(gaps.size());

  std::printf("passes %d  proven_cells %d of %zu  gap_pct %.3f %%  "
              "cells_failed %d of %d\n",
              passes, proven, last_pass.size(), gap_pct, failed, attempted);
  const Metrics metrics = {
      {"wall_s", {wall_s, "s"}},
      {"wall_sgm_s", {sgm, "s"}},
      {"closed_pct", {100.0 - gap_pct, "%"}},
      {"setup_s", {median(setup_samples), "s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
  for (const auto& [name, value] : metrics)
    std::printf("%-12s %14.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}
