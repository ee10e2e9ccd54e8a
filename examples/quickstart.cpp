// Quickstart: build the paper's Fig. 1 data flow graph by hand, synthesize
// the area-optimal reference datapath and a 1-test-session BIST datapath,
// and print what every register becomes.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "bist/bist_design.hpp"
#include "core/synthesizer.hpp"
#include "hls/dfg.hpp"

using namespace advbist;

int main() {
  // ---- 1. Describe the scheduled DFG (the paper's Fig. 1) ----
  hls::Dfg dfg("quickstart");
  const int v0 = dfg.add_variable("v0");
  const int v1 = dfg.add_variable("v1");
  const int v2 = dfg.add_variable("v2");
  const int v3 = dfg.add_variable("v3");
  const int v4 = dfg.add_variable("v4");
  const int v5 = dfg.add_variable("v5");
  const int v6 = dfg.add_variable("v6");
  const int v7 = dfg.add_variable("v7");
  using hls::ValueRef;
  const int add1 = dfg.add_operation(hls::OpType::kAdd, 0,
                                     {ValueRef::variable(v0),
                                      ValueRef::variable(v1)},
                                     v4, "v4=v0+v1");
  const int add2 = dfg.add_operation(hls::OpType::kAdd, 1,
                                     {ValueRef::variable(v3),
                                      ValueRef::variable(v4)},
                                     v5, "v5=v3+v4");
  const int mul1 = dfg.add_operation(hls::OpType::kMul, 1,
                                     {ValueRef::variable(v4),
                                      ValueRef::variable(v2)},
                                     v6, "v6=v4*v2");
  const int mul2 = dfg.add_operation(hls::OpType::kMul, 2,
                                     {ValueRef::variable(v5),
                                      ValueRef::variable(v6)},
                                     v7, "v7=v5*v6");
  dfg.validate();
  std::printf("DFG '%s': %d variables, %d ops, %d boundaries, needs %d "
              "registers\n",
              dfg.name().c_str(), dfg.num_variables(), dfg.num_operations(),
              dfg.num_boundaries(), dfg.max_crossing());

  // ---- 2. Bind operations onto functional units ----
  hls::ModuleAllocation modules;
  const int adder = modules.add_module("adder", {hls::OpType::kAdd});
  const int mult = modules.add_module("mult", {hls::OpType::kMul});
  modules.bind(add1, adder);
  modules.bind(add2, adder);
  modules.bind(mul1, mult);
  modules.bind(mul2, mult);
  modules.validate(dfg);

  // ---- 3. Reference synthesis (plain, area-optimal) ----
  core::SynthesizerOptions options;
  options.solver.time_limit_seconds = 30;
  const core::Synthesizer synth(dfg, modules, options);
  const core::SynthesisResult ref = synth.synthesize_reference();
  std::printf("\nreference datapath: %d registers, %d mux inputs, "
              "%d transistors (%s)\n",
              ref.design.area.num_registers, ref.design.area.mux_inputs,
              ref.design.area.total(),
              ref.is_optimal() ? "proven optimal" : "incumbent");

  // ---- 4. BIST synthesis: everything testable in ONE test session ----
  const core::SynthesisResult bist = synth.synthesize_bist(/*k=*/1);
  const auto types =
      bist.design.bist.register_types(bist.design.registers.num_registers());
  std::printf("BIST datapath (1 test session): %d transistors, overhead "
              "%.1f%%\n",
              bist.design.area.total(),
              bist::overhead_percent(bist.design.area, ref.design.area));
  for (std::size_t r = 0; r < types.size(); ++r)
    std::printf("  register R%zu -> %s\n", r, bist::to_string(types[r]));
  for (std::size_t m = 0; m < bist.design.bist.modules.size(); ++m) {
    const auto& plan = bist.design.bist.modules[m];
    std::printf("  module %s: tested in session %d, SR=R%d, TPGs:",
                modules.module(static_cast<int>(m)).name.c_str(),
                plan.session + 1, plan.sr_reg);
    for (int t : plan.tpg_reg) std::printf(" R%d", t);
    std::printf("\n");
  }

  // ---- 5. A peek at the solver machinery behind that proof ----
  // (docs/solver.md is the full reference for every knob and counter.)
  const ilp::Stats& st = bist.solver_stats;
  std::printf("\nsolver: %lld nodes, %lld LP iterations "
              "(%lld phase-1 / %lld phase-2 / %lld dual)\n",
              st.nodes, st.lp_iterations, st.lp_primal_phase1_iterations,
              st.lp_primal_phase2_iterations, st.lp_dual_iterations);
  std::printf("  dual pricing: %lld dual re-solves, %lld fallbacks, "
              "%lld Devex weight resets\n",
              st.lp_dual_solves, st.lp_dual_fallbacks, st.lp_devex_resets);
  std::printf("  branching: %d strong-branch probes seeded the shared "
              "pseudocosts, %d variables fixed by infeasible probes "
              "(--strong-branch N)\n",
              st.strong_branch_probed, st.strong_branch_fixed);

  std::printf("\nEvery rule of the parallel BIST architecture (Eqs. 6-13 of "
              "the paper)\nwas re-validated on this decoded design.\n");
  return 0;
}
