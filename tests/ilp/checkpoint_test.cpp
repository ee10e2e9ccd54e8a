// Crash-safe checkpoint/resume tests.
//
// The contract under test: interrupt a proof at ANY point, resume from the
// snapshot, and the continued solve reaches the same audit-verified optimum
// as an uninterrupted run — across thread counts. And for any snapshot the
// solver cannot prove valid (truncated, bit-flipped, torn mid-write, or
// from a different model), the resume degrades to a counted cold start:
// never a crash, never a wrong proof.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/checkpoint.hpp"
#include "ilp/solver.hpp"
#include "lp/model.hpp"
#include "util/fault_injector.hpp"

namespace advbist::ilp {
namespace {

class ScopedInjector {
 public:
  explicit ScopedInjector(util::FaultInjector* fi) {
    util::FaultInjector::install(fi);
  }
  ~ScopedInjector() { util::FaultInjector::install(nullptr); }
};

struct Instance {
  lp::Model model;
  std::vector<int> priority;
};

Instance bist_instance(const char* name, int k = 2) {
  const hls::Benchmark bench = hls::benchmark_by_name(name);
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = k;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  return Instance{f.model(), f.branch_priorities()};
}

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointResume, InterruptAnywhereResumesToTheSameProvenOptimum) {
  const Instance inst = bist_instance("tseng");

  Options clean;
  clean.branch_priority = inst.priority;
  const Solution ref = Solver(clean).solve(inst.model);
  ASSERT_EQ(ref.status, SolveStatus::kOptimal);
  ASSERT_GT(ref.stats.nodes, 4);

  for (const int percent : {25, 50, 75}) {
    const std::string path =
        temp_path(("resume_" + std::to_string(percent) + ".ck").c_str());
    std::remove(path.c_str());

    Options stop;
    stop.branch_priority = inst.priority;
    stop.node_limit = std::max(1LL, ref.stats.nodes * percent / 100);
    stop.checkpoint_path = path;
    const Solution cut = Solver(stop).solve(inst.model);
    SCOPED_TRACE("interrupt at " + std::to_string(percent) + "%");
    if (cut.status == SolveStatus::kOptimal) continue;  // finished early
    ASSERT_EQ(cut.stats.termination, util::StopReason::kNodeLimit);
    EXPECT_GE(cut.stats.checkpoints_written, 1);

    for (const int threads : {1, 2, 4}) {
      Options go;
      go.branch_priority = inst.priority;
      go.num_threads = threads;
      go.resume_path = path;
      const Solution s = Solver(go).solve(inst.model);
      SCOPED_TRACE("resume on " + std::to_string(threads) + " threads");
      EXPECT_TRUE(s.stats.resumed);
      EXPECT_EQ(s.stats.resume_rejected, 0);
      ASSERT_EQ(s.status, SolveStatus::kOptimal);
      EXPECT_NEAR(s.objective, ref.objective, 1e-6);
      EXPECT_TRUE(s.stats.audit_incumbent_ok);
      EXPECT_TRUE(s.stats.audit_bound_ok);
      EXPECT_NEAR(s.stats.best_bound, ref.stats.best_bound, 1e-6);
    }
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, PeriodicSnapshotsFromALiveSearchResumeCorrectly) {
  const Instance inst = bist_instance("tseng");
  Options clean;
  clean.branch_priority = inst.priority;
  const Solution ref = Solver(clean).solve(inst.model);
  ASSERT_EQ(ref.status, SolveStatus::kOptimal);
  ASSERT_GT(ref.stats.nodes, 4);

  const std::string path = temp_path("periodic.ck");
  std::remove(path.c_str());
  Options stop;
  stop.branch_priority = inst.priority;
  stop.num_threads = 2;
  // Half the reference tree stops the search mid-flight however fast the
  // machine is; the deadline only bounds the run where it is slow.
  stop.node_limit = ref.stats.nodes / 2;
  stop.time_limit_seconds = 0.4;
  stop.checkpoint_path = path;
  stop.checkpoint_interval_seconds = 0.02;  // force mid-search captures
  const Solution cut = Solver(stop).solve(inst.model);
  if (cut.status == SolveStatus::kOptimal) {
    GTEST_SKIP() << "instance solved before the deadline on this machine";
  }
  EXPECT_GE(cut.stats.checkpoints_written, 1);
  // The snapshot writer runs beside the workers and must never block them.
  EXPECT_LT(cut.stats.checkpoint_seconds, 0.5 * cut.stats.seconds);

  Options go;
  go.branch_priority = inst.priority;
  go.resume_path = path;
  const Solution s = Solver(go).solve(inst.model);
  EXPECT_TRUE(s.stats.resumed);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, ref.objective, 1e-6);
  EXPECT_TRUE(s.stats.audit_incumbent_ok);
  std::remove(path.c_str());
}

TEST(CheckpointResume, NaturalCompletionRemovesTheSnapshot) {
  const Instance inst = bist_instance("fig1");
  const std::string path = temp_path("completed.ck");
  // Pre-plant a stale file: completing the proof must remove it.
  write_file(path, {1, 2, 3});
  Options opt;
  opt.branch_priority = inst.priority;
  opt.checkpoint_path = path;
  const Solution s = Solver(opt).solve(inst.model);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.stats.checkpoints_written, 0);
  std::ifstream in(path);
  EXPECT_FALSE(in.good()) << "stale snapshot survived a completed proof";
}

TEST(CheckpointResume, SnapshotRoundTripPreservesEveryField) {
  SolveCheckpoint ck;
  ck.model_fingerprint = 0x1234abcd5678ef00ULL;
  ck.num_variables = 3;
  ck.has_incumbent = true;
  ck.incumbent_objective = 7.0;
  ck.incumbent = {1.0, 0.0, 1.0};
  ck.cutoff = 7.0;
  ck.dropped_bound = 5.5;
  ck.nodes_explored = 42;
  ck.global_lb = {0.0, 0.0, 1.0};
  ck.global_ub = {1.0, 0.0, 1.0};
  CheckpointNode node;
  node.changes = {{0, 1.0, 1.0}, {2, 0.0, 0.0}};
  node.parent_bound = 6.25;
  node.depth = 2;
  node.branch_var = 2;
  node.branch_up = false;
  node.branch_dist = 0.75;
  node.parent_obj = 6.0;
  ck.frontier.push_back(node);
  CheckpointCut cut;
  cut.terms = {{0, 1.0}, {1, -1.0}};
  cut.rhs = 1.0;
  cut.cut_class = 1;
  ck.cuts.push_back(cut);
  ck.pseudocosts.push_back(CheckpointPseudocost{1, 2.5, 0.5, 3, 1});

  const std::vector<unsigned char> bytes = serialize(ck);
  const auto back = deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->model_fingerprint, ck.model_fingerprint);
  EXPECT_EQ(back->num_variables, 3);
  EXPECT_TRUE(back->has_incumbent);
  EXPECT_EQ(back->incumbent, ck.incumbent);
  EXPECT_EQ(back->cutoff, 7.0);
  EXPECT_EQ(back->dropped_bound, 5.5);
  EXPECT_EQ(back->nodes_explored, 42);
  EXPECT_EQ(back->global_lb, ck.global_lb);
  EXPECT_EQ(back->global_ub, ck.global_ub);
  ASSERT_EQ(back->frontier.size(), 1u);
  EXPECT_EQ(back->frontier[0].changes.size(), 2u);
  EXPECT_EQ(back->frontier[0].changes[1].var, 2);
  EXPECT_EQ(back->frontier[0].parent_bound, 6.25);
  EXPECT_EQ(back->frontier[0].depth, 2);
  EXPECT_FALSE(back->frontier[0].branch_up);
  ASSERT_EQ(back->cuts.size(), 1u);
  EXPECT_EQ(back->cuts[0].terms.size(), 2u);
  EXPECT_EQ(back->cuts[0].rhs, 1.0);
  EXPECT_EQ(back->cuts[0].cut_class, 1);
  ASSERT_EQ(back->pseudocosts.size(), 1u);
  EXPECT_EQ(back->pseudocosts[0].up_cnt, 3);
}

TEST(CheckpointResume, TruncatedAndBitFlippedSnapshotsAreRejectedNotTrusted) {
  const Instance inst = bist_instance("fig1");
  const std::string path = temp_path("fuzz.ck");
  std::remove(path.c_str());
  Options stop;
  stop.branch_priority = inst.priority;
  stop.node_limit = 3;
  stop.checkpoint_path = path;
  const Solution cut = Solver(stop).solve(inst.model);
  ASSERT_EQ(cut.stats.termination, util::StopReason::kNodeLimit);
  const std::vector<unsigned char> good = read_file(path);
  ASSERT_GT(good.size(), 40u);
  ASSERT_TRUE(load_checkpoint(path).has_value());

  const std::string evil = temp_path("fuzz_evil.ck");
  // Truncations at every interesting boundary must fail the frame check.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{32},
        good.size() / 2, good.size() - 1}) {
    write_file(evil, std::vector<unsigned char>(good.begin(),
                                                good.begin() + len));
    EXPECT_FALSE(load_checkpoint(evil).has_value()) << "length " << len;
  }
  // A single flipped bit anywhere must fail the checksum (or the magic).
  for (std::size_t i = 0; i < good.size(); i += 7) {
    std::vector<unsigned char> bad = good;
    bad[i] ^= 0x20;
    write_file(evil, bad);
    EXPECT_FALSE(load_checkpoint(evil).has_value()) << "flip at " << i;
  }
  // End-to-end: resuming from a corrupt file is a counted cold start that
  // still proves the true optimum.
  {
    std::vector<unsigned char> bad = good;
    bad[good.size() / 2] ^= 0xff;
    write_file(evil, bad);
    Options go;
    go.branch_priority = inst.priority;
    go.resume_path = evil;
    const Solution s = Solver(go).solve(inst.model);
    EXPECT_FALSE(s.stats.resumed);
    EXPECT_EQ(s.stats.resume_rejected, 1);
    EXPECT_EQ(s.status, SolveStatus::kOptimal);
  }
  std::remove(path.c_str());
  std::remove(evil.c_str());
}

TEST(CheckpointResume, SnapshotFromADifferentModelIsRejected) {
  const Instance fig1 = bist_instance("fig1");
  const Instance tseng = bist_instance("tseng");
  const std::string path = temp_path("mismatch.ck");
  std::remove(path.c_str());
  Options stop;
  stop.branch_priority = fig1.priority;
  stop.node_limit = 3;
  stop.checkpoint_path = path;
  (void)Solver(stop).solve(fig1.model);
  ASSERT_TRUE(load_checkpoint(path).has_value());

  Options go;
  go.branch_priority = tseng.priority;
  go.resume_path = path;
  const Solution s = Solver(go).solve(tseng.model);
  EXPECT_FALSE(s.stats.resumed);
  EXPECT_EQ(s.stats.resume_rejected, 1);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  std::remove(path.c_str());
}

TEST(CheckpointResume, TornSnapshotWritesNeverProduceALoadableLie) {
  const Instance inst = bist_instance("fig1");
  const std::string path = temp_path("torn.ck");
  std::remove(path.c_str());
  util::FaultInjector fi(3);
  fi.set_period(util::FaultSite::kSnapshotTorn, 1);  // tear every write
  ScopedInjector guard(&fi);
  Options stop;
  stop.branch_priority = inst.priority;
  stop.node_limit = 3;
  stop.checkpoint_path = path;
  const Solution cut = Solver(stop).solve(inst.model);
  ASSERT_EQ(cut.stats.termination, util::StopReason::kNodeLimit);
  EXPECT_GT(fi.fired(util::FaultSite::kSnapshotTorn), 0);
  // The torn file must be rejected at load, and a resume over it must cold
  // start to the true optimum.
  EXPECT_FALSE(load_checkpoint(path).has_value());
  util::FaultInjector::install(nullptr);
  Options go;
  go.branch_priority = inst.priority;
  go.resume_path = path;
  const Solution s = Solver(go).solve(inst.model);
  EXPECT_FALSE(s.stats.resumed);
  EXPECT_EQ(s.stats.resume_rejected, 1);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  std::remove(path.c_str());
}

TEST(CheckpointResume, MemoryAccountingBalancesToZeroAtTeardown) {
  const Instance inst = bist_instance("tseng");
  // Completed, interrupted, multi-threaded, and cut-aging solves must all
  // release every reserved byte: the reserve/release ledger pins to zero.
  struct Config {
    int threads;
    long long node_limit;
    int row_age;
  };
  const Config configs[] = {{1, 0, 40}, {2, 0, 40}, {4, 0, 4}, {1, 10, 40}};
  for (const Config& c : configs) {
    Options opt;
    opt.branch_priority = inst.priority;
    opt.num_threads = c.threads;
    opt.node_limit = c.node_limit;
    opt.lp_row_age_limit = c.row_age;
    const Solution s = Solver(opt).solve(inst.model);
    SCOPED_TRACE("threads " + std::to_string(c.threads) + " node_limit " +
                 std::to_string(c.node_limit) + " row_age " +
                 std::to_string(c.row_age));
    EXPECT_EQ(s.stats.memory_unreleased_bytes, 0u);
    EXPECT_GT(s.stats.peak_memory_bytes, 0u);
  }
}

TEST(CheckpointResume, ResumingANodeLimitedRunAccumulatesProgress) {
  // Chained restarts: a tiny node budget per attempt, each resuming the
  // previous checkpoint, must eventually finish the proof — monotone
  // progress is what makes serve's retry loop converge.
  const Instance inst = bist_instance("fig1");
  Options clean;
  clean.branch_priority = inst.priority;
  const Solution ref = Solver(clean).solve(inst.model);
  ASSERT_EQ(ref.status, SolveStatus::kOptimal);

  const std::string path = temp_path("chained.ck");
  std::remove(path.c_str());
  Solution s;
  int attempts = 0;
  for (; attempts < 200; ++attempts) {
    Options go;
    go.branch_priority = inst.priority;
    go.node_limit = std::max(1LL, ref.stats.nodes / 10);
    go.checkpoint_path = path;
    go.resume_path = path;
    s = Solver(go).solve(inst.model);
    if (s.stats.termination == util::StopReason::kNone) break;
  }
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << attempts << " attempts";
  EXPECT_NEAR(s.objective, ref.objective, 1e-6);
  EXPECT_TRUE(s.stats.audit_incumbent_ok);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace advbist::ilp
