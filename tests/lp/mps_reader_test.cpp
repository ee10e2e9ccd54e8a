// Frontend golden tests: MPS/LP corpus round-trips, RANGES / BOUNDS /
// integer-marker semantics, typed rejection of every malformed corpus
// file, hard caps (ReaderLimits), and write_mps(read_model(.)) closure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ilp/solver.hpp"
#include "lp/instance_gen.hpp"
#include "lp/model.hpp"
#include "lp/mps_reader.hpp"
#include "lp/sanitizer.hpp"

namespace advbist::lp {
namespace {

const std::string kCorpus = ADVBIST_SOURCE_DIR "/tests/lp/corpus";

int find_var(const Model& m, const std::string& name) {
  for (int v = 0; v < m.num_variables(); ++v)
    if (m.variable(v).name == name) return v;
  return -1;
}

int find_row(const Model& m, const std::string& name) {
  for (int r = 0; r < m.num_constraints(); ++r)
    if (m.constraint(r).name == name) return r;
  return -1;
}

std::vector<Term> sorted_terms(std::vector<Term> t) {
  std::sort(t.begin(), t.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  return t;
}

// Structural equality up to term order and names: exactly what the
// write_mps doc promises for the round trip.
void expect_models_equal(const Model& a, const Model& b) {
  ASSERT_EQ(a.num_variables(), b.num_variables());
  ASSERT_EQ(a.num_constraints(), b.num_constraints());
  for (int v = 0; v < a.num_variables(); ++v) {
    const VariableDef& x = a.variable(v);
    const VariableDef& y = b.variable(v);
    EXPECT_EQ(x.lower, y.lower) << "var " << v;
    EXPECT_EQ(x.upper, y.upper) << "var " << v;
    EXPECT_EQ(x.objective, y.objective) << "var " << v;
    EXPECT_EQ(x.type, y.type) << "var " << v;
  }
  for (int r = 0; r < a.num_constraints(); ++r) {
    const ConstraintDef& x = a.constraint(r);
    const ConstraintDef& y = b.constraint(r);
    EXPECT_EQ(x.sense, y.sense) << "row " << r;
    EXPECT_EQ(x.rhs, y.rhs) << "row " << r;
    const std::vector<Term> xt = sorted_terms(x.terms);
    const std::vector<Term> yt = sorted_terms(y.terms);
    ASSERT_EQ(xt.size(), yt.size()) << "row " << r;
    for (std::size_t i = 0; i < xt.size(); ++i) {
      EXPECT_EQ(xt[i].var, yt[i].var) << "row " << r;
      EXPECT_EQ(xt[i].coeff, yt[i].coeff) << "row " << r;
    }
  }
}

TEST(MpsReader, MiplibFragmentGolden) {
  const ReadResult rr = read_model_file(kCorpus + "/valid/miplib_frag.mps");
  ASSERT_TRUE(rr.ok) << rr.error.to_string();
  EXPECT_EQ(rr.format, "mps");
  EXPECT_EQ(rr.name, "MIPFRAG");
  EXPECT_FALSE(rr.maximize);
  // RHS entry on the objective row is the NEGATED constant term.
  EXPECT_DOUBLE_EQ(rr.objective_offset, 5.0);
  EXPECT_EQ(rr.num_ranges, 2);
  EXPECT_EQ(rr.crossed_bounds, 0);

  const Model& m = rr.model;
  ASSERT_EQ(m.num_variables(), 4);
  // C1+C1_rng, C2+C2_rng, C3, C4 — the free row FREEROW contributes nothing.
  ASSERT_EQ(m.num_constraints(), 6);

  const int x1 = find_var(m, "X1"), x2 = find_var(m, "X2");
  const int x3 = find_var(m, "X3"), x4 = find_var(m, "X4");
  ASSERT_GE(x1, 0);
  ASSERT_GE(x2, 0);
  ASSERT_GE(x3, 0);
  ASSERT_GE(x4, 0);

  // X1: continuous, UP 9 + LO 1, objective 1.
  EXPECT_EQ(m.variable(x1).type, VarType::kContinuous);
  EXPECT_DOUBLE_EQ(m.variable(x1).lower, 1.0);
  EXPECT_DOUBLE_EQ(m.variable(x1).upper, 9.0);
  EXPECT_DOUBLE_EQ(m.variable(x1).objective, 1.0);
  // X2: INTORG marker + BV.
  EXPECT_EQ(m.variable(x2).type, VarType::kInteger);
  EXPECT_DOUBLE_EQ(m.variable(x2).lower, 0.0);
  EXPECT_DOUBLE_EQ(m.variable(x2).upper, 1.0);
  EXPECT_DOUBLE_EQ(m.variable(x2).objective, -2.0);
  // X3: INTORG marker + UI 7.
  EXPECT_EQ(m.variable(x3).type, VarType::kInteger);
  EXPECT_DOUBLE_EQ(m.variable(x3).lower, 0.0);
  EXPECT_DOUBLE_EQ(m.variable(x3).upper, 7.0);
  // X4: after INTEND, MI then UP 2 -> continuous [-inf, 2].
  EXPECT_EQ(m.variable(x4).type, VarType::kContinuous);
  EXPECT_EQ(m.variable(x4).lower, -kInfinity);
  EXPECT_DOUBLE_EQ(m.variable(x4).upper, 2.0);

  // RANGES: L row C1 (rhs 10, range 4) -> activity in [6, 10].
  const int c1 = find_row(m, "C1"), c1r = find_row(m, "C1_rng");
  ASSERT_GE(c1, 0);
  ASSERT_GE(c1r, 0);
  EXPECT_EQ(m.constraint(c1).sense, Sense::kGreaterEqual);
  EXPECT_DOUBLE_EQ(m.constraint(c1).rhs, 6.0);
  EXPECT_EQ(m.constraint(c1r).sense, Sense::kLessEqual);
  EXPECT_DOUBLE_EQ(m.constraint(c1r).rhs, 10.0);
  // Both halves carry the same activity: 2 X1 + 1 X2.
  for (const int r : {c1, c1r}) {
    const std::vector<Term> t = sorted_terms(m.constraint(r).terms);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].var, std::min(x1, x2));
    EXPECT_EQ(t[1].var, std::max(x1, x2));
  }
  // G row C2 (rhs 2, range 6) -> [2, 8].
  const int c2 = find_row(m, "C2"), c2r = find_row(m, "C2_rng");
  ASSERT_GE(c2, 0);
  ASSERT_GE(c2r, 0);
  EXPECT_EQ(m.constraint(c2).sense, Sense::kGreaterEqual);
  EXPECT_DOUBLE_EQ(m.constraint(c2).rhs, 2.0);
  EXPECT_EQ(m.constraint(c2r).sense, Sense::kLessEqual);
  EXPECT_DOUBLE_EQ(m.constraint(c2r).rhs, 8.0);

  EXPECT_EQ(m.constraint(find_row(m, "C3")).sense, Sense::kEqual);
  EXPECT_EQ(m.constraint(find_row(m, "C4")).sense, Sense::kLessEqual);

  // A hostile file cannot smuggle anything past the gate: golden corpus
  // sanitizes clean with a zero fingerprint.
  const SanitizeResult san = sanitize_model(m);
  EXPECT_EQ(san.diag.cls, ModelClass::kClean);
  EXPECT_FALSE(san.diag.proven_infeasible);
  EXPECT_EQ(san.diag.fingerprint(), 0u);
}

TEST(MpsReader, KnapsackLpGoldenAndSolve) {
  const ReadResult rr = read_model_file(kCorpus + "/valid/knapsack.lp");
  ASSERT_TRUE(rr.ok) << rr.error.to_string();
  EXPECT_EQ(rr.format, "lp");
  EXPECT_TRUE(rr.maximize);
  EXPECT_DOUBLE_EQ(rr.objective_offset, 0.0);

  const Model& m = rr.model;
  ASSERT_EQ(m.num_variables(), 4);
  ASSERT_EQ(m.num_constraints(), 3);
  const int x1 = find_var(m, "x1"), x4 = find_var(m, "x4");
  ASSERT_GE(x1, 0);
  ASSERT_GE(x4, 0);
  // maximize 5 x1 ... is stored negated: all solvers minimize.
  EXPECT_DOUBLE_EQ(m.variable(x1).objective, -5.0);
  EXPECT_DOUBLE_EQ(m.variable(x4).objective, 0.5);
  EXPECT_EQ(m.variable(x1).type, VarType::kInteger);
  EXPECT_DOUBLE_EQ(m.variable(x1).upper, 1.0);
  EXPECT_EQ(m.variable(x4).type, VarType::kContinuous);
  EXPECT_DOUBLE_EQ(m.variable(x4).upper, 2.0);
  EXPECT_EQ(m.constraint(find_row(m, "cap")).sense, Sense::kLessEqual);
  EXPECT_EQ(m.constraint(find_row(m, "link")).sense, Sense::kGreaterEqual);
  EXPECT_EQ(m.constraint(find_row(m, "fix")).sense, Sense::kEqual);

  // End to end through the solver: optimum is x1=x2=x3=1, x4=0, value 12
  // in the user's (maximize) frame.
  const ilp::Solution s = ilp::Solver().solve(m);
  ASSERT_TRUE(s.is_optimal());
  const double user = (rr.maximize ? -s.objective : s.objective) +
                      rr.objective_offset;
  EXPECT_NEAR(user, 12.0, 1e-6);
}

TEST(MpsReader, MalformedCorpusAllRejectedWithTypedErrors) {
  int seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(kCorpus + "/malformed")) {
    const std::string path = entry.path().string();
    const ReadResult rr = read_model_file(path);
    EXPECT_FALSE(rr.ok) << path << " parsed unexpectedly";
    EXPECT_FALSE(rr.error.message.empty()) << path;
    EXPECT_GE(rr.error.line, 0) << path;
    // to_string embeds the position for the CLI / reason.json.
    EXPECT_NE(rr.error.to_string().find("parse error"), std::string::npos)
        << path;
    ++seen;
  }
  // The corpus is part of the contract; shrinking it silently would gut
  // the fuzz seeds too.
  EXPECT_GE(seen, 16);
}

TEST(MpsReader, ValidCorpusAllParse) {
  int seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(kCorpus + "/valid")) {
    const std::string path = entry.path().string();
    const ReadResult rr = read_model_file(path);
    EXPECT_TRUE(rr.ok) << path << ": " << rr.error.to_string();
    ++seen;
  }
  EXPECT_GE(seen, 2);
}

TEST(MpsReader, MissingFileIsParseErrorNotCrash) {
  const ReadResult rr = read_model_file("/nonexistent/advbist-no-such.mps");
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.error.line, 0);
  EXPECT_FALSE(rr.error.message.empty());
}

TEST(MpsReader, FormatSniffWithoutExtension) {
  const std::string lp = "minimize\n obj: x + y\nsubject to\n"
                         " c: x + y >= 1\nend\n";
  EXPECT_EQ(read_model(lp).format, "lp");
  const std::string mps =
      "NAME T\nROWS\n N obj\n G c\nCOLUMNS\n x obj 1.0 c 1.0\n"
      " y obj 1.0 c 1.0\nRHS\n r c 1.0\nENDATA\n";
  const ReadResult rr = read_model(mps);
  ASSERT_TRUE(rr.ok) << rr.error.to_string();
  EXPECT_EQ(rr.format, "mps");
  EXPECT_EQ(rr.model.num_variables(), 2);
}

TEST(MpsReader, CrossedBoundsEncodedForSanitizer) {
  // Hostile BOUNDS: LO 5 then UP 2. The hardened Model cannot hold
  // lower > upper, so the reader swaps the bounds and plants a
  // contradictory empty row; the sanitizer proves infeasibility, and the
  // full solver reports it honestly.
  const std::string mps =
      "NAME CROSSED\nROWS\n N obj\n L c\nCOLUMNS\n x obj 1.0 c 1.0\n"
      "RHS\n r c 4.0\nBOUNDS\n LO B x 5.0\n UP B x 2.0\nENDATA\n";
  const ReadResult rr = read_model(mps);
  ASSERT_TRUE(rr.ok) << rr.error.to_string();
  EXPECT_EQ(rr.crossed_bounds, 1);
  const int cr = find_row(rr.model, "crossed_bounds(x)");
  ASSERT_GE(cr, 0);
  EXPECT_TRUE(rr.model.constraint(cr).terms.empty());
  EXPECT_LE(rr.model.variable(find_var(rr.model, "x")).lower,
            rr.model.variable(find_var(rr.model, "x")).upper);

  const SanitizeResult san = sanitize_model(rr.model);
  EXPECT_TRUE(san.diag.proven_infeasible);
  EXPECT_GE(san.diag.contradictory_rows, 1);

  const ilp::Solution s = ilp::Solver().solve(rr.model);
  EXPECT_EQ(s.status, ilp::SolveStatus::kInfeasible);
  EXPECT_TRUE(s.stats.sanitizer_proven_infeasible);
}

TEST(MpsReader, ObjsenseMaximizeNegatesObjective) {
  const std::string mps =
      "NAME MAX\nOBJSENSE\n MAX\nROWS\n N obj\n L c\nCOLUMNS\n"
      " x obj 3.0 c 1.0\nRHS\n r c 1.0\nENDATA\n";
  const ReadResult rr = read_model(mps);
  ASSERT_TRUE(rr.ok) << rr.error.to_string();
  EXPECT_TRUE(rr.maximize);
  EXPECT_DOUBLE_EQ(rr.model.variable(0).objective, -3.0);
}

TEST(MpsReader, LimitsRowCap) {
  ReaderLimits lim;
  lim.max_rows = 2;
  const std::string mps =
      "NAME CAP\nROWS\n N obj\n L a\n L b\n L c\nCOLUMNS\n x obj 1.0\n"
      "ENDATA\n";
  const ReadResult rr = read_model(mps, lim);
  EXPECT_FALSE(rr.ok);
  EXPECT_GT(rr.error.line, 0);
}

TEST(MpsReader, LimitsColumnCap) {
  ReaderLimits lim;
  lim.max_cols = 1;
  const std::string mps =
      "NAME CAP\nROWS\n N obj\n L c\nCOLUMNS\n x obj 1.0\n y obj 1.0\n"
      "RHS\n r c 1.0\nENDATA\n";
  EXPECT_FALSE(read_model(mps, lim).ok);
}

TEST(MpsReader, LimitsNnzCap) {
  ReaderLimits lim;
  lim.max_nnz = 2;
  const std::string mps =
      "NAME CAP\nROWS\n N obj\n L c\n L d\nCOLUMNS\n"
      " x obj 1.0 c 1.0\n x d 1.0\n y c 1.0 d 1.0\nRHS\n r c 1.0\nENDATA\n";
  EXPECT_FALSE(read_model(mps, lim).ok);
}

TEST(MpsReader, LimitsByteAndLineAndNameCaps) {
  ReaderLimits bytes;
  bytes.max_bytes = 16;
  EXPECT_FALSE(read_model(std::string(64, 'A'), bytes).ok);

  ReaderLimits line;
  line.max_line_len = 8;
  EXPECT_FALSE(
      read_model("NAME LONGLINE_PAST_THE_CAP\nROWS\nENDATA\n", line).ok);

  ReaderLimits name;
  name.max_name_len = 4;
  EXPECT_FALSE(
      read_model("NAME N\nROWS\n N obj\n L longrowname\nCOLUMNS\nENDATA\n",
                 name)
          .ok);
}

TEST(MpsReader, RoundTripGeneratedInstances) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const bool illcond : {false, true}) {
      GenOptions opt;
      opt.seed = seed;
      opt.num_vars = 12;
      opt.num_rows = 18;
      opt.badly_scaled = illcond;
      const Model m = generate_instance(opt);
      const ReadResult rr = read_model(write_mps(m, instance_name(opt)));
      ASSERT_TRUE(rr.ok) << instance_name(opt) << ": "
                         << rr.error.to_string();
      EXPECT_EQ(rr.name, instance_name(opt));
      expect_models_equal(m, rr.model);
    }
  }
  // The file path end to end, as `advbist solve` runs it: write_mps to
  // disk, read_model_file, solve. The instances are feasible by
  // construction, so their optima are pinned (the last is ill-conditioned).
  const double optima[] = {-138, -142, -143, -145, -125, -152};
  for (int g = 0; g < 6; ++g) {
    GenOptions opt;
    opt.seed = 100 + static_cast<std::uint64_t>(g);
    opt.num_vars = 40;
    opt.num_rows = 60;
    opt.badly_scaled = g == 5;
    const std::string name = instance_name(opt);
    const std::string path = ::testing::TempDir() + name + ".mps";
    {
      std::ofstream out(path, std::ios::trunc);
      out << write_mps(generate_instance(opt), name);
    }
    const ReadResult rr = read_model_file(path);
    std::remove(path.c_str());
    ASSERT_TRUE(rr.ok) << name << ": " << rr.error.to_string();
    const ilp::Solution s = ilp::Solver().solve(rr.model);
    EXPECT_EQ(s.status, ilp::SolveStatus::kOptimal) << name;
    EXPECT_NEAR(s.objective, optima[g], 1e-6) << name;
  }
}

TEST(MpsReader, RoundTripCorpusModels) {
  // write_mps(read(.)) must itself re-read to the same model — including
  // ranges-expanded rows, MI bounds and integer markers.
  for (const char* file : {"/valid/miplib_frag.mps", "/valid/knapsack.lp"}) {
    const ReadResult a = read_model_file(kCorpus + file);
    ASSERT_TRUE(a.ok) << file;
    const ReadResult b = read_model(write_mps(a.model, "RT"));
    ASSERT_TRUE(b.ok) << file << ": " << b.error.to_string();
    expect_models_equal(a.model, b.model);
  }
}

}  // namespace
}  // namespace advbist::lp
