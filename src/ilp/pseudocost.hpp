// Lock-free pseudocost store shared by every branch & bound worker.
//
// Pseudocosts estimate the objective degradation per unit of branching on
// a variable, from past branchings, seeded by root strong branching and
// refreshed in-tree by reliability probes. record() is lock-free (atomic
// fetch_add); estimates are relaxed-load averages, so two workers reading
// concurrently may see marginally different snapshots — that only perturbs
// the node exploration ORDER, never the proven optimum (the post-join
// reduction stays deterministic across thread counts, pinned by
// tests/ilp/parallel_test.cpp). Below `reliability` observations a
// variable's own average is blended towards the global average, so one
// early outlier cannot steer every worker's branching.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "ilp/checkpoint.hpp"

namespace advbist::ilp {

/// Observations (across ALL workers; the store is shared) a
/// variable+direction needs before its own average is trusted alone; below
/// it the estimate blends towards the global average, so one worker's early
/// outlier cannot steer every other worker's branching. Fixed, not a knob.
inline constexpr int kPseudocostReliability = 2;

class PseudocostStore {
 public:
  explicit PseudocostStore(int n)
      : n_(n), entries_(std::make_unique<Entry[]>(static_cast<size_t>(n))) {}

  /// Adds an observation with `weight` (> 1 counts it as that many
  /// observations towards reliability). Tree observations use weight 1;
  /// strong-branch and reliability probes record with weight =
  /// kPseudocostReliability — a probe is an EXACT LP degradation, not a
  /// noisy estimate, so it is trusted immediately instead of being blended
  /// away.
  void record(int var, bool up, double per_unit, int weight = 1) {
    Entry& e = entries_[var];
    if (up) {
      e.up_sum.fetch_add(weight * per_unit, std::memory_order_relaxed);
      e.up_cnt.fetch_add(weight, std::memory_order_relaxed);
    } else {
      e.down_sum.fetch_add(weight * per_unit, std::memory_order_relaxed);
      e.down_cnt.fetch_add(weight, std::memory_order_relaxed);
    }
  }

  /// Observation count of one direction (relaxed): the reliability test
  /// `count(v, up) < kPseudocostReliability` decides whether an in-tree
  /// probe is worth spending budget on.
  [[nodiscard]] int count(int var, bool up) const {
    const Entry& e = entries_[var];
    return (up ? e.up_cnt : e.down_cnt).load(std::memory_order_relaxed);
  }

  /// Forgets one variable's history entirely. Called when a variable is
  /// FIXED globally (infeasible strong-branch / reliability probe): a fixed
  /// variable can never be branched on again, so keeping its entries only
  /// skews global_averages() — and through the blend, every unreliable
  /// variable's estimate — with degradations of branchings that can no
  /// longer happen.
  void purge(int var) {
    Entry& e = entries_[var];
    e.up_sum.store(0.0, std::memory_order_relaxed);
    e.down_sum.store(0.0, std::memory_order_relaxed);
    e.up_cnt.store(0, std::memory_order_relaxed);
    e.down_cnt.store(0, std::memory_order_relaxed);
  }

  /// Mean of the per-variable averages over every direction with at least
  /// one observation (0 with no history anywhere).
  void global_averages(double& avg_up, double& avg_down) const {
    double su = 0.0, sd = 0.0;
    int nu = 0, nd = 0;
    for (int v = 0; v < n_; ++v) {
      const Entry& e = entries_[v];
      const int uc = e.up_cnt.load(std::memory_order_relaxed);
      const int dc = e.down_cnt.load(std::memory_order_relaxed);
      if (uc > 0) {
        su += e.up_sum.load(std::memory_order_relaxed) / uc;
        ++nu;
      }
      if (dc > 0) {
        sd += e.down_sum.load(std::memory_order_relaxed) / dc;
        ++nd;
      }
    }
    avg_up = nu > 0 ? su / nu : 0.0;
    avg_down = nd > 0 ? sd / nd : 0.0;
  }

  /// Reliability-blended estimate: with >= `reliability` observations the
  /// variable's own average; below, the missing observations are filled in
  /// from the global average (count 0 returns the global average exactly).
  double estimate(int var, bool up, int reliability,
                  double global_avg) const {
    const Entry& e = entries_[var];
    const double sum = (up ? e.up_sum : e.down_sum)
                           .load(std::memory_order_relaxed);
    const int cnt =
        (up ? e.up_cnt : e.down_cnt).load(std::memory_order_relaxed);
    if (cnt >= reliability) return sum / cnt;
    return (sum + (reliability - cnt) * global_avg) / reliability;
  }

  /// Checkpoint capture: appends every variable with any history (relaxed
  /// reads; the callers capture either post-join or under the search
  /// mutex, where marginal staleness only perturbs later branching order).
  void capture(std::vector<CheckpointPseudocost>& out) const {
    for (int v = 0; v < n_; ++v) {
      const Entry& e = entries_[v];
      CheckpointPseudocost p;
      p.var = v;
      p.up_sum = e.up_sum.load(std::memory_order_relaxed);
      p.down_sum = e.down_sum.load(std::memory_order_relaxed);
      p.up_cnt = e.up_cnt.load(std::memory_order_relaxed);
      p.down_cnt = e.down_cnt.load(std::memory_order_relaxed);
      if (p.up_cnt > 0 || p.down_cnt > 0) out.push_back(p);
    }
  }

  /// Checkpoint restore (pre-search, single-threaded): overwrites one
  /// variable's history with the interrupted run's.
  void restore(const CheckpointPseudocost& p) {
    Entry& e = entries_[p.var];
    e.up_sum.store(p.up_sum, std::memory_order_relaxed);
    e.down_sum.store(p.down_sum, std::memory_order_relaxed);
    e.up_cnt.store(p.up_cnt, std::memory_order_relaxed);
    e.down_cnt.store(p.down_cnt, std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::atomic<double> up_sum{0.0}, down_sum{0.0};
    std::atomic<int> up_cnt{0}, down_cnt{0};
  };
  int n_;
  std::unique_ptr<Entry[]> entries_;
};

}  // namespace advbist::ilp
