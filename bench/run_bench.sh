#!/usr/bin/env bash
# Runs the ILP scaling sweep and writes BENCH_solver.json at the repo root,
# stamped with the current commit, so successive PRs can diff solver
# throughput (nodes/sec per model x thread count).
#
# Per-run JSON columns include the LP basis-factorization counters:
#   refactorizations         total basis refactorizations across workers
#   sparse_refactorizations  of those, via the sparse Markowitz elimination
#   fill_ratio               mean nnz(L+U)/nnz(B) over refactorizations
#                            (1.0 = no fill beyond the basis itself)
# and the cut-and-bound counters:
#   cuts                     whether the cut/probing/rc-fixing stack ran
#   cuts_applied/_clique/_cover/_gomory/_odd_cycle
#                            cutting planes appended to the LPs, per class
#   probing_fixed, rc_fixed  variables fixed by probing / reduced cost
#   root_gap_closed          fraction of the root gap the cut loop closed
#   best_bound, gap          proven bound and relative optimality gap
# and the reliability-branching counters:
#   rel                      whether in-tree reliability probing ran
#   rel_probes               bounded dual-simplex probe re-solves spent
#   rel_fixed, rel_tightened variables fixed / bounds tightened by probes
#
# By default every model x thread combination runs with cuts on and cuts
# off, dual-simplex re-solves on and off (cuts-on config), devex vs
# dantzig dual pricing (cuts-on/dual-on config), and the hyper-sparse dual
# ratio test on and off (cuts-on/dual-on/devex config; columns hypersparse,
# hs_pivots, hs_dense_pivots, rho_nnz_mean) —
# the A/B pairs land in one BENCH_solver.json so the cut/dual/pricing/
# hypersparse wins stay visible in the perf trajectory; the default
# configuration additionally records a reliability-probing on/off pair
# ("rel"; solver default on) and a PR-10 separator-pair off/on pair
# ("gomory": Gomory MI + lifted odd-cycle together; solver default off —
# measured slower on the built-ins under the warm-dual/devex path).
# ADVBIST_BENCH_CUTS, ADVBIST_BENCH_DUAL, ADVBIST_BENCH_DUAL_PRICING,
# ADVBIST_BENCH_HYPERSPARSE, ADVBIST_BENCH_RELIABILITY and
# ADVBIST_BENCH_GOMORY pin a single configuration
# (ADVBIST_BENCH_ODD_CYCLE additionally pins the odd-cycle class alone).
#
# Crash-safety columns: every run records checkpoint_seconds / checkpoints
# (snapshot-writer overhead; zero in the default checkpointing-off baseline,
# measurable via ADVBIST_BENCH_CKPT_INTERVAL) and resume_count /
# restored_nodes. A warm-vs-cold serve throughput pair (the same k-sweep
# batch solved cold through the spool, then re-answered from the result
# cache) lands as the "serve" object; ADVBIST_BENCH_SERVE=0 skips it.
#
# Factorization knobs: ADVBIST_BENCH_REFACTOR (pivots between
# refactorizations), ADVBIST_BENCH_DENSE_LU=1 (dense sweep only).
# Cut knobs: ADVBIST_BENCH_CUT_ROUNDS, ADVBIST_BENCH_CUT_INTERVAL,
# ADVBIST_BENCH_MAX_CUTS, ADVBIST_BENCH_PROBING=0, ADVBIST_BENCH_RCFIX=0.
# Branching knobs: ADVBIST_BENCH_STRONG_BRANCH, ADVBIST_BENCH_PC_REL.
# The full reference: docs/solver.md.
#
# Thread counts above hardware_concurrency are skipped — a 1-CPU container
# would record queueing overhead as a scaling row — unless
# ADVBIST_BENCH_OVERSUBSCRIBE=1 keeps them (annotated in the JSON).
#
# After the sweep, every run is diffed against the BENCH_solver.json
# committed at HEAD: a circuit whose proven status regressed (a committed
# "optimal" or "infeasible" that the new run no longer reproduces at the
# same configuration) FAILS the script with a non-zero exit, so a perf PR
# cannot silently lose an optimality proof. ADVBIST_BENCH_ALLOW_REGRESSION=1
# downgrades the failure to a warning (for intentionally lossy experiments).
#
# Usage: bench/run_bench.sh [build-dir]   (default build dir: ./build)
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

if [[ ! -x "$build_dir/bench_ilp_scaling" ]]; then
  echo "bench_ilp_scaling not found in $build_dir — building..." >&2
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target bench_ilp_scaling -j >/dev/null
fi

export ADVBIST_GIT_COMMIT=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export ADVBIST_BENCH_OUT="$repo_root"
# The warm/cold serve pair is part of the committed trajectory by default.
export ADVBIST_BENCH_SERVE="${ADVBIST_BENCH_SERVE:-1}"

# Snapshot the committed baseline BEFORE the sweep overwrites the file.
baseline=$(git -C "$repo_root" show HEAD:BENCH_solver.json 2>/dev/null || true)

"$build_dir/bench_ilp_scaling"

if [[ -z "$baseline" ]]; then
  echo "run_bench: no committed BENCH_solver.json at HEAD; skipping the" \
       "status-regression check" >&2
  exit 0
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "run_bench: python3 not available; skipping the status-regression" \
       "check" >&2
  exit 0
fi

BASELINE_JSON="$baseline" python3 - "$repo_root/BENCH_solver.json" <<'EOF'
import json, os, sys

baseline = json.loads(os.environ["BASELINE_JSON"])
with open(sys.argv[1]) as f:
    current = json.load(f)

# A run's configuration key. Committed baselines that predate the "dual" /
# "pricing" / "hypersparse" / "rel" / "gomory" columns match the new
# default configuration (dual on, devex, hypersparse on, reliability
# probing on, Gomory/odd-cycle separators off).
def key(run):
    return (run["model"], run["threads"], run["cuts"],
            run.get("dual", True), run.get("pricing", "devex"),
            run.get("hypersparse", True), run.get("rel", True),
            run.get("gomory", False))

current_by_key = {key(r): r for r in current["runs"]}
PROVEN = ("optimal", "infeasible")
regressions, missing = [], []
for old in baseline["runs"]:
    if old["status"] not in PROVEN:
        continue  # budget-limited rows legitimately drift with trajectory
    new = current_by_key.get(key(old))
    if new is None:
        missing.append(old)  # e.g. a restricted ADVBIST_BENCH_* sweep
        continue
    if new["status"] != old["status"]:
        regressions.append((old, new))
    elif old["status"] == "optimal" and \
            abs(new["objective"] - old["objective"]) > 1e-6:
        regressions.append((old, new))

# Crash-safety gates on the new columns. (a) Snapshot overhead: a run that
# wrote checkpoints must not have spent more than half its wall clock in
# the writer — that would mean the "never blocks workers" contract broke.
# (b) Serve pair: a healthy warm pass must answer every job from the cache
# with nothing failed or shed; a committed serve baseline must not
# silently disappear from the sweep.
hard_failures = 0
for run in current["runs"]:
    if run.get("checkpoints", 0) > 0 and \
            run["checkpoint_seconds"] > 0.5 * max(run["seconds"], 1e-9):
        print(f"run_bench: CHECKPOINT OVERHEAD at {key(run)}: "
              f"{run['checkpoint_seconds']:.3f}s of {run['seconds']:.3f}s "
              "spent writing snapshots", file=sys.stderr)
        hard_failures += 1
serve = current.get("serve")
if serve is not None:
    if serve["jobs_failed"] > 0 or serve["jobs_shed"] > 0 or \
            serve["warm_cache_hits"] < serve["jobs"]:
        print(f"run_bench: SERVE REGRESSION: {serve['jobs_failed']} failed, "
              f"{serve['jobs_shed']} shed, cache hits "
              f"{serve['warm_cache_hits']}/{serve['jobs']}", file=sys.stderr)
        hard_failures += 1
elif baseline.get("serve") is not None:
    print("run_bench: note: committed baseline has a serve pair but this "
          "sweep skipped it (ADVBIST_BENCH_SERVE=0?)", file=sys.stderr)

for old in missing:
    print(f"run_bench: note: no new run for {key(old)} "
          f"(restricted sweep?); baseline status '{old['status']}' "
          "not re-verified", file=sys.stderr)
for old, new in regressions:
    print(f"run_bench: STATUS REGRESSION at {key(old)}: "
          f"'{old['status']}' (obj {old['objective']}) -> "
          f"'{new['status']}' (obj {new['objective']})", file=sys.stderr)
if regressions or hard_failures:
    if os.environ.get("ADVBIST_BENCH_ALLOW_REGRESSION") == "1":
        print("run_bench: regression ALLOWED by "
              "ADVBIST_BENCH_ALLOW_REGRESSION=1", file=sys.stderr)
        sys.exit(0)
    print("run_bench: FAILING: a committed proven status regressed or a "
          "crash-safety gate fired. If the loss is intentional (lossy "
          "experiment, knob sweep), re-run with "
          "ADVBIST_BENCH_ALLOW_REGRESSION=1 to downgrade this failure to a "
          "warning — see docs/solver.md.", file=sys.stderr)
    sys.exit(1)
print("run_bench: no status regression vs the committed BENCH_solver.json")
EOF
