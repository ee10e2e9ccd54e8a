#!/usr/bin/env bash
# Docs-sync check: docs/solver.md must document every knob, env variable
# and stat the code declares, and name no stat that does not exist.
#
#   1. every ilp::Options field is a first-column name in §1;
#   2. every ilp::Stats field is a first-column name in §3, counting one
#      lp_<name> per row of the ADVBIST_LP_STATS table (src/lp/simplex.hpp);
#   3. every ADVBIST_* variable read with getenv (src, tests, bench,
#      examples) or by src/util/fault_injector.cpp is named in §2;
#   4. every backticked first-column name in a §3 table is an ilp::Stats
#      field.
#
# Usage: tests/docs_sync.sh [repo-root]
set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
DOC="$ROOT/docs/solver.md"
SOLVER_HPP="$ROOT/src/ilp/solver.hpp"
SIMPLEX_HPP="$ROOT/src/lp/simplex.hpp"
for f in "$DOC" "$SOLVER_HPP" "$SIMPLEX_HPP"; do
  [[ -f "$f" ]] || { echo "docs_sync: missing $f" >&2; exit 1; }
done

FAILED=0
fail() {
  echo "docs_sync: FAIL: $*" >&2
  FAILED=1
}

# lp_rows: the counter names of the ADVBIST_LP_STATS table, one per line.
lp_rows() {
  awk '/^#define ADVBIST_LP_STATS\(X\)/ { on = 1 }
       on { print; if ($0 !~ /\\$/) exit }' "$SIMPLEX_HPP" |
    grep -oE '\bX\([a-z0-9_]+, (sum|max)\)' |
    sed -E 's/X\(([a-z0-9_]+),.*/\1/' || true
}

# struct_fields NAME: the data members of `struct NAME {` in solver.hpp, one
# per line; the ADVBIST_LP_STATS expansion becomes lp_<row> per table row.
struct_fields() {
  awk -v head="struct $1 {" '
    $0 == head { on = 1; next }
    on && /^};/ { exit }
    on {
      line = $0
      sub(/\/\/.*/, "", line)
      if (line ~ /^  ADVBIST_LP_STATS\(/) { print "@LP"; next }
      if (line !~ /^  [A-Za-z_]/ || line !~ /;[ \t]*$/ || line ~ /\(/) next
      sub(/[ \t]*(=.*)?;[ \t]*$/, "", line)
      n = split(line, w, /[ \t*&]+/)
      print w[n]
    }' "$SOLVER_HPP" |
    while read -r f; do
      if [[ "$f" == "@LP" ]]; then lp_rows | sed 's/^/lp_/'; else echo "$f"; fi
    done
}

# section N: the text of docs/solver.md section "## N. ...".
section() {
  awk -v n="$1" '$0 ~ "^## " n "\\. " { on = 1; next } /^## / { on = 0 } on' \
    "$DOC"
}

# first_column_names: backticked names in the first cell of each table row
# read from stdin (one per line, backticks stripped).
first_column_names() {
  grep -E '^\| ' | cut -d'|' -f2 | grep -oE '`[^`]+`' | tr -d '`' || true
}

OPTIONS="$(struct_fields Options)"
STATS="$(struct_fields Stats)"
LP_ROWS="$(lp_rows)"
[[ -n "$OPTIONS" ]] || fail "no ilp::Options fields parsed from $SOLVER_HPP"
[[ -n "$STATS" ]] || fail "no ilp::Stats fields parsed from $SOLVER_HPP"
[[ -n "$LP_ROWS" ]] || fail "no ADVBIST_LP_STATS rows parsed from $SIMPLEX_HPP"

S1_NAMES="$(section 1 | first_column_names)"
S2_TEXT="$(section 2)"
S3_NAMES="$(section 3 | first_column_names)"

# 1. Options -> §1.
while read -r f; do
  grep -qxF "$f" <<<"$S1_NAMES" ||
    fail "ilp::Options::$f is missing from docs/solver.md §1"
done <<<"$OPTIONS"

# 2. Stats -> §3.
while read -r f; do
  grep -qxF "$f" <<<"$S3_NAMES" ||
    fail "ilp::Stats::$f is missing from docs/solver.md §3"
done <<<"$STATS"

# 3. ADVBIST_* variables the code reads -> §2.
ENV_VARS="$(
  {
    grep -rhoE 'getenv\("ADVBIST_[A-Z0-9_]+"\)' \
      "$ROOT/src" "$ROOT/tests" "$ROOT/bench" "$ROOT/examples" || true
    grep -hoE '"ADVBIST_[A-Z0-9_]+"' "$ROOT/src/util/fault_injector.cpp" ||
      true
  } | grep -oE 'ADVBIST_[A-Z0-9_]+' | sort -u
)"
[[ -n "$ENV_VARS" ]] || fail "no ADVBIST_* environment reads found"
while read -r v; do
  grep -qE "\`$v(=|\`)" <<<"$S2_TEXT" ||
    fail "environment variable $v is missing from docs/solver.md §2"
done <<<"$ENV_VARS"

# 4. §3 names -> real Stats fields.
while read -r f; do
  [[ -z "$f" ]] && continue
  grep -qxF "$f" <<<"$STATS" ||
    fail "docs/solver.md §3 names \`$f\`, which is not an ilp::Stats field"
done <<<"$S3_NAMES"

[[ $FAILED -eq 0 ]] || exit 1
echo "docs_sync: ok: $(wc -l <<<"$OPTIONS") Options fields," \
  "$(wc -l <<<"$STATS") Stats fields ($(wc -l <<<"$LP_ROWS") LP table rows)," \
  "$(wc -l <<<"$ENV_VARS") environment variables"
