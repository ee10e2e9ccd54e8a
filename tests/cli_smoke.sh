#!/usr/bin/env bash
# CLI misuse smoke for `advbist`:
#
#   1. --help / -h print the usage to stdout and exit 0, after any command;
#   2. a malformed or out-of-range number, a flag missing its value, and an
#      unknown flag (the retired LP knobs included) exit 2 with a message
#      naming the flag, print nothing to stdout and start no solve;
#   3. well-formed invocations still run.
#
# Usage: tests/cli_smoke.sh [path-to-advbist-binary]
set -euo pipefail

BIN="${1:-./build/advbist}"
if [[ ! -x "$BIN" ]]; then
  echo "cli_smoke: binary not found: $BIN" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "cli_smoke: FAIL: $*" >&2
  sed 's/^/  stderr: /' "$TMP/err" >&2
  exit 1
}

# run <args...>: runs the binary, leaving stdout/stderr in $TMP and the exit
# code in $RC.
run() {
  RC=0
  "$BIN" "$@" >"$TMP/out" 2>"$TMP/err" || RC=$?
}

# help <args...>: usage on stdout, exit 0.
help() {
  run "$@"
  [[ $RC -eq 0 ]] || fail "advbist $* exited $RC, want 0"
  grep -q '^usage: advbist' "$TMP/out" || fail "advbist $*: no usage on stdout"
  echo "ok: advbist $* -> 0"
}

# refuse <flag> <args...>: exit 2, stderr names <flag>, stdout empty.
refuse() {
  local flag=$1
  shift
  run "$@"
  [[ $RC -eq 2 ]] || fail "advbist $* exited $RC, want 2"
  grep -qF -- "$flag" "$TMP/err" || fail "advbist $*: stderr does not name $flag"
  [[ ! -s "$TMP/out" ]] || fail "advbist $*: refused but wrote to stdout"
  echo "ok: advbist $* -> 2"
}

echo "== help =="
help --help
help -h
help synth --help
help synth fig1 --k 2 -h
help solve --help
help serve "$TMP/spool" --help

echo "== malformed or out-of-range numbers =="
refuse --k synth fig1 --k abc
refuse --k synth fig1 --k 0
refuse --k synth fig1 --k 9
refuse --time synth fig1 --time 1x
refuse --time synth fig1 --time 0
refuse --time synth fig1 --time nan
refuse --threads synth fig1 --threads abc
refuse --threads synth fig1 --threads -3
refuse --cuts sweep fig1 --cuts 2
refuse --max-cuts compare fig1 --max-cuts 0
refuse --mem-limit synth fig1 --mem-limit 12MB
refuse --threads solve "$TMP/missing.mps" --threads abc
refuse --nodes solve "$TMP/missing.mps" --nodes -1
refuse --k submit "$TMP/spool" fig1 --k 0
refuse --threads submit "$TMP/spool" fig1 --threads x
refuse --poll serve "$TMP/spool" --poll 0
refuse --seed serve "$TMP/spool" --seed -1
refuse --queue serve "$TMP/spool" --queue 1.5

echo "== flags missing their value =="
refuse --k synth fig1 --k
refuse --verilog synth fig1 --verilog
refuse --time solve "$TMP/missing.mps" --time
refuse --job submit "$TMP/spool" fig1 --job
refuse --retries serve "$TMP/spool" --retries

echo "== unknown flags =="
refuse --bogus synth fig1 --bogus 1
refuse --nodes synth fig1 --nodes 10
refuse --k solve "$TMP/missing.mps" --k 2
refuse --seed submit "$TMP/spool" fig1 --seed 1
for retired in "--refactor 50" "--mtol 0.1" "--dense-lu" "--dual 1" \
               "--dual-pricing devex" "--hypersparse 1"; do
  # shellcheck disable=SC2086
  refuse "${retired%% *}" synth fig1 $retired
done

echo "== operands and commands =="
refuse --k synth --k 2
refuse frob frob fig1
[[ ! -e "$TMP/spool" ]] || fail "a refused submit/serve touched the spool"

echo "== well-formed invocations still run =="
run print fig1
[[ $RC -eq 0 ]] || fail "advbist print fig1 exited $RC"
cp "$TMP/out" "$TMP/fig1.dfg"
run synth "$TMP/fig1.dfg" --k 1 --time 30 --threads 1 --verilog "$TMP/fig1.v"
[[ $RC -eq 0 ]] || fail "advbist synth fig1.dfg --k 1 exited $RC"
grep -q '^k=1: area' "$TMP/out" || fail "advbist synth reported no k=1 design"
[[ -s "$TMP/fig1.v" ]] || fail "advbist synth --verilog wrote no file"
echo "ok: print + synth --k 1 --verilog"

echo "cli_smoke: OK"
