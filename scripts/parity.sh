#!/usr/bin/env bash
# Byte-parity of the CLI's and the examples' deterministic outputs between a
# parent commit and this checkout: the check a change that must not move any
# result runs.
#
# Usage: scripts/parity.sh <parent-ref>
#
# The parent is `git archive`d into a directory under `mktemp -d` (as
# scripts/ab.sh does; its target directory lives there too) and both sides'
# `hawkeye` binary and root-package examples are built --release --offline
# once. Each command below then runs on both, and its stdout plus exit
# status are compared: one line per command, `identical` or `DIFF` followed
# by the first lines of the diff. The commands: `hawkeye scenario` for the
# six kinds, as text and --json; `summary` x6 --json; `cbd` x6; `methods`
# x6; `dot` for the four Fig. 12 cases; `matrix`; `chaos --rates
# 0.0,0.2,0.5 --trials 1 --json` (fault-free, faulted, and faulted with
# flapping switch CPUs; its --out file in the work directory); `corpus
# --json`; `fuzz --budget 4 --json`; `figure all`; the examples `quickstart`,
# `incast_backpressure` (plain and --dot), `pfc_storm`, `deadlock_diagnosis`
# and `scenario_matrix`; and the served path, `replay <kind> --history
# --json` for the six kinds, each on a daemon of its own. A served row is
# compared after a filter drops what the wall clock decides: the top-level
# `metrics`, `flight` and `diagnose_p99_ns`, the `daemon` keys that start
# with `stage_` or `op_` plus `slow_ops`, and `explain`'s `stage_*_ns`. It
# runs twice on the change side first; if those two runs differ, the filter
# let a timing through and the row prints `UNSTABLE`, not `DIFF`. Exits 1
# if any command differs or is unstable. Nothing tracked is touched and
# the directory is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_sha=$(git rev-parse --verify "$1^{commit}")

work=$(mktemp -d -t hawkeye-parity-XXXXXX)
trap 'rm -rf "$work"' EXIT

echo "# parent $parent_sha, change = this checkout ($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted'))"
mkdir "$work/parent"
git archive "$parent_sha" | tar -x -C "$work/parent"
examples="quickstart incast_backpressure pfc_storm deadlock_diagnosis scenario_matrix"
# side manifest target-dir: build the CLI and the examples, collect them in
# $work/bin-<side>
build() {
  local side=$1 manifest=$2 target=$3
  echo "# building $side"
  cargo build --release --offline --quiet -p hawkeye-cli --manifest-path "$manifest" \
    --target-dir "$target"
  cargo build --release --offline --quiet --examples -p hawkeye --manifest-path "$manifest" \
    --target-dir "$target"
  mkdir "$work/bin-$side"
  cp "$target/release/hawkeye" "$work/bin-$side/"
  for e in $examples; do
    cp "$target/release/examples/$e" "$work/bin-$side/"
  done
}
build parent "$work/parent/Cargo.toml" "$work/parent/target"
build change Cargo.toml "${CARGO_TARGET_DIR:-target}"

kinds="incast storm inloop oolc oolinj contention"
commands=()
for k in $kinds; do
  commands+=("hawkeye scenario $k" "hawkeye scenario $k --json" "hawkeye summary $k --json"
    "hawkeye cbd $k" "hawkeye methods $k")
done
for k in incast storm inloop oolinj; do
  commands+=("hawkeye dot $k")
done
commands+=("hawkeye matrix" "hawkeye chaos --rates 0.0,0.2,0.5 --trials 1 --json --out $work/chaos.json"
  "hawkeye corpus --json" "hawkeye fuzz --budget 4 --json" "hawkeye figure all")
for e in $examples; do
  commands+=("$e")
done
commands+=("incast_backpressure --dot")
served=()
for k in $kinds; do
  served+=("hawkeye replay $k --history --json")
done

# side program args... -> stdout, then the exit status on a line of its own
run() {
  local side=$1 program=$2 status=0
  shift 2
  "$work/bin-$side/$program" "$@" 2> /dev/null || status=$?
  echo "exit $status"
}

# stdin: a served row's --json output -> the same without its wall-clock
# fields (anything that is not JSON passes through as it is)
timeless() {
  python3 -c '
import json, sys
text = sys.stdin.read()
try:
    d = json.loads(text)
except ValueError:
    sys.stdout.write(text)
    sys.exit()
for k in ("metrics", "flight", "diagnose_p99_ns"):
    d.pop(k, None)
daemon = d.get("daemon") or {}
for k in [k for k in daemon if k.startswith(("stage_", "op_")) or k == "slow_ops"]:
    del daemon[k]
for k in ("stage_collect_ns", "stage_graph_ns", "stage_match_ns"):
    (d.get("explain") or {}).pop(k, None)
print(json.dumps(d, indent=2))
'
}

# side program args... -> run's output with the stdout filtered
run_served() {
  local side=$1 program=$2 status=0
  shift 2
  "$work/bin-$side/$program" "$@" 2> /dev/null > "$work/raw.out" || status=$?
  timeless < "$work/raw.out"
  echo "exit $status"
}

differ=0
for cmd in "${served[@]}"; do
  # shellcheck disable=SC2086
  run_served change $cmd > "$work/change.out"
  # shellcheck disable=SC2086
  run_served change $cmd > "$work/again.out"
  if ! cmp -s "$work/change.out" "$work/again.out"; then
    echo "UNSTABLE   $cmd (two change-side runs differ: the filter kept a timing)"
    diff "$work/change.out" "$work/again.out" | head -n 20 | sed 's/^/    /' || true
    differ=1
    continue
  fi
  # shellcheck disable=SC2086
  run_served parent $cmd > "$work/parent.out"
  if cmp -s "$work/parent.out" "$work/change.out"; then
    echo "identical  $cmd"
  else
    echo "DIFF       $cmd"
    diff "$work/parent.out" "$work/change.out" | head -n 20 | sed 's/^/    /' || true
    differ=1
  fi
done
for cmd in "${commands[@]}"; do
  # Word splitting of $cmd is meant: each entry is a plain argument list.
  # shellcheck disable=SC2086
  run parent $cmd > "$work/parent.out"
  # shellcheck disable=SC2086
  run change $cmd > "$work/change.out"
  if cmp -s "$work/parent.out" "$work/change.out"; then
    echo "identical  $cmd"
  else
    echo "DIFF       $cmd"
    diff "$work/parent.out" "$work/change.out" | head -n 20 | sed 's/^/    /' || true
    differ=1
  fi
done
exit "$differ"
