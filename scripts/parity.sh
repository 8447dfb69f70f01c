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
# six kinds, as text and --json; `summary` x6 --json; `cbd` x6; `dot` for
# the four Fig. 12 cases; `matrix`; `methods incast`; `corpus --json`;
# `fuzz --budget 4 --json`; `figure all`; and the examples `quickstart`,
# `incast_backpressure` (plain and --dot), `pfc_storm`, `deadlock_diagnosis`
# and `scenario_matrix`. Exits 1 if any command differs. Nothing tracked is
# touched and the directory is removed on exit.
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
    "hawkeye cbd $k")
done
for k in incast storm inloop oolinj; do
  commands+=("hawkeye dot $k")
done
commands+=("hawkeye matrix" "hawkeye methods incast" "hawkeye corpus --json"
  "hawkeye fuzz --budget 4 --json" "hawkeye figure all")
for e in $examples; do
  commands+=("$e")
done
commands+=("incast_backpressure --dot")

# side program args... -> stdout, then the exit status on a line of its own
run() {
  local side=$1 program=$2 status=0
  shift 2
  "$work/bin-$side/$program" "$@" 2> /dev/null || status=$?
  echo "exit $status"
}

differ=0
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
