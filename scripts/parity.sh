#!/usr/bin/env bash
# Byte-parity of the CLI's deterministic outputs between a parent commit and
# this checkout: the check a change that must not move any result runs.
#
# Usage: scripts/parity.sh <parent-ref>
#
# The parent is `git archive`d into a directory under `mktemp -d` (as
# scripts/ab.sh does; its target directory lives there too) and both
# `hawkeye` binaries are built --release --offline once. Each command below
# then runs on both, and its stdout plus exit status are compared: one line
# per command, `identical` or `DIFF` followed by the first lines of the
# diff. The commands: `scenario` for the six kinds, as text and --json;
# `summary` x6 --json; `cbd` x6; `dot` for the four Fig. 12 cases; `matrix`;
# `methods incast`; `corpus --json`; `fuzz --budget 4 --json`; `figure all`.
# Exits 1 if any command differs. Nothing tracked is touched and the
# directory is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_sha=$(git rev-parse --verify "$1^{commit}")

work=$(mktemp -d -t hawkeye-parity-XXXXXX)
trap 'rm -rf "$work"' EXIT

echo "# parent $parent_sha, change = this checkout ($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted'))"
mkdir "$work/parent"
git archive "$parent_sha" | tar -x -C "$work/parent"
echo "# building parent"
cargo build --release --offline --quiet -p hawkeye-cli \
  --manifest-path "$work/parent/Cargo.toml" --target-dir "$work/parent/target"
echo "# building change"
cargo build --release --offline --quiet -p hawkeye-cli
cp "$work/parent/target/release/hawkeye" "$work/hawkeye-parent"
cp "${CARGO_TARGET_DIR:-target}/release/hawkeye" "$work/hawkeye-change"

kinds="incast storm inloop oolc oolinj contention"
commands=()
for k in $kinds; do
  commands+=("scenario $k" "scenario $k --json" "summary $k --json" "cbd $k")
done
for k in incast storm inloop oolinj; do
  commands+=("dot $k")
done
commands+=("matrix" "methods incast" "corpus --json" "fuzz --budget 4 --json" "figure all")

# side command... -> stdout, then the exit status on a line of its own
run() {
  local side=$1 status=0
  shift
  "$work/hawkeye-$side" "$@" 2> /dev/null || status=$?
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
    echo "identical  hawkeye $cmd"
  else
    echo "DIFF       hawkeye $cmd"
    diff "$work/parent.out" "$work/change.out" | head -n 20 | sed 's/^/    /' || true
    differ=1
  fi
done
exit "$differ"
