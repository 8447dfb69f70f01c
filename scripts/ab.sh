#!/usr/bin/env bash
# Alternated parent/change pairs of benchmark workloads, judged by the
# rule in benchmark/README.md ("Bounds"): a gain is at least nine tenths of
# the pairs won (ties count for neither side) with the medians apart by
# more than the distance between the quartiles of the parent's runs.
#
# Usage: scripts/ab.sh [--trace] <parent-ref> <workload[,workload...]|all> [pairs=10] [seconds=20]
#
# `all` is every workload BENCHMARK.json lists: the "no end-to-end metric
# worse on any workload" half of the rule in one command. `--trace` runs
# the pairs with `--trace 1` instead and prints, per workload, the parent
# and change medians of every per-layer metric BENCHMARK.json lists, as
# info rows with no verdict. The parent is
# `git archive`d into a directory under `mktemp -d` (not .bench_build/,
# which is the driver's; not a `git worktree`, which would write under
# .git/), both benchmark/ packages are built --release --offline ONCE and
# the two executables copied beside it, so a rebuild in this checkout
# during the run changes nothing. The listed workloads then run in turn,
# one table per workload. Pair i runs with --seed i; odd pairs run the
# parent first, even pairs the change. Nothing tracked is touched and the
# directory is removed on exit. Every run made is printed, an incorrect one
# included, and the script exits 1 at the end if any run was incorrect,
# had failed operations or printed no result line. Under a daemon
# workload's table, info rows with no verdict give the medians of what its
# `# host:` note read before normalising: the reference request's p50, the
# raw rate and the raw p50.
set -euo pipefail
cd "$(dirname "$0")/.."

trace=0
if [ "${1:-}" = --trace ]; then
  trace=1
  shift
fi
if [ $# -lt 2 ]; then
  sed -n '2,7p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_ref=$1
if [ "$2" = all ]; then
  workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
else
  workloads=${2//,/ }
fi
pairs=${3:-10}
seconds=${4:-20}

work=$(mktemp -d -t hawkeye-ab-XXXXXX)
trap 'rm -rf "$work"' EXIT

parent_sha=$(git rev-parse --verify "$parent_ref^{commit}")
echo "# parent $parent_sha, change = this checkout ($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted')), $pairs pairs x ${seconds}s --trace $trace, $(nproc) cpus: $workloads"

mkdir "$work/parent"
git archive "$parent_sha" | tar -x -C "$work/parent"
echo "# building parent"
cargo build --release --offline --quiet --manifest-path "$work/parent/benchmark/Cargo.toml"
echo "# building change"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cp "$work/parent/benchmark/target/release/hawkeye-benchmark" "$work/bench-parent"
cp benchmark/target/release/hawkeye-benchmark "$work/bench-change"

# The last line of stdout is the result JSON. The benchmark prints it and
# then exits 1 when the run is incorrect, so the exit status is kept beside
# the line rather than ending the series; the table below judges both.
run() { # side workload seed
  local base="$work/$1-$2-$3" status=0
  "$work/bench-$1" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace" \
    > "$base.out" || status=$?
  tail -n 1 "$base.out" > "$base.json"
  echo "$status" > "$base.status"
  echo "# run $1 $2 seed $3 (exit $status): $(cat "$base.json")"
}

incorrect=0
for workload in $workloads; do
  echo "## $workload"
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$workload" "$i"; run change "$workload" "$i"
    else
      run change "$workload" "$i"; run parent "$workload" "$i"
    fi
  done

  python3 - "$work" "$workload" "$pairs" BENCHMARK.json "$trace" <<'EOF' || incorrect=1
import json, re, statistics, sys

work, workload, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
contract = json.load(open(sys.argv[4]))
traced = sys.argv[5] == "1"

def load_run(side, i):
    """The run's result, or None when it printed no result line."""
    base = f"{work}/{side}-{workload}-{i}"
    try:
        r = json.load(open(f"{base}.json"))
    except ValueError:
        return None
    r["exit"] = int(open(f"{base}.status").read())
    return r

def load(side):
    return [load_run(side, i) for i in range(1, pairs + 1)]

def bad(r):
    return r is None or not r["correct"] or r["failed"] or r["exit"] != 0

def quartile_distance(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

parent, change = load("parent"), load("change")
n_bad = 0
for side, runs in (("parent", parent), ("change", change)):
    b = sum(1 for r in runs if bad(r))
    n_bad += b
    print(f"# {side}: {b} of {pairs} runs incorrect or with failed operations")

def value(r, name):
    return r["metrics"][name]["value"]

def median_row(name, p, c, note, width=16):
    pm, cm = statistics.median(p), statistics.median(c)
    delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
    print(f"{name:{width}} {pm:12.4f} {cm:12.4f} {delta:>8}  ({note})")

def per_layer_table():
    """A traced run reports per-layer metrics, not the end-to-end ones the
    rule judges: their medians, with no verdict."""
    width = max(len(m["name"]) for m in contract["per_layer"])
    print(f"{'metric':{width}} {'parent med':>12} {'change med':>12} {'delta':>8}")
    for m in contract["per_layer"]:
        name = m["name"]
        p = [value(r, name) for r in parent if r and name in r["metrics"]]
        c = [value(r, name) for r in change if r and name in r["metrics"]]
        if p and c:
            median_row(name, p, c, f"{m['unit']}, {m['better']} is better", width)

def end_to_end_table():
    print(f"{'metric':16} {'parent med':>12} {'change med':>12} {'delta':>8} "
          f"{'parent iqr':>11} {'change iqr':>11} {'wins':>6}  verdict")
    for m in contract["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        # A run with no result line drops out of the medians and its pair.
        pairs_ok = [(value(a, name), value(b, name)) for a, b in zip(change, parent) if a and b]
        p = [value(r, name) for r in parent if r]
        c = [value(r, name) for r in change if r]
        if not p or not c:
            print(f"{name:16} no result on one side")
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
        wins = sum(1 for a, b in pairs_ok if better(a, b))
        losses = sum(1 for a, b in pairs_ok if better(b, a))
        gap = (cm - pm) if higher else (pm - cm)   # > 0: the change is better
        spread = quartile_distance(p)
        if wins * 10 >= pairs * 9 and gap > spread:
            verdict = "gain"
        elif losses * 10 >= pairs * 9 and -gap > spread:
            verdict = "loss"
        elif pm and -gap / abs(pm) > m["bound"]:
            verdict = f"worse by more than the {m['bound']:.0%} bound"
        else:
            verdict = "no change shown"
        delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        print(f"{name:16} {pm:12.4f} {cm:12.4f} {delta:>8} {spread:11.4f} "
              f"{quartile_distance(c):11.4f} {wins:>3}/{pairs:<2}  {verdict}")

if traced:
    per_layer_table()
else:
    end_to_end_table()

# A daemon workload divides its timed metrics by the reference server's
# slowdown, so anything that moves that server moves them. Its `# host:`
# note says what the clock read before the division: the reference
# request's p50, the raw rate R and the raw p50 P. Shown, not judged.
HOST = re.compile(r"^# host: reference request p50 ([\d.]+) ms .*"
                  r"as the clock read it: ([\d.]+) /s, p50 ([\d.]+) ms")

def host_note(side, i):
    """(reference p50 ms, R /s, P ms) from the run's last `# host:` note."""
    try:
        lines = open(f"{work}/{side}-{workload}-{i}.out").read().splitlines()
    except OSError:
        return None
    found = [m for m in map(HOST.match, lines) if m]
    return tuple(float(g) for g in found[-1].groups()) if found else None

notes = {side: [n for n in (host_note(side, i) for i in range(1, pairs + 1)) if n]
         for side in ("parent", "change")}
if notes["parent"] and notes["change"]:
    for j, name in enumerate(("ref_request_ms", "raw_work_per_s", "raw_p50_ms")):
        median_row(name, [n[j] for n in notes["parent"]], [n[j] for n in notes["change"]],
                   "host note, info only")
sys.exit(1 if n_bad else 0)
EOF
done

if [ "$incorrect" -ne 0 ]; then
  echo "# some runs were incorrect, failed operations or printed no result: see the tables above"
  exit 1
fi
