#!/usr/bin/env bash
# Smoke test of the benchmark: every workload at --seconds 2 (which
# offline-corpus, fixed work, ignores: ~30 s), plus one traced pass.
# Fails on any non-zero exit or a malformed result line.
# Run from anywhere; builds into this directory's target/ unless
# CARGO_TARGET_DIR says otherwise.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
target_dir="${CARGO_TARGET_DIR:-target}"
bin="$target_dir/release/hawkeye-benchmark"

check() {
    local want="$1"
    shift
    local out
    out="$("$bin" "$@")" || { echo "FAIL ($*): exit $?"; echo "$out" | tail -n 20; exit 1; }
    echo "$out" | tail -n 1 | python3 -c '
import json, sys
want = sys.argv[1].split(",")
r = json.loads(sys.stdin.read())
assert set(r) == {"correct", "attempted", "failed", "metrics"}, sorted(r)
assert r["correct"] is True and r["attempted"] >= 1 and r["failed"] == 0, r
for name in want:
    m = r["metrics"][name]
    assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float)), (name, m)
print("ok", len(r["metrics"]), "metrics")
' "$want" || { echo "FAIL ($*): malformed result line"; exit 1; }
}

e2e="setup_s,work_per_s,latency_ms_p50,latency_ms_p90,correct_share,peak_rss_mb"
for w in offline-corpus serve-ingest serve-diagnose fleet-diagnose; do
    echo "== $w"
    check "$e2e" --workload "$w" --seed 1 --seconds 2 --trace 0
done
echo "== serve-ingest --trace 1"
check "offline.unattributed_share,trace.overhead_share,serve.store.append_ns_per_snap" \
    --workload serve-ingest --seed 1 --seconds 2 --trace 1
test -s out/trace-serve-ingest.json || { echo "FAIL: no span file"; exit 1; }
echo "smoke ok"
