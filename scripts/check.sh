#!/usr/bin/env bash
# Full pre-merge gate: build, tests, formatting, lints.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Smokes below background daemons; if an assertion fails mid-smoke the
# script must not leave them running (an orphan holding our stdout pipe
# open hangs any caller that waits for EOF).
trap 'jobs -p | xargs -r kill -9 2>/dev/null || true' EXIT

# The gate must leave the working tree exactly as it found it: compared
# against this at the end.
status_before=$(git status --porcelain)

# wait_for_socket PATH WHAT [LOG]: poll up to 10 s for a daemon or front
# to bind its unix socket PATH; else print LOG (its stderr) and fail.
wait_for_socket() {
  for _ in $(seq 100); do [ -S "$1" ] && return 0; sleep 0.1; done
  [ -z "${3:-}" ] || cat "$3"
  echo "$2 never bound its socket"
  exit 1
}

# serve_on PATH [FLAG...]: a foreground `hawkeye serve` daemon on unix
# socket PATH, in the background; returns once PATH is bound, with the
# daemon's pid in $daemon_pid.
serve_on() {
  local sock=$1
  shift
  ./target/release/hawkeye serve --socket "$sock" "$@" &
  daemon_pid=$!
  wait_for_socket "$sock" "daemon on $sock"
}

# stop_daemon PID PATH WHAT: SIGTERM must end the daemon (or front) with
# exit 0 and remove its socket file PATH.
stop_daemon() {
  kill -TERM "$1"
  wait "$1" || { echo "$3 exited nonzero on SIGTERM"; exit 1; }
  test ! -e "$2" || { echo "$3 left its socket file behind"; exit 1; }
}

echo "==> cargo build --release --workspace"
# --workspace matters: the root manifest is a package, so a bare build
# would skip the hawkeye-cli binary every smoke below shells out to.
cargo build --release --workspace

echo "==> cargo test --workspace --no-fail-fast"
# --workspace matters here too: a bare `cargo test` runs the root
# package's suites only, a sixth of what the workspace has.
cargo test --workspace --no-fail-fast

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (library targets, -D warnings)"
# A deletion that leaves a dangling [`X`] link fails here. Libraries only:
# the `hawkeye` binary and the root library would both write
# target/doc/hawkeye (cargo#6313).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --lib

echo "==> chaos smoke (20% fault rate, 1 trial, jobs=2)"
# A tiny fault-injection sweep through the release CLI: must finish without
# a panic and must report at least one degraded/inconclusive verdict, or
# the degraded-telemetry path has silently stopped being exercised.
chaos_out=$(mktemp)
./target/release/hawkeye chaos --rates 0.0,0.2 --trials 1 --jobs 2 \
  --json --out "$chaos_out" > /dev/null
python3 - "$chaos_out" <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["chaos"]
faulted = [c for c in cells if c["rate"] > 0]
assert faulted, "no faulted cell in sweep"
assert any(c["degraded"] + c["inconclusive"] + c["errors"] > 0 for c in faulted), \
    "20% fault rate produced no degraded/inconclusive verdict and no typed error"
assert all(c["faults_injected"] > 0 for c in faulted), "no faults injected"
zero = [c for c in cells if c["rate"] == 0]
assert all(c["faults_injected"] == 0 for c in zero), "rate 0 injected faults"
print("chaos smoke ok:", {c["rate"]: c["degraded"] + c["inconclusive"] for c in cells})
EOF
rm -f "$chaos_out"

echo "==> serve smoke (self-contained replay, then the same replay into a daemon)"
# End-to-end online diagnosis through the release CLI. `replay incast`
# with no address spawns a daemon of its own: the served verdict must be
# Correct and match the one-shot path (label/culprits/confidence). Then
# the same replay into a foreground `serve` daemon on a unix socket must
# serve a report byte-identical to the self-contained one. A second
# `replay incast` into that daemon must print the one stderr note that the
# daemon already holds epochs, stay at parity and exit 0 (re-sending the
# same capture is idempotent). The daemon must exit 0 on SIGTERM and
# remove its socket — replays inside a hard timeout.
serve_sock=$(mktemp -u /tmp/hawkeye-serve-XXXXXX.sock)
serve_ref=$(mktemp); serve_out=$(mktemp); serve_again=$(mktemp); serve_err=$(mktemp)
timeout 120 ./target/release/hawkeye replay incast --json > "$serve_ref"
serve_on "$serve_sock"
serve_pid=$daemon_pid
timeout 120 ./target/release/hawkeye replay incast --socket "$serve_sock" \
  --json > "$serve_out"
python3 - "$serve_ref" "$serve_out" <<'EOF'
import json, sys
ref, out = (json.load(open(p)) for p in sys.argv[1:3])
for doc in (ref, out):
    assert doc["verdict"] == "Correct", f"served verdict {doc['verdict']!r}"
    assert doc["parity"] is True, "served diagnosis diverged from one-shot"
    assert doc["snapshots_streamed"] > 0, "no snapshots streamed to the daemon"
    assert doc["snapshots_shed"] == 0, "fault-free replay shed snapshots"
assert out["served"] == ref["served"], \
    "a serve daemon's report differs from the self-contained replay's"
print("serve smoke ok:", out["verdict"], f"({out['snapshots_streamed']} snapshots),",
      "daemon report == self-contained report")
EOF
again_status=0
timeout 120 ./target/release/hawkeye replay incast --socket "$serve_sock" \
  --json > "$serve_again" 2> "$serve_err" || again_status=$?
[ "$again_status" -eq 0 ] \
  || { cat "$serve_err"; echo "second replay into the daemon exited $again_status"; exit 1; }
[ "$(grep -c '^hawkeye: note: the daemon already holds' "$serve_err")" -eq 1 ] \
  || { cat "$serve_err"; echo "second replay printed no single held-epochs note"; exit 1; }
python3 - "$serve_again" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["parity"] is True, "a re-sent capture broke parity"
print("serve smoke ok: the second replay noted the held epochs and stayed at parity")
EOF
stop_daemon "$serve_pid" "$serve_sock" "serve-smoke daemon"
rm -f "$serve_ref" "$serve_out" "$serve_again" "$serve_err"

echo "==> hostile-bytes smoke (thread count, Hello versions, nested JSON body, frame split across the idle poll, session churn)"
# One connection to a foreground daemon through the release CLI: a Hello
# announcing protocol version 4 must be refused with an error naming it,
# and a version-5 Hello on the same connection answered with an empty Ack
# (both ends once sent a version and neither compared it); then a Diagnose
# frame whose body is 20 000 `[` must be answered with an error (the JSON
# parser once recursed per level until the session thread's stack
# overflowed, aborting the daemon), then a Stats frame written in two
# halves 300 ms apart must be answered with Stats (the session's 100 ms
# idle poll once dropped the first half and read the rest as a new frame).
# Then 1000 sequential connections, one Stats each, must grow the daemon's
# /proc/<pid>/maps by fewer than 64 lines: a finished session is joined
# while the accept loop runs (each one once kept its 2 MiB stack mapped
# until shutdown, and the daemon aborted at the kernel's map-count limit).
# The daemon must still answer serve-stats and exit 0 on SIGTERM.
hb_sock=$(mktemp -u /tmp/hawkeye-hostile-XXXXXX.sock)
serve_on "$hb_sock"
hb_pid=$daemon_pid
# An idle daemon runs exactly four threads: the main thread, the accept
# loop, the core and the one store thread. The socket is bound before the
# owner threads start, so poll until the set settles.
hb_want="hawkeye hawkeye-accept hawkeye-core hawkeye-store"
for _ in $(seq 50); do
  hb_threads=$(cat /proc/"$hb_pid"/task/*/comm | LC_ALL=C sort | paste -sd' ')
  [ "$hb_threads" = "$hb_want" ] && break
  sleep 0.1
done
test "$hb_threads" = "$hb_want" \
  || { echo "idle daemon runs threads [$hb_threads], want [$hb_want]"; exit 1; }
python3 - "$hb_sock" <<'EOF'
import socket, struct, sys, time
s = socket.socket(socket.AF_UNIX)
s.settimeout(10)
s.connect(sys.argv[1])
def frame(op, body=b""):
    return struct.pack("<I", len(body) + 1) + bytes([op]) + body
def exact(n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        assert chunk, "daemon hung up"
        buf += chunk
    return buf
def answer():
    (n,) = struct.unpack("<I", exact(4))
    payload = exact(n)
    return payload[0], payload[1:]
def hello(version):
    return frame(9, struct.pack("<IQ", version, 2**64 - 1))
s.sendall(hello(4))
op, body = answer()
assert op == 255 and b"version 4" in body, f"version-4 Hello answered {op}: {body[:80]!r}"
s.sendall(hello(5))
op, body = answer()
assert op == 129 and body == b"", f"version-5 Hello answered {op}: {body[:80]!r}"
s.sendall(frame(2, b"[" * 20000))
op, body = answer()
assert op == 255 and b"malformed body" in body, f"nested body answered {op}: {body[:80]!r}"
stats = frame(3)
s.sendall(stats[:2]); time.sleep(0.3); s.sendall(stats[2:])
op, body = answer()
assert op == 131, f"split Stats frame answered {op}: {body[:80]!r}"
print("hostile-bytes smoke ok: old Hello refused, Hello acked, nested body refused, split frame answered")
EOF
python3 - "$hb_sock" "$hb_pid" <<'EOF'
import socket, struct, sys, time
path, pid = sys.argv[1], sys.argv[2]
def maps():
    with open(f"/proc/{pid}/maps") as f:
        return sum(1 for _ in f)
def exact(s, n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        assert chunk, "daemon hung up"
        buf += chunk
    return buf
before = maps()
for i in range(1000):
    s = socket.socket(socket.AF_UNIX)
    s.settimeout(10)
    s.connect(path)
    s.sendall(struct.pack("<I", 1) + bytes([3]))
    (n,) = struct.unpack("<I", exact(s, 4))
    op = exact(s, n)[0]
    assert op == 131, f"session {i}: Stats answered {op}"
    s.close()
time.sleep(0.3)
grew = maps() - before
assert grew < 64, f"1000 sessions grew the daemon's maps by {grew} lines"
print(f"session-churn smoke ok: 1000 sessions grew the maps by {grew} lines")
EOF
./target/release/hawkeye serve-stats --socket "$hb_sock" > /dev/null \
  || { echo "serve-stats failed after the hostile bytes"; exit 1; }
stop_daemon "$hb_pid" "$hb_sock" "hostile-bytes daemon"

echo "==> metrics smoke (observability surface over the wire)"
# Serve-plane observability through the release CLI: a self-contained
# replay (its own daemon on a loopback TCP port), then assert the Metrics wire op saw the traffic (ingest counter,
# Diagnose latency histogram), the flight ring stayed warning-free on a
# fault-free run, and the Diagnose verdict's audit record round-tripped
# over the Explain op with its evidence and stage timings intact.
metrics_out=$(mktemp)
timeout 120 ./target/release/hawkeye replay incast --json > "$metrics_out"
python3 - "$metrics_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = {c["key"]: c["value"] for c in doc["metrics"]["counters"]}
assert counters["epochs_ingested"] > 0, "metrics op reported no ingested epochs"
hists = {h["key"]: h for h in doc["metrics"]["histograms"]}
assert hists["op_ingest_batch_ns"]["count"] == counters["ingest_batches"], \
    "one ingest latency sample per ingest frame"
# `epochs_ingested` counts epochs (a snapshot holds several); the count
# of streamed *snapshots* the daemon took is the store's.
assert doc["daemon"]["store_snapshots_appended"] == doc["snapshots_streamed"], \
    "a streamed snapshot never reached the store"
assert doc["diagnose_p99_ns"] > 0, "Diagnose p99 missing or zero"
assert hists["op_diagnose_ns"]["count"] >= 1, "diagnose latency never recorded"
warnings = [e for e in doc["flight"] if e.get("kind") == "warning"]
assert not warnings, f"fault-free replay raised flight warnings: {warnings}"
ex = doc["explain"]
assert ex["signature_row"] == "microburst_incast", f"wrong row: {ex['signature_row']}"
assert ex["confidence"] == "complete", f"confidence {ex['confidence']!r}"
assert ex["window_from_ns"] < ex["window_to_ns"], "empty diagnosis window"
assert ex["contributing_epochs"] > 0 and ex["contributing_switches"], \
    "audit record names no evidence"
assert ex["stage_collect_ns"] > 0 and ex["stage_graph_ns"] > 0, \
    "audit record has zero stage timings"
print("metrics smoke ok:", counters["epochs_ingested"], "epochs,",
      "diagnose p99", doc["diagnose_p99_ns"], "ns, verdict #%d" % ex["seq"])
EOF
rm -f "$metrics_out"

echo "==> retention smoke (tiny ring budget, compaction + engine retirement)"
# Long-running-serve retention through the release CLI: a daemon whose
# ring budget is far below the replay's epoch count must evict from the
# store, compact snapshots and retire engine epochs at the horizon —
# while the served verdict stays Correct and at parity (diagnosis reads
# the raw ring only) and the victim's history spans both fidelity tiers.
retention_sock=$(mktemp -u /tmp/hawkeye-retention-XXXXXX.sock)
retention_out=$(mktemp)
serve_on "$retention_sock" --epoch-budget 2
retention_pid=$daemon_pid
timeout 120 ./target/release/hawkeye replay incast --socket "$retention_sock" \
  --history --json > "$retention_out"
python3 - "$retention_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
d = doc["daemon"]
assert doc["verdict"] == "Correct", f"verdict {doc['verdict']!r} under tight budget"
assert doc["parity"] is True, "compaction changed the served diagnosis"
assert d["store_epochs_held"] <= 2 * d["store_switches"], \
    f"raw rings over budget: {d['store_epochs_held']} > 2x{d['store_switches']}"
assert d["store_epochs_compacted_held"] > 0, "eviction never compacted an epoch"
assert d["engine_epochs_retired_total"] > 0, "engine retirement never fired"
hist = doc["history"]
assert {r["fidelity"] for r in hist} == {"raw", "compacted"}, \
    f"history missing a fidelity tier: {sorted({r['fidelity'] for r in hist})}"
print("retention smoke ok:", d["store_epochs_held"], "raw epochs held,",
      d["store_epochs_compacted_held"], "compacted,",
      d["engine_epochs_retired_total"], "retired")
EOF
stop_daemon "$retention_pid" "$retention_sock" "retention daemon"
rm -f "$retention_out"

echo "==> backpressure smoke (batch frames, slow store, tight queue)"
# Ingest-path overload behavior through the release CLI: batched frames
# from `replay` into a `serve` daemon whose store thread is artificially
# slowed behind a 4-deep queue. The slow store must stall the sender's credit window —
# nothing is ever shed — with full parity with the one-shot diagnosis, and
# the batch path actually taken.
bp_sock=$(mktemp -u /tmp/hawkeye-backpressure-XXXXXX.sock)
bp_out=$(mktemp)
serve_on "$bp_sock" --slow-shard-us 200 --queue-depth 4
bp_pid=$daemon_pid
timeout 120 ./target/release/hawkeye replay incast --socket "$bp_sock" \
  --batch 8 --json > "$bp_out"
python3 - "$bp_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = {c["key"]: c["value"] for c in doc["metrics"]["counters"]}
assert doc["verdict"] == "Correct", f"verdict {doc['verdict']!r} under backpressure"
assert doc["parity"] is True, "backpressure changed the served diagnosis"
assert doc["snapshots_streamed"] > 0, "no snapshots streamed to the daemon"
assert doc["snapshots_shed"] == 0, "backpressure shed snapshots"
assert counters["ingest_batches"] > 0, "batch frames never taken"
print("backpressure smoke ok:", doc["snapshots_streamed"], "snapshots,",
      counters["ingest_batches"], "batch frames, 0 shed")
EOF
stop_daemon "$bp_pid" "$bp_sock" "backpressure daemon"
rm -f "$bp_out"

echo "==> crash-recovery smoke (durable daemon survives kill -9)"
# The durability pitch, end to end through the release CLI: stream a replay
# into a foreground durable daemon, SIGKILL it mid-life, restart it on the
# same log directory, and diagnose with --query-only (nothing re-streamed:
# the daemon serves purely recovered state). The recovered verdict, served
# report and flow history must be byte-identical to a durability-off
# reference run, and a final SIGTERM must exit 0 and remove the socket.
wal_dir=$(mktemp -d /tmp/hawkeye-wal-XXXXXX)
cr_sock=$(mktemp -u /tmp/hawkeye-crash-XXXXXX.sock)
ref_out=$(mktemp); s1_out=$(mktemp); s2_out=$(mktemp); d2_err=$(mktemp)
timeout 120 ./target/release/hawkeye replay incast --history --json > "$ref_out"
serve_on "$cr_sock" --durable "$wal_dir"
cr_pid=$daemon_pid
timeout 120 ./target/release/hawkeye replay incast --socket "$cr_sock" \
  --stream-only --json > "$s1_out"
python3 - "$s1_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["snapshots_streamed"] > 0, "nothing streamed before the crash"
assert doc["snapshots_shed"] == 0, "fault-free replay shed snapshots"
EOF
# The operator's text view of the live daemon must show the ingest it
# just took: every op_* histogram is printed, not a fixed list of them.
stats_txt=$(./target/release/hawkeye serve-stats --socket "$cr_sock")
grep -q '^op_ingest_batch_ns ' <<< "$stats_txt" \
  || { echo "$stats_txt"; echo "serve-stats printed no op_ingest_batch_ns row"; exit 1; }
{ kill -9 "$cr_pid"; wait "$cr_pid" || true; } 2>/dev/null
rm -f "$cr_sock"
./target/release/hawkeye serve --socket "$cr_sock" --durable "$wal_dir" \
  2> "$d2_err" &
cr_pid=$!
wait_for_socket "$cr_sock" "recovered daemon" "$d2_err"
# The daemon binds its socket before the CLI prints the recovery line,
# so poll briefly rather than racing a single grep against its stderr.
for _ in $(seq 100); do grep -q "hawkeye: recovered" "$d2_err" && break; sleep 0.1; done
grep -q "hawkeye: recovered" "$d2_err" || { cat "$d2_err"; echo "restart did not report recovery"; exit 1; }
timeout 120 ./target/release/hawkeye replay incast --socket "$cr_sock" \
  --query-only --history --json > "$s2_out"
python3 - "$ref_out" "$s2_out" <<'EOF'
import json, sys
ref, rec = (json.load(open(p)) for p in sys.argv[1:3])
assert rec["verdict"] == "Correct", f"recovered verdict {rec['verdict']!r}"
assert rec["parity"] is True, "recovered diagnosis diverged from one-shot"
assert rec["served"] == ref["served"], \
    "served report after kill -9 differs from durability-off reference"
assert rec["history"] == ref["history"], \
    "flow history after kill -9 differs from durability-off reference"
print("crash-recovery smoke ok: verdict", rec["verdict"] + ",",
      len(rec["history"]), "history rows byte-identical after kill -9")
EOF
stop_daemon "$cr_pid" "$cr_sock" "recovered daemon"
rm -rf "$wal_dir"; rm -f "$ref_out" "$s1_out" "$s2_out" "$d2_err"

echo "==> fleet smoke (3 sharded daemons behind a front-end, verdict parity, dead shard)"
# Multi-daemon serving through the release CLI: three `serve --shard`
# daemons on unix sockets behind a `hawkeye front` router, the incast
# replay streamed through the front, and the served verdict required to
# be byte-identical to a monolithic daemon's over the same replay — the
# shard cut must be invisible to clients. The incast fabric's switches
# are ids 16..36, so the map gives every shard some of the reporting
# switches, and each must hold evidence. Then shard 0 is killed -9 and the
# replay streamed again: the front sheds exactly what shard 0 owned and
# the stream still succeeds. Clean SIGTERM teardown for the survivors,
# sockets removed. A map with an empty endpoint is refused first.
fleet_dir=$(mktemp -d /tmp/hawkeye-fleet-XXXXXX)
fleet_ref=$(mktemp); fleet_out=$(mktemp)
timeout 120 ./target/release/hawkeye replay incast --json > "$fleet_ref"
fleet_pids=()
for i in 0 1 2; do
  case $i in
    0) range="0..20" ;;
    1) range="20..32" ;;
    2) range="32..1024" ;;
  esac
  serve_on "$fleet_dir/shard$i.sock" --shard "$range" --map-epoch 1
  fleet_pids+=("$daemon_pid")
done
# A map line with an empty endpoint is refused when the map loads, with
# its line number, before the front binds anything: exit 1, no socket.
printf 'epoch 1\n0..8 unix:\n' > "$fleet_dir/bad_map"
bad_code=0
timeout 20 ./target/release/hawkeye front --map "$fleet_dir/bad_map" \
  --socket "$fleet_dir/bad_front.sock" 2> "$fleet_dir/bad_err" || bad_code=$?
test "$bad_code" -eq 1 || { echo "front on an empty endpoint exited $bad_code, want 1"; exit 1; }
grep -q "shard map line 2: endpoint 'unix:' names no path or address" "$fleet_dir/bad_err" \
  || { cat "$fleet_dir/bad_err"; echo "empty endpoint refused without its line"; exit 1; }
test ! -e "$fleet_dir/bad_front.sock" || { echo "refused front bound its socket"; exit 1; }
cat > "$fleet_dir/map" <<EOF
epoch 1
0..20    unix:$fleet_dir/shard0.sock
20..32   unix:$fleet_dir/shard1.sock
32..1024 unix:$fleet_dir/shard2.sock
EOF
./target/release/hawkeye front --map "$fleet_dir/map" \
  --socket "$fleet_dir/front.sock" &
front_pid=$!
wait_for_socket "$fleet_dir/front.sock" "front"
timeout 120 ./target/release/hawkeye replay incast \
  --socket "$fleet_dir/front.sock" --json > "$fleet_out"
python3 - "$fleet_ref" "$fleet_out" <<'EOF'
import json, sys
ref, fleet = (json.load(open(p)) for p in sys.argv[1:3])
assert fleet["verdict"] == "Correct", f"fleet verdict {fleet['verdict']!r}"
assert fleet["parity"] is True, "fleet diagnosis diverged from one-shot"
assert fleet["snapshots_streamed"] > 0, "nothing streamed through the front"
assert fleet["snapshots_shed"] == 0, "healthy fleet shed snapshots"
assert fleet["served"] == ref["served"], \
    "verdict through 3-shard fleet differs from monolithic daemon"
held = [b["store_switches"] for b in fleet["daemon"]["backends"]]
assert all(n > 0 for n in held), f"a shard holds no switch: {held}"
# The front counts epochs under epochs_ingested, as each backend does.
front_epochs = fleet["daemon"]["epochs_ingested"]
backend_epochs = sum(b["epochs_ingested"] for b in fleet["daemon"]["backends"])
assert front_epochs == backend_epochs, \
    f"front epochs_ingested {front_epochs}, its backends' sum {backend_epochs}"
print("fleet smoke ok:", fleet["verdict"] + ",",
      fleet["snapshots_streamed"], "snapshots routed over shards holding", held,
      "switches, verdict byte-identical")
EOF
{ kill -9 "${fleet_pids[0]}"; wait "${fleet_pids[0]}" || true; } 2>/dev/null
fleet_dead=$(mktemp)
timeout 120 ./target/release/hawkeye replay incast \
  --socket "$fleet_dir/front.sock" --stream-only --json > "$fleet_dead" \
  || { echo "stream through a fleet with a dead shard failed"; exit 1; }
python3 - "$fleet_out" "$fleet_dead" <<'EOF'
import json, sys
first, dead = (json.load(open(p)) for p in sys.argv[1:3])
owned = first["daemon"]["backends"][0]["store_snapshots_appended"]
assert owned > 0, "shard 0 took nothing in the first stream"
assert dead["daemon"]["backends"][0] is None, "killed shard still reports stats"
assert dead["snapshots_shed"] == owned, f"shed {dead['snapshots_shed']}, shard 0 owned {owned}"
assert dead["daemon"]["front_shed_down"] == owned, \
    f"front_shed_down {dead['daemon']['front_shed_down']}, shard 0 owned {owned}"
print("dead-shard smoke ok:", dead["snapshots_shed"], "snapshots shed,",
      dead["snapshots_streamed"], "streamed with shard 0 down")
EOF
stop_daemon "$front_pid" "$fleet_dir/front.sock" "front"
for i in 1 2; do
  stop_daemon "${fleet_pids[$i]}" "$fleet_dir/shard$i.sock" "shard $i daemon"
done
rm -rf "$fleet_dir"; rm -f "$fleet_ref" "$fleet_out" "$fleet_dead"

echo "==> benchmark smoke (every workload at 2 s, one traced pass)"
# benchmark/ is its own package building against this checkout's crates:
# an API change that breaks the surface it uses must fail here, not in
# the pipeline that runs BENCHMARK.json.
benchmark/smoke.sh

echo "==> scripts/ab.sh and scripts/parity.sh parse"
# The paired-run and parity tools build a parent commit and take minutes
# to tens of minutes; the gate only checks that they are still shell
# scripts.
bash -n scripts/ab.sh
bash -n scripts/parity.sh

echo "==> corpus (all 108 cells vs committed golden)"
# The whole scenario corpus (6 topologies x 6 scenarios x 3 seeds) checked
# against the committed golden pins through the release CLI: any verdict
# drift on any cell exits nonzero with typed cell coordinates. The matrix
# takes ~10 s on two cores, so the gate checks the golden itself, not a
# slice of it.
corpus_out=$(mktemp)
./target/release/hawkeye corpus --jobs 2 --json > "$corpus_out"
python3 - "$corpus_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["cells"] == 108, f"expected the 108-cell matrix, got {doc['cells']}"
assert doc["subset"] is False, "the full matrix ran in subset mode"
assert doc["diffs"] == [], "corpus drifted from golden:\n" + "\n".join(doc["diffs"])
print("corpus ok:", doc["cells"], "cells match golden")
EOF
rm -f "$corpus_out"

echo "==> figures (hawkeye figure all vs bench_results_reference.txt)"
# The paper's figures pinned like the corpus: the reference file is its
# own first line (the command) followed by that command's output at the
# defaults, so any move in a figure's rows fails here as a diff. ~25 s on
# two vCPUs. An unknown figure id must be a usage error that lists the ids.
fig_out=$(mktemp); fig_err=$(mktemp)
{ echo '$ hawkeye figure all'; ./target/release/hawkeye figure all; } > "$fig_out"
diff bench_results_reference.txt "$fig_out" \
  || { echo "figures drifted from bench_results_reference.txt"; exit 1; }
fig_code=0
./target/release/hawkeye figure nope > /dev/null 2> "$fig_err" || fig_code=$?
test "$fig_code" -eq 2 || { echo "figure nope exited $fig_code, want 2"; exit 1; }
grep -q "^figures: fig7 fig8 fig10 fig12 fig13 fig14 ablations partial-deployment load-sweep all$" \
  "$fig_err" || { cat "$fig_err"; echo "usage does not list the figure ids"; exit 1; }
rm -f "$fig_out" "$fig_err"
echo "figures ok: figure all matches bench_results_reference.txt"

echo "==> fuzz smoke (24 mutations on ft4, banked repros re-verify)"
# The disagreement fuzzer end to end at CI size: a small deterministic
# hunt must complete panic-free with every attempted case accounted for
# (run or rejected as a degenerate topology), and the repros banked by
# the full-size hunt (tests/corpus_bank.json) must still reproduce their
# pinned wrong verdicts when replayed — fuzzer-found regressions are
# golden cells too.
fuzz_out=$(mktemp); fuzz_bank=$(mktemp)
./target/release/hawkeye fuzz --budget 24 --base-topo ft4 --seed 7 \
  --bank "$fuzz_bank" --json > "$fuzz_out"
python3 - "$fuzz_out" "$fuzz_bank" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["runs"] + doc["rejected"] == 24, \
    f"budget not accounted: {doc['runs']} runs + {doc['rejected']} rejected != 24"
assert doc["runs"] > 0, "every mutation was rejected; hunt never ran"
assert doc["reverify_failures"] == 0, "a minimized repro failed re-verification"
bank = json.load(open(sys.argv[2]))
assert bank["version"] == 1 and len(bank["repros"]) == len(doc["banked"]), \
    "bank file disagrees with the report"
print("fuzz smoke ok:", doc["runs"], "runs,", doc["rejected"], "rejected,",
      len(doc["banked"]), "banked")
EOF
rm -f "$fuzz_out" "$fuzz_bank"
cargo test -q -p hawkeye-eval --release --test corpus_bank_reverify

echo "==> working tree unchanged"
status_after=$(git status --porcelain)
if [ "$status_before" != "$status_after" ]; then
  echo "the gate changed the working tree:"
  diff <(echo "$status_before") <(echo "$status_after") || true
  exit 1
fi

echo "==> all checks passed"
