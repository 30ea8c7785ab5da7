#!/usr/bin/env bash
# The one CI entry point, runnable locally: formatting, lints, release
# build, full test suite. CI (.github/workflows/ci.yml) calls exactly
# this script so the two can't drift.
set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace vendors its dependencies in-tree (shims/), so every cargo
# invocation works offline; --offline makes that a hard guarantee.
CARGO_FLAGS=(--offline --workspace)

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy"
cargo clippy "${CARGO_FLAGS[@]}" --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build "${CARGO_FLAGS[@]}" --release

echo "==> cargo test"
cargo test "${CARGO_FLAGS[@]}" -q

# Documentation gates: the numeric substrate (bepi-sparse, bepi-solver)
# denies missing docs at compile time; this step additionally fails on
# rustdoc warnings (broken intra-doc links etc.) in every workspace crate
# except the vendored shims, and runs every doctest, so the examples on
# Csr/Gmres/Ilu0/BlockLu can't rot and no doc links to a deleted item.
echo "==> cargo doc (warnings denied) + doctests"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace \
  --exclude proptest --exclude rand --exclude crossbeam
cargo test --offline --workspace --doc -q

# The WAL crash-recovery contract is load-bearing for the live-update
# subsystem, so CI exercises it explicitly (SIGKILL mid-stream + restart
# on the same --wal, and the corrupted-trailer fixture) even though it is
# part of the suite above — a name filter keeps a failure here loud and
# attributable.
echo "==> crash-recovery tests (bepi serve --wal)"
cargo test --offline -p bepi-cli --test live_recovery -q

# Batched queries solve up to eight seeds per pass over S in lock step,
# and their throughput is only worth having because every seed's answer
# stays bit-identical to its single solve. The tests that pin that
# contract (block SpMV per lane, block GMRES per column, batch vs
# query_with_stats, first-error order, one telemetry solve per seed) run
# here by name, in release codegen, so a break fails loudly and
# attributably.
echo "==> lock-step batch bit-identity"
cargo test --offline --release -q -p bepi-sparse -p bepi-solver -p bepi-core -- \
  lockstep parallel_batch_aggregates_into_shared_telemetry

# Preprocessing builds SlashBurn's input and H's six blocks straight from
# the graph, writes each block-LU thread's rows straight into CSR parts,
# and forms S = H22 - H21 X inside the product's row pass. Each is worth
# having only because its output is bit-identical to the materialised
# chain it replaced. The tests that pin that contract (the reference-chain
# oracle and its random-graph proptest, the pinned SlashBurn labels, block
# LU against its Coo-assembled reference at 1-64 threads, refactor_blocks,
# the fused Schur product) run here by name, in release codegen.
echo "==> preprocess bit-identity"
cargo test --offline --release -q -p bepi-incr -p bepi-reorder -p bepi-solver -p bepi-sparse \
  -p bepi-core -- fused_builders labels_and_blocks_are_pinned parallel_factor_is_bit_identical \
  refactor_blocks_is_bit_identical sub_spgemm_is_bit_identical schur_complement_is_bit_identical

# Observability end-to-end gate: start a real daemon, drive traced
# queries through it, and validate the /metrics exposition with the
# in-tree checker (the wire format an external Prometheus scraper sees).
echo "==> /metrics exposition check (bepi serve + metrics_check)"
OBS_TMP=$(mktemp -d)
OBS_FIFO="$OBS_TMP/stdin"
OBS_LOG="$OBS_TMP/serve.log"
cleanup_obs() {
  exec 9>&- 2>/dev/null || true
  [ -n "${OBS_PID:-}" ] && kill "$OBS_PID" 2>/dev/null || true
  rm -rf "$OBS_TMP"
}
trap cleanup_obs EXIT
python3 - "$OBS_TMP/edges.txt" <<'EOF'
import sys
with open(sys.argv[1], "w") as f:
    n = 64
    for i in range(n):
        f.write(f"{i} {(i + 1) % n}\n")
        f.write(f"{i} {(i * 7 + 3) % n}\n")
EOF
./target/release/bepi preprocess "$OBS_TMP/edges.txt" "$OBS_TMP/index.bepi"
mkfifo "$OBS_FIFO"
# Hold a write end open on fd 9: the daemon treats stdin EOF as its
# shutdown signal, so closing fd 9 later is the graceful stop. Opened
# read-write because a write-only open of a fifo blocks until a reader
# (the daemon, which starts next) shows up.
exec 9<> "$OBS_FIFO"
# 9>&- keeps the daemon from inheriting the fifo's write end — otherwise
# it would hold its own stdin open and never see EOF.
./target/release/bepi serve "$OBS_TMP/index.bepi" --listen 127.0.0.1:0 \
  --slow-query-ms 0 --log-level info < "$OBS_FIFO" > "$OBS_LOG" 2>&1 9>&- &
OBS_PID=$!
OBS_ADDR=""
for _ in $(seq 1 100); do
  OBS_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$OBS_LOG" | head -n1)
  [ -n "$OBS_ADDR" ] && break
  kill -0 "$OBS_PID" 2>/dev/null || { cat "$OBS_LOG"; exit 1; }
  sleep 0.1
done
[ -n "$OBS_ADDR" ] || { echo "daemon never reported its address"; cat "$OBS_LOG"; exit 1; }
./target/release/metrics_check "$OBS_ADDR" --warm-queries 8
exec 9>&-   # stdin EOF → graceful shutdown
wait "$OBS_PID"
OBS_PID=""

# S is stored as a table of its distinct values plus a u16 code per
# non-zero whenever it has at most 2^16 of them, and that form is only
# worth having because every product it feeds is bit-identical to the
# plain CSR's. The tests that pin that contract (single and 8-wide SpMV
# against Csr on -0.0/subnormal/1e±300 values, the per-thread widened
# table, GMRES on a coded operator, to_csr round trip, deterministic
# encode, the 65 537-value fallback, plain-S back-compat files on heap and
# mmap, exact byte accounting, hostile coded sections) all carry "coded"
# in their names and run here in release codegen.
echo "==> coded-S bit-identity"
cargo test --offline --release -q -p bepi-sparse -p bepi-solver -p bepi-core -- coded

# S's pattern is stored narrow (u32 row pointers, u16 column indices)
# whenever it has at most 2^16 columns, and that form too is only worth
# having because every answer it feeds is bit-identical to the wide one's.
# The tests that pin that contract (single and 8-wide SpMV on both pattern
# widths with plain and coded values, to_csr/row_iter round trips, the
# 65 536/65 537-column selection, ILU(0) factors on a narrow S, refactor
# over a narrow old S, wide-pattern back-compat files on heap and mmap,
# exact byte accounting, crafted patterns failing the heap load) all carry
# "narrow" in their names and run here in release codegen.
echo "==> narrow-S bit-identity"
cargo test --offline --release -q -p bepi-sparse -p bepi-solver -p bepi-core -p bepi-incr -- narrow

# Every stored matrix (L1^-1, U1^-1, S, H12, H21, H31, H32) is one frozen
# type, narrow and value-coded over one value table shared by the whole
# index. The tests that pin that contract (single and 8-wide SpMV on
# H-shaped blocks coded over a shared table, the shared encoder's
# overflow rollback, frozen H11 factors solving like the builder's, one
# table across preprocess/refactor/heap/mmap, the memory report counting
# the table once against the file's sections, files in every earlier
# layout on heap and mmap with byte-identical re-save, hostile matrix
# sections, the section-name layout) carry "compact" in their names, as
# do the tests of the per-node layout: no factor rows for 1 x 1 H11
# blocks (the frozen solve against a dense H11^-1 and the builder, on
# fresh/refactored/heap/mmap indexes; full-row-layout files; hostile
# 1 x 1 sections; the exact-cold counts). The heap loader's permutation,
# ILU(0) diagonal, row-order and block checks and the one-map permutation
# scatter ride along. All run here in release codegen.
echo "==> compact-index bit-identity"
cargo test --offline --release -q -p bepi-sparse -p bepi-solver -p bepi-core -p bepi-incr -p bepi-map \
  -- compact heap_load_rejects_crafted heap_load_rejects_unsorted check_diag_pos \
  permute_vec_scatter trusted_map_skips

# Memory-mapped serving gate: preprocess once, boot one daemon that
# loads the index onto the heap and one that maps the same file, and
# require byte-identical top-k responses. This is the --mmap acceptance
# bar run against real HTTP, not just the unit suite. It runs twice: on
# the default (BePI-S) index, and on a `--variant full` index, whose
# mapped ILU(0) sections have no other end-to-end gate. Each index must
# also list its value-coded S sections and its narrow S pattern sections in
# `bepi stats --mmap`, and every other stored matrix's narrow pattern and
# value codes.
echo "==> mmap serving check (heap/mmap daemon diff, default and --variant full index)"
MMAP_TMP=$(mktemp -d)
cleanup_mmap() {
  exec 8>&- 2>/dev/null || true
  exec 7>&- 2>/dev/null || true
  [ -n "${HEAP_PID:-}" ] && kill "$HEAP_PID" 2>/dev/null || true
  [ -n "${MMAP_PID:-}" ] && kill "$MMAP_PID" 2>/dev/null || true
  rm -rf "$MMAP_TMP"
}
trap 'cleanup_obs; cleanup_mmap' EXIT
python3 - "$MMAP_TMP/edges.txt" <<'EOF'
import sys
with open(sys.argv[1], "w") as f:
    n = 96
    for i in range(n):
        f.write(f"{i} {(i + 1) % n}\n")
        f.write(f"{i} {(i * 5 + 2) % n}\n")
EOF
# Runs in the *current* shell (no command substitution) so the fifo fd
# and the daemon pid survive; results land in DAEMON_ADDR / DAEMON_PID.
start_daemon() { # fifo_fd index log flags...
  local fd=$1 index=$2 log=$3; shift 3
  rm -f "$MMAP_TMP/fifo$fd"
  mkfifo "$MMAP_TMP/fifo$fd"
  eval "exec $fd<> '$MMAP_TMP/fifo$fd'"
  # 7>&- 8>&- 9>&-: a daemon must not inherit any fifo write end, its
  # own included, or stdin EOF (the shutdown signal) can never arrive.
  ./target/release/bepi serve "$index" --listen 127.0.0.1:0 "$@" \
    < "$MMAP_TMP/fifo$fd" > "$log" 2>&1 7>&- 8>&- 9>&- &
  DAEMON_PID=$!
  DAEMON_ADDR=""
  for _ in $(seq 1 100); do
    DAEMON_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$log" | head -n1)
    [ -n "$DAEMON_ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$log" >&2; return 1; }
    sleep 0.1
  done
  [ -n "$DAEMON_ADDR" ] || { echo "daemon never reported its address" >&2; cat "$log" >&2; return 1; }
}
# "<--variant value, empty for the default>:<name /version reports>"
for case in ":BePI-S" "full:BePI"; do
  VARIANT_FLAG=${case%%:*} VARIANT_NAME=${case#*:}
  INDEX="$MMAP_TMP/index-$VARIANT_NAME.bepi"
  ./target/release/bepi preprocess "$MMAP_TMP/edges.txt" "$INDEX" \
    ${VARIANT_FLAG:+--variant "$VARIANT_FLAG"}
  # The index stores S value-coded on a narrow pattern: all four sections
  # are in the file. So is every other stored matrix, over the same table.
  ./target/release/bepi stats "$INDEX" --mmap > "$MMAP_TMP/stats.txt"
  for section in s.value_table s.value_codes s.indptr32 s.indices16; do
    grep -q "^$section " "$MMAP_TMP/stats.txt" \
      || { echo "$VARIANT_NAME: bepi stats --mmap lists no $section section"; cat "$MMAP_TMP/stats.txt"; exit 1; }
  done
  for matrix in l_inv u_inv h12 h21 h31 h32; do
    for part in indptr32 indices16 value_codes; do
      grep -q "^$matrix.$part " "$MMAP_TMP/stats.txt" \
        || { echo "$VARIANT_NAME: bepi stats --mmap lists no $matrix.$part section"; cat "$MMAP_TMP/stats.txt"; exit 1; }
    done
  done
  # The 1 x 1 H11 blocks keep one coded U1^-1 value each, and the index
  # stores one permutation map.
  grep -q "^u_inv.singleton_codes " "$MMAP_TMP/stats.txt" \
    || { echo "$VARIANT_NAME: bepi stats --mmap lists no u_inv.singleton_codes section"; cat "$MMAP_TMP/stats.txt"; exit 1; }
  if grep -q "^perm.old_of_new " "$MMAP_TMP/stats.txt"; then
    echo "$VARIANT_NAME: a fresh index still stores perm.old_of_new"; cat "$MMAP_TMP/stats.txt"; exit 1
  fi
  start_daemon 7 "$INDEX" "$MMAP_TMP/heap.log"
  HEAP_ADDR=$DAEMON_ADDR HEAP_PID=$DAEMON_PID
  grep -q "heap index" "$MMAP_TMP/heap.log" \
    || { echo "daemon without --mmap did not report a heap index"; cat "$MMAP_TMP/heap.log"; exit 1; }
  start_daemon 8 "$INDEX" "$MMAP_TMP/mmap.log" --mmap
  MMAP_ADDR=$DAEMON_ADDR MMAP_PID=$DAEMON_PID
  grep -q "memory-mapped index" "$MMAP_TMP/mmap.log" \
    || { echo "--mmap daemon did not report a mapped index"; cat "$MMAP_TMP/mmap.log"; exit 1; }
  for addr in "$HEAP_ADDR" "$MMAP_ADDR"; do
    curl -sf "http://$addr/version" | grep -q "\"variant\":\"$VARIANT_NAME\"" \
      || { echo "$addr: /version does not report variant $VARIANT_NAME"; exit 1; }
  done
  for seed in 0 17 42 95; do
    curl -sf "http://$HEAP_ADDR/query?seed=$seed&top=10" > "$MMAP_TMP/heap.json"
    curl -sf "http://$MMAP_ADDR/query?seed=$seed&top=10" > "$MMAP_TMP/mmap.json"
    cmp "$MMAP_TMP/heap.json" "$MMAP_TMP/mmap.json" \
      || { echo "$VARIANT_NAME seed $seed: mmap daemon response differs from heap daemon"; exit 1; }
  done
  exec 7>&-
  exec 8>&-
  wait "$HEAP_PID" "$MMAP_PID"
  HEAP_PID=""; MMAP_PID=""
  echo "$VARIANT_NAME: mmap responses byte-identical to heap responses"
done

# Approximate-serving degradation gate: boot a daemon whose index embeds
# its graph (so the approximate lane is live), saturate the admission
# queue (one idle connection parks the lone worker, a second fills the
# queue-depth-1 admission queue), and require that `mode=auto` degrades
# to a 200 + `X-Approx: 1` approximate answer while `mode=exact` sheds
# with 503 — the graceful-degradation contract, exercised over real TCP.
echo "==> approx degradation check (bepi serve saturation: auto=200+X-Approx, exact=503)"
SAT_TMP=$(mktemp -d)
cleanup_sat() {
  exec 6>&- 2>/dev/null || true
  [ -n "${SAT_PID:-}" ] && kill "$SAT_PID" 2>/dev/null || true
  rm -rf "$SAT_TMP"
}
trap 'cleanup_obs; cleanup_mmap; cleanup_sat' EXIT
python3 - "$SAT_TMP/edges.txt" <<'EOF'
import sys
with open(sys.argv[1], "w") as f:
    n = 64
    for i in range(n):
        f.write(f"{i} {(i + 1) % n}\n")
        f.write(f"{i} {(i * 7 + 3) % n}\n")
EOF
./target/release/bepi preprocess "$SAT_TMP/edges.txt" "$SAT_TMP/index.bepi" --embed-graph
mkfifo "$SAT_TMP/fifo"
exec 6<> "$SAT_TMP/fifo"
./target/release/bepi serve "$SAT_TMP/index.bepi" --listen 127.0.0.1:0 \
  --threads 1 --queue-depth 1 --timeout-ms 5000 \
  < "$SAT_TMP/fifo" > "$SAT_TMP/serve.log" 2>&1 6>&- &
SAT_PID=$!
SAT_ADDR=""
for _ in $(seq 1 100); do
  SAT_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$SAT_TMP/serve.log" | head -n1)
  [ -n "$SAT_ADDR" ] && break
  kill -0 "$SAT_PID" 2>/dev/null || { cat "$SAT_TMP/serve.log"; exit 1; }
  sleep 0.1
done
[ -n "$SAT_ADDR" ] || { echo "daemon never reported its address"; cat "$SAT_TMP/serve.log"; exit 1; }
python3 - "$SAT_ADDR" <<'EOF'
import socket, sys, time
from http.client import HTTPConnection

host, port = sys.argv[1].rsplit(":", 1)
port = int(port)

def req(mode):
    c = HTTPConnection(host, port, timeout=30)
    c.request("GET", f"/query?seed=3&top=5&mode={mode}")
    r = c.getresponse()
    r.read()
    status, approx = r.status, r.getheader("X-Approx")
    c.close()
    return status, approx

# One idle connection occupies the lone worker (blocked reading a request
# that never comes), a second fills the depth-1 admission queue.
holds = []
for _ in range(2):
    holds.append(socket.create_connection((host, port)))
    time.sleep(0.3)

status, approx = req("auto")
assert status == 200, f"saturated mode=auto must degrade, not shed: got {status}"
assert approx == "1", "degraded auto response must carry X-Approx: 1"
status, approx = req("exact")
assert status == 503, f"saturated mode=exact must shed with 503: got {status}"

for s in holds:
    s.close()
time.sleep(0.5)
status, approx = req("exact")
assert (status, approx) == (200, None), f"exact lane must recover: {status} {approx}"
print("saturation: auto degraded (200 + X-Approx: 1), exact shed (503), then recovered")
EOF
# grep reads the whole stream (no -q): with pipefail, an early-exit grep
# would SIGPIPE curl and fail the pipeline even on a match.
curl -sf "http://$SAT_ADDR/metrics" | grep -E '^bepi_degraded_total [1-9]' > /dev/null \
  || { echo "bepi_degraded_total did not count the degraded admissions"; exit 1; }
exec 6>&-
wait "$SAT_PID"
SAT_PID=""

# Sharded-serving drill: boot `bepi route` over two spawned shard
# daemons, SIGKILL one under load, and require that not a single
# `mode=auto` request fails — the router must hide the crash behind
# failover, then respawn the shard and re-admit it once it answers
# `/version` at the expected epoch (bepi_shard_healthy back to 1).
echo "==> shard-kill drill (bepi route: SIGKILL one shard under load)"
RT_TMP=$(mktemp -d)
cleanup_rt() {
  exec 5>&- 2>/dev/null || true
  [ -n "${RT_PID:-}" ] && kill "$RT_PID" 2>/dev/null || true
  rm -rf "$RT_TMP"
}
trap 'cleanup_obs; cleanup_mmap; cleanup_sat; cleanup_rt' EXIT
python3 - "$RT_TMP/edges.txt" <<'EOF'
import sys
with open(sys.argv[1], "w") as f:
    n = 64
    for i in range(n):
        f.write(f"{i} {(i + 1) % n}\n")
        f.write(f"{i} {(i * 7 + 3) % n}\n")
EOF
# --mmap serving needs the mappable v6 container; --embed-graph keeps the
# approximate lane live so mode=auto can degrade instead of shedding.
./target/release/bepi preprocess "$RT_TMP/edges.txt" "$RT_TMP/index.bepi" \
  --format v6 --embed-graph
mkfifo "$RT_TMP/fifo"
exec 5<> "$RT_TMP/fifo"
./target/release/bepi route "$RT_TMP/index.bepi" --shards 2 --mmap \
  --health-interval-ms 50 --hedge-ms 25 \
  < "$RT_TMP/fifo" > "$RT_TMP/route.log" 2>&1 5>&- &
RT_PID=$!
RT_ADDR=""
for _ in $(seq 1 100); do
  RT_ADDR=$(sed -n 's#^bepi-route listening on http://\([0-9.:]*\).*#\1#p' "$RT_TMP/route.log" | head -n1)
  [ -n "$RT_ADDR" ] && break
  kill -0 "$RT_PID" 2>/dev/null || { cat "$RT_TMP/route.log"; exit 1; }
  sleep 0.1
done
[ -n "$RT_ADDR" ] || { echo "router never reported its address"; cat "$RT_TMP/route.log"; exit 1; }
VICTIM=$(sed -n 's/^shard 0: .* pid=\([0-9]*\).*/\1/p' "$RT_TMP/route.log" | head -n1)
[ -n "$VICTIM" ] || { echo "router never reported shard pids"; cat "$RT_TMP/route.log"; exit 1; }
python3 - "$RT_ADDR" "$VICTIM" <<'EOF'
import os, signal, sys, time, urllib.request

addr, victim = sys.argv[1], int(sys.argv[2])

def get(target):
    with urllib.request.urlopen(f"http://{addr}{target}", timeout=30) as r:
        return r.status, r.read().decode()

def metric(name):
    _, body = get("/metrics")
    for line in body.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[-1])
    return None

# Warm-up, then a load loop with the SIGKILL in the middle: every single
# mode=auto request must come back 200 (urlopen raises on non-2xx).
get("/query?seed=0&top=5&mode=auto")
for i in range(120):
    if i == 30:
        os.kill(victim, signal.SIGKILL)
    get(f"/query?seed={(i * 7) % 64}&top=5&mode=auto")

# Crash visible to the fleet, invisible to clients.
assert metric("bepi_route_errors_total") == 0.0, "client-visible errors"
assert metric("bepi_route_failovers_total") >= 1.0, "failover never happened"

# The supervisor respawns the shard and re-admits it at the expected
# epoch: bepi_shard_healthy{shard="0"} returns to 1.
deadline = time.time() + 30
while metric('bepi_shard_healthy{shard="0"}') != 1.0:
    assert time.time() < deadline, "killed shard never re-admitted"
    time.sleep(0.1)
_, fleet = get("/route/health")
assert '"generation":1' in fleet, f"respawn must bump the generation: {fleet}"
print("shard kill: 0 failed requests, failover counted, shard respawned + re-admitted")
EOF
exec 5>&-
wait "$RT_PID"
RT_PID=""

# Trace-propagation drill: boot the router over two shards with tracing
# fully open (slowlog threshold 0 on both tiers, Chrome trace export on),
# force one traced request onto the failover path by SIGKILLing its
# primary shard, and require the *same* request id to surface in the
# router's slowlog, the answering shard's slowlog, and the exported
# trace file — the cross-process correlation contract, end to end. The
# router's /metrics must also pass the exposition checker with both
# shards' series merged under shard= labels.
echo "==> trace-propagation drill (request id across router, shard, slowlog, export)"
TR_TMP=$(mktemp -d)
cleanup_tr() {
  exec 4>&- 2>/dev/null || true
  [ -n "${TR_PID:-}" ] && kill "$TR_PID" 2>/dev/null || true
  rm -rf "$TR_TMP"
}
trap 'cleanup_obs; cleanup_mmap; cleanup_sat; cleanup_rt; cleanup_tr' EXIT
python3 - "$TR_TMP/edges.txt" <<'EOF'
import sys
with open(sys.argv[1], "w") as f:
    n = 64
    for i in range(n):
        f.write(f"{i} {(i + 1) % n}\n")
        f.write(f"{i} {(i * 7 + 3) % n}\n")
EOF
./target/release/bepi preprocess "$TR_TMP/edges.txt" "$TR_TMP/index.bepi" \
  --format v6 --embed-graph
mkfifo "$TR_TMP/fifo"
exec 4<> "$TR_TMP/fifo"
./target/release/bepi route "$TR_TMP/index.bepi" --shards 2 --mmap \
  --health-interval-ms 50 --slow-query-ms 0 --trace-export "$TR_TMP/trace.json" \
  < "$TR_TMP/fifo" > "$TR_TMP/route.log" 2>&1 4>&- &
TR_PID=$!
TR_ADDR=""
for _ in $(seq 1 100); do
  TR_ADDR=$(sed -n 's#^bepi-route listening on http://\([0-9.:]*\).*#\1#p' "$TR_TMP/route.log" | head -n1)
  [ -n "$TR_ADDR" ] && break
  kill -0 "$TR_PID" 2>/dev/null || { cat "$TR_TMP/route.log"; exit 1; }
  sleep 0.1
done
[ -n "$TR_ADDR" ] || { echo "router never reported its address"; cat "$TR_TMP/route.log"; exit 1; }
# Fleet-aggregated exposition: warmed through the router, validated with
# the same checker a shard gets, plus the shard-label coverage check.
./target/release/metrics_check "$TR_ADDR" --warm-queries 8 --expect-shards 2
python3 - "$TR_ADDR" "$TR_TMP/route.log" "$TR_TMP/trace.json" <<'EOF'
import json, os, re, signal, sys, time, urllib.request

addr, log_path, export_path = sys.argv[1], sys.argv[2], sys.argv[3]

shards = {}  # id -> (addr, pid)
with open(log_path) as f:
    for line in f:
        m = re.match(r"shard (\d+): http://([0-9.:]+) healthy=\S+ pid=(\d+)", line)
        if m:
            shards[int(m.group(1))] = (m.group(2), int(m.group(3)))
assert len(shards) == 2, f"expected 2 shard announce lines, got {shards}"

def get(base, target):
    with urllib.request.urlopen(f"http://{base}{target}", timeout=30) as r:
        return r.status, dict(r.headers), r.read().decode()

# A traced query through the healthy fleet identifies the seed's primary
# shard, and its body already correlates header, route block, and the
# shard's own trace block under one id.
_, hdrs, body = get(addr, "/query?seed=5&top=4&trace=1")
doc = json.loads(body)
primary = int(doc["route"]["shard"])
rid0 = hdrs["X-Request-Id"]
assert doc["route"]["request_id"] == rid0 == doc["trace"]["request_id"], body
assert doc["route"]["attempts"][0]["kind"] == "primary", body

# SIGKILL the answering shard and re-issue immediately — before the
# supervisor can respawn it and the 50ms probe re-admit it — so the
# sibling must answer, with the failover visible in the per-attempt
# trace. (The respawn path itself is the previous drill's assertion.)
os.kill(shards[primary][1], signal.SIGKILL)
status, hdrs, body = get(addr, "/query?seed=5&top=4&trace=1")
assert status == 200, f"failover must be invisible: {status}"
doc = json.loads(body)
rid = hdrs["X-Request-Id"]
assert doc["route"]["request_id"] == rid == doc["trace"]["request_id"], body
survivor = int(doc["route"]["shard"])
assert survivor != primary, f"dead shard {primary} cannot have answered: {body}"
kinds = [a["kind"] for a in doc["route"]["attempts"]]
assert any(k in ("failover", "retry", "hedge") for k in kinds), kinds

# The one id correlates the router slowlog, the answering shard's
# slowlog, and the Chrome trace export — three processes, one story.
_, _, router_slow = get(addr, "/debug/slow")
assert rid in router_slow, f"router slowlog missing {rid}: {router_slow}"
_, _, shard_slow = get(shards[survivor][0], "/debug/slow")
assert rid in shard_slow, f"shard {survivor} slowlog missing {rid}: {shard_slow}"
with open(export_path) as f:
    assert rid in f.read(), f"trace export missing {rid}"
print(f"trace propagation: id {rid} in router slowlog, shard {survivor} slowlog, and export")
EOF
exec 4>&-
wait "$TR_PID"
TR_PID=""

# Incremental-rebuild drill: boot a live daemon with a WAL, push a
# numeric-safe edge batch through an explicit rebuild, and require the
# symbolic/numeric split to fire — bepi_numeric_rebuilds_total up by one,
# /version reporting rebuild_kind=numeric (no rebuild_reason) +
# rebuild_trigger=explicit.
# Then acknowledge a second batch, SIGKILL before its rebuild, restart on
# the same WAL, and require the replayed daemon (whose replay must also
# take the numeric path) to answer byte-for-byte like a daemon cleanly
# preprocessed from the same final edge list: the second batch undoes the
# first, so two chained refactorizations under the checkpoint's frozen
# plan must land exactly back on the from-scratch index.
echo "==> incremental-rebuild drill (numeric path + SIGKILL + WAL replay oracle)"
IR_TMP=$(mktemp -d)
cleanup_ir() {
  exec 3>&- 2>/dev/null || true
  [ -n "${IR_OFD:-}" ] && eval "exec $IR_OFD>&-" 2>/dev/null || true
  [ -n "${IR_PID:-}" ] && kill "$IR_PID" 2>/dev/null || true
  [ -n "${IR_ORACLE_PID:-}" ] && kill "$IR_ORACLE_PID" 2>/dev/null || true
  rm -rf "$IR_TMP"
}
trap 'cleanup_obs; cleanup_mmap; cleanup_sat; cleanup_rt; cleanup_tr; cleanup_ir' EXIT
python3 - "$IR_TMP/edges.txt" <<'EOF'
import sys
with open(sys.argv[1], "w") as f:
    n = 64
    for i in range(n):
        f.write(f"{i} {(i + 1) % n}\n")
        f.write(f"{i} {(i * 7 + 3) % n}\n")
EOF
./target/release/bepi preprocess "$IR_TMP/edges.txt" "$IR_TMP/index.bepi" --embed-graph
mkfifo "$IR_TMP/fifo"
exec 3<> "$IR_TMP/fifo"
./target/release/bepi serve "$IR_TMP/index.bepi" --listen 127.0.0.1:0 \
  --wal "$IR_TMP/updates.wal" --log-level info \
  < "$IR_TMP/fifo" > "$IR_TMP/serve.log" 2>&1 3>&- &
IR_PID=$!
IR_ADDR=""
for _ in $(seq 1 100); do
  IR_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$IR_TMP/serve.log" | head -n1)
  [ -n "$IR_ADDR" ] && break
  kill -0 "$IR_PID" 2>/dev/null || { cat "$IR_TMP/serve.log"; exit 1; }
  sleep 0.1
done
[ -n "$IR_ADDR" ] || { echo "daemon never reported its address"; cat "$IR_TMP/serve.log"; exit 1; }
python3 - "$IR_ADDR" <<'EOF'
import json, sys, urllib.request

addr = sys.argv[1]

def get(target):
    with urllib.request.urlopen(f"http://{addr}{target}", timeout=30) as r:
        return r.read().decode()

def post(target, body):
    req = urllib.request.Request(f"http://{addr}{target}", data=body.encode(), method="POST")
    with urllib.request.urlopen(req, timeout=30) as r:
        return r.read().decode()

def metric(name):
    for line in get("/metrics").splitlines():
        if line.startswith(name + " "):
            return float(line.split()[-1])
    return None

assert metric("bepi_numeric_rebuilds_total") == 0.0, "counter must start at 0"

# Node 0's edges are (0,1) and (0,3); removing (0,3) leaves out-degree 1,
# so no deadend flips and the batch must classify numeric-only.
post("/edges", '{"op":"remove","u":0,"v":3}\n')
post("/rebuild", "")
assert metric("bepi_numeric_rebuilds_total") == 1.0, "numeric path never fired"
assert metric("bepi_structural_rebuilds_total") == 0.0, "batch misclassified structural"
assert metric('bepi_rebuild_path_seconds{path="numeric"}') > 0.0, "numeric path time missing"
v = json.loads(get("/version"))
assert v["version"] == 2, v
assert v["rebuild_kind"] == "numeric", v
assert v["rebuild_reason"] is None, v
assert v["rebuild_trigger"] == "explicit", v

# Second batch undoes the first; acknowledge it into the WAL and leave it
# pending — the SIGKILL below lands before any rebuild of it.
post("/edges", '{"op":"insert","u":0,"v":3}\n')
print("numeric rebuild counted; second batch acknowledged, ready for SIGKILL")
EOF
kill -9 "$IR_PID"
wait "$IR_PID" 2>/dev/null || true
IR_PID=""
# Restart on the same WAL: the pending insert replays on top of the
# checkpointed (refactored) index.
./target/release/bepi serve "$IR_TMP/index.bepi" --listen 127.0.0.1:0 \
  --wal "$IR_TMP/updates.wal" --log-level info \
  < "$IR_TMP/fifo" > "$IR_TMP/replay.log" 2>&1 3>&- &
IR_PID=$!
IR_ADDR=""
for _ in $(seq 1 100); do
  IR_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$IR_TMP/replay.log" | head -n1)
  [ -n "$IR_ADDR" ] && break
  kill -0 "$IR_PID" 2>/dev/null || { cat "$IR_TMP/replay.log"; exit 1; }
  sleep 0.1
done
[ -n "$IR_ADDR" ] || { echo "restarted daemon never reported its address"; cat "$IR_TMP/replay.log"; exit 1; }
grep -q "WAL replay complete.*path=numeric" "$IR_TMP/replay.log" \
  || { echo "WAL replay did not take the numeric path"; cat "$IR_TMP/replay.log"; exit 1; }
# Oracle: a clean preprocess of the same final edge list (the insert
# undid the remove, so that is the original list). Its fifo gets its own
# auto-allocated fd — fd 3 still holds the replayed daemon's stdin open.
./target/release/bepi preprocess "$IR_TMP/edges.txt" "$IR_TMP/oracle.bepi" --embed-graph
mkfifo "$IR_TMP/fifo_oracle"
exec {IR_OFD}<> "$IR_TMP/fifo_oracle"
./target/release/bepi serve "$IR_TMP/oracle.bepi" --listen 127.0.0.1:0 \
  < "$IR_TMP/fifo_oracle" > "$IR_TMP/oracle.log" 2>&1 3>&- {IR_OFD}>&- &
IR_ORACLE_PID=$!
IR_ORACLE_ADDR=""
for _ in $(seq 1 100); do
  IR_ORACLE_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$IR_TMP/oracle.log" | head -n1)
  [ -n "$IR_ORACLE_ADDR" ] && break
  kill -0 "$IR_ORACLE_PID" 2>/dev/null || { cat "$IR_TMP/oracle.log"; exit 1; }
  sleep 0.1
done
[ -n "$IR_ORACLE_ADDR" ] || { echo "oracle daemon never reported its address"; cat "$IR_TMP/oracle.log"; exit 1; }
for seed in 0 3 17 42 63; do
  curl -sf "http://$IR_ADDR/query?seed=$seed&top=10" > "$IR_TMP/replayed.json"
  curl -sf "http://$IR_ORACLE_ADDR/query?seed=$seed&top=10" > "$IR_TMP/oracle.json"
  cmp "$IR_TMP/replayed.json" "$IR_TMP/oracle.json" \
    || { echo "seed $seed: replayed daemon differs from clean preprocess"; exit 1; }
done
kill "$IR_PID" "$IR_ORACLE_PID" 2>/dev/null || true
wait "$IR_PID" "$IR_ORACLE_PID" 2>/dev/null || true
IR_PID=""; IR_ORACLE_PID=""
exec 3>&-
eval "exec $IR_OFD>&-"
echo "incremental rebuild: numeric path fired, replay survived SIGKILL byte-for-byte"

# The one performance instrument (benchmark/, BENCHMARK.json): the smoke
# preset runs all four workloads on small graphs and exits non-zero on any
# failed or wrong operation — every answer is checked against a raw-graph
# oracle. It gates the schema and correctness, not timing. The benchmark
# crate is a workspace of its own, so its tests are run here explicitly,
# against the `bepi` binary built above.
echo "==> benchmark smoke (benchmark/run.sh --smoke)"
benchmark/run.sh --smoke
echo "==> benchmark crate tests"
CARGO_TARGET_DIR="$PWD/target" BEPI_BIN="$PWD/target/release/bepi" \
  cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> ci OK"
