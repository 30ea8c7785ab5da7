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
# LU against its Coo-assembled reference at 1-64 threads, the numeric
# rebuild against the plan-frozen preprocess at 1-8 threads, the fused
# Schur product) run here by name, in release codegen.
echo "==> preprocess bit-identity"
cargo test --offline --release -q -p bepi-incr -p bepi-reorder -p bepi-solver -p bepi-sparse \
  -p bepi-core -- fused_builders labels_and_blocks_are_pinned parallel_factor_is_bit_identical \
  numeric_rebuild_is_bit_identical sub_spgemm_is_bit_identical schur_complement_is_bit_identical

# The observability surface's own tests, by name: golden bodies for the
# daemon's /metrics (counters, latency histogram, live block), /version,
# /debug/slow and /debug/trace (fixed inputs, exact bytes, unchanged by
# any renderer refactor); the README glossary drift check over a daemon's
# full exposition; _count against the +Inf bucket while another thread
# observes; and the per-request catch_unwind driven by a real panic, in
# release codegen (debug builds assert the crafted index at load): in
# process, on a pool worker and on a kept-alive connection that survives
# it, and through `bepi serve --mmap`; each panicking request must get a
# 500 with its request id, and stderr one error line naming the request
# id, the path, the thread and the panic message.
echo "==> observability golden, drift and panic tests"
cargo test --offline -q -p bepi-tests --test golden --test obs -- golden metrics_glossary
cargo test --offline -q -p bepi-server -- latency_count_matches_inf_bucket
cargo test --offline --release -q -p bepi-tests --test serve_panic
cargo test --offline --release -q -p bepi-cli --test serve_panic_log

# Observability end-to-end gate: start a real daemon with its trace
# export on, drive traced queries through it, and validate the /metrics
# exposition with the in-tree checker (the wire format an external
# Prometheus scraper sees). Then send one traced query with a client
# X-Request-Id and require that id in the response header, in
# /debug/slow and in the exported trace file.
echo "==> /metrics exposition and request-id check (bepi serve + metrics_check)"
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
  --slow-query-ms 0 --log-level info --trace-export "$OBS_TMP/trace.json" \
  < "$OBS_FIFO" > "$OBS_LOG" 2>&1 9>&- &
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
python3 - "$OBS_ADDR" "$OBS_TMP/trace.json" <<'EOF'
import json, sys, urllib.request

addr, export_path = sys.argv[1], sys.argv[2]
rid = "00112233445566778899aabbccddeeff"
req = urllib.request.Request(
    f"http://{addr}/query?seed=5&top=4&trace=1", headers={"X-Request-Id": rid}
)
with urllib.request.urlopen(req, timeout=30) as r:
    assert r.headers["X-Request-Id"] == rid, f"header: {r.headers['X-Request-Id']}"
    doc = json.loads(r.read().decode())
assert doc["trace"]["request_id"] == rid, doc
with urllib.request.urlopen(f"http://{addr}/debug/slow", timeout=30) as r:
    slow = r.read().decode()
assert rid in slow, f"/debug/slow missing {rid}: {slow}"
with open(export_path) as f:
    assert rid in f.read(), f"trace export missing {rid}"
print(f"request id {rid} in the response header, /debug/slow and the trace export")
EOF
exec 9>&-   # stdin EOF → graceful shutdown
wait "$OBS_PID"
OBS_PID=""

# S is stored as a table of its distinct values plus a u16 code per
# non-zero whenever it has at most 2^16 of them, and that form is only
# worth having because every product it feeds is bit-identical to the
# plain CSR's. The tests that pin that contract (single and 8-wide SpMV
# against Csr on -0.0/subnormal/1e±300 values, the per-thread widened
# table, GMRES on a coded operator, to_csr round trip, deterministic
# encode, the 65 537-value fallback, plain-S files on heap and mmap,
# exact byte accounting, hostile coded sections) all carry "coded"
# in their names and run here in release codegen.
echo "==> coded-S bit-identity"
cargo test --offline --release -q -p bepi-sparse -p bepi-solver -p bepi-core -- coded

# S's pattern is stored narrow (u32 row pointers, u16 column indices)
# whenever it has at most 2^16 columns, and that form too is only worth
# having because every answer it feeds is bit-identical to the wide one's.
# The tests that pin that contract (single and 8-wide SpMV on both pattern
# widths with plain and coded values, to_csr/row_iter round trips, the
# 65 536/65 537-column selection, ILU(0) factors on a narrow S, a numeric
# rebuild's narrow S, wide-pattern files (an S past 2^16 columns) on heap
# and mmap, exact byte accounting, crafted patterns failing the heap load) all carry
# "narrow" in their names and run here in release codegen.
echo "==> narrow-S bit-identity"
cargo test --offline --release -q -p bepi-sparse -p bepi-solver -p bepi-core -p bepi-incr -- narrow

# Every stored matrix (L1^-1, U1^-1, S, H12, H21, H31, H32) is one frozen
# type, narrow and value-coded over one value table shared by the whole
# index. The tests that pin that contract (single and 8-wide SpMV on
# H-shaped blocks coded over a shared table, the shared encoder's
# overflow rollback, frozen H11 factors solving like the builder's, one
# table across preprocess/numeric rebuild/heap/mmap with byte-identical
# re-save and rebuild from either load, the memory report counting the
# table once against the file's sections, hostile matrix sections, the
# section-name layout) carry "compact" in their names, as do the tests of
# the per-node layout: no factor rows for 1 x 1 H11 blocks (the frozen
# solve against a dense H11^-1 and the builder, on fresh/rebuilt/heap/mmap
# indexes; hostile 1 x 1 sections; the exact-cold counts), and of the
# forms that store what a matrix carries (per-column codes and stored rows
# in every kernel against Csr, the larger-H11-block list, their hostile
# sections). The loader reads only the layout the writer writes: the
# "old_formats" test fails v1-v5 files and v6 files from before the
# larger-H11-block list (block sizes, two permutation maps, f64 ILU(0)
# factors) on heap and mmap with the one rebuild error. The heap loader's
# permutation, ILU(0) diagonal, row-order and block checks and the one-map
# permutation scatter ride along. All run here in release codegen.
echo "==> compact-index bit-identity"
cargo test --offline --release -q -p bepi-sparse -p bepi-solver -p bepi-core -p bepi-incr -p bepi-map \
  -- compact old_formats heap_load_rejects_crafted heap_load_rejects_unsorted check_diag_pos \
  permute_vec_scatter trusted_map_skips

# Memory-mapped serving gate: preprocess once, boot one daemon that
# loads the index onto the heap and one that maps the same file, and
# require byte-identical top-k responses. This is the --mmap acceptance
# bar run against real HTTP, not just the unit suite. It runs twice: on
# the default (BePI-S) index, and on a `--variant full` index, whose
# mapped ILU(0) sections have no other end-to-end gate. Each index must
# also list its value-coded S sections and its narrow S pattern sections in
# `bepi stats --mmap`, and every other stored matrix's narrow pattern and
# value codes (per non-zero, or per column for an H block), the compact
# forms (some H block's column codes, some H block's stored row ids) and
# the larger-H11-block list, and no `block_sizes` section. The graph has
# dead ends only a few of which have an in-link, so H31/H32 store their
# non-empty rows only.
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
    # 32 dead ends (96..127), of which only 128 // 32 - 1 = 3 have an
    # in-link, and the last node names the node count.
    for i in range(3):
        f.write(f"{i * 11} {96 + i * 5}\n")
    f.write("95 127\n")
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
# The rows of `bepi stats`' "index memory by section" table, and the same
# rows with the heap and mapped columns swapped (the name takes 10
# characters, each column 12, one space between).
memory_table() { sed -n '/^--- index memory by section ---$/,/^total /p' "$1" | tail -n +3; }
swap_columns() { awk '{ print substr($0, 1, 11) substr($0, 25, 12) " " substr($0, 12, 12) }'; }
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
    for part in indptr32 indices16; do
      grep -q "^$matrix.$part " "$MMAP_TMP/stats.txt" \
        || { echo "$VARIANT_NAME: bepi stats --mmap lists no $matrix.$part section"; cat "$MMAP_TMP/stats.txt"; exit 1; }
    done
    codes="value_codes"
    case $matrix in h*) codes="value_codes\|column_codes" ;; esac
    grep -q "^$matrix\.\($codes\) " "$MMAP_TMP/stats.txt" \
      || { echo "$VARIANT_NAME: bepi stats --mmap lists no $matrix value codes"; cat "$MMAP_TMP/stats.txt"; exit 1; }
  done
  # The H blocks store one code per column, H31/H32 their non-empty rows
  # only, and H11's block structure is the larger-block list.
  for section in 'h[1-3][12]\.column_codes' 'h3[12]\.row_ids' 'h11\.larger_blocks'; do
    grep -q "^$section " "$MMAP_TMP/stats.txt" \
      || { echo "$VARIANT_NAME: bepi stats --mmap lists no $section section"; cat "$MMAP_TMP/stats.txt"; exit 1; }
  done
  if grep -q "^block_sizes " "$MMAP_TMP/stats.txt"; then
    echo "$VARIANT_NAME: a fresh index still stores block_sizes"; cat "$MMAP_TMP/stats.txt"; exit 1
  fi
  # The 1 x 1 H11 blocks keep one coded U1^-1 value each, and the index
  # stores one permutation map.
  grep -q "^u_inv.singleton_codes " "$MMAP_TMP/stats.txt" \
    || { echo "$VARIANT_NAME: bepi stats --mmap lists no u_inv.singleton_codes section"; cat "$MMAP_TMP/stats.txt"; exit 1; }
  if grep -q "^perm.old_of_new " "$MMAP_TMP/stats.txt"; then
    echo "$VARIANT_NAME: a fresh index still stores perm.old_of_new"; cat "$MMAP_TMP/stats.txt"; exit 1
  fi
  # Every byte is counted once, on the heap or in the mapping: the heap
  # load's memory table is the --mmap table with its columns swapped.
  ./target/release/bepi stats "$INDEX" > "$MMAP_TMP/stats-heap.txt"
  memory_table "$MMAP_TMP/stats.txt" | swap_columns > "$MMAP_TMP/memory-swapped.txt"
  grep -q '^total ' "$MMAP_TMP/memory-swapped.txt" \
    && memory_table "$MMAP_TMP/stats-heap.txt" | diff - "$MMAP_TMP/memory-swapped.txt" \
    || { echo "$VARIANT_NAME: heap and --mmap memory tables are not each other's swap"; exit 1; }
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

# Reproducible index gate: an index file is a function of the graph and
# the config (META stores no wall times), so two preprocesses of one
# graph must write byte-identical files, with and without the embedded
# graph. The graph is a seeded power-law edge list with dead ends.
echo "==> reproducible index (two bepi preprocess runs, cmp)"
REPRO_TMP=$(mktemp -d)
trap 'cleanup_obs; cleanup_mmap; rm -rf "$REPRO_TMP"' EXIT
python3 - "$REPRO_TMP/edges.txt" <<'EOF'
import random, sys
rng = random.Random(44)
n, targets = 3000, [0, 1]
with open(sys.argv[1], "w") as f:
    for u in range(2, n):
        if u % 9 == 0:
            continue  # a dead end
        for _ in range(rng.randint(1, 6)):
            v = rng.choice(targets)
            f.write(f"{u} {v}\n")
            targets.append(v)
        targets.append(u)
EOF
for flags in "" "--embed-graph"; do
  for run in 1 2; do
    ./target/release/bepi preprocess "$REPRO_TMP/edges.txt" "$REPRO_TMP/index$run.bepi" \
      $flags > /dev/null
  done
  cmp "$REPRO_TMP/index1.bepi" "$REPRO_TMP/index2.bepi" \
    || { echo "two preprocesses ${flags:+($flags) }of one graph wrote different files"; exit 1; }
  echo "preprocess ${flags:+$flags }twice: byte-identical index files"
done

# CLI error paths, end to end: a runtime error (here a corrupt index) is
# one `error:` line without the usage text, and a flag the subcommand
# does not read is an argument error.
echo "==> CLI error paths (corrupt index, unread flag)"
cp "$REPRO_TMP/index1.bepi" "$REPRO_TMP/corrupt.bepi"
printf 'NOPE' | dd of="$REPRO_TMP/corrupt.bepi" bs=1 seek=0 conv=notrunc status=none
if ./target/release/bepi serve "$REPRO_TMP/corrupt.bepi" 5 2> "$REPRO_TMP/serve.err"; then
  echo "bepi serve answered from a corrupt index"; exit 1
fi
if grep -q "usage:" "$REPRO_TMP/serve.err"; then
  echo "a runtime error printed the usage text:"; cat "$REPRO_TMP/serve.err"; exit 1
fi
if ./target/release/bepi preprocess "$REPRO_TMP/edges.txt" "$REPRO_TMP/out.bepi" --mmap \
  2> "$REPRO_TMP/preprocess.err"; then
  echo "bepi preprocess accepted --mmap, which it does not read"; exit 1
fi
grep -q "unknown flag: --mmap for bepi preprocess" "$REPRO_TMP/preprocess.err" \
  || { echo "unexpected error for preprocess --mmap:"; cat "$REPRO_TMP/preprocess.err"; exit 1; }
echo "runtime error without usage; unread flag rejected"
rm -rf "$REPRO_TMP"

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

# Incremental-rebuild drill: boot a live daemon with a WAL, push a
# numeric-safe edge batch through an explicit rebuild, and require the
# symbolic/numeric split to fire — bepi_numeric_rebuilds_total up by one,
# /version reporting rebuild_kind=numeric (no rebuild_reason) +
# rebuild_trigger=explicit.
# Then acknowledge a second batch, SIGKILL before its rebuild, restart on
# the same WAL, and require the replayed daemon (whose replay must also
# take the numeric path) to answer byte-for-byte like a daemon cleanly
# preprocessed from the same final edge list: the second batch undoes the
# first, so two chained numeric rebuilds under the checkpoint's frozen
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
trap 'cleanup_obs; cleanup_mmap; cleanup_sat; cleanup_ir' EXIT
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
# checkpointed (numerically rebuilt) index.
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
