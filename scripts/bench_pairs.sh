#!/usr/bin/env bash
# Alternating parent/change pairs over benchmark/run.sh — the measurement
# ROADMAP demands of every claimed gain: drift on a shared host is larger
# than most gains, so the two sides are run back to back, the order
# flipped every pair, and the verdict read from wins and quartiles.
#
#   scripts/bench_pairs.sh <parent-ref> [--workload W] [--pairs N]
#
# The change is this working tree; the parent is `git archive <parent-ref>`
# unpacked once per resolved commit under the change's target directory
# (target/bench-parent/<sha>/, tree and target directory), so checking
# several workloads against one parent builds it once; `cargo clean`
# removes it. Each pair runs
#   benchmark/run.sh --workload W --seed <pair> --seconds 16 --trace 0
# from both trees. Defaults: exact-cold, 10 pairs. Nothing is reported if
# any run failed or answered wrongly. Not part of ci.sh.
#
# Right after each run, a traced exact-cold smoke run from the same tree
# reads bench.host_triad_gbps, the memory bandwidth the shared host gives
# at that moment (an untraced run does not report it). It is printed per
# pair and as a median per side so a pair run on a drifted host shows; it
# is not part of the verdict.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench_pairs.sh <parent-ref> [--workload W] [--pairs N]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_ref=$1
shift
workload=exact-cold
pairs=10
while [ $# -gt 0 ]; do
    case $1 in
    --workload) workload=${2:?--workload needs a value} ;;
    --pairs) pairs=${2:?--pairs needs a value} ;;
    *) usage ;;
    esac
    shift 2
done
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

# name:direction, in the order BENCHMARK.json declares them.
metrics="setup_s:lower index_bytes:lower query_p50_ms:lower sat_qps:higher"

change=$(pwd)
change_target=${CARGO_TARGET_DIR:-$change/target}
case $change_target in /*) ;; *) change_target=$change/$change_target ;; esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
parent_sha=$(git rev-parse --verify "$parent_ref^{commit}")
parent_home=$change_target/bench-parent/$parent_sha
parent=$parent_home/tree
parent_target=$parent_home/target
if [ ! -d "$parent" ]; then
    mkdir -p "$parent_home"
    rm -rf "$parent_home/unpack"
    mkdir "$parent_home/unpack"
    git archive "$parent_sha" | tar -x -C "$parent_home/unpack"
    mv "$parent_home/unpack" "$parent"
fi

# run_side <tree> <target-dir> <args...>: benchmark/run.sh from that tree.
run_side() {
    local tree=$1 target=$2
    shift 2
    (cd "$tree" && CARGO_TARGET_DIR=$target benchmark/run.sh "$@")
}

echo "building parent ($parent_ref) and change" >&2
run_side "$parent" "$parent_target" help >/dev/null
run_side "$change" "$change_target" help >/dev/null

# contract_line <side> <pair> <args...>: the last stdout line of one clean
# run of that side's tree; exits the script if the run failed or was wrong.
contract_line() {
    local side=$1 pair=$2 tree target line
    shift 2
    case $side in
    parent) tree=$parent target=$parent_target ;;
    change) tree=$change target=$change_target ;;
    esac
    if ! line=$(run_side "$tree" "$target" --seed "$pair" "$@" 2>"$tmp/stderr" | tail -n 1); then
        cat "$tmp/stderr" >&2
        echo "bench_pairs: $side run of pair $pair failed; nothing reported" >&2
        exit 1
    fi
    case $line in
    '{"correct":true,'*'"failed":0,'*) echo "$line" ;;
    *)
        echo "bench_pairs: $side run of pair $pair was not clean; nothing reported: $line" >&2
        exit 1
        ;;
    esac
}

# value <metric>: that metric's value in the contract line on stdin.
value() {
    sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"
}

# measure <side> <pair>: one run, then the host triad; appends each metric
# to $tmp/<metric>.<side> and the triad to $tmp/triad.<side>.
measure() {
    local side=$1 pair=$2 line m
    line=$(contract_line "$side" "$pair" --workload "$workload" --seconds 16 --trace 0)
    for m in $metrics; do
        value "${m%%:*}" <<<"$line" >>"$tmp/${m%%:*}.$side"
    done
    contract_line "$side" "$pair" --workload exact-cold --smoke --trace 1 --out "$tmp/triad" |
        value bench.host_triad_gbps >>"$tmp/triad.$side"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do measure "$side" "$pair"; done
    printf 'pair %2d (%s first)' "$pair" "${order%% *}"
    for m in $metrics; do
        name=${m%%:*}
        printf '  %s %s -> %s' "$name" "$(tail -n 1 "$tmp/$name.parent")" "$(tail -n 1 "$tmp/$name.change")"
    done
    printf '  host_triad_gbps %s -> %s\n' "$(tail -n 1 "$tmp/triad.parent")" "$(tail -n 1 "$tmp/triad.change")"
done

# quartiles <file>: "q1 median q3", linear interpolation between ranks.
quartiles() {
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "%.9g %.9g %.9g\n", q(0.25), q(0.5), q(0.75) }'
}

echo
echo "$workload, $pairs pairs, parent $parent_ref -> change (working tree)"
for m in $metrics; do
    name=${m%%:*}
    read -r wins losses < <(paste "$tmp/$name.parent" "$tmp/$name.change" | awk -v dir="${m##*:}" '
        { d = (dir == "lower") ? $1 - $2 : $2 - $1; if (d > 0) w++; else if (d < 0) l++ }
        END { print w + 0, l + 0 }')
    read -r pq1 pmed pq3 < <(quartiles "$tmp/$name.parent")
    read -r cq1 cmed cq3 < <(quartiles "$tmp/$name.change")
    printf '%-13s change wins %d/%d (loses %d)  parent %s [%s, %s]  change %s [%s, %s]\n' \
        "$name" "$wins" "$pairs" "$losses" "$pmed" "$pq1" "$pq3" "$cmed" "$cq1" "$cq3"
done
read -r _ pmed _ < <(quartiles "$tmp/triad.parent")
read -r _ cmed _ < <(quartiles "$tmp/triad.change")
printf 'bench.host_triad_gbps (host drift, not a verdict)  parent %s  change %s\n' "$pmed" "$cmed"
