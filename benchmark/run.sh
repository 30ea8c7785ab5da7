#!/usr/bin/env bash
# The one command: builds `bepi` at the repository root and the benchmark
# beside it, then hands every argument to the benchmark binary.
#
#   benchmark/run.sh [--seed N] [--workload W] [--smoke]      the suite
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                  one run, JSON last line
#   benchmark/run.sh repeat --runs 5 | compare A.json B.json
#
# Must be started from the repository root (paths in BENCHMARK.json and
# the default output directory benchmark/out are relative to it).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ] || [ ! -f "$root/benchmark/Cargo.toml" ]; then
    echo "benchmark/run.sh: run from the root of a bepi-rs checkout (no Cargo.toml + crates/ here)" >&2
    exit 2
fi

# One target directory for both builds, so the benchmark finds `bepi` as
# its sibling; made absolute because the two builds start in different
# directories.
target=${CARGO_TARGET_DIR:-target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet -p bepi-cli >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

exec "$target/release/benchmark" "$@"
