#!/usr/bin/env bash
# The benchmark's one command. Builds the two binaries from source, then
#   run.sh --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
#   run.sh compare <base-dir> <change-dir> [--manifest BENCHMARK.json]
#   run.sh            every workload, untraced then traced, at seed 11
# `--trace 1` is served by the binary that installs the counting allocator;
# everything else by the one that keeps the system allocator.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bins >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release"

if [ "$#" -eq 0 ]; then
    for workload in pipeline_msr homed_heimdall homed_hedging wide_sf10; do
        "$bin/bench" --workload "$workload"
        "$bin/bench_traced" --workload "$workload"
    done
    exit 0
fi

traced=0
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" != "0" ]; then traced=1; fi
    prev="$arg"
done
if [ "$traced" -eq 1 ]; then
    exec "$bin/bench_traced" "$@"
fi
exec "$bin/bench" "$@"
