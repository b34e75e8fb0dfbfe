#!/usr/bin/env bash
# Every workload, untraced then traced, each run in a process of its own.
# One JSON line per run is appended to --out; two such files are what
# `churnlab-benchmark --compare` reads.
#
#   benchmark/run.sh [--seed N] [--seconds N] [--out FILE]
set -euo pipefail
cd "$(dirname "$0")/.."

seed=42
seconds=28
out=benchmark/out/runs.jsonl
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        *) echo "usage: benchmark/run.sh [--seed N] [--seconds N] [--out FILE]" >&2; exit 2 ;;
    esac
done

# One target directory for the repository: nothing further to ignore or
# clean. (This package's units carry their own hashes there, so the root
# workspace's builds neither reuse nor disturb them.)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
mkdir -p "$(dirname "$out")"

status=0
for workload in fused-small fused-huge replay-small service-small; do
    for trace in 0 1; do
        "$CARGO_TARGET_DIR/release/churnlab-benchmark" --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" || status=1
    done
done
exit $status
