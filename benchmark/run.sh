#!/usr/bin/env bash
# One benchmark for the MMR simulator.  Run from anywhere; see README.md.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
#   run.sh [--seed N] [--seconds S]                        every workload, untraced then traced
#   run.sh --check                                         fmt, clippy, unit tests, 3-round smoke
#   run.sh --regold                                        rewrite golden.json at the default seed
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
BENCH_RUSTC="$(rustc --version)"
export BENCH_RUSTC
manifest=benchmark/Cargo.toml
workloads=(cbr4_sat wide64_trunk cbr4_armed mesh16_w1 mesh16_w2 vbr4_sweep)

# Build one binary and run it.  `bench` is always built first and alone: a
# change to the layer APIs that breaks `bench-trace` (the replay) costs the
# per-layer block, never the end-to-end numbers.
run_bin() {
    local bin="$1"
    shift
    cargo build --release --offline --quiet --manifest-path "$manifest" --bin "$bin"
    "$CARGO_TARGET_DIR/release/$bin" "$@"
}

mode=all
trace=0
for ((i = 1; i <= $#; i++)); do
    case "${!i}" in
    --check) mode=check ;;
    --regold) mode=regold ;;
    --workload) mode=one ;;
    --trace)
        j=$((i + 1))
        trace="${!j:-}"
        ;;
    esac
done

case "$mode" in
one)
    case "$trace" in
    0) run_bin bench "$@" ;;
    1) run_bin bench-trace "$@" ;;
    *)
        echo "run.sh: --trace must be 0 or 1" >&2
        exit 2
        ;;
    esac
    ;;
regold)
    run_bin bench --regold
    ;;
all)
    for w in "${workloads[@]}"; do
        run_bin bench --workload "$w" "$@"
    done
    for w in "${workloads[@]}"; do
        run_bin bench-trace --workload "$w" "$@"
    done
    echo "every metric of every workload: benchmark/out/result.json"
    ;;
check)
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --release --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
    # Quartile estimator, span aggregation, parity guard, and the replay's
    # equivalence with MmrRouter at 4 and 64 ports.
    cargo test --release --offline --quiet --manifest-path "$manifest"
    for w in "${workloads[@]}"; do
        run_bin bench --workload "$w" --seed 7 --seconds 0 | tail -n 1
        run_bin bench-trace --workload "$w" --seed 7 --seconds 0 | tail -n 1
    done
    ;;
esac
