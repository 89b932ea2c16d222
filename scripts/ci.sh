#!/usr/bin/env bash
# Tier-1 gate: everything a revision must pass before merge.
# Offline-friendly: no network access, no external tools beyond the
# pinned Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== scripts parse =="
# scripts/ab.sh (parent-vs-change pairing for performance claims) is run
# by hand, against a second checkout: keep it at least syntactically alive.
bash -n scripts/ab.sh

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== one pipeline =="
# The switch stages are called from crates/router/src/pipeline.rs
# (SwitchCore) and nowhere else: MmrRouter and FabricNode are adapters
# over it.  A stage call in either adapter's non-test code is a second
# copy of the pipeline creeping back.
for f in crates/router/src/router.rs crates/router/src/fabric.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" |
        grep -nE 'schedule_into|\.transfer\(|forward_one\(|drain_due\('; then
        echo "error: $f calls a pipeline stage directly; go through SwitchCore" >&2
        exit 1
    fi
done

echo "== bench_report smoke + perf gates =="
# Write the next auto-numbered results/BENCH_<n>.json so every CI run
# extends the benchmark trajectory, and gate against the newest
# committed baseline: (1) the instrumented-but-disabled router step —
# telemetry must stay free when disarmed (MMR_TELEMETRY_GATE_PCT, 10%);
# (2) the whole-experiment sweep wall clock — the horizon engine must
# stay within 2% of cycle-by-cycle at 0.9 load and not regress more
# than MMR_SWEEP_GATE_PCT (35%) per-cycle against the baseline's sweep
# section.
BASELINE="$(ls results/BENCH_*.json | sort -V | tail -1)"
cargo run --release -q -p mmr-bench --bin bench_report -- --quick --gate "$BASELINE"

echo "== benchmark self-check =="
# The performance ledger (BENCHMARK.json, benchmark/) is a standalone
# package whose traced pass replays the router pipeline from the layers'
# public constructors.  --check runs its fmt, clippy, the
# replay-equals-MmrRouter tests at 4 and 64 ports, and a 3-round smoke of
# every workload untraced and traced, printing each run's result line.
# A layer-API change that stops the replay compiling or reproducing the
# router fails here instead of silently losing the per-layer metrics.
BENCH_CHECK_LOG="$(mktemp)"
bash benchmark/run.sh --check | tee "$BENCH_CHECK_LOG"
if grep -q '"correct":false' "$BENCH_CHECK_LOG"; then
    echo "error: a benchmark smoke run failed its output checks" >&2
    exit 1
fi
rm -f "$BENCH_CHECK_LOG"
# A traced run is also *invalid* (per-layer block void) when the replay's
# step time leaves a band around MmrRouter's.  The smoke records that
# verdict in benchmark/out/result.json, but is too short to be trusted
# with it on a busy host, so a flagged smoke is re-judged at benchmark
# length before CI fails.
if grep -q '"valid": false' benchmark/out/result.json; then
    for w in cbr4_sat wide64_trunk cbr4_armed mesh16_w1 mesh16_w2 vbr4_sweep; do
        if bash benchmark/run.sh --workload "$w" --seconds 10 --trace 1 |
            grep '^per_layer invalid'; then
            echo "error: traced benchmark run of $w is invalid" >&2
            exit 1
        fi
    done
fi

echo "== fabric scaling gate =="
# Measure the 16-router 4x4 mesh fabric at worker counts 1/2/8 (results
# asserted bit-identical across counts), merge the fabric section into
# the BENCH_<n>.json bench_report just wrote — so the trajectory files
# keep carrying fabric numbers — and gate against the committed
# baseline: on hosts with >= 8 CPUs the 8-worker run must reach
# MMR_FABRIC_GATE_SPEEDUP (2.5x) the 1-worker throughput; on smaller
# hosts that is physically unmeasurable and the clause degrades to the
# MMR_FABRIC_GATE_OVERSUB oversubscription floor.  The 1-worker
# throughput must also stay within MMR_FABRIC_GATE_PCT (35%) of the
# baseline's fabric section, drift-normalized by a single-router
# reference run.
NEWEST="$(ls results/BENCH_*.json | sort -V | tail -1)"
cargo run --release -q -p mmr-bench --bin fabric_report -- --merge "$NEWEST" --gate "$BASELINE"

echo "== trace_report smoke =="
cargo run --release -q -p mmr-bench --bin trace_report
test -s results/telemetry_fig5_cbr.json
test -s results/trace_fig5_cbr.jsonl
test -s results/telemetry_chaos.json
test -s results/trace_chaos.jsonl

echo "== observatory artifacts =="
# Run the Fig. 5 mix with the QoS observatory armed and emit both
# observability artifacts.  metrics_dump self-validates each one —
# the Prometheus exposition re-parses (declared families, monotone
# cumulative buckets, +Inf/_count agreement) and the dashboard's
# inline JSON + panels check out — and exits non-zero on any failure;
# the trajectory panel reads the same BENCH_<n>.json files the perf
# gate above maintains.
cargo run --release -q -p mmr-bench --bin metrics_dump
test -s results/metrics.prom
test -s results/overview.html

echo "== chaos smoke =="
cargo test --release -q -p mmr-core --test chaos
cargo run --release -q -p mmr-bench --bin chaos_report
test -s results/chaos_report.txt
test -s results/chaos_report.json

echo "== conformance gate =="
# Evaluate the committed paper-claim manifest (crates/core/src/
# conformance.rs) over the quick-fidelity multi-seed ensemble; the
# binary exits non-zero on any claim regression, naming the claim and
# its margin.  `--list-claims` prints the manifest without simulating.
# The manifest carries the Frontier claims (COA vs the exact MWM oracle,
# the greedy 1/2-approx, frame-fair and crosspoint-queued arbiters) and
# this is their only gate, so each must show up as a PASS line.
cargo run --release -q -p mmr-bench --bin conformance_report -- --list-claims
cargo run --release -q -p mmr-bench --bin conformance_report
test -s results/conformance.json
test -s results/conformance.txt
for id in coa-within-factor-of-mwm mwm-delay-floor mwm-approx-tracks-exact \
    cq-no-hol-blocking frame-fair-low-class-parity; do
    if ! grep -q "^PASS frontier\.$id " results/conformance.txt; then
        echo "error: results/conformance.txt has no PASS line for frontier.$id" >&2
        exit 1
    fi
done

echo "== workload pack gate =="
# Compile every declarative scenario pack under workloads/ (the
# workload language, crates/core/src/workload_lang.rs), sweep it at
# quick fidelity, and enforce its typed claims at the ensemble median.
# `--list-packs` validates the documents without simulating (a
# malformed pack fails CI right there); `--gate` exits non-zero on any
# claim regression, naming the claim and its margin.
cargo run --release -q -p mmr-bench --bin workload_runner -- --list-packs
cargo run --release -q -p mmr-bench --bin workload_runner -- --gate
test -s results/workload_paper_fig5.json
test -s results/workload_wimax_classes.json
test -s results/workload_noc_fair.json
test -s results/workload_paper_fig5.html

if [[ "${MMR_CI_NIGHTLY:-0}" == "1" ]]; then
    echo "== nightly: property suites at 4x cases =="
    # MMR_PROPTEST_CASES multiplies every proptest!-suite's configured
    # case count (see tests/README.md); generation is deterministic per
    # test name, so this replays the 1x prefix and extends it.
    MMR_PROPTEST_CASES=4 cargo test --release -q -p mmr-core \
        --test arbiter_properties --test qos_properties \
        --test flow_control --test differential --test workload_lang \
        --test occupancy_differential --test injection_differential
fi

echo "== CI green =="
