#!/usr/bin/env bash
# Tier-1 gate: everything a revision must pass before merge.
# Offline-friendly: no network access, no external tools beyond the
# pinned Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

# Wall clock per stage: `stage NAME` closes the running stage (printing
# its elapsed seconds) and opens the next; the table before "CI green"
# lists them all.
STAGES=()
STAGE=""
stage() {
    if [[ -n "$STAGE" ]]; then
        echo "-- $STAGE: $((SECONDS - STAGE_START)) s"
        STAGES+=("$((SECONDS - STAGE_START))|$STAGE")
    fi
    STAGE="$1"
    STAGE_START=$SECONDS
    [[ -z "$STAGE" ]] || echo "== $STAGE =="
}

stage "cargo fmt --check"
cargo fmt --all -- --check

stage "scripts parse"
# scripts/ab.sh (parent-vs-change pairing for performance claims) is run
# by hand, against a second checkout: keep it at least syntactically alive.
bash -n scripts/ab.sh
bash -n scripts/loc.sh
bash -n scripts/callers.sh

stage "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo build --release"
cargo build --release

stage "cargo test"
cargo test -q

stage "one binary"
# Scenarios are workload packs and artifacts are `mmr gate` outputs: the
# bench crate ships `mmr` plus the two performance gates, and no
# print-only binary comes back beside them.
BINS="$(cd crates/bench/src/bin && ls | sort | tr '\n' ' ')"
if [[ "$BINS" != "bench_report.rs fabric_report.rs mmr.rs " ]]; then
    echo "error: crates/bench/src/bin holds $BINS; expected bench_report.rs fabric_report.rs mmr.rs" >&2
    exit 1
fi

stage "one pipeline"
# The switch stages are called from crates/router/src/pipeline.rs
# (SwitchCore) and nowhere else: FabricNode is the one adapter over it.
# A layer call in either module's non-test code is a second copy of the
# pipeline creeping back.
for f in crates/router/src/router.rs crates/router/src/fabric.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" |
        grep -nE 'schedule_into|\.transfer\(|forward_one\(|drain_due\('; then
        echo "error: $f calls a pipeline stage directly; go through SwitchCore" >&2
        exit 1
    fi
done
# One injection path: InjectionCalendar::drain_due is the only non-test
# code that drains a traffic source (the benchmark's replay, outside
# crates/, mirrors the stage by hand).
for f in $(find crates/*/src examples -name '*.rs' ! -path crates/traffic/src/calendar.rs); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' | grep -v 'fn drain_until(' |
        grep -E 'drain_until\('; then
        echo "error: $f drains a source itself; go through InjectionCalendar::drain_due" >&2
        exit 1
    fi
done
# MmrRouter is the one-node fabric: it steps through the node adapter,
# so router.rs calls no SwitchCore stage method either.
if sed '/#\[cfg(test)\]/,$d' crates/router/src/router.rs |
    grep -nE '\b(inject|select|arbitrate|cross|forward|return_credits)\('; then
    echo "error: router.rs steps a SwitchCore stage; MmrRouter steps its one-node Fabric" >&2
    exit 1
fi
# One builder: the one-node line goes through Fabric::build like every
# other topology, so fabric.rs's non-test code tests no stage count of 1.
if sed '/#\[cfg(test)\]/,$d' crates/router/src/fabric.rs | grep -vE '^\s*//' |
    grep -nE 'stages(: | == )1\b'; then
    echo "error: fabric.rs special-cases the one-stage line; build it like any topology" >&2
    exit 1
fi
# One run loop: the engine steps every cycle.  The retired event-horizon
# engine left two shims that only benchmark/src/sut.rs may use,
# `Runner::run_horizon` (a call to `run`) and `run_parallel`'s ignored
# last flag: nothing here calls the one or passes `true` to the other.
for f in $(find crates/*/src crates/*/tests tests examples -name '*.rs'); do
    case "$f" in
        crates/*/src/*) code="$(sed '/#\[cfg(test)\]/,$d' "$f")" ;;
        *) code="$(cat "$f")" ;;
    esac
    code="$(grep -vE '^\s*//' <<<"$code" | tr '\n' ' ')"
    calls="$(grep -oE '(fn )?run_horizon\b' <<<"$code" | grep -v '^fn ' || true)"
    flags="$(grep -oE 'run_parallel\(([^()]|\([^()]*\))*\)' <<<"$code" |
        grep -E ',\s*true\s*,?\s*\)$' || true)"
    if [[ -n "$calls$flags" ]]; then
        echo "error: $f runs a retired engine shim; call Runner::run / run_parallel(.., false)" >&2
        exit 1
    fi
done
# Armed or absent: faults, telemetry and kernel probes have no "off"
# mode.  A subsystem that is not armed is an empty Option, so no
# non-test code under crates/*/src builds a disabled or inactive
# instance, or switches a probe off.
for f in $(find crates/*/src -name '*.rs'); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' |
        grep -nE 'fn (disabled|inactive|set_probe_enabled)\('; then
        echo "error: $f defines a disarmed mode; a subsystem that is not armed is absent" >&2
        exit 1
    fi
done
# No telemetry substrate: the armed router's counters, stage figures
# and snapshot windows are fixed arrays indexed by its own Counter and
# Stage enums, so no non-test code under crates/*/src defines a general
# counter registry, stage profiler, snapshot ring or clock trait.
for f in $(find crates/*/src -name '*.rs'); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' |
        grep -nE '\b(struct (Registry|StageProfiler|SnapshotRing)|trait Clock)\b'; then
        echo "error: $f defines a telemetry substrate; keep fixed arrays in the armed router" >&2
        exit 1
    fi
done
# Ratchet: the non-test line count (scripts/loc.sh) may not grow past
# LOC_CEILING.  Lowering the ceiling to a new, smaller count is always
# allowed; raising it means shipping code that no deletion paid for.
LOC_CEILING=19810
LOC="$(bash scripts/loc.sh)"
echo "non-test lines under crates/*/src: $LOC (ceiling $LOC_CEILING)"
if ((LOC > LOC_CEILING)); then
    echo "error: $LOC non-test lines under crates/*/src exceed the ceiling of $LOC_CEILING" >&2
    exit 1
fi

stage "shipped caller"
# Every non-test `pub` / `pub(crate)` fn under crates/*/src is named in
# shipped code (non-test crates/*/src, crates/*/benches, benchmark/src,
# examples) besides its definition, or scripts/callers.allow lists it
# with its reason; a stale allow-list entry fails too.  Methods match
# by `Type::name` where the receiver's declared type is known, else by
# name, so the check is a lower bound (see the script).
bash scripts/callers.sh

stage "bench_report smoke + perf gates"
# Write the next auto-numbered results/BENCH_<n>.json so every CI run
# extends the benchmark trajectory, and gate against the newest
# committed baseline: (1) the instrumented-but-disabled router step —
# telemetry must stay free when disarmed (MMR_TELEMETRY_GATE_PCT, 10%);
# (2) the whole-experiment sweep wall clock — the run loop must not
# regress more than MMR_SWEEP_GATE_PCT (35%) per cycle against the
# baseline sweep section's `naive_s` rows.
BASELINE="$(ls results/BENCH_*.json | sort -V | tail -1)"
cargo run --release -q -p mmr-bench --bin bench_report -- --quick --gate "$BASELINE"

stage "benchmark self-check"
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

stage "fabric scaling gate"
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

stage "claim gate"
# Every workload pack under workloads/ — the paper's Fig. 5/7/8/9 and
# Table 1 claims, the arbiter frontier, the ablations and the scenario
# packs — runs at quick fidelity through one experiment cache, and every
# typed claim is judged at its ensemble median.  `mmr gate --list`
# validates the pack set without simulating (a malformed pack, a
# duplicate claim id or an unresolvable cross-pack panel fails CI right
# there) and prints every claim id; `mmr gate` exits non-zero on any
# claim regression, naming the claim and its margin.  Every pack file
# must leave its results, and every listed id a PASS line, so a new pack
# is gated without editing this script.
#
# The gate also writes each single-router pack's artifacts from one
# armed run at its representative point, and exits non-zero when one
# fails its self-check: the Prometheus exposition re-parses (declared
# families, monotone cumulative buckets, +Inf/_count agreement) and the
# dashboard's inline JSON and panels check out.  paper_fig5's point is
# the Fig. 5 mix at load 0.7 under COA; chaos's is the factor-4 fault
# run, whose grant trace ends at the fault-window end and so holds fault
# detections and quarantines.
CATALOG="$(cargo run --release -q -p mmr-bench --bin mmr -- gate --list)"
echo "$CATALOG"
cargo run --release -q -p mmr-bench --bin mmr -- gate
for toml in workloads/*.toml; do
    test -s "results/workload_$(basename "$toml" .toml).json"
done
test -s results/workload_fig5.html
for pack in paper_fig5 chaos; do
    for ext in prom html telemetry.json trace.jsonl; do
        test -s "results/workload_$pack.$ext"
    done
done
CLAIM_IDS="$(sed -n 's/^    \([^ ]*\)$/\1/p' <<<"$CATALOG")"
test -n "$CLAIM_IDS"
for id in $CLAIM_IDS; do
    if ! awk -v id="$id" '$1 == "PASS" && $2 == id { found = 1 } END { exit !found }' \
        results/workload_*.txt; then
        echo "error: no results/workload_*.txt has a PASS line for $id" >&2
        exit 1
    fi
done

if [[ "${MMR_CI_NIGHTLY:-0}" == "1" ]]; then
    stage "nightly: property suites at 4x cases"
    # MMR_PROPTEST_CASES multiplies every proptest!-suite's configured
    # case count (see tests/README.md); generation is deterministic per
    # test name, so this replays the 1x prefix and extends it.
    MMR_PROPTEST_CASES=4 cargo test --release -q -p mmr-core \
        --test arbiter_properties --test qos_properties \
        --test flow_control --test differential --test workload_lang \
        --test occupancy_differential --test injection_differential
fi

stage ""
echo "== stage wall clock (s) =="
for row in "${STAGES[@]}"; do
    printf '%6s  %s\n' "${row%%|*}" "${row#*|}"
done
echo "== CI green =="
