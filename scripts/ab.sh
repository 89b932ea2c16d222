#!/usr/bin/env bash
# A/B a change against its parent on one benchmark workload, by the
# pairing rule of the choosing-metrics guide (section 8): both sides are
# built once, every pair runs both sides back to back on one fresh seed,
# and which side goes first alternates from pair to pair.
#
#   scripts/ab.sh <parent-checkout> <change-checkout> <workload> [pairs] [seconds]
#   scripts/ab.sh <parent-checkout> <change-checkout> all [pairs] [seconds]
#
# The `all` form runs every workload BENCHMARK.json names, one after the
# other, and ends with each workload's per-metric verdict block.
#
# Both checkouts are repository roots (the parent is typically a
# `git clone` of the parent commit), each built into its own
# benchmark/target.  Defaults: 10 pairs, the run length BENCHMARK.json
# declares.  AB_SEEDS="11 21 ..." overrides the per-pair seeds.
#
# Prints one line per pair (each side's sim_cycles_per_s, setup_s and
# peak_rss_mib, and the change/parent throughput ratio), then per metric
# both medians with their quartiles, the ratio of the medians, the median
# of the per-pair ratios (seeds differ in speed, so this one is the
# steadier), and `wins k/n` (pairs the change reads better on; ties count
# for neither side).  A gain holds when the change wins at least nine
# tenths of the pairs and the medians differ by more than the parent's own
# interquartile distance.
set -euo pipefail

if (($# < 3)); then
    sed -n '2,25p' "$0" >&2
    exit 2
fi

if [[ "$3" == all ]]; then
    log="$(mktemp)"
    trap 'rm -f "$log"' EXIT
    names="$(awk '/"workloads": *\[/ { on = 1; next }
        on && /^ *\]/ { exit }
        on && match($0, /"name": *"[^"]*"/) {
            s = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", s); sub(/"$/, "", s); print s
        }' "$2/BENCHMARK.json")"
    for w in $names; do
        bash "$0" "$1" "$2" "$w" "${@:4}" | tee -a "$log"
    done
    echo "# verdicts"
    awk '/^# [a-z0-9_]+, / { w = $2; sub(/,$/, "", w) }
        $1 == "sim_cycles_per_s" || $1 == "setup_s" || $1 == "peak_rss_mib" { m = $1; next }
        /^ +(gain|LOSS|no resolved difference) / { sub(/^ +/, ""); printf "%-13s %-16s %s\n", w, m, $0 }' "$log"
    exit 0
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seconds="${5:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$change/BENCHMARK.json")}"
read -r -a seeds <<<"${AB_SEEDS:-}"

for side in "$parent" "$change"; do
    (cd "$side" && CARGO_TARGET_DIR=benchmark/target cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --bin bench)
done

# One run: prints "sim_cycles_per_s setup_s peak_rss_mib".
run_side() {
    local out
    out="$(bash "$1/benchmark/run.sh" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0)"
    if ! grep -q '"correct":true' <<<"$out"; then
        echo "ab.sh: $1 failed its output checks on seed $2" >&2
        exit 1
    fi
    awk -v w="$workload" '
        $2 == w && ($1 == "sim_cycles_per_s" || $1 == "setup_s" || $1 == "peak_rss_mib") { v[$1] = $3 }
        END { print v["sim_cycles_per_s"], v["setup_s"], v["peak_rss_mib"] }' <<<"$out"
}

rows="$(mktemp)"
trap 'rm -f "$rows"' EXIT
echo "# $workload, $pairs pairs x ${seconds}s; parent=$parent change=$change"
echo "# pair seed first | parent: cycles/s setup_s rss_mib | change: cycles/s setup_s rss_mib | ratio"
for ((i = 0; i < pairs; i++)); do
    seed="${seeds[i]:-$((7001 + 131 * i))}"
    if ((i % 2 == 0)); then
        first=parent
        p="$(run_side "$parent" "$seed")"
        c="$(run_side "$change" "$seed")"
    else
        first=change
        c="$(run_side "$change" "$seed")"
        p="$(run_side "$parent" "$seed")"
    fi
    echo "$p $c" >>"$rows"
    awk -v i="$((i + 1))" -v seed="$seed" -v first="$first" \
        '{ printf "%2d %6s %-6s | %.0f %.5f %.2f | %.0f %.5f %.2f | %.4f\n", i, seed, first, $1, $2, $3, $4, $5, $6, $4 / $1 }' \
        <<<"$p $c"
done

# Per metric: medians, quartiles (linear interpolation), wins.
awk '
function quantile(a, n, q,    pos, lo, frac) {
    pos = (n - 1) * q + 1; lo = int(pos); frac = pos - lo
    return lo >= n ? a[n] : a[lo] + frac * (a[lo + 1] - a[lo])
}
function sorted(src, dst, n,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
{ for (m = 1; m <= 3; m++) { P[m, NR] = $m; C[m, NR] = $(m + 3) } }
END {
    n = NR
    split("sim_cycles_per_s setup_s peak_rss_mib", name, " ")
    for (m = 1; m <= 3; m++) {
        higher = (m == 1); wins = 0; losses = 0
        for (i = 1; i <= n; i++) {
            p[i] = P[m, i]; c[i] = C[m, i]; r[i] = c[i] / p[i]
            if (c[i] != p[i]) { if ((c[i] > p[i]) == higher) wins++; else losses++ }
        }
        sorted(p, ps, n); sorted(c, cs, n); sorted(r, rs, n)
        pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
        piqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
        printf "%-16s parent median %.6g [q1 %.6g, q3 %.6g]  change median %.6g [q1 %.6g, q3 %.6g]  change/parent %.4f  median pair ratio %.4f [%.4f, %.4f]  wins %d/%d (losses %d)\n", \
            name[m], pm, quantile(ps, n, 0.25), quantile(ps, n, 0.75), cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75), cm / pm, \
            quantile(rs, n, 0.5), rs[1], rs[n], wins, n, losses
        gap = higher ? cm - pm : pm - cm
        verdict = (wins * 10 >= n * 9 && gap > piqr) ? "gain" : (losses * 10 >= n * 9 && -gap > piqr) ? "LOSS" : "no resolved difference"
        printf "%-16s %s (median gap %.4g against parent IQR %.4g)\n", "", verdict, gap, piqr
    }
}' "$rows"
