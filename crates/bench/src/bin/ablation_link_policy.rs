//! Ablation — link scheduling policy: dynamic SIABP priorities vs a
//! static TDM slot table (with and without backfill).
//!
//! §2 reserves bandwidth in flit-cycle slots per round; the MMR serves
//! those reservations *dynamically* through biased priorities rather than
//! a literal slot table.  This ablation quantifies that choice: on CBR
//! the table is competitive (its slots match the traffic), on bursty
//! MPEG-2 the pure table wastes every idle slot, and backfill recovers
//! throughput but still pins burst service to table positions.

use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::config::vbr_cycle_budget;
use mmr_core::config::{InjectionKind, RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::run_experiment;
use mmr_core::report::TextTable;
use mmr_core::router::config::{LinkPolicy, RouterConfig};
use mmr_core::traffic::connection::TrafficClass;
use mmr_core::workload_lang::Fidelity;

fn policies() -> Vec<(&'static str, LinkPolicy)> {
    vec![
        ("SIABP", LinkPolicy::Priority),
        (
            "TDM",
            LinkPolicy::SlotTable {
                backfill: false,
                table_len: 1024,
            },
        ),
        (
            "TDM+backfill",
            LinkPolicy::SlotTable {
                backfill: true,
                table_len: 1024,
            },
        ),
    ]
}

fn main() {
    let fidelity = fidelity_from_args();
    let (warmup, cycles, gops): (u64, u64, usize) = match fidelity {
        Fidelity::Quick => (2_000, 25_000, 1),
        Fidelity::Full => (10_000, 200_000, 4),
    };
    let mut out = banner(
        "Ablation",
        "link policy: dynamic priority vs TDM slot table",
        fidelity,
    );

    out.push_str("CBR mix, 70% load:\n");
    let mut t1 = TextTable::new(vec![
        "policy",
        "util(%)",
        "high delay(µs)",
        "low delay(µs)",
        "throughput",
    ]);
    for (name, policy) in policies() {
        let cfg = SimConfig {
            router: RouterConfig {
                link_policy: policy,
                ..Default::default()
            },
            workload: WorkloadSpec::cbr(0.7),
            warmup_cycles: warmup,
            run: RunLength::Cycles(cycles),
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        let d = |c| {
            r.summary
                .metrics
                .class(c)
                .map(|s| s.mean_delay_us)
                .unwrap_or(f64::NAN)
        };
        t1.row(vec![
            name.to_string(),
            format!("{:.1}", r.summary.crossbar_utilization * 100.0),
            format!("{:.2}", d(TrafficClass::CbrHigh)),
            format!("{:.2}", d(TrafficClass::CbrLow)),
            format!("{:.3}", r.summary.throughput_ratio()),
        ]);
    }
    out.push_str(&t1.render());

    out.push_str("\nMPEG-2 VBR (SR), 70% generated load:\n");
    let mut t2 = TextTable::new(vec![
        "policy",
        "frame delay(µs)",
        "max frame delay(µs)",
        "jitter(µs)",
        "drained",
    ]);
    for (name, policy) in policies() {
        let cfg = SimConfig {
            router: RouterConfig {
                link_policy: policy,
                ..Default::default()
            },
            workload: WorkloadSpec::Vbr {
                target_load: 0.7,
                gops,
                injection: InjectionKind::SmoothRate,
                enforce_peak: false,
            },
            warmup_cycles: 0,
            run: RunLength::UntilDrained {
                max_cycles: vbr_cycle_budget(gops),
            },
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        let m = &r.summary.metrics;
        t2.row(vec![
            name.to_string(),
            format!("{:.1}", m.mean_frame_delay_us),
            format!("{:.1}", m.max_frame_delay_us),
            format!("{:.2}", m.mean_frame_jitter_us),
            format!("{}", r.drained),
        ]);
    }
    out.push_str(&t2.render());
    out.push_str(
        "# expectation: TDM matches SIABP on CBR (slots fit the traffic) but\n\
                  # degrades on VBR bursts; backfill recovers most of the gap\n",
    );
    emit("ablation_link_policy.txt", &out);
}
