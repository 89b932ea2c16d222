//! Ablation — VC buffer depth {1, 2, 4, 8, 16} flits.
//!
//! §2 argues small per-VC buffers + credit flow control suffice because
//! the NIC adapts to the router; this sweep measures how little buffering
//! the router actually needs before throughput suffers.

use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::config::{RunLength, SimConfig, WorkloadSpec};
use mmr_core::report::TextTable;
use mmr_core::sweep::{sweep, SweepSpec};
use mmr_core::workload_lang::Fidelity;
use mmr_router::config::RouterConfig;

fn main() {
    let fidelity = fidelity_from_args();
    let (warmup, cycles, load): (u64, u64, f64) = match fidelity {
        Fidelity::Quick => (1_000, 20_000, 0.8),
        Fidelity::Full => (10_000, 200_000, 0.8),
    };
    let mut out = banner(
        "Ablation",
        "VC buffer depth (COA, CBR mix, 80% load)",
        fidelity,
    );
    let mut table = TextTable::new(vec![
        "buffer(flits)",
        "utilization(%)",
        "high-class delay(µs)",
        "throughput",
        "peak VC occupancy",
    ]);
    for depth in [1usize, 2, 4, 8, 16] {
        let base = SimConfig {
            router: RouterConfig {
                vc_buffer_flits: depth,
                ..Default::default()
            },
            workload: WorkloadSpec::cbr(load),
            warmup_cycles: warmup,
            run: RunLength::Cycles(cycles),
            ..Default::default()
        };
        let spec = SweepSpec {
            base,
            loads: vec![load],
            arbiters: vec![mmr_arbiter::scheduler::ArbiterKind::Coa],
            seeds: vec![0xB1ACA],
        };
        for p in sweep(&spec) {
            table.row(vec![
                format!("{depth}"),
                format!("{:.1}", p.utilization() * 100.0),
                format!(
                    "{:.2}",
                    p.class_delay_us(mmr_traffic::connection::TrafficClass::CbrHigh)
                ),
                format!("{:.3}", p.throughput_ratio()),
                format!("{}", p.results[0].summary.peak_vc_occupancy),
            ]);
        }
    }
    out.push_str(&table.render());
    emit("ablation_buffers.txt", &out);
}
