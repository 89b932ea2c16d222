//! Ablation — candidate levels k ∈ {1, 2, 4, 8}.
//!
//! §3 fixes k = 4 without justification; this sweep shows what depth buys:
//! with k = 1 the switch scheduler sees only one request per input and
//! cannot route around output conflicts; more levels recover matching
//! opportunities at the cost of selection-matrix hardware.

use mmr_arbiter::scheduler::ArbiterKind;
use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::config::{RunLength, SimConfig, WorkloadSpec};
use mmr_core::report::TextTable;
use mmr_core::sweep::{sweep, SweepSpec};
use mmr_core::workload_lang::Fidelity;
use mmr_router::config::RouterConfig;

fn main() {
    let fidelity = fidelity_from_args();
    let (warmup, cycles, loads): (u64, u64, Vec<f64>) = match fidelity {
        Fidelity::Quick => (1_000, 20_000, vec![0.5, 0.8]),
        Fidelity::Full => (10_000, 200_000, vec![0.5, 0.7, 0.8, 0.9]),
    };
    let mut out = banner("Ablation", "candidate levels k (COA, CBR mix)", fidelity);
    let mut table = TextTable::new(vec![
        "k",
        "load(%)",
        "utilization(%)",
        "high-class delay(µs)",
        "throughput",
    ]);
    for k in [1usize, 2, 4, 8] {
        let base = SimConfig {
            router: RouterConfig {
                candidate_levels: k,
                ..Default::default()
            },
            workload: WorkloadSpec::cbr(0.5),
            warmup_cycles: warmup,
            run: RunLength::Cycles(cycles),
            ..Default::default()
        };
        let spec = SweepSpec {
            base,
            loads: loads.clone(),
            arbiters: vec![ArbiterKind::Coa],
            seeds: vec![0xB1ACA],
        };
        for p in sweep(&spec) {
            table.row(vec![
                format!("{k}"),
                format!("{:.1}", p.achieved_load * 100.0),
                format!("{:.1}", p.utilization() * 100.0),
                format!(
                    "{:.2}",
                    p.class_delay_us(mmr_traffic::connection::TrafficClass::CbrHigh)
                ),
                format!("{:.3}", p.throughput_ratio()),
            ]);
        }
    }
    out.push_str(&table.render());
    emit("ablation_levels.txt", &out);
}
