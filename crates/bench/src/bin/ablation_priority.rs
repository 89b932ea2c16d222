//! Ablation — priority function: SIABP vs IABP vs FIFO vs Static.
//!
//! §3.1 claims the cheap shift-based SIABP preserves IABP's behaviour;
//! this sweep verifies it (their curves should overlap) and shows what the
//! QoS bias buys over FIFO (no reservation awareness) and Static (no
//! delay awareness).

use mmr_arbiter::priority::PriorityKind;
use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::config::{RunLength, SimConfig, WorkloadSpec};
use mmr_core::report::TextTable;
use mmr_core::sweep::{sweep, SweepSpec};
use mmr_core::workload_lang::Fidelity;
use mmr_traffic::connection::TrafficClass;

fn main() {
    let fidelity = fidelity_from_args();
    let (warmup, cycles, loads): (u64, u64, Vec<f64>) = match fidelity {
        Fidelity::Quick => (1_000, 20_000, vec![0.5, 0.8]),
        Fidelity::Full => (10_000, 200_000, vec![0.3, 0.5, 0.7, 0.8, 0.9]),
    };
    let mut out = banner(
        "Ablation",
        "link-priority function (COA, CBR mix)",
        fidelity,
    );
    let mut table = TextTable::new(vec![
        "priority",
        "load(%)",
        "low(µs)",
        "med(µs)",
        "high(µs)",
        "throughput",
    ]);
    for kind in PriorityKind::all() {
        let base = SimConfig {
            priority: kind,
            workload: WorkloadSpec::cbr(0.5),
            warmup_cycles: warmup,
            run: RunLength::Cycles(cycles),
            ..Default::default()
        };
        let spec = SweepSpec {
            base,
            loads: loads.clone(),
            arbiters: vec![mmr_arbiter::scheduler::ArbiterKind::Coa],
            seeds: vec![0xB1ACA],
        };
        for p in sweep(&spec) {
            table.row(vec![
                kind.label().to_string(),
                format!("{:.1}", p.achieved_load * 100.0),
                format!("{:.2}", p.class_delay_us(TrafficClass::CbrLow)),
                format!("{:.2}", p.class_delay_us(TrafficClass::CbrMedium)),
                format!("{:.2}", p.class_delay_us(TrafficClass::CbrHigh)),
                format!("{:.3}", p.throughput_ratio()),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "# expectation: SIABP ≈ IABP (the shift approximates the division);\n\
                  # FIFO ignores reservations; Static starves aged low-priority flits\n",
    );
    emit("ablation_priority.txt", &out);
}
