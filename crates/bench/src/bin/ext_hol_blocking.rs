//! Extension — why the MMR uses per-connection virtual channels.
//!
//! §2 justifies the VC memory by citing Karol, Hluchyj & Morgan: a
//! single-FIFO-per-input switch head-of-line blocks and saturates at
//! 2 − √2 ≈ 58.6 % under uniform traffic.  This experiment regenerates
//! that curve with the minimal FIFO model and contrasts it with the MMR
//! (VCs + COA) under the CBR mix at the same loads.

use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::config::{RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::run_experiment;
use mmr_core::report::TextTable;
use mmr_core::router::holfifo::FifoSwitch;
use mmr_core::workload_lang::Fidelity;

fn main() {
    let fidelity = fidelity_from_args();
    let (fifo_cycles, mmr_cycles): (u64, u64) = match fidelity {
        Fidelity::Quick => (100_000, 15_000),
        Fidelity::Full => (1_000_000, 120_000),
    };
    let mut out = banner(
        "Extension",
        "HOL blocking: single-FIFO inputs vs the MMR's virtual channels",
        fidelity,
    );
    let mut table = TextTable::new(vec![
        "offered load(%)",
        "FIFO throughput(%)",
        "MMR throughput(%)",
    ]);
    for load in [0.3f64, 0.5, 0.58, 0.7, 0.8, 0.9, 1.0] {
        let mut fifo = FifoSwitch::new(16, 0xB1ACA);
        fifo.run(load, fifo_cycles);
        // The MMR itself (4x4, VCs, COA) — CBR mix can't reach 1.0, cap it.
        let mmr_tp = if load <= 0.95 {
            let cfg = SimConfig {
                workload: WorkloadSpec::cbr(load.min(0.95)),
                warmup_cycles: mmr_cycles / 10,
                run: RunLength::Cycles(mmr_cycles),
                ..Default::default()
            };
            let r = run_experiment(&cfg);
            // Carried load = utilization (each delivered flit uses one
            // output slot).
            Some(r.summary.crossbar_utilization)
        } else {
            None
        };
        table.row(vec![
            format!("{:.0}", load * 100.0),
            format!("{:.1}", fifo.throughput() * 100.0),
            mmr_tp
                .map(|t| format!("{:.1}", t * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "# Karol/Hluchyj/Morgan FIFO limit: 2 - sqrt(2) = {:.1}% — the number §2's\n\
         # VC design exists to beat; the MMR keeps carrying offered load well past it\n",
        FifoSwitch::KAROL_LIMIT * 100.0
    ));
    emit("ext_hol_blocking.txt", &out);
}
