//! Ablation — the full arbiter field: COA vs WFA vs iSLIP vs PIM vs
//! greedy-priority vs random, on the CBR mix.
//!
//! Extends the paper's two-way comparison with the related-work schemes
//! §4 cites, isolating which of COA's ingredients matter: priority
//! awareness (greedy has it, iSLIP/PIM/random do not) and conflict-aware
//! port ordering (only COA).

use mmr_bench::{banner, committed_pack, emit, fidelity_from_args};
use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::report::render_xy_table;
use mmr_core::sweep::sweep;
use mmr_core::workload_lang::Fidelity;
use mmr_traffic::connection::TrafficClass;

fn main() {
    let fidelity = fidelity_from_args();
    // The Fig. 5 CBR sweep over every scheduler.
    let mut spec = committed_pack("paper_fig5", fidelity).sweep;
    spec.arbiters = ArbiterKind::all();
    let mut out = banner("Ablation", "switch-scheduler field, CBR mix", fidelity);
    eprintln!("running {} simulation points…", spec.point_count());
    let points = sweep(&spec);
    for (class, label) in [
        (TrafficClass::CbrLow, "low (64 Kbps)"),
        (TrafficClass::CbrMedium, "medium (1.54 Mbps)"),
        (TrafficClass::CbrHigh, "high (55 Mbps)"),
    ] {
        out.push_str(&render_xy_table(
            &format!("mean flit delay — {label} class"),
            "µs",
            &points,
            |p| p.class_delay_us(class),
        ));
        out.push('\n');
    }
    out.push_str(&render_xy_table(
        "throughput ratio (delivered/generated)",
        "fraction",
        &points,
        |p| p.throughput_ratio(),
    ));
    if matches!(fidelity, Fidelity::Quick) {
        out.push_str("\n# quick mode: single seed, short runs — expect noise at high load\n");
    }
    emit("ablation_arbiters.txt", &out);
}
