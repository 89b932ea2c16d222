//! Extension — best-effort traffic over the reserved classes.
//!
//! The MMR's design goal (§1) is to satisfy multimedia QoS "while
//! allocating the remaining bandwidth to best-effort traffic".  This
//! experiment layers unreserved Poisson message traffic on top of the CBR
//! mix and measures (a) how much residual bandwidth best-effort actually
//! gets and (b) whether the reserved classes' QoS survives the intrusion.

use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::config::{BestEffortSpec, RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::run_experiment;
use mmr_core::report::TextTable;
use mmr_core::traffic::connection::TrafficClass;
use mmr_core::workload_lang::Fidelity;

fn main() {
    let fidelity = fidelity_from_args();
    let (warmup, cycles): (u64, u64) = match fidelity {
        Fidelity::Quick => (2_000, 25_000),
        Fidelity::Full => (10_000, 200_000),
    };
    let mut out = banner(
        "Extension",
        "best-effort traffic scavenging residual bandwidth (COA, SIABP)",
        fidelity,
    );
    let mut table = TextTable::new(vec![
        "reserved load(%)",
        "BE offered(%)",
        "BE delivered(%)",
        "BE delay(µs)",
        "high-class delay(µs)",
        "high-class delta",
    ]);
    for reserved in [0.3f64, 0.5, 0.7, 0.85] {
        // Baseline without best-effort.
        let base_cfg = SimConfig {
            workload: WorkloadSpec::cbr(reserved),
            warmup_cycles: warmup,
            run: RunLength::Cycles(cycles),
            ..Default::default()
        };
        let baseline = run_experiment(&base_cfg);
        let base_high = baseline
            .summary
            .metrics
            .class(TrafficClass::CbrHigh)
            .map(|c| c.mean_delay_us)
            .unwrap_or(0.0);
        for be_load in [0.1f64, 0.3] {
            let cfg = SimConfig {
                best_effort: Some(BestEffortSpec {
                    per_link_load: be_load,
                    mean_flits: 8.0,
                }),
                ..base_cfg.clone()
            };
            let r = run_experiment(&cfg);
            let be = r.summary.metrics.class(TrafficClass::BestEffort).unwrap();
            let high = r
                .summary
                .metrics
                .class(TrafficClass::CbrHigh)
                .map(|c| c.mean_delay_us)
                .unwrap_or(0.0);
            let be_delivered_frac = if be.generated == 0 {
                0.0
            } else {
                be.delivered as f64 / be.generated as f64 * be_load
            };
            table.row(vec![
                format!("{:.1}", r.achieved_load * 100.0),
                format!("{:.0}", be_load * 100.0),
                format!("{:.1}", be_delivered_frac * 100.0),
                format!("{:.1}", be.mean_delay_us),
                format!("{high:.2}"),
                format!("{:+.2}", high - base_high),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "# 'BE delivered' is the best-effort load actually carried; 'delta' is the\n\
         # change in the 55 Mbps class's delay caused by adding best-effort traffic.\n\
         # Expectation: BE fills headroom when there is any, reserved QoS barely moves.\n",
    );
    emit("ext_besteffort.txt", &out);
}
