//! QoS under fault injection — the chaos sweep (DESIGN.md §10).
//!
//! Sweeps fault-rate multipliers over a CBR-plus-best-effort workload
//! with a mid-run fault window and reports, per rate: what was injected,
//! what the detection/recovery machinery did about it, and what the QoS
//! classes experienced.  The claim under test: guaranteed connections
//! hold their delay bounds as fault rates climb, while best-effort
//! traffic absorbs the loss.

use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::config::chaos;
use mmr_core::sweep::run_all;
use mmr_router::fault::FaultReport;
use mmr_traffic::connection::TrafficClass;
use serde::Serialize;

/// One machine-readable sweep point for `chaos_report.json`.
#[derive(Serialize)]
struct ChaosPoint {
    factor: f64,
    faults: FaultReport,
    qos_violations: u64,
    throughput_ratio: f64,
    cbr_high_p99_delay_us: f64,
    best_effort_p99_delay_us: f64,
}

fn main() {
    let fidelity = fidelity_from_args();
    let spec = chaos(fidelity);
    let configs = spec.configs();
    eprintln!("running chaos sweep: {} fault rates…", configs.len());
    let results = run_all(&configs, None);

    let mut out = banner(
        "Chaos",
        "QoS under deterministic fault injection, by fault-rate multiplier",
        fidelity,
    );
    out.push_str(&format!(
        "{:>6}  {:>7}  {:>5}  {:>5}  {:>7}  {:>6}  {:>5}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
        "rate",
        "events",
        "corr",
        "drop",
        "resync",
        "stall",
        "quar",
        "qos-viol",
        "cbrH-delay",
        "cbrH-p99",
        "be-delay",
        "be-p99",
        "thru-ratio",
    ));
    out.push_str(&"-".repeat(120));
    out.push('\n');
    for (result, &factor) in results.iter().zip(&spec.factors) {
        let s = &result.summary;
        let f = &s.faults;
        let delay = |class: TrafficClass| {
            s.metrics
                .class(class)
                .map(|c| format!("{:10.2}", c.mean_delay_us))
                .unwrap_or_else(|| format!("{:>10}", "-"))
        };
        let p99 = |class: TrafficClass| {
            s.metrics
                .class(class)
                .map(|c| format!("{:10.2}", c.p99_delay_us))
                .unwrap_or_else(|| format!("{:>10}", "-"))
        };
        out.push_str(&format!(
            "{:>6.1}  {:>7}  {:>5}  {:>5}  {:>7}  {:>6}  {:>5}  {:>8}  {}  {}  {}  {}  {:>10.4}\n",
            factor,
            f.events_fired,
            f.corrupted_flits,
            f.dropped_flits,
            f.credit_resyncs,
            f.stall_cycles,
            f.quarantined_connections,
            s.metrics.qos_violations,
            delay(TrafficClass::CbrHigh),
            p99(TrafficClass::CbrHigh),
            delay(TrafficClass::BestEffort),
            p99(TrafficClass::BestEffort),
            s.throughput_ratio(),
        ));
    }
    out.push_str(
        "\n# rate      fault-rate multiplier (0 = fault-free baseline)\n\
         # events    fault-plan events fired during the window\n\
         # corr      flits caught by the ingress checksum (discarded, credit returned)\n\
         # drop      flits lost silently (link drops + phantom-credit guard)\n\
         # resync    credit-watchdog resynchronizations\n\
         # stall     output-port x cycle units stalled\n\
         # quar      connections quarantined for contract violation\n\
         # qos-viol  deliveries past the delay bound (all classes, incl. best-effort)\n\
         # delays    mean flit delay (us): guaranteed CBR-high vs best-effort\n\
         # p99       99th-percentile flit delay (us), from the per-class\n\
         #           log-bucketed delay histograms\n\
         # expectation: cbrH-delay stays near the baseline while drops and\n\
         # best-effort delay absorb the damage (DESIGN.md s10)\n",
    );
    emit("chaos_report.txt", &out);

    // Machine-readable fault reports alongside the table.
    let json: Vec<ChaosPoint> = results
        .iter()
        .zip(&spec.factors)
        .map(|(r, &factor)| ChaosPoint {
            factor,
            faults: r.summary.faults,
            qos_violations: r.summary.metrics.qos_violations,
            throughput_ratio: r.summary.throughput_ratio(),
            cbr_high_p99_delay_us: r
                .summary
                .metrics
                .class(TrafficClass::CbrHigh)
                .map(|c| c.p99_delay_us)
                .unwrap_or(0.0),
            best_effort_p99_delay_us: r
                .summary
                .metrics
                .class(TrafficClass::BestEffort)
                .map(|c| c.p99_delay_us)
                .unwrap_or(0.0),
        })
        .collect();
    emit(
        "chaos_report.json",
        &serde_json::to_string_pretty(&json).unwrap_or_default(),
    );
}
