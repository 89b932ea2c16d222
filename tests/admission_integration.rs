//! Admission-control integration: the workload builders must never
//! over-book a link, and the resulting traffic must respect what was
//! admitted.

use mmr_core::config::{InjectionKind, RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::{build_workload, run_experiment};
use mmr_core::sim::rng::SimRng;
use mmr_core::sim::time::TimeBase;
use mmr_core::sim::units::Bandwidth;
use mmr_core::traffic::admission::RoundConfig;
use mmr_core::traffic::workload::{CbrMixBuilder, VbrMixBuilder};

#[test]
fn no_link_is_ever_overbooked() {
    // Even asking for 100% load, per-link average-slot bookings stay
    // within the round on both sides.
    let tb = TimeBase::default();
    let link = Bandwidth::bps(tb.link_bits_per_sec);
    for seed in 0..5u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let w = CbrMixBuilder::new(4, tb, RoundConfig::default())
            .target_load(1.0)
            .build(&mut rng);
        // Recompute per-link sums from the admitted specs.
        let mut in_bw = [Bandwidth::bps(0.0); 4];
        let mut out_bw = [Bandwidth::bps(0.0); 4];
        for c in &w.connections {
            in_bw[c.input] += c.qos.avg;
            out_bw[c.output] += c.qos.avg;
        }
        for p in 0..4 {
            assert!(
                in_bw[p].fraction_of(link) <= 1.0 + 1e-9,
                "seed {seed}: input {p} booked {:.3}",
                in_bw[p].fraction_of(link)
            );
            assert!(
                out_bw[p].fraction_of(link) <= 1.0 + 1e-9,
                "seed {seed}: output {p} booked {:.3}",
                out_bw[p].fraction_of(link)
            );
        }
    }
}

#[test]
fn achieved_load_reflects_admitted_bandwidth() {
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.65),
        run: RunLength::Cycles(1_000),
        warmup_cycles: 0,
        ..Default::default()
    };
    let w = build_workload(&cfg);
    let tb = TimeBase::default();
    let link = tb.link_bits_per_sec;
    // Mean over inputs of (sum of admitted avg bandwidth / link bw) must
    // equal the reported per-input loads (within slot-quantization error:
    // reserved slots round bandwidth *up*).
    let mut per_input = vec![0.0f64; 4];
    for c in &w.connections {
        per_input[c.input] += c.qos.avg.as_bps() / link;
    }
    for (p, (&reported, computed)) in w.per_input_load.iter().zip(per_input).enumerate() {
        assert!(
            (reported - computed).abs() < 0.02,
            "input {p}: reported {reported:.4} vs computed {computed:.4}"
        );
    }
}

#[test]
fn reserved_slots_cover_connection_bandwidth() {
    // Slot reservations round up: slots x slot_bw >= avg bandwidth.
    let cfg = SimConfig::default();
    let w = build_workload(&cfg);
    let tb = TimeBase::default();
    let round = RoundConfig::default();
    let slot_bw = round.slot_bandwidth(&tb).as_bps();
    for c in &w.connections {
        let reserved = c.reserved_slots as f64 * slot_bw;
        assert!(
            reserved >= c.qos.avg.as_bps() - 1e-6,
            "connection {:?}: reserved {reserved} < requested {}",
            c.id,
            c.qos.avg.as_bps()
        );
        // ...but never more than one slot extra.
        assert!(reserved < c.qos.avg.as_bps() + slot_bw);
    }
}

#[test]
fn vbr_peak_enforcement_reduces_admitted_connections() {
    let tb = TimeBase::default();
    let round = RoundConfig {
        concurrency_factor: 1.2,
        ..Default::default()
    };
    let mut rng_a = SimRng::seed_from_u64(3);
    let mut rng_b = SimRng::seed_from_u64(3);
    let open = VbrMixBuilder::new(4, tb, round)
        .target_load(0.9)
        .gops(1)
        .build(&mut rng_a);
    let gated = VbrMixBuilder::new(4, tb, round)
        .target_load(0.9)
        .gops(1)
        .enforce_peak(true)
        .build(&mut rng_b);
    assert!(
        gated.len() < open.len(),
        "peak test must bite: {} vs {}",
        gated.len(),
        open.len()
    );
    assert!(gated.mean_load() < open.mean_load());
}

#[test]
fn admitted_vbr_load_matches_generated_traffic() {
    // The traffic actually generated by the sources matches the average
    // bandwidth the CAC admitted (within ~10%: the trace is stochastic).
    let cfg = SimConfig {
        workload: WorkloadSpec::Vbr {
            target_load: 0.5,
            gops: 2,
            injection: InjectionKind::SmoothRate,
            enforce_peak: false,
        },
        warmup_cycles: 0,
        run: RunLength::UntilDrained {
            max_cycles: mmr_core::config::vbr_cycle_budget(2),
        },
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    assert!(r.drained);
    // generated flits x flit bits / simulated time ≈ achieved_load x 4 links.
    let tb = TimeBase::default();
    let sim_secs = r.executed_cycles as f64 * tb.flit_cycle_secs();
    let offered_bps = r.summary.generated_flits as f64 * 1024.0 / sim_secs;
    let expected_bps = r.achieved_load * tb.link_bits_per_sec * 4.0;
    // The run includes drain tail (no generation), so offered <= expected;
    // allow a wide but meaningful band.
    assert!(
        offered_bps > expected_bps * 0.3 && offered_bps < expected_bps * 1.15,
        "offered {offered_bps:.0} vs admitted {expected_bps:.0}"
    );
}
