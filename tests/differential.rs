//! Differential tests: optimized bitmask kernels vs golden references.
//!
//! Every arbiter in `mmr_arbiter` has an unoptimized reference
//! transcription in `mmr_arbiter::reference`.  These tests drive both
//! implementations with identical candidate sets and *shared-seed RNG
//! streams* across many cycles and require bit-identical matchings.
//! Because the streams are only re-seeded per test case — not per cycle —
//! any divergence in RNG consumption (an extra draw, a skipped draw, a
//! different visit order) cascades into a mismatch on a later cycle, so
//! equality here proves the kernels preserve the exact draw sequence, not
//! just the final grants.

use mmr_core::arbiter::candidate::{Candidate, CandidateSet, Priority};
use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::sim::rng::SimRng;
use proptest::prelude::*;

/// Fill a candidate set with a random workload.  `tie_prone` draws
/// priorities from a tiny range so equal-priority tie-break paths (the
/// RNG-hungry ones) are exercised constantly.
fn fill_random(cs: &mut CandidateSet, rng: &mut SimRng, tie_prone: bool) {
    let ports = cs.ports();
    let levels = cs.levels();
    cs.clear();
    let mut cands: Vec<Candidate> = Vec::with_capacity(levels);
    for input in 0..ports {
        cands.clear();
        let count = rng.index(levels + 1);
        for vc in 0..count {
            let priority = if tie_prone {
                Priority::new(rng.index(4) as f64)
            } else {
                Priority::new(rng.uniform() * 1e6)
            };
            cands.push(Candidate {
                input,
                vc,
                output: rng.index(ports),
                priority,
            });
        }
        cands.sort_by_key(|c| core::cmp::Reverse(c.priority));
        for (vc, c) in cands.iter_mut().enumerate() {
            c.vc = vc; // keep vc = level so grants are comparable
        }
        cs.set_input(input, &cands);
    }
}

/// Fill a candidate set whose level-0 outputs are mostly distinct, as on
/// a wide router under trunk traffic: level 0 is a shuffled permutation
/// with one input in eight redirected at random, so most level-0 outputs
/// have a single requester (COA's bucket 0 holds most of the level).
/// Deeper levels are drawn as in [`fill_random`].
fn fill_mostly_distinct(cs: &mut CandidateSet, rng: &mut SimRng, tie_prone: bool) {
    let ports = cs.ports();
    let levels = cs.levels();
    let mut first: Vec<usize> = (0..ports).collect();
    rng.shuffle(&mut first);
    fill_random(cs, rng, tie_prone);
    for (input, &output) in first.iter().enumerate() {
        let mut cands: Vec<Candidate> = cs.input_candidates(input).collect();
        let output = if rng.index(8) == 0 {
            rng.index(ports)
        } else {
            output
        };
        let top = cands.first().map_or(Priority::new(1e7), |c| c.priority);
        cands.insert(
            0,
            Candidate {
                input,
                vc: 0,
                output,
                priority: top,
            },
        );
        cands.truncate(levels);
        for (vc, c) in cands.iter_mut().enumerate() {
            c.vc = vc;
        }
        cs.set_input(input, &cands);
    }
}

/// Run `kind` and its reference side by side for `cycles` cycles per
/// seed, asserting identical matchings and identical RNG consumption.
fn assert_matches_reference(kind: ArbiterKind, ports: usize, seeds: u64, cycles: usize) {
    assert_matches_reference_on(kind, ports, seeds, cycles, fill_random);
}

/// [`assert_matches_reference`] over candidate sets drawn by `fill`.
fn assert_matches_reference_on(
    kind: ArbiterKind,
    ports: usize,
    seeds: u64,
    cycles: usize,
    fill: fn(&mut CandidateSet, &mut SimRng, bool),
) {
    let levels = 4;
    for seed in 0..seeds {
        let mut fast = kind.instantiate(ports);
        let mut golden = kind.instantiate_reference(ports);
        // One stream per side, seeded identically and *never* re-seeded:
        // a consumption mismatch in cycle t breaks cycle t+1.
        let mut rng_fast = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0xABCD);
        let mut rng_gold = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0xABCD);
        let mut workload_rng = SimRng::seed_from_u64(seed);
        let mut cs = CandidateSet::new(ports, levels);
        for cycle in 0..cycles {
            let tie_prone = cycle % 2 == 0;
            fill(&mut cs, &mut workload_rng, tie_prone);
            let m_fast = fast.schedule(&cs, &mut rng_fast);
            let m_gold = golden.schedule(&cs, &mut rng_gold);
            assert_eq!(
                m_fast,
                m_gold,
                "{} diverged from reference: ports={ports} seed={seed} cycle={cycle}",
                kind.label()
            );
            // Both streams must sit at the same position.
            assert_eq!(
                rng_fast.next_u64_raw(),
                rng_gold.next_u64_raw(),
                "{} consumed a different number of RNG draws: ports={ports} seed={seed} \
                 cycle={cycle}",
                kind.label()
            );
        }
    }
}

/// The full matrix for one arbiter kind: 100+ seeds at the small and
/// medium port counts the paper uses, smaller samples at the single-word
/// width limit and in the multi-word regime (128 ports = two port-set
/// words, 256 = four; the reference is O(ports² · levels) per grant
/// there, so a few seeds is all the budget allows).
fn differential_matrix(kind: ArbiterKind) {
    assert_matches_reference(kind, 4, 128, 6);
    assert_matches_reference(kind, 8, 128, 6);
    assert_matches_reference(kind, 16, 104, 4);
    assert_matches_reference(kind, 64, 12, 3);
    assert_matches_reference(kind, 128, 4, 2);
    assert_matches_reference(kind, 256, 2, 2);
}

#[test]
fn coa_matches_reference() {
    differential_matrix(ArbiterKind::Coa);
}

#[test]
fn coa_matches_reference_when_level_zero_is_mostly_distinct() {
    // Bucket 0 (outputs with one live requester) is large here, so its
    // one-pass grant runs on most of level 0 at every port-set width.
    assert_matches_reference_on(ArbiterKind::Coa, 64, 12, 3, fill_mostly_distinct);
    assert_matches_reference_on(ArbiterKind::Coa, 128, 4, 2, fill_mostly_distinct);
    assert_matches_reference_on(ArbiterKind::Coa, 256, 2, 2, fill_mostly_distinct);
}

#[test]
fn wfa_matches_reference() {
    differential_matrix(ArbiterKind::Wfa);
}

#[test]
fn wfa_fixed_matches_reference() {
    differential_matrix(ArbiterKind::WfaFixed);
}

#[test]
fn islip_matches_reference() {
    differential_matrix(ArbiterKind::Islip { iterations: 2 });
    assert_matches_reference(ArbiterKind::Islip { iterations: 4 }, 8, 64, 4);
}

#[test]
fn pim_matches_reference() {
    differential_matrix(ArbiterKind::Pim { iterations: 2 });
    assert_matches_reference(ArbiterKind::Pim { iterations: 4 }, 8, 64, 4);
}

#[test]
fn greedy_matches_reference() {
    differential_matrix(ArbiterKind::GreedyPriority);
}

#[test]
fn random_matches_reference() {
    differential_matrix(ArbiterKind::Random);
}

#[test]
fn mwm_exact_matches_reference() {
    // ≤64 ports runs the Hungarian solver on both sides (bit-identical
    // f64 sequences); 128/256 exercise the documented greedy fallback.
    differential_matrix(ArbiterKind::MwmExact);
}

#[test]
fn mwm_approx_matches_reference() {
    differential_matrix(ArbiterKind::MwmApprox);
}

#[test]
fn frame_fair_matches_reference() {
    differential_matrix(ArbiterKind::FrameFair { frame: 64 });
    // A short frame rolls the quota counters over mid-matrix.
    assert_matches_reference(ArbiterKind::FrameFair { frame: 3 }, 8, 64, 6);
}

#[test]
fn cq_matches_reference() {
    differential_matrix(ArbiterKind::CrosspointQueued { cap: 16 });
    // A depth cap of 1 keeps every queue saturated, forcing the
    // all-ties RNG path each cycle.
    assert_matches_reference(ArbiterKind::CrosspointQueued { cap: 1 }, 8, 64, 6);
}

#[test]
fn stateful_arbiters_stay_locked_over_long_runs() {
    // WFA's diagonal, iSLIP's pointers, frame-fair's quota counters and
    // CQ's queue pressures all evolve over time; run a long
    // shared-stream session so state divergence would compound.
    for kind in [
        ArbiterKind::Wfa,
        ArbiterKind::Islip { iterations: 2 },
        ArbiterKind::FrameFair { frame: 16 },
        ArbiterKind::CrosspointQueued { cap: 8 },
    ] {
        assert_matches_reference(kind, 8, 8, 64);
    }
}

/// Proptest strategy mirror of `arbiter_properties.rs`: arbitrary
/// candidate sets, all kinds, optimized == reference.
fn candidate_set_strategy(ports: usize, levels: usize) -> impl Strategy<Value = CandidateSet> {
    let per_input = proptest::collection::vec((0..ports, 0u64..8), 0..=levels);
    proptest::collection::vec(per_input, ports).prop_map(move |inputs| {
        let mut cs = CandidateSet::new(ports, levels);
        for (input, cands) in inputs.into_iter().enumerate() {
            let mut cands: Vec<Candidate> = cands
                .into_iter()
                .enumerate()
                .map(|(vc, (output, prio))| Candidate {
                    input,
                    vc,
                    output,
                    priority: Priority::new(prio as f64),
                })
                .collect();
            cands.sort_by_key(|c| core::cmp::Reverse(c.priority));
            cs.set_input(input, &cands);
        }
        cs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_kind_matches_reference_on_arbitrary_input(
        cs in candidate_set_strategy(4, 4),
        seed in 0u64..10_000,
    ) {
        for kind in ArbiterKind::all() {
            let mut fast = kind.instantiate(4);
            let mut golden = kind.instantiate_reference(4);
            let mut rng_fast = SimRng::seed_from_u64(seed);
            let mut rng_gold = SimRng::seed_from_u64(seed);
            let m_fast = fast.schedule(&cs, &mut rng_fast);
            let m_gold = golden.schedule(&cs, &mut rng_gold);
            prop_assert_eq!(&m_fast, &m_gold, "{} diverged (seed {})", kind.label(), seed);
            prop_assert_eq!(rng_fast.next_u64_raw(), rng_gold.next_u64_raw());
        }
    }
}

proptest! {
    // Port counts straddling the 64-bit word boundary: 63 (bit 62 is the
    // top port), 64 (exactly one full word), 65 (first port in the second
    // word).  Off-by-one errors in multi-word masking — a stray bit 63,
    // a missed carry into word 1, a `full()` mask one bit short — show up
    // exactly here and nowhere in the power-of-two matrix above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_kind_matches_reference_at_word_boundary_widths(
        width_index in 0usize..3,
        inputs in proptest::collection::vec(
            proptest::collection::vec((0usize..65, 0u64..8), 0..=2),
            65,
        ),
        seed in 0u64..10_000,
    ) {
        let ports = [63usize, 64, 65][width_index];
        let mut cs = CandidateSet::new(ports, 2);
        for (input, cands) in inputs.iter().take(ports).enumerate() {
            let mut cands: Vec<Candidate> = cands
                .iter()
                .enumerate()
                .map(|(vc, &(output, prio))| Candidate {
                    input,
                    vc,
                    output: output % ports,
                    priority: Priority::new(prio as f64),
                })
                .collect();
            cands.sort_by_key(|c| core::cmp::Reverse(c.priority));
            cs.set_input(input, &cands);
        }
        for kind in ArbiterKind::all() {
            let mut fast = kind.instantiate(ports);
            let mut golden = kind.instantiate_reference(ports);
            let mut rng_fast = SimRng::seed_from_u64(seed);
            let mut rng_gold = SimRng::seed_from_u64(seed);
            let m_fast = fast.schedule(&cs, &mut rng_fast);
            let m_gold = golden.schedule(&cs, &mut rng_gold);
            prop_assert_eq!(
                &m_fast,
                &m_gold,
                "{} diverged (ports {}, seed {})",
                kind.label(),
                ports,
                seed
            );
            prop_assert_eq!(rng_fast.next_u64_raw(), rng_gold.next_u64_raw());
        }
    }
}
