//! Differential tests for the TDM link scheduler, mirroring
//! `tests/differential.rs`: the optimized `TdmLinkScheduler` (partial
//! selection via `select_nth_unstable_by`, reused scratch) versus a
//! naive, obviously-correct reference transcription of the same
//! contract.  Both sides see identical VC memories, QoS tables, and
//! eligibility masks over many cycles, and must offer **identical
//! candidate lists, grant-for-grant**, at every level — including the
//! table cursor phase, which a single skipped cycle would shift for the
//! rest of the run.

use mmr_core::arbiter::candidate::{Candidate, CandidateSet, Priority};
use mmr_core::arbiter::priority::{LinkPriority, Siabp};
use mmr_core::router::link_scheduler::VcQosInfo;
use mmr_core::router::tdm::{build_slot_table, TdmLinkScheduler};
use mmr_core::router::vcmem::VcMemory;
use mmr_core::sim::rng::SimRng;
use mmr_core::sim::time::RouterCycle;
use mmr_core::traffic::connection::ConnectionId;
use mmr_core::traffic::flit::Flit;

/// Naive reference: one table entry per slot, full sorts, no scratch
/// reuse, no partial selection.  Deliberately written from the module
/// doc's contract, not from the optimized code.
struct ReferenceTdm {
    input: usize,
    table: Vec<Option<usize>>,
    cursor: usize,
    backfill: bool,
    vcs: Vec<usize>,
}

impl ReferenceTdm {
    fn new(
        input: usize,
        reservations: &[(usize, u64)],
        cycles_per_round: u64,
        table_len: usize,
        backfill: bool,
    ) -> Self {
        ReferenceTdm {
            input,
            table: reference_slot_table(reservations, cycles_per_round, table_len),
            cursor: 0,
            backfill,
            vcs: reservations.iter().map(|&(vc, _)| vc).collect(),
        }
    }

    fn advance_cursor(&mut self, n: u64) {
        for _ in 0..(n % self.table.len() as u64) {
            self.cursor = (self.cursor + 1) % self.table.len();
        }
    }

    /// The candidates this cycle's slot offers, highest level first.
    fn select_where<F: Fn(usize) -> bool>(
        &mut self,
        mem: &VcMemory,
        qos: &[VcQosInfo],
        priority_fn: &dyn LinkPriority,
        now: RouterCycle,
        levels: usize,
        eligible: F,
    ) -> Vec<Candidate> {
        let owner = self.table[self.cursor];
        self.cursor = (self.cursor + 1) % self.table.len();
        let mut out = Vec::new();
        let mut owner_offered = None;
        if let Some(vc) = owner {
            if eligible(vc) && mem.head(vc).is_some() {
                out.push(Candidate {
                    input: self.input,
                    vc,
                    output: qos[vc].output,
                    priority: Priority::new(f64::MAX / 4.0),
                });
                owner_offered = Some(vc);
            }
        }
        if !self.backfill {
            return out;
        }
        let mut backlog: Vec<(Priority, usize)> = Vec::new();
        for &vc in &self.vcs {
            if Some(vc) == owner_offered || !eligible(vc) {
                continue;
            }
            if let Some(head) = mem.head(vc) {
                let waited = now.saturating_sub(head.entered_at).0;
                let p = priority_fn.priority(qos[vc].reserved_slots, qos[vc].iat_rc, waited);
                backlog.push((p, vc));
            }
        }
        // Full sort by (priority desc, vc asc); take what fits.
        backlog.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for &(p, vc) in backlog.iter().take(levels - out.len()) {
            out.push(Candidate {
                input: self.input,
                vc,
                output: qos[vc].output,
                priority: p,
            });
        }
        out
    }
}

/// Naive transcription of the table builder's contract: largest
/// reservations first (ties by VC index), round(slots/round × len)
/// entries each (at least one), even striding, linear probe, stop when
/// full.
fn reference_slot_table(
    reservations: &[(usize, u64)],
    cycles_per_round: u64,
    table_len: usize,
) -> Vec<Option<usize>> {
    let mut table: Vec<Option<usize>> = vec![None; table_len];
    let mut sorted = reservations.to_vec();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (vc, slots) in sorted {
        if slots == 0 {
            continue;
        }
        let entries = ((slots as f64 / cycles_per_round as f64) * table_len as f64)
            .round()
            .max(1.0) as usize;
        let stride = table_len as f64 / entries as f64;
        'entry: for j in 0..entries {
            let mut pos = (j as f64 * stride) as usize % table_len;
            for _ in 0..table_len {
                if table[pos].is_none() {
                    table[pos] = Some(vc);
                    continue 'entry;
                }
                pos = (pos + 1) % table_len;
            }
            return table; // full
        }
    }
    table
}

/// A deterministic random QoS layout for `vcs` virtual channels over
/// `ports` outputs: mixed reservation sizes, including zero-reservation
/// (best-effort) VCs when `with_besteffort`.
fn random_layout(
    vcs: usize,
    ports: usize,
    rng: &mut SimRng,
    with_besteffort: bool,
) -> (Vec<(usize, u64)>, Vec<VcQosInfo>) {
    let mut reservations = Vec::with_capacity(vcs);
    let mut qos = Vec::with_capacity(vcs);
    for vc in 0..vcs {
        let slots = if with_besteffort && rng.index(4) == 0 {
            0
        } else {
            [1u64, 21, 181, 727][rng.index(4)]
        };
        reservations.push((vc, slots));
        qos.push(VcQosInfo {
            output: rng.index(ports),
            reserved_slots: slots,
            iat_rc: if slots == 0 {
                f64::INFINITY
            } else {
                16_384.0 / slots as f64
            },
        });
    }
    (reservations, qos)
}

/// Extract the offered candidates for `input`, level order.
fn offered(cs: &CandidateSet, input: usize, levels: usize) -> Vec<Candidate> {
    (0..levels).filter_map(|l| cs.get(input, l)).collect()
}

/// Drive both implementations over `cycles` cycles of churning VC
/// occupancy (pushes and pops from a shared workload stream) and assert
/// candidate-for-candidate identity, with an eligibility mask applied on
/// masked cycles.
fn assert_matches_reference(vcs: usize, backfill: bool, seeds: u64, cycles: usize) {
    let ports = vcs; // square switch: one possible output per VC index
    let levels = 4;
    let table_len = 64;
    for seed in 0..seeds {
        let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0x7D3);
        let (reservations, qos) = random_layout(vcs, ports, &mut rng, backfill);
        let mut fast = TdmLinkScheduler::new(0, reservations.clone(), 16_384, table_len, backfill);
        let mut golden = ReferenceTdm::new(0, &reservations, 16_384, table_len, backfill);
        assert_eq!(
            fast.table(),
            &golden.table[..],
            "slot tables diverged: vcs={vcs} seed={seed}"
        );
        let mut mem = VcMemory::new(vcs, 8, 1);
        let mut cs = CandidateSet::new(ports, levels);
        for cycle in 0..cycles {
            // Churn occupancy: a few random pushes, a few random pops.
            for _ in 0..rng.index(4) {
                let vc = rng.index(vcs);
                if mem.free_space(vc) > 0 {
                    mem.push(
                        vc,
                        Flit::cbr(
                            ConnectionId(vc as u32),
                            cycle as u64,
                            RouterCycle(cycle as u64),
                        ),
                        RouterCycle(cycle as u64),
                    );
                }
            }
            for _ in 0..rng.index(3) {
                mem.pop(rng.index(vcs));
            }
            // Every third cycle applies a random eligibility mask (the
            // stalled-output path).
            let mask: u64 = if cycle % 3 == 0 {
                rng.next_u64_raw() | 1 // never mask everything out
            } else {
                u64::MAX
            };
            let eligible = |vc: usize| mask & (1 << (vc % 64)) != 0;
            let now = RouterCycle(cycle as u64);
            cs.clear();
            let n = fast.select_where(&mem, &qos, &Siabp, now, &mut cs, eligible);
            let fast_offer = offered(&cs, 0, levels);
            let gold_offer = golden.select_where(&mem, &qos, &Siabp, now, levels, eligible);
            assert_eq!(
                fast_offer, gold_offer,
                "TDM(backfill={backfill}) diverged: vcs={vcs} seed={seed} cycle={cycle}"
            );
            assert_eq!(n, gold_offer.len(), "offered count disagrees");
        }
    }
}

#[test]
fn pure_tdm_matches_reference_at_4_8_16() {
    assert_matches_reference(4, false, 24, 200);
    assert_matches_reference(8, false, 16, 200);
    assert_matches_reference(16, false, 8, 150);
}

#[test]
fn backfill_tdm_matches_reference_at_4_8_16() {
    assert_matches_reference(4, true, 24, 200);
    assert_matches_reference(8, true, 16, 200);
    assert_matches_reference(16, true, 8, 150);
}

#[test]
fn slot_tables_match_reference_construction() {
    // Table construction alone, over a matrix of reservation mixes
    // including over-subscription (probing spills) and zero entries.
    let cases: Vec<Vec<(usize, u64)>> = vec![
        vec![(0, 727), (1, 21), (2, 1)],
        vec![(0, 0), (1, 100)],
        vec![(0, 8_192)],
        vec![(0, 900), (1, 900), (2, 900)], // over-subscribed
        vec![(0, 727), (1, 727), (2, 727), (3, 727)],
        vec![],
    ];
    for reservations in &cases {
        for table_len in [16usize, 64, 256] {
            assert_eq!(
                build_slot_table(reservations, 16_384, table_len),
                reference_slot_table(reservations, 16_384, table_len),
                "tables diverged for {reservations:?} len {table_len}"
            );
        }
    }
}

#[test]
fn bulk_cursor_advance_matches_reference_phase() {
    // advance_cursor(n) must equal n idle selects on BOTH sides — the
    // pipeline advances it instead of scanning on idle cycles, so the
    // phase must stay locked.
    let reservations = vec![(0usize, 500u64), (1, 300), (2, 100)];
    let mut fast = TdmLinkScheduler::new(0, reservations.clone(), 1_000, 7, true);
    let mut golden = ReferenceTdm::new(0, &reservations, 1_000, 7, true);
    let mem = VcMemory::new(3, 4, 1); // empty: selects offer nothing
    let qos: Vec<VcQosInfo> = (0..3)
        .map(|vc| VcQosInfo {
            output: vc,
            reserved_slots: 100,
            iat_rc: 1_000.0,
        })
        .collect();
    let levels = 4;
    let mut cs = CandidateSet::new(4, levels);
    for (i, n) in [1u64, 6, 7, 13, 700, 9_999].into_iter().enumerate() {
        fast.advance_cursor(n);
        golden.advance_cursor(n);
        // One live select on each side proves the phases agree: after the
        // same advances, both must name the same slot owner next.
        cs.clear();
        fast.select(&mem, &qos, &Siabp, RouterCycle(i as u64), &mut cs);
        let gold = golden.select_where(&mem, &qos, &Siabp, RouterCycle(i as u64), levels, |_| true);
        assert_eq!(offered(&cs, 0, levels), gold, "phase diverged after +{n}");
        assert_eq!(fast.table(), &golden.table[..]);
    }
}

#[test]
fn backfill_fills_every_level_when_backlog_exceeds_levels() {
    // 8 backlogged VCs, 4 levels: the partial-selection path (truncate +
    // sort) is exercised against the reference's full sort every cycle.
    let vcs = 8;
    let mut rng = SimRng::seed_from_u64(0xFEED);
    let (reservations, qos) = random_layout(vcs, vcs, &mut rng, false);
    let mut fast = TdmLinkScheduler::new(0, reservations.clone(), 16_384, 32, true);
    let mut golden = ReferenceTdm::new(0, &reservations, 16_384, 32, true);
    let mut mem = VcMemory::new(vcs, 4, 1);
    for vc in 0..vcs {
        mem.push(
            vc,
            Flit::cbr(ConnectionId(vc as u32), 0, RouterCycle(vc as u64)),
            RouterCycle(vc as u64),
        );
    }
    let levels = 4;
    let mut cs = CandidateSet::new(vcs, levels);
    for cycle in 0..64u64 {
        cs.clear();
        let n = fast.select(&mem, &qos, &Siabp, RouterCycle(cycle), &mut cs);
        assert_eq!(n, levels, "every level must fill under full backlog");
        let gold = golden.select_where(&mem, &qos, &Siabp, RouterCycle(cycle), levels, |_| true);
        assert_eq!(offered(&cs, 0, levels), gold, "cycle {cycle}");
    }
}
