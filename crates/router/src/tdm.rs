//! TDM slot-table link scheduling — the static alternative to biased
//! priorities.
//!
//! §2 splits link bandwidth into flit-cycle slots grouped into rounds and
//! reserves an integer number of slots per connection.  The most literal
//! implementation of that contract is a **time-division table**: a
//! precomputed round-robin table with one entry per slot, each naming the
//! connection that owns it.  This module implements that design so the
//! ablation harness can quantify what the MMR's *dynamic* SIABP scheduler
//! buys over the static table:
//!
//! * **pure TDM** — a slot whose owner has nothing to send is wasted
//!   (disastrous for bursty VBR);
//! * **TDM + backfill** — idle slots are re-offered to the
//!   highest-priority backlogged VCs, recovering work-conservation while
//!   keeping the table's jitter guarantees for the slot owners.
//!
//! Reservations are spread across the table with even striding (the same
//! idea as weighted round-robin smoothing), so a connection with `n`
//! table entries is served at nearly constant spacing.

use crate::link_scheduler::VcQosInfo;
use crate::vcmem::{VcMemory, VcSet};
use mmr_arbiter::candidate::{Candidate, CandidateSet, Priority};
use mmr_arbiter::priority::LinkPriority;
use mmr_sim::time::RouterCycle;

/// Build a slot table of `table_len` entries for the given
/// `(vc, reserved_slots)` pairs, where reservations are fractions of
/// `cycles_per_round`.  Entries are spread with even striding; collisions
/// probe linearly.  Returns `None` entries for unreserved capacity.
pub fn build_slot_table(
    reservations: &[(usize, u64)],
    cycles_per_round: u64,
    table_len: usize,
) -> Vec<Option<usize>> {
    assert!(table_len > 0 && cycles_per_round > 0);
    let mut table: Vec<Option<usize>> = vec![None; table_len];
    // Largest reservations first so they get the most even spread.
    let mut sorted: Vec<(usize, u64)> = reservations.to_vec();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (vc, slots) in sorted {
        if slots == 0 {
            continue; // best-effort: no reservation, no table entries
        }
        let entries = ((slots as f64 / cycles_per_round as f64) * table_len as f64)
            .round()
            .max(1.0) as usize;
        let stride = table_len as f64 / entries as f64;
        for j in 0..entries {
            let ideal = (j as f64 * stride) as usize % table_len;
            // Linear probe for a free slot.
            let mut pos = ideal;
            let mut tried = 0;
            while table[pos].is_some() && tried < table_len {
                pos = (pos + 1) % table_len;
                tried += 1;
            }
            if tried == table_len {
                return table; // table full: remaining reservations spill
            }
            table[pos] = Some(vc);
        }
    }
    table
}

/// A per-input TDM link scheduler.
#[derive(Debug)]
pub struct TdmLinkScheduler {
    input: usize,
    table: Vec<Option<usize>>,
    cursor: usize,
    backfill: bool,
    /// The VCs homed on this input (backfill candidates).
    vc_set: VcSet,
    scratch: Vec<(Priority, usize)>,
}

impl TdmLinkScheduler {
    /// Build the scheduler for `input` over the VCs homed there.
    ///
    /// `reservations` pairs each VC with its reserved slots per round;
    /// `table_len` entries represent one round.  With `backfill`, slots
    /// whose owner is idle (and every unreserved slot) are re-offered to
    /// backlogged VCs by priority.
    pub fn new(
        input: usize,
        reservations: Vec<(usize, u64)>,
        cycles_per_round: u64,
        table_len: usize,
        backfill: bool,
    ) -> Self {
        let table = build_slot_table(&reservations, cycles_per_round, table_len);
        let vcs: Vec<usize> = reservations.iter().map(|&(vc, _)| vc).collect();
        TdmLinkScheduler {
            input,
            table,
            cursor: 0,
            backfill,
            vc_set: VcSet::new(&vcs),
            scratch: Vec::with_capacity(vcs.len()),
        }
    }

    /// The slot table (for tests/inspection).
    pub fn table(&self) -> &[Option<usize>] {
        &self.table
    }

    /// Advance the table cursor by `n` slots without offering anything —
    /// the bulk form of `n` [`select`](TdmLinkScheduler::select) calls on
    /// an empty VC memory.  The switch pipeline calls it instead of
    /// `select` on a cycle with nothing buffered, so the table phase
    /// stays where the scan would have left it (the cursor moves once
    /// per cycle, owner idle or not).
    pub fn advance_cursor(&mut self, n: u64) {
        self.cursor = (self.cursor + (n % self.table.len() as u64) as usize) % self.table.len();
    }

    /// Offer candidates for this cycle and advance the table cursor.
    pub fn select(
        &mut self,
        mem: &VcMemory,
        qos: &[VcQosInfo],
        priority_fn: &dyn LinkPriority,
        now: RouterCycle,
        cs: &mut CandidateSet,
    ) -> usize {
        self.select_where(mem, qos, priority_fn, now, cs, |_| true)
    }

    /// Like [`TdmLinkScheduler::select`], but only VCs for which
    /// `eligible` returns true may become candidates (owner included) —
    /// used to exclude connections routed to a stalled output port.  The
    /// table cursor advances regardless: a stalled owner's slot is lost,
    /// exactly as the contract's time-division semantics dictate.
    pub fn select_where<F: Fn(usize) -> bool>(
        &mut self,
        mem: &VcMemory,
        qos: &[VcQosInfo],
        priority_fn: &dyn LinkPriority,
        now: RouterCycle,
        cs: &mut CandidateSet,
        eligible: F,
    ) -> usize {
        let levels = cs.levels();
        let owner = self.table[self.cursor];
        self.cursor = (self.cursor + 1) % self.table.len();
        let mut offered = 0;

        // The slot owner, if backlogged, is the level-1 candidate with an
        // above-everything priority: its slot is contractually its own.
        let mut owner_offered = None;
        if let Some(vc) = owner {
            if eligible(vc) && mem.head(vc).is_some() {
                let ok = cs.push(Candidate {
                    input: self.input,
                    vc,
                    output: qos[vc].output,
                    priority: Priority::new(f64::MAX / 4.0),
                });
                debug_assert!(ok);
                offered += 1;
                owner_offered = Some(vc);
            }
        }
        if !self.backfill {
            return offered;
        }
        // Backfill the remaining levels by dynamic priority.
        self.scratch.clear();
        let scratch = &mut self.scratch;
        self.vc_set.for_each_nonempty(mem, |vc| {
            if Some(vc) == owner_offered || !eligible(vc) {
                return;
            }
            let head = mem.head(vc).expect("occupancy index marks vc non-empty");
            let waited = now.saturating_sub(head.entered_at).0;
            let p = priority_fn.priority(qos[vc].reserved_slots, qos[vc].iat_rc, waited);
            scratch.push((p, vc));
        });
        let want = levels - offered;
        if self.scratch.len() > want {
            self.scratch
                .select_nth_unstable_by(want.saturating_sub(1), |a, b| {
                    b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1))
                });
            self.scratch.truncate(want);
        }
        self.scratch
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for &(p, vc) in self.scratch.iter() {
            let ok = cs.push(Candidate {
                input: self.input,
                vc,
                output: qos[vc].output,
                priority: p,
            });
            debug_assert!(ok);
            offered += 1;
        }
        offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_arbiter::priority::Siabp;
    use mmr_traffic::connection::ConnectionId;
    use mmr_traffic::flit::Flit;

    fn count(table: &[Option<usize>], vc: usize) -> usize {
        table.iter().filter(|e| **e == Some(vc)).count()
    }

    #[test]
    fn table_entries_proportional_to_reservations() {
        // vc 0: 727/16384 (~4.4%), vc 1: 21/16384, vc 2: 1/16384
        let table = build_slot_table(&[(0, 727), (1, 21), (2, 1)], 16_384, 256);
        assert_eq!(count(&table, 0), 11); // 727/16384*256 = 11.36 -> 11
        assert_eq!(count(&table, 1), 1);
        assert_eq!(count(&table, 2), 1);
        // The rest of the table is unreserved.
        assert_eq!(table.iter().flatten().count(), 13);
    }

    #[test]
    fn zero_reservation_gets_no_entries() {
        let table = build_slot_table(&[(0, 0), (1, 100)], 1000, 64);
        assert_eq!(count(&table, 0), 0);
        assert!(count(&table, 1) > 0);
    }

    #[test]
    fn entries_are_spread_not_clumped() {
        let table = build_slot_table(&[(0, 8_192)], 16_384, 256);
        // 50% reservation -> 128 entries; max gap between consecutive
        // entries should be small (even striding).
        let positions: Vec<usize> = table
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(positions.len(), 128);
        let mut max_gap = 0;
        for w in positions.windows(2) {
            max_gap = max_gap.max(w[1] - w[0]);
        }
        max_gap = max_gap.max(table.len() - positions.last().unwrap() + positions[0]);
        assert!(max_gap <= 4, "max gap {max_gap} for a 50% reservation");
    }

    #[test]
    fn full_table_probing_terminates() {
        // Over-subscribed: reservations sum past the table; must not hang.
        let table = build_slot_table(&[(0, 900), (1, 900)], 1000, 16);
        assert_eq!(table.iter().flatten().count(), 16);
    }

    fn setup() -> (VcMemory, Vec<VcQosInfo>) {
        let mem = VcMemory::new(3, 4, 1);
        let qos = (0..3)
            .map(|i| VcQosInfo {
                output: i,
                reserved_slots: 100,
                iat_rc: 1000.0,
            })
            .collect();
        (mem, qos)
    }

    fn push(mem: &mut VcMemory, vc: usize) {
        mem.push(
            vc,
            Flit::cbr(ConnectionId(vc as u32), 0, RouterCycle(0)),
            RouterCycle(0),
        );
    }

    #[test]
    fn owner_gets_its_slot() {
        let (mut mem, qos) = setup();
        push(&mut mem, 1);
        // Tiny table: slot 0 owned by vc 1.
        let mut tdm = TdmLinkScheduler::new(0, vec![(1, 500)], 1000, 2, false);
        assert_eq!(tdm.table()[0], Some(1));
        let mut cs = CandidateSet::new(4, 4);
        let n = tdm.select(&mem, &qos, &Siabp, RouterCycle(64), &mut cs);
        assert_eq!(n, 1);
        assert_eq!(cs.get(0, 0).unwrap().vc, 1);
    }

    #[test]
    fn pure_tdm_wastes_idle_slots() {
        let (mut mem, qos) = setup();
        push(&mut mem, 2); // vc 2 backlogged but owns nothing
        let mut tdm = TdmLinkScheduler::new(0, vec![(1, 500), (2, 0)], 1000, 2, false);
        let mut cs = CandidateSet::new(4, 4);
        // vc 1 idle: its slot produces no candidate; vc 2 is not offered.
        let n = tdm.select(&mem, &qos, &Siabp, RouterCycle(64), &mut cs);
        assert_eq!(n, 0, "pure TDM must waste the idle owner's slot");
    }

    #[test]
    fn backfill_recovers_idle_slots() {
        let (mut mem, qos) = setup();
        push(&mut mem, 2);
        let mut tdm = TdmLinkScheduler::new(0, vec![(1, 500), (2, 0)], 1000, 2, true);
        let mut cs = CandidateSet::new(4, 4);
        let n = tdm.select(&mem, &qos, &Siabp, RouterCycle(64), &mut cs);
        assert_eq!(n, 1);
        assert_eq!(cs.get(0, 0).unwrap().vc, 2);
    }

    #[test]
    fn owner_outranks_backfill() {
        let (mut mem, qos) = setup();
        push(&mut mem, 0);
        push(&mut mem, 2);
        let mut tdm = TdmLinkScheduler::new(0, vec![(0, 500), (2, 0)], 1000, 1, true);
        let mut cs = CandidateSet::new(4, 2);
        let n = tdm.select(&mem, &qos, &Siabp, RouterCycle(1 << 30), &mut cs);
        assert_eq!(n, 2);
        // Level 1 is the slot owner despite vc 2's enormous aged priority.
        assert_eq!(cs.get(0, 0).unwrap().vc, 0);
        assert_eq!(cs.get(0, 1).unwrap().vc, 2);
        assert!(cs.get(0, 0).unwrap().priority > cs.get(0, 1).unwrap().priority);
    }

    #[test]
    fn bulk_cursor_advance_matches_idle_selects() {
        let (mem, qos) = setup(); // all VCs empty: selects offer nothing
        let mk = || TdmLinkScheduler::new(0, vec![(0, 500), (1, 500)], 1000, 3, true);
        let mut stepped = mk();
        let mut bulk = mk();
        for n in [1u64, 2, 3, 5, 700] {
            for _ in 0..n {
                let mut cs = CandidateSet::new(4, 1);
                stepped.select(&mem, &qos, &Siabp, RouterCycle(0), &mut cs);
            }
            bulk.advance_cursor(n);
            assert_eq!(stepped.cursor, bulk.cursor, "after advancing {n}");
        }
    }

    #[test]
    fn cursor_wraps_round_robin() {
        let (mut mem, qos) = setup();
        push(&mut mem, 0);
        push(&mut mem, 0);
        push(&mut mem, 1);
        push(&mut mem, 1);
        let mut tdm = TdmLinkScheduler::new(0, vec![(0, 500), (1, 500)], 1000, 2, false);
        let owners: Vec<usize> = (0..4)
            .map(|_| {
                let mut cs = CandidateSet::new(4, 1);
                tdm.select(&mem, &qos, &Siabp, RouterCycle(0), &mut cs);
                cs.get(0, 0).unwrap().vc
            })
            .collect();
        // Alternating service per the table, wrapping.
        assert_eq!(owners[0], owners[2]);
        assert_eq!(owners[1], owners[3]);
        assert_ne!(owners[0], owners[1]);
    }
}
