//! Link scheduling: candidate selection (paper §3.1).
//!
//! Each flit cycle, every input link selects the k virtual channels whose
//! head flits carry the highest biased priorities and offers them to the
//! switch scheduler as its candidate vector.  The priority function is
//! pluggable ([`mmr_arbiter::priority`]); SIABP is the MMR's default.

use crate::vcmem::{VcMemory, VcSet};
use mmr_arbiter::candidate::{Candidate, CandidateSet, Priority};
use mmr_arbiter::priority::LinkPriority;
use mmr_sim::time::RouterCycle;

/// Static per-connection inputs to the priority function.
#[derive(Debug, Clone, Copy)]
pub struct VcQosInfo {
    /// Output port the connection is routed to (fixed at setup).
    pub output: usize,
    /// Reserved slots per round (SIABP initial priority).
    pub reserved_slots: u64,
    /// Flit inter-arrival time at the connection's average rate, in
    /// router cycles (IABP denominator).
    pub iat_rc: f64,
}

/// Selects the top-k candidates for one input link.
///
/// `vcs` lists the (global) VC indices homed on this input; selection
/// visits only those the memory's occupancy index marks non-empty, and
/// the scratch buffer keeps it allocation-free across cycles.
#[derive(Debug)]
pub struct LinkScheduler {
    input: usize,
    vcs: Vec<usize>,
    vc_set: VcSet,
    scratch: Vec<(Priority, usize)>,
}

impl LinkScheduler {
    /// Scheduler for `input`, serving the given VC indices.
    pub fn new(input: usize, vcs: Vec<usize>) -> Self {
        let cap = vcs.len();
        LinkScheduler {
            input,
            vc_set: VcSet::new(&vcs),
            vcs,
            scratch: Vec::with_capacity(cap),
        }
    }

    /// VCs homed on this input.
    pub fn vcs(&self) -> &[usize] {
        &self.vcs
    }

    /// Compute this input's candidate vector and install it into `cs`.
    ///
    /// `qos` is indexed by global VC id.  Returns the number of candidates
    /// offered (0 ≤ n ≤ levels).
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

    /// Like [`LinkScheduler::select`], but only VCs for which `eligible`
    /// returns true may become candidates.  Multi-hop configurations use
    /// this to gate on downstream credits: a head flit with no space at
    /// the next router must not be offered to the crossbar.
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
        self.scratch.clear();
        // The comparator below is a total order on (priority, vc), so the
        // order VCs are visited in cannot change the result.
        let scratch = &mut self.scratch;
        self.vc_set.for_each_nonempty(mem, |vc| {
            if !eligible(vc) {
                return;
            }
            let head = mem.head(vc).expect("occupancy index marks vc non-empty");
            let waited = now.saturating_sub(head.entered_at).0;
            let info = &qos[vc];
            let p = priority_fn.priority(info.reserved_slots, info.iat_rc, waited);
            scratch.push((p, vc));
        });
        // Partial selection: only the top `levels` need ordering.  For the
        // candidate counts in play (k = 4, tens–hundreds of VCs) a
        // select_nth + sort of the head is the cheapest exact method.
        let n = self.scratch.len().min(levels);
        if n == 0 {
            return 0;
        }
        if self.scratch.len() > levels {
            // Descending by priority: nth element with reversed comparator.
            self.scratch.select_nth_unstable_by(levels - 1, |a, b| {
                b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1))
            });
            self.scratch.truncate(levels);
        }
        self.scratch
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for &(p, vc) in self.scratch.iter().take(n) {
            let ok = cs.push(Candidate {
                input: self.input,
                vc,
                output: qos[vc].output,
                priority: p,
            });
            debug_assert!(ok, "candidate set level overflow");
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_arbiter::priority::{Fifo, Siabp};
    use mmr_traffic::connection::ConnectionId;
    use mmr_traffic::flit::Flit;

    fn setup(vcs: usize) -> (VcMemory, Vec<VcQosInfo>) {
        let mem = VcMemory::new(vcs, 4, 2);
        let qos = (0..vcs)
            .map(|i| VcQosInfo {
                output: i % 4,
                reserved_slots: 1 + i as u64,
                iat_rc: 1000.0,
            })
            .collect();
        (mem, qos)
    }

    fn push(mem: &mut VcMemory, vc: usize, entered: u64) {
        mem.push(
            vc,
            Flit::cbr(ConnectionId(vc as u32), 0, RouterCycle(0)),
            RouterCycle(entered),
        );
    }

    #[test]
    fn empty_vcs_offer_nothing() {
        let (mem, qos) = setup(6);
        let mut ls = LinkScheduler::new(0, (0..6).collect());
        let mut cs = CandidateSet::new(4, 4);
        let n = ls.select(&mem, &qos, &Siabp, RouterCycle(100), &mut cs);
        assert_eq!(n, 0);
        assert!(cs.is_empty());
    }

    #[test]
    fn selects_highest_priorities_in_order() {
        let (mut mem, qos) = setup(6);
        // All enter at t=0; SIABP priority grows with reserved_slots, so
        // VC 5 (slots 6) ranks first.
        for vc in 0..6 {
            push(&mut mem, vc, 0);
        }
        let mut ls = LinkScheduler::new(0, (0..6).collect());
        let mut cs = CandidateSet::new(4, 2);
        let n = ls.select(&mem, &qos, &Siabp, RouterCycle(64), &mut cs);
        assert_eq!(n, 2);
        assert_eq!(cs.get(0, 0).unwrap().vc, 5);
        assert_eq!(cs.get(0, 1).unwrap().vc, 4);
    }

    #[test]
    fn waiting_raises_priority() {
        let (mut mem, qos) = setup(2);
        // VC 0 has a smaller reservation but has waited far longer.
        push(&mut mem, 0, 0);
        push(&mut mem, 1, 1_048_000);
        let mut ls = LinkScheduler::new(0, vec![0, 1]);
        let mut cs = CandidateSet::new(4, 2);
        ls.select(&mem, &qos, &Siabp, RouterCycle(1_048_576), &mut cs);
        assert_eq!(
            cs.get(0, 0).unwrap().vc,
            0,
            "long-waiting flit must outrank"
        );
    }

    #[test]
    fn fifo_policy_orders_by_age() {
        let (mut mem, qos) = setup(3);
        push(&mut mem, 0, 300);
        push(&mut mem, 1, 100);
        push(&mut mem, 2, 200);
        let mut ls = LinkScheduler::new(0, vec![0, 1, 2]);
        let mut cs = CandidateSet::new(4, 3);
        ls.select(&mem, &qos, &Fifo, RouterCycle(1000), &mut cs);
        let order: Vec<usize> = (0..3).map(|l| cs.get(0, l).unwrap().vc).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn candidates_carry_routing_and_input() {
        let (mut mem, qos) = setup(5);
        push(&mut mem, 3, 0);
        let mut ls = LinkScheduler::new(2, vec![3]);
        let mut cs = CandidateSet::new(4, 4);
        ls.select(&mem, &qos, &Siabp, RouterCycle(64), &mut cs);
        let c = cs.get(2, 0).unwrap();
        assert_eq!(c.input, 2);
        assert_eq!(c.vc, 3);
        assert_eq!(c.output, 3);
    }

    #[test]
    fn truncates_to_level_count() {
        let (mut mem, qos) = setup(10);
        for vc in 0..10 {
            push(&mut mem, vc, 0);
        }
        let mut ls = LinkScheduler::new(0, (0..10).collect());
        let mut cs = CandidateSet::new(4, 4);
        let n = ls.select(&mem, &qos, &Siabp, RouterCycle(64), &mut cs);
        assert_eq!(n, 4);
        assert_eq!(cs.len(), 4);
        // The four largest reservations (VCs 9, 8, 7, 6) are the four
        // candidates.
        let vcs: Vec<usize> = (0..4).map(|l| cs.get(0, l).unwrap().vc).collect();
        assert_eq!(vcs, vec![9, 8, 7, 6]);
    }
}
