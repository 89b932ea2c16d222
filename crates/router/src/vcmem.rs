//! Virtual-channel memory (paper Fig. 2).
//!
//! The MMR provides one virtual channel per connection to avoid
//! head-of-line blocking, and implements the large resulting buffer pool
//! as interleaved RAM modules.  This model keeps a bounded FIFO per VC,
//! tracks when each flit entered the router (the SIABP delay counter), and
//! keeps per-bank occupancy statistics mirroring the interleaving scheme.
//!
//! It also maintains an **occupancy index**: one bit per VC, set exactly
//! while the VC holds a flit.  Link schedulers intersect it with the
//! precomputed [`VcSet`] of the VCs they serve, so candidate selection
//! visits only non-empty VCs (DESIGN.md §18).

use mmr_sim::time::RouterCycle;
use mmr_traffic::flit::Flit;
use std::collections::VecDeque;

/// A flit resident in a VC buffer, with its router-arrival time.
#[derive(Debug, Clone, Copy)]
pub struct BufferedFlit {
    /// The flit.
    pub flit: Flit,
    /// When it entered this VC queue (router cycles); SIABP's queuing
    /// delay counter is `now - entered_at`.
    pub entered_at: RouterCycle,
}

/// The router's virtual-channel memory: one bounded FIFO per connection.
#[derive(Debug)]
pub struct VcMemory {
    queues: Vec<VecDeque<BufferedFlit>>,
    capacity: usize,
    banks: usize,
    /// High-water mark of total occupancy, for reports.
    peak_occupancy: usize,
    occupancy: usize,
    /// Occupancy index: bit `vc % 64` of word `vc / 64` is set iff
    /// `queues[vc]` is non-empty.
    nonempty: Vec<u64>,
}

/// A fixed set of global VC ids, stored as the sparse list of
/// `(word, mask)` pairs its members occupy in the occupancy index.  At
/// most min(#VCs, #words) entries: a wide switch's input with 4 VCs does
/// at most 4 ANDs per cycle, however many VCs the whole router has.
#[derive(Debug)]
pub struct VcSet {
    words: Vec<(usize, u64)>,
}

impl VcSet {
    /// The set of `vcs`.  Ids must be unique: a duplicate would offer the
    /// same VC twice under the scan this index replaced.
    pub fn new(vcs: &[usize]) -> Self {
        let mut words: Vec<(usize, u64)> = Vec::new();
        for &vc in vcs {
            let (w, bit) = (vc / 64, 1u64 << (vc % 64));
            let at = match words.binary_search_by_key(&w, |&(word, _)| word) {
                Ok(at) => at,
                Err(at) => {
                    words.insert(at, (w, 0));
                    at
                }
            };
            debug_assert!(words[at].1 & bit == 0, "duplicate VC id {vc}");
            words[at].1 |= bit;
        }
        VcSet { words }
    }

    /// Call `f` with every member that currently holds a flit in `mem`,
    /// in ascending VC order.
    #[inline]
    pub fn for_each_nonempty(&self, mem: &VcMemory, mut f: impl FnMut(usize)) {
        let occ = mem.nonempty_words();
        for &(w, mask) in &self.words {
            let mut bits = occ[w] & mask;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

impl VcMemory {
    /// Memory for `vcs` virtual channels of `capacity` flits each, spread
    /// over `banks` interleaved RAM modules.
    pub fn new(vcs: usize, capacity: usize, banks: usize) -> Self {
        assert!(capacity > 0 && banks > 0);
        VcMemory {
            queues: (0..vcs)
                .map(|_| VecDeque::with_capacity(capacity))
                .collect(),
            capacity,
            banks,
            peak_occupancy: 0,
            occupancy: 0,
            nonempty: vec![0; vcs.div_ceil(64)],
        }
    }

    /// Free space in `vc`'s buffer.
    pub fn free_space(&self, vc: usize) -> usize {
        self.capacity - self.queues[vc].len()
    }

    /// Occupancy of `vc`.
    pub fn len(&self, vc: usize) -> usize {
        self.queues[vc].len()
    }

    /// True if `vc` holds no flits.
    pub fn is_empty(&self, vc: usize) -> bool {
        self.queues[vc].is_empty()
    }

    /// Head flit of `vc`, if any.
    pub fn head(&self, vc: usize) -> Option<&BufferedFlit> {
        self.queues[vc].front()
    }

    /// Append a flit to `vc`.  Panics if the buffer is full — the credit
    /// protocol must make overflow impossible, so this is a hard invariant.
    pub fn push(&mut self, vc: usize, flit: Flit, now: RouterCycle) {
        assert!(
            self.queues[vc].len() < self.capacity,
            "VC {vc} overflow: credit protocol violated"
        );
        self.queues[vc].push_back(BufferedFlit {
            flit,
            entered_at: now,
        });
        self.nonempty[vc / 64] |= 1 << (vc % 64);
        self.occupancy += 1;
        if self.occupancy > self.peak_occupancy {
            self.peak_occupancy = self.occupancy;
        }
    }

    /// Remove and return the head flit of `vc`.
    pub fn pop(&mut self, vc: usize) -> Option<BufferedFlit> {
        let f = self.queues[vc].pop_front();
        if f.is_some() {
            self.occupancy -= 1;
            if self.queues[vc].is_empty() {
                self.nonempty[vc / 64] &= !(1 << (vc % 64));
            }
        }
        f
    }

    /// The occupancy index, 64 VCs per word: bit `vc % 64` of word
    /// `vc / 64` is set iff `vc` holds a flit.
    pub fn nonempty_words(&self) -> &[u64] {
        &self.nonempty
    }

    /// True if the occupancy index agrees with the queues (bit set ⇔
    /// queue non-empty) and the queue lengths sum to
    /// [`total_occupancy`](VcMemory::total_occupancy).  O(VCs); meant for
    /// debug assertions and tests.
    pub fn index_consistent(&self) -> bool {
        let bits_agree = self
            .queues
            .iter()
            .enumerate()
            .all(|(vc, q)| (self.nonempty[vc / 64] >> (vc % 64) & 1 == 1) != q.is_empty());
        bits_agree && self.queues.iter().map(VecDeque::len).sum::<usize>() == self.occupancy
    }

    /// Total flits resident across all VCs.
    pub fn total_occupancy(&self) -> usize {
        self.occupancy
    }

    /// High-water mark of total occupancy.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// RAM bank a VC's storage interleaves onto (Fig. 2's simple scheme:
    /// modulo interleaving).
    pub fn bank_of(&self, vc: usize) -> usize {
        vc % self.banks
    }

    /// Current occupancy per bank.
    pub fn bank_occupancy(&self) -> Vec<usize> {
        let mut per_bank = vec![0; self.banks];
        for (vc, q) in self.queues.iter().enumerate() {
            per_bank[vc % self.banks] += q.len();
        }
        per_bank
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mmr_traffic::connection::ConnectionId;

    fn flit(conn: u32, seq: u64) -> Flit {
        Flit::cbr(ConnectionId(conn), seq, RouterCycle(0))
    }

    /// Clear the index bit of the first non-empty VC and leave its queue
    /// alone: a planted desync.  False if every VC is empty.
    pub(crate) fn hide_one(mem: &mut VcMemory) -> bool {
        let Some(vc) = mem.queues.iter().position(|q| !q.is_empty()) else {
            return false;
        };
        mem.nonempty[vc / 64] &= !(1 << (vc % 64));
        true
    }

    #[test]
    fn fifo_order_per_vc() {
        let mut m = VcMemory::new(2, 4, 2);
        m.push(0, flit(0, 0), RouterCycle(10));
        m.push(0, flit(0, 1), RouterCycle(20));
        assert_eq!(m.len(0), 2);
        assert_eq!(m.head(0).unwrap().flit.seq, 0);
        let popped = m.pop(0).unwrap();
        assert_eq!(popped.flit.seq, 0);
        assert_eq!(popped.entered_at, RouterCycle(10));
        assert_eq!(m.pop(0).unwrap().flit.seq, 1);
        assert!(m.pop(0).is_none());
        assert!(m.is_empty(0));
    }

    #[test]
    fn capacity_tracked() {
        let mut m = VcMemory::new(1, 2, 1);
        assert_eq!(m.free_space(0), 2);
        m.push(0, flit(0, 0), RouterCycle(0));
        assert_eq!(m.free_space(0), 1);
        m.push(0, flit(0, 1), RouterCycle(0));
        assert_eq!(m.free_space(0), 0);
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn overflow_panics() {
        let mut m = VcMemory::new(1, 1, 1);
        m.push(0, flit(0, 0), RouterCycle(0));
        m.push(0, flit(0, 1), RouterCycle(0));
    }

    #[test]
    fn occupancy_and_peak() {
        let mut m = VcMemory::new(3, 4, 2);
        m.push(0, flit(0, 0), RouterCycle(0));
        m.push(1, flit(1, 0), RouterCycle(0));
        m.push(2, flit(2, 0), RouterCycle(0));
        assert_eq!(m.total_occupancy(), 3);
        m.pop(0);
        m.pop(1);
        assert_eq!(m.total_occupancy(), 1);
        assert_eq!(m.peak_occupancy(), 3);
    }

    #[test]
    fn occupancy_index_tracks_queue_emptiness() {
        let mut m = VcMemory::new(130, 2, 1);
        assert_eq!(m.nonempty_words(), &[0, 0, 0]);
        for vc in [0, 63, 64, 129] {
            m.push(vc, flit(vc as u32, 0), RouterCycle(0));
        }
        m.push(64, flit(64, 1), RouterCycle(0));
        assert_eq!(m.nonempty_words(), &[1 | 1 << 63, 1, 2]);
        assert!(m.index_consistent());
        // The bit clears only when the queue empties; an empty pop is a
        // no-op.
        m.pop(64);
        assert_eq!(m.nonempty_words()[1], 1);
        m.pop(64);
        assert!(m.pop(64).is_none());
        assert_eq!(m.nonempty_words()[1], 0);
        assert!(m.index_consistent());
    }

    #[test]
    fn vc_set_visits_only_occupied_members_in_ascending_order() {
        let mut m = VcMemory::new(200, 2, 1);
        for vc in [3, 64, 70, 199] {
            m.push(vc, flit(vc as u32, 0), RouterCycle(0));
        }
        // Members listed out of order, spanning three words; 64 is
        // occupied but not a member, 5 a member but empty.
        let set = VcSet::new(&[199, 70, 3, 5, 130]);
        let mut seen = Vec::new();
        set.for_each_nonempty(&m, |vc| seen.push(vc));
        assert_eq!(seen, vec![3, 70, 199]);
        VcSet::new(&[]).for_each_nonempty(&m, |_| panic!("empty set has no members"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate VC id 70")]
    fn vc_set_rejects_duplicate_ids() {
        VcSet::new(&[3, 70, 5, 70]);
    }

    #[test]
    fn bank_interleaving() {
        let mut m = VcMemory::new(4, 4, 2);
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(1), 1);
        assert_eq!(m.bank_of(2), 0);
        m.push(0, flit(0, 0), RouterCycle(0));
        m.push(2, flit(2, 0), RouterCycle(0));
        m.push(3, flit(3, 0), RouterCycle(0));
        assert_eq!(m.bank_occupancy(), vec![2, 1]);
    }
}
