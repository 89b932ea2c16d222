//! The Network Interface Card model (paper Fig. 4 and §5).
//!
//! Each input link has a NIC holding one *infinite* queue per connection
//! (host main memory backs the NIC buffers, so they never overflow).  The
//! physical-link controller forwards at most one flit per flit cycle to
//! the router, choosing among connections that have **both a flit and a
//! credit** in demand-driven round-robin order.
//!
//! **One slot pool per NIC** backs the queues: each connection's FIFO is
//! a list of slots linked through `next`, freed slots go on a free list.
//! The pool has room for one slot per connection from construction and
//! grows (geometrically, by `Vec::push`) only when the total backlog
//! passes that — unbounded queues, yet no allocation after construction
//! while the backlog fits (DESIGN.md §18).

use mmr_traffic::flit::Flit;

/// End of a slot list.
const NIL: u32 = u32::MAX;

/// One input port's NIC.
#[derive(Debug)]
pub struct Nic {
    /// Connection ids (global) homed on this NIC, in round-robin order.
    conns: Vec<usize>,
    /// The slot pool.  A slot is pushed only when every slot holds a
    /// flit, so its length is the high-water mark of the total backlog.
    slots: Vec<Flit>,
    /// Per slot: the next slot on its FIFO or on the free list.
    next: Vec<u32>,
    /// Per local connection: the (head, tail) slots of its FIFO; the
    /// head is [`NIL`] while it is empty, and the tail is then stale.
    ends: Vec<(u32, u32)>,
    /// First slot of the free list.
    free: u32,
    /// Bit `local % 64` of word `local / 64` is set iff connection
    /// `local`'s FIFO is non-empty; the link controller visits only these.
    nonempty: Vec<u64>,
    /// Round-robin pointer into `conns`.
    rr: usize,
    /// Total queued flits.
    depth: usize,
}

impl Nic {
    /// A NIC serving the given (global) connection ids.
    pub fn new(conns: Vec<usize>) -> Self {
        let n = conns.len();
        debug_assert!(
            {
                let mut sorted = conns.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate connection id on one NIC"
        );
        Nic {
            conns,
            slots: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            ends: vec![(NIL, NIL); n],
            free: NIL,
            nonempty: vec![0; n.div_ceil(64)],
            rr: 0,
            depth: 0,
        }
    }

    /// Enqueue a generated flit for its connection.  `local` is the index
    /// of the connection within this NIC.
    pub fn enqueue(&mut self, local: usize, flit: Flit) {
        if self.free == NIL {
            self.free = u32::try_from(self.slots.len()).expect("NIC backlog under 2^32 flits");
            self.slots.push(flit);
            self.next.push(NIL);
        }
        let s = self.free;
        self.free = self.next[s as usize];
        (self.slots[s as usize], self.next[s as usize]) = (flit, NIL);
        let (head, tail) = &mut self.ends[local];
        if *head == NIL {
            *head = s;
        } else {
            self.next[*tail as usize] = s;
        }
        *tail = s;
        self.nonempty[local / 64] |= 1 << (local % 64);
        self.depth += 1;
    }

    /// Total queued flits.
    pub fn total_depth(&self) -> usize {
        self.depth
    }

    /// High-water mark of total queued flits.
    pub fn peak_depth(&self) -> usize {
        self.slots.len()
    }

    /// True if no flits are queued.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// The link controller's decision: pick the next connection, in
    /// demand-driven round-robin order, that has a queued flit and passes
    /// `has_credit`; dequeue and return its head flit with the global
    /// connection id.  Returns `None` when nothing is eligible.
    /// `has_credit` is asked only about connections with a queued flit.
    pub fn forward_one<F>(&mut self, has_credit: F) -> Option<(usize, Flit)>
    where
        F: Fn(usize) -> bool,
    {
        if self.depth == 0 {
            return None;
        }
        let n = self.conns.len();
        // Cyclic order from the pointer: [rr, n), then [0, rr).
        let local = self
            .first_ready(self.rr, n, &has_credit)
            .or_else(|| self.first_ready(0, self.rr, &has_credit))?;
        let head = &mut self.ends[local].0;
        let s = *head as usize;
        *head = self.next[s];
        if *head == NIL {
            self.nonempty[local / 64] &= !(1 << (local % 64));
        }
        self.next[s] = self.free;
        self.free = s as u32;
        self.depth -= 1;
        // Advance past the served connection.
        self.rr = if local + 1 == n { 0 } else { local + 1 };
        Some((self.conns[local], self.slots[s]))
    }

    /// Lowest local index in `[lo, hi)` with a queued flit and a credit.
    fn first_ready<F: Fn(usize) -> bool>(
        &self,
        lo: usize,
        hi: usize,
        has_credit: &F,
    ) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        for w in lo / 64..=(hi - 1) / 64 {
            let base = w * 64;
            let mut bits = self.nonempty[w];
            if base < lo {
                bits &= u64::MAX << (lo - base);
            }
            if hi < base + 64 {
                bits &= (1 << (hi - base)) - 1;
            }
            while bits != 0 {
                let local = base + bits.trailing_zeros() as usize;
                if has_credit(self.conns[local]) {
                    return Some(local);
                }
                bits &= bits - 1;
            }
        }
        None
    }

    /// True if the non-empty index agrees with the FIFOs (bit set ⇔
    /// FIFO non-empty), each non-empty FIFO ends at its tail, the depth
    /// lies between the backlogged connections and the pool size, and
    /// the free list is empty exactly when every slot is queued.
    /// O(connections): walking the pool would cost its size, the
    /// backlog's high-water mark, which grows without bound past
    /// saturation.  Meant for debug assertions and tests.
    pub fn index_consistent(&self) -> bool {
        let mut backlogged = 0;
        for (local, &(head, tail)) in self.ends.iter().enumerate() {
            let bit = self.nonempty[local / 64] >> (local % 64) & 1 == 1;
            if bit != (head != NIL) || (head != NIL && self.next[tail as usize] != NIL) {
                return false;
            }
            backlogged += usize::from(head != NIL);
        }
        (backlogged..=self.slots.len()).contains(&self.depth)
            && (self.free == NIL) == (self.depth == self.slots.len())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mmr_sim::time::RouterCycle;
    use mmr_traffic::connection::ConnectionId;

    fn flit(conn: u32, seq: u64) -> Flit {
        Flit::cbr(ConnectionId(conn), seq, RouterCycle(0))
    }

    fn nic3() -> Nic {
        Nic::new(vec![10, 11, 12])
    }

    /// Clear the index bit of the first backlogged connection and leave
    /// its FIFO alone: a planted desync.  False if the NIC is empty.
    pub(crate) fn hide_one(nic: &mut Nic) -> bool {
        let Some(local) = nic.ends.iter().position(|&(head, _)| head != NIL) else {
            return false;
        };
        nic.nonempty[local / 64] &= !(1 << (local % 64));
        true
    }

    #[test]
    fn round_robin_over_backlogged_connections() {
        let mut nic = nic3();
        for local in 0..3 {
            nic.enqueue(local, flit(10 + local as u32, 0));
            nic.enqueue(local, flit(10 + local as u32, 1));
        }
        let order: Vec<usize> = (0..6)
            .map(|_| nic.forward_one(|_| true).unwrap().0)
            .collect();
        assert_eq!(order, vec![10, 11, 12, 10, 11, 12]);
        assert!(nic.is_empty());
    }

    #[test]
    fn demand_driven_skips_empty_queues() {
        let mut nic = nic3();
        nic.enqueue(2, flit(12, 0));
        nic.enqueue(2, flit(12, 1));
        // Connections 10 and 11 have nothing; 12 gets back-to-back service.
        assert_eq!(nic.forward_one(|_| true).unwrap().0, 12);
        assert_eq!(nic.forward_one(|_| true).unwrap().0, 12);
        assert!(nic.forward_one(|_| true).is_none());
    }

    #[test]
    fn creditless_connections_are_skipped() {
        let mut nic = nic3();
        nic.enqueue(0, flit(10, 0));
        nic.enqueue(1, flit(11, 0));
        // Connection 10 has no credit: 11 must be served instead.
        let (conn, _) = nic.forward_one(|c| c != 10).unwrap();
        assert_eq!(conn, 11);
        // Now nothing eligible, and the flit for 10 is still queued.
        assert!(nic.forward_one(|c| c != 10).is_none());
        assert_eq!(nic.total_depth(), 1);
        assert_eq!(nic.forward_one(|_| true).unwrap().0, 10);
    }

    #[test]
    fn fifo_within_connection() {
        let mut nic = nic3();
        nic.enqueue(0, flit(10, 0));
        nic.enqueue(0, flit(10, 1));
        assert_eq!(nic.forward_one(|_| true).unwrap().1.seq, 0);
        assert_eq!(nic.forward_one(|_| true).unwrap().1.seq, 1);
    }

    #[test]
    fn peak_depth_tracked() {
        let mut nic = nic3();
        for i in 0..5 {
            nic.enqueue(0, flit(10, i));
        }
        nic.forward_one(|_| true);
        nic.forward_one(|_| true);
        assert_eq!(nic.total_depth(), 3);
        assert_eq!(nic.peak_depth(), 5);
    }

    #[test]
    fn pool_grows_past_one_slot_per_connection_and_reuses_slots() {
        let mut nic = nic3();
        // 70 flits on one connection: past 64 per queue and past the
        // three slots reserved, interleaved with the other two.
        for i in 0..70 {
            nic.enqueue(0, flit(10, i));
            if i % 10 == 0 {
                nic.enqueue(1 + (i as usize / 10) % 2, flit(11, i));
            }
        }
        assert_eq!((nic.total_depth(), nic.peak_depth()), (77, 77));
        assert!(nic.index_consistent());
        // Drain half, refill through the freed slots: FIFO order holds
        // on reused slots and the pool does not grow.
        let mut seen = Vec::new();
        for _ in 0..40 {
            let (conn, f) = nic.forward_one(|c| c == 10).unwrap();
            seen.push((conn, f.seq));
        }
        for i in 70..100 {
            nic.enqueue(0, flit(10, i));
        }
        while let Some((conn, f)) = nic.forward_one(|c| c == 10) {
            seen.push((conn, f.seq));
        }
        assert_eq!(seen, (0..100).map(|i| (10, i)).collect::<Vec<_>>());
        assert_eq!((nic.total_depth(), nic.peak_depth()), (7, 77));
        assert!(nic.index_consistent());
    }

    #[test]
    fn no_allocation_while_backlog_fits_one_slot_per_connection() {
        // The pool's storage never moves while the total depth stays at
        // or below the connection count: enqueue and forward reuse it.
        let mut nic = Nic::new((0..130).collect());
        let storage = |nic: &Nic| (nic.slots.as_ptr(), nic.next.as_ptr());
        let before = storage(&nic);
        assert!(nic.slots.capacity() >= 130 && nic.next.capacity() >= 130);
        for round in 0..20usize {
            // Two connections in three get a flit, then the NIC forwards
            // down to `keep` flits or until no queued flit has a credit.
            for local in (0..130).filter(|l| !(l + round).is_multiple_of(3)) {
                nic.enqueue(local, flit(local as u32, round as u64));
            }
            let keep = 10 * (round % 4);
            let credit = |c: usize| c % 2 == round % 2 || c.is_multiple_of(5);
            while nic.total_depth() > keep {
                if nic.forward_one(credit).is_none() {
                    break;
                }
            }
            assert!(nic.index_consistent());
        }
        assert_eq!(storage(&nic), before);
        assert!(nic.peak_depth() <= 130);
    }

    #[test]
    fn round_robin_wraps_across_index_words() {
        // 130 connections span three index words; start the pointer in
        // the last word so the scan must wrap to the first.
        let mut nic = Nic::new((0..130).collect());
        for local in [2, 64, 129] {
            nic.enqueue(local, flit(local as u32, 0));
            nic.enqueue(local, flit(local as u32, 1));
        }
        assert!(nic.index_consistent());
        let order: Vec<usize> = (0..6)
            .map(|_| nic.forward_one(|c| c != 64).map_or(usize::MAX, |(c, _)| c))
            .collect();
        // 64 holds flits but never a credit: it is skipped, not served.
        assert_eq!(order, vec![2, 129, 2, 129, usize::MAX, usize::MAX]);
        assert_eq!(nic.forward_one(|_| true).unwrap().0, 64);
        assert!(nic.index_consistent());
    }

    #[test]
    fn credit_is_asked_only_of_backlogged_connections() {
        let mut nic = nic3();
        nic.enqueue(1, flit(11, 0));
        let asked = std::cell::RefCell::new(Vec::new());
        nic.forward_one(|c| {
            asked.borrow_mut().push(c);
            true
        });
        assert_eq!(*asked.borrow(), vec![11]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate connection id")]
    fn duplicate_connection_ids_are_rejected() {
        Nic::new(vec![10, 11, 10]);
    }

    #[test]
    fn empty_nic_forwards_nothing() {
        let mut nic = Nic::new(vec![]);
        assert!(nic.forward_one(|_| true).is_none());
    }
}
