//! The Network Interface Card model (paper Fig. 4 and §5).
//!
//! Each input link has a NIC holding one *infinite* queue per connection
//! (host main memory backs the NIC buffers, so they never overflow).  The
//! physical-link controller forwards at most one flit per flit cycle to
//! the router, choosing among connections that have **both a flit and a
//! credit** in demand-driven round-robin order.

use mmr_traffic::flit::Flit;
use std::collections::VecDeque;

/// One input port's NIC.
#[derive(Debug)]
pub struct Nic {
    /// Connection ids (global) homed on this NIC, in round-robin order.
    conns: Vec<usize>,
    /// Per-connection queues, indexed like `conns`.
    queues: Vec<VecDeque<Flit>>,
    /// Bit `local % 64` of word `local / 64` is set iff `queues[local]`
    /// is non-empty; the link controller visits only these.
    nonempty: Vec<u64>,
    /// Round-robin pointer into `conns`.
    rr: usize,
    /// High-water mark of total queued flits.
    peak_depth: usize,
    depth: usize,
}

impl Nic {
    /// Initial per-connection queue capacity.  The queues are elastic
    /// (host memory backs them), but pre-sizing keeps sub-saturation
    /// steady state free of `VecDeque` growth reallocations.
    const INITIAL_QUEUE_CAPACITY: usize = 64;

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
            queues: (0..n)
                .map(|_| VecDeque::with_capacity(Self::INITIAL_QUEUE_CAPACITY))
                .collect(),
            nonempty: vec![0; n.div_ceil(64)],
            rr: 0,
            peak_depth: 0,
            depth: 0,
        }
    }

    /// Connections homed here.
    pub fn connections(&self) -> &[usize] {
        &self.conns
    }

    /// Enqueue a generated flit for its connection.  `local` is the index
    /// of the connection within this NIC (see [`Nic::local_index`]).
    pub fn enqueue(&mut self, local: usize, flit: Flit) {
        self.queues[local].push_back(flit);
        self.nonempty[local / 64] |= 1 << (local % 64);
        self.depth += 1;
        if self.depth > self.peak_depth {
            self.peak_depth = self.depth;
        }
    }

    /// Map a global connection id to its local index, if homed here.
    pub fn local_index(&self, conn: usize) -> Option<usize> {
        self.conns.iter().position(|&c| c == conn)
    }

    /// Queued flits for local connection `local`.
    pub fn queue_len(&self, local: usize) -> usize {
        self.queues[local].len()
    }

    /// Total queued flits.
    pub fn total_depth(&self) -> usize {
        self.depth
    }

    /// High-water mark of total queued flits.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
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
        let flit = self.queues[local]
            .pop_front()
            .expect("index marks queue non-empty");
        if self.queues[local].is_empty() {
            self.nonempty[local / 64] &= !(1 << (local % 64));
        }
        self.depth -= 1;
        // Advance past the served connection.
        self.rr = if local + 1 == n { 0 } else { local + 1 };
        Some((self.conns[local], flit))
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

    /// True if the non-empty index agrees with the queues (bit set ⇔
    /// queue non-empty) and the queue lengths sum to
    /// [`total_depth`](Nic::total_depth).  O(connections); meant for
    /// debug assertions and tests.
    pub fn index_consistent(&self) -> bool {
        let bits_agree =
            self.queues.iter().enumerate().all(|(local, q)| {
                (self.nonempty[local / 64] >> (local % 64) & 1 == 1) != q.is_empty()
            });
        bits_agree && self.queues.iter().map(VecDeque::len).sum::<usize>() == self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_sim::time::RouterCycle;
    use mmr_traffic::connection::ConnectionId;

    fn flit(conn: u32, seq: u64) -> Flit {
        Flit::cbr(ConnectionId(conn), seq, RouterCycle(0))
    }

    fn nic3() -> Nic {
        Nic::new(vec![10, 11, 12])
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
        // Now nothing eligible.
        assert!(nic.forward_one(|c| c != 10).is_none());
        assert_eq!(nic.queue_len(0), 1, "flit for 10 still queued");
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
    fn local_index_mapping() {
        let nic = nic3();
        assert_eq!(nic.local_index(11), Some(1));
        assert_eq!(nic.local_index(99), None);
        assert_eq!(nic.connections(), &[10, 11, 12]);
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
