//! Credit-based flow control (paper §2, "Flow Control").
//!
//! The MMR avoids flit loss with per-connection credits: the NIC holds one
//! credit per free slot in the connection's router VC buffer, spends one
//! per flit forwarded, and regains one when a flit leaves the router
//! through the crossbar.  Credits returned in cycle *t* become usable in
//! cycle *t+1* (the return path is a single phit on a short link, well
//! under a flit cycle, but never zero).

/// NIC-side credit counters, one per connection.
#[derive(Debug, Clone)]
pub struct CreditBank {
    credits: Vec<u32>,
    pending: Vec<u32>,
    /// Connections with `pending > 0`, in first-return order, so
    /// applying returns touches only the connections that moved this
    /// cycle instead of scanning the whole bank.  Capacity is reserved
    /// up front (at most one entry per connection), so the per-cycle
    /// path never allocates.
    dirty: Vec<usize>,
    capacity: u32,
}

impl CreditBank {
    /// A bank for `connections` connections, each starting with `capacity`
    /// credits (the VC buffer depth).
    pub fn new(connections: usize, capacity: u32) -> Self {
        CreditBank {
            credits: vec![capacity; connections],
            pending: vec![0; connections],
            dirty: Vec::with_capacity(connections),
            capacity,
        }
    }

    /// Credits currently available for `conn`.
    #[inline]
    pub fn available(&self, conn: usize) -> u32 {
        self.credits[conn]
    }

    /// True if `conn` can forward a flit.
    #[inline]
    pub fn has_credit(&self, conn: usize) -> bool {
        self.credits[conn] > 0
    }

    /// Spend one credit (flit forwarded NIC → router).  Panics if none —
    /// the link controller must check first.
    pub fn spend(&mut self, conn: usize) {
        assert!(
            self.credits[conn] > 0,
            "connection {conn}: credit underflow"
        );
        self.credits[conn] -= 1;
    }

    /// Queue one credit return (flit left the router).  Takes effect at
    /// the next [`CreditBank::apply_returns`].
    pub fn queue_return(&mut self, conn: usize) {
        if self.pending[conn] == 0 {
            self.dirty.push(conn);
        }
        self.pending[conn] += 1;
    }

    /// Apply all queued returns (end of cycle).
    pub fn apply_returns(&mut self) {
        for i in 0..self.dirty.len() {
            let conn = self.dirty[i];
            self.credits[conn] += self.pending[conn];
            assert!(
                self.credits[conn] <= self.capacity,
                "credit overflow: more returns than buffer slots"
            );
            self.pending[conn] = 0;
        }
        self.dirty.clear();
    }

    /// Apply all queued returns, clamping each counter at capacity instead
    /// of panicking.  Returns the number of excess credits discarded.
    ///
    /// Under fault injection a duplicated credit return can push a counter
    /// past the buffer depth; a real link controller would saturate the
    /// counter exactly like this (the credit watchdog reconciles any
    /// remaining drift).  Without faults this is equivalent to
    /// [`CreditBank::apply_returns`].
    pub fn apply_returns_clamped(&mut self) -> u32 {
        let mut excess = 0;
        for i in 0..self.dirty.len() {
            let conn = self.dirty[i];
            let c = &mut self.credits[conn];
            *c += self.pending[conn];
            if *c > self.capacity {
                excess += *c - self.capacity;
                *c = self.capacity;
            }
            self.pending[conn] = 0;
        }
        self.dirty.clear();
        excess
    }

    /// Per-connection buffer depth (the credit budget).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// True if `conn`'s counters are consistent with `occupancy` flits
    /// resident in its VC buffer: available + pending + occupancy must
    /// equal the buffer depth.
    pub fn consistent(&self, conn: usize, occupancy: usize) -> bool {
        self.credits[conn] as usize + self.pending[conn] as usize + occupancy
            == self.capacity as usize
    }

    /// Force `conn`'s available-credit counter to `expected` (watchdog
    /// resynchronization after detected drift).  Returns the signed drift
    /// that was corrected (`expected - previous`).
    pub fn resync(&mut self, conn: usize, expected: u32) -> i64 {
        debug_assert!(expected <= self.capacity);
        let drift = expected as i64 - self.credits[conn] as i64;
        self.credits[conn] = expected;
        drift
    }

    /// Sum of available credits (diagnostic).
    pub fn total_available(&self) -> u32 {
        self.credits.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full() {
        let b = CreditBank::new(3, 4);
        assert_eq!(b.available(0), 4);
        assert!(b.has_credit(2));
        assert_eq!(b.total_available(), 12);
    }

    #[test]
    fn spend_and_return_cycle() {
        let mut b = CreditBank::new(1, 2);
        b.spend(0);
        b.spend(0);
        assert!(!b.has_credit(0));
        b.queue_return(0);
        // Not visible until applied.
        assert!(!b.has_credit(0));
        b.apply_returns();
        assert_eq!(b.available(0), 1);
    }

    #[test]
    #[should_panic(expected = "credit underflow")]
    fn underflow_panics() {
        let mut b = CreditBank::new(1, 1);
        b.spend(0);
        b.spend(0);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn over_return_panics() {
        let mut b = CreditBank::new(1, 1);
        b.queue_return(0);
        b.apply_returns();
    }

    #[test]
    fn clamped_returns_discard_excess() {
        let mut b = CreditBank::new(2, 2);
        b.spend(0);
        b.queue_return(0);
        b.queue_return(0); // duplicated credit
        b.queue_return(1); // phantom: conn 1 never spent
        let excess = b.apply_returns_clamped();
        assert_eq!(excess, 2);
        assert_eq!(b.available(0), 2);
        assert_eq!(b.available(1), 2);
    }

    #[test]
    fn consistency_and_resync() {
        let mut b = CreditBank::new(1, 4);
        b.spend(0);
        b.spend(0);
        // Two flits "in the buffer": consistent.
        assert!(b.consistent(0, 2));
        // One flit lost on the link: occupancy 1, counters stale.
        assert!(!b.consistent(0, 1));
        let drift = b.resync(0, 3);
        assert_eq!(drift, 1);
        assert!(b.consistent(0, 1));
        assert_eq!(b.available(0), 3);
    }
}
