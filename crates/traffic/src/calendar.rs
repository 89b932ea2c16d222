//! Injection calendars: the traffic side of the event-horizon contract.
//!
//! An [`InjectionCalendar`] caches, per connection, the router-cycle
//! timestamp of the source's next flit (CBR period ticks, MPEG-2 frame
//! boundaries, best-effort arrivals — whatever [`TrafficSource::peek_next`]
//! reports), plus the minimum over all of them.  Connection-oriented
//! CBR/VBR traffic injects one flit every tens to hundreds of flit
//! cycles, so on a typical cycle ~1 % of sources are due: the calendar
//! turns "poll every boxed source" into one integer compare.
//!
//! # One injection path
//!
//! [`InjectionCalendar::drain_due`] is the simulator's only caller of
//! [`TrafficSource::drain_until`].  The router crate's `SwitchCore::inject`
//! — the one switch pipeline behind `MmrRouter` and every fabric node —
//! hands it the boxed sources and a sink that queues each generated flit
//! at its NIC.  It returns at once while the cached minimum is in
//! the future; otherwise it makes one pass over the cache, makes virtual
//! calls only into sources that are due, and installs the exact new
//! minimum in the same pass.
//!
//! Because every scan ends by installing the exact minimum and entries
//! change only inside a scan, [`InjectionCalendar::min_lower_bound`] is
//! **exact between steps** for a calendar driven through `drain_due`.
//! That is what lets the owners read their injection horizon and their
//! "all sources exhausted" test from it in O(1) (`== NEVER`) instead of
//! sweeping `peek_next`; `drain_due` debug-asserts it on entry.
//! [`InjectionCalendar::update`] / [`InjectionCalendar::set_min_lb`]
//! remain for the benchmark's hand-mirrored stage-1 replay only; a
//! calendar mutated through them carries just a lower bound until the
//! next `set_min_lb`.
//!
//! The calendar is built once at admission time and updated in place;
//! no per-cycle or per-skip allocation.

use crate::flit::Flit;
use crate::source::TrafficSource;
use mmr_sim::time::RouterCycle;

/// Sentinel for "this source will never inject again".
pub const NEVER: u64 = u64::MAX;

/// Per-connection cache of the next injection time (router cycles).
#[derive(Debug, Clone)]
pub struct InjectionCalendar {
    next_rc: Vec<u64>,
    /// Lower bound on `min(next_rc)`; exact after every
    /// [`Self::drain_due`] scan and every [`Self::set_min_lb`].  Sound
    /// in between because source timestamps are monotone:
    /// [`Self::update`] can only move an entry later, so a previously
    /// exact minimum stays a valid lower bound.
    min_lb: u64,
}

impl InjectionCalendar {
    /// Build from one `peek_next` value per source, in connection order.
    pub fn from_peeks<I>(peeks: I) -> Self
    where
        I: IntoIterator<Item = Option<RouterCycle>>,
    {
        let next_rc: Vec<u64> = peeks
            .into_iter()
            .map(|p| p.map_or(NEVER, |t| t.0))
            .collect();
        let min_lb = next_rc.iter().copied().min().unwrap_or(NEVER);
        InjectionCalendar { next_rc, min_lb }
    }

    /// Build directly from a slice of boxed sources.
    pub fn from_sources(sources: &[Box<dyn TrafficSource + Send>]) -> Self {
        Self::from_peeks(sources.iter().map(|s| s.peek_next()))
    }

    /// Number of connections tracked.
    pub fn len(&self) -> usize {
        self.next_rc.len()
    }

    /// True when no connections are tracked.
    pub fn is_empty(&self) -> bool {
        self.next_rc.is_empty()
    }

    /// Cached next-injection router cycle for connection `i` ([`NEVER`]
    /// when exhausted).
    #[inline]
    pub fn next_rc(&self, i: usize) -> u64 {
        self.next_rc[i]
    }

    /// Refresh connection `i` after its source was drained.
    #[inline]
    pub fn update(&mut self, i: usize, peek: Option<RouterCycle>) {
        let rc = peek.map_or(NEVER, |t| t.0);
        debug_assert!(
            rc >= self.next_rc[i],
            "source {i} moved its next injection earlier ({rc} < {})",
            self.next_rc[i]
        );
        self.next_rc[i] = rc;
    }

    /// Earliest upcoming injection across all connections ([`NEVER`] when
    /// every source is exhausted).  O(connections) — meant for tests and
    /// cold paths; the hot paths use [`Self::min_lower_bound`].
    pub fn min_next_rc(&self) -> u64 {
        self.next_rc.iter().copied().min().unwrap_or(NEVER)
    }

    /// O(1) lower bound on [`Self::min_next_rc`].  `min_lb > now` proves
    /// no injection is due, so a per-cycle scan can be skipped outright;
    /// as a fast-forward horizon it may only be *too early* — exactly
    /// what the event-horizon contract permits (DESIGN.md §12).
    #[inline]
    pub fn min_lower_bound(&self) -> u64 {
        self.min_lb
    }

    /// Install the exact minimum recomputed during a full scan.
    #[inline]
    pub fn set_min_lb(&mut self, min: u64) {
        debug_assert!(min >= self.min_lb, "minimum moved backwards");
        self.min_lb = min;
    }

    /// Drain every source that is due at `now`: each flit generated at
    /// or before `now` goes to `sink(source_index, flit)`, in (source
    /// index, emission) order.  `sources` must be the slice this
    /// calendar was built from; `buf` is the caller's scratch buffer
    /// (cleared per source, capacity retained).
    ///
    /// O(1) while nothing is due.  A scan touches only sources whose
    /// cached time has come and leaves [`Self::min_lower_bound`] exact.
    ///
    /// `inline(always)`: with plain `inline` rustc leaves this out of
    /// line in `MmrRouter::step`, and the saturated-CBR step loses ~11 %
    /// (`cbr4_sat`, measured).
    #[inline(always)]
    pub fn drain_due(
        &mut self,
        sources: &mut [Box<dyn TrafficSource + Send>],
        now: RouterCycle,
        buf: &mut Vec<Flit>,
        mut sink: impl FnMut(usize, Flit),
    ) {
        debug_assert_eq!(self.next_rc.len(), sources.len(), "foreign source slice");
        debug_assert_eq!(
            self.min_lb,
            self.min_next_rc(),
            "calendar bound went stale between drains"
        );
        if self.min_lb > now.0 {
            return;
        }
        // Statement for statement the scan the benchmark's replay
        // mirrors by hand (benchmark/src/replay.rs): until the replay
        // calls this method, a tighter loop here would skew
        // `replay.step_ratio` (DESIGN.md §18).
        let mut new_min = NEVER;
        for (i, src) in sources.iter_mut().enumerate() {
            let mut next = self.next_rc[i];
            if next <= now.0 {
                buf.clear();
                src.drain_until(now, buf);
                self.update(i, src.peek_next());
                next = self.next_rc[i];
                for &flit in buf.iter() {
                    sink(i, flit);
                }
            }
            new_min = new_min.min(next);
        }
        self.set_min_lb(new_min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::ConnectionId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A source with a scripted timetable that counts every call made
    /// into it.
    struct Counted {
        times: Vec<u64>,
        pos: usize,
        calls: Arc<AtomicUsize>,
    }

    impl TrafficSource for Counted {
        fn connection(&self) -> ConnectionId {
            ConnectionId(0)
        }
        fn peek_next(&self) -> Option<RouterCycle> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.times.get(self.pos).map(|&t| RouterCycle(t))
        }
        fn emit(&mut self) -> Flit {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.pos += 1;
            let t = RouterCycle(self.times[self.pos - 1]);
            Flit::cbr(ConnectionId(0), self.pos as u64 - 1, t)
        }
    }

    fn counted(tables: &[&[u64]]) -> (Vec<Box<dyn TrafficSource + Send>>, Vec<Arc<AtomicUsize>>) {
        let calls: Vec<_> = tables.iter().map(|_| Arc::default()).collect();
        let sources = tables
            .iter()
            .zip(&calls)
            .map(|(t, c)| {
                Box::new(Counted {
                    times: t.to_vec(),
                    pos: 0,
                    calls: Arc::clone(c),
                }) as Box<dyn TrafficSource + Send>
            })
            .collect();
        (sources, calls)
    }

    #[test]
    fn drain_due_on_no_sources_is_a_no_op() {
        let mut cal = InjectionCalendar::from_sources(&[]);
        let mut buf = Vec::new();
        cal.drain_due(&mut [], RouterCycle(u64::MAX - 1), &mut buf, |_, _| {
            panic!("no source, no flit")
        });
        assert_eq!(cal.min_lower_bound(), NEVER);
    }

    #[test]
    fn drain_due_touches_no_source_while_the_bound_is_ahead() {
        let (mut sources, calls) = counted(&[&[100, 300], &[200]]);
        let mut cal = InjectionCalendar::from_sources(&sources);
        let built: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let mut buf = Vec::new();
        for now in 0..100 {
            cal.drain_due(&mut sources, RouterCycle(now), &mut buf, |_, _| {
                panic!("nothing is due before 100")
            });
        }
        let after: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(built, after, "the fast path called into a source");

        // At 100 only source 0 is due: source 1 is still not touched.
        let mut got = Vec::new();
        cal.drain_due(&mut sources, RouterCycle(100), &mut buf, |i, f| {
            got.push((i, f.generated_at.0))
        });
        assert_eq!(got, [(0, 100)]);
        assert_eq!(calls[1].load(Ordering::Relaxed), built[1]);
        assert_eq!((cal.next_rc(0), cal.next_rc(1)), (300, 200));
        assert_eq!(cal.min_lower_bound(), 200);

        // A stride past both: (source index, emission) order, then NEVER.
        got.clear();
        cal.drain_due(&mut sources, RouterCycle(1_000), &mut buf, |i, f| {
            got.push((i, f.generated_at.0))
        });
        assert_eq!(got, [(0, 300), (1, 200)]);
        assert_eq!(cal.min_lower_bound(), NEVER);
    }

    #[test]
    fn tracks_peeks_and_updates() {
        let mut cal = InjectionCalendar::from_peeks(vec![
            Some(RouterCycle(640)),
            None,
            Some(RouterCycle(128)),
        ]);
        assert_eq!(cal.len(), 3);
        assert_eq!(cal.next_rc(0), 640);
        assert_eq!(cal.next_rc(1), NEVER);
        assert_eq!(cal.min_next_rc(), 128);

        cal.update(2, Some(RouterCycle(700)));
        assert_eq!(cal.min_next_rc(), 640);
        // The O(1) bound lags behind until the owner refreshes it, but
        // never overshoots the true minimum.
        assert_eq!(cal.min_lower_bound(), 128);
        cal.set_min_lb(cal.min_next_rc());
        assert_eq!(cal.min_lower_bound(), 640);
        cal.update(0, None);
        cal.update(2, None);
        assert_eq!(cal.min_next_rc(), NEVER);
    }

    #[test]
    fn lower_bound_starts_exact() {
        let cal = InjectionCalendar::from_peeks(vec![Some(RouterCycle(9)), None]);
        assert_eq!(cal.min_lower_bound(), 9);
        let empty = InjectionCalendar::from_peeks(Vec::new());
        assert_eq!(empty.min_lower_bound(), NEVER);
    }

    #[test]
    fn empty_calendar_is_exhausted() {
        let cal = InjectionCalendar::from_peeks(Vec::new());
        assert!(cal.is_empty());
        assert_eq!(cal.min_next_rc(), NEVER);
    }
}
