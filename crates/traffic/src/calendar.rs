//! Injection calendars: the switch pipeline's one injection path.
//!
//! An [`InjectionCalendar`] caches, per connection, the router-cycle
//! timestamp of the source's next flit (CBR period ticks, MPEG-2 frame
//! boundaries, best-effort arrivals — whatever [`TrafficSource::peek_next`]
//! reports), plus the minimum over all of them.  Connection-oriented
//! CBR/VBR traffic injects one flit every tens to hundreds of flit
//! cycles, so on a typical cycle ~1 % of sources are due: the calendar
//! turns "poll every boxed source" into one integer compare, and a
//! cycle that does inject touches only the sources that are due.
//!
//! # One injection path
//!
//! [`InjectionCalendar::drain_due`] is the simulator's only caller of
//! [`TrafficSource::drain_until`].  The router crate's `SwitchCore::inject`
//! — the one switch pipeline behind `MmrRouter` and every fabric node —
//! hands it the boxed sources and a sink that queues each generated flit
//! at its NIC.  It returns at once while the cached minimum is in
//! the future; otherwise it drains the due sources and installs the
//! exact new minimum.
//!
//! # The timing wheel
//!
//! Live entries sit in a hashed timing wheel (Varghese & Lauck, SOSP
//! 1987): 256 buckets of 64 router cycles each — one flit cycle at the
//! default `TimeBase`, ending on its boundary — as intrusive `u32`
//! lists (a head per bucket, a link per source), so the calendar is a
//! fixed three allocations whatever its size, and none per cycle.  The
//! wheel covers the buckets `[base, base + 256)`, `base` being the
//! bucket of the last drain; an entry further out (64 Kbps and
//! 1.54 Mbps CBR, a VBR stream that has not started) goes on one far
//! list with its minimum.  The far list is walked only when that
//! minimum is due, and the walk moves everything the window now reaches
//! into the wheel, so the next walk is at least 255 buckets later.  A
//! drain walks only the buckets from the minimum's to `now`'s, marks
//! the due sources in a bitset and drains that word by word, so flits
//! still reach the sink in (source index, emission) order with no sort.
//! It ends by reading the exact new minimum: every bucket and the far
//! list keep their own, and an occupancy bitmap finds the first
//! non-empty bucket.
//!
//! Because every drain ends by installing the exact minimum and entries
//! change only inside a drain, [`InjectionCalendar::min_lower_bound`] is
//! **exact between steps** for a calendar driven through `drain_due`.
//! That is what lets the owners read their "all sources exhausted" test
//! from it in O(1) (`== NEVER`) instead of sweeping `peek_next`;
//! `drain_due` debug-asserts it at the end of every drain that ran.
//!
//! [`InjectionCalendar::update`] / [`InjectionCalendar::set_min_lb`]
//! are for the benchmark's hand-mirrored stage-1 replay only: `update`
//! moves an entry without re-bucketing it, so a calendar mutated
//! through them carries just a lower bound until the next `set_min_lb`,
//! and draining it afterwards trips a `debug_assert!`.

use crate::flit::Flit;
use crate::source::TrafficSource;
use mmr_sim::time::RouterCycle;

/// Sentinel for "this source will never inject again".
pub const NEVER: u64 = u64::MAX;

/// log2 of a wheel bucket's width in router cycles.
const SHIFT: u32 = 6;

/// Buckets in the wheel; it spans `SLOTS << SHIFT` router cycles.
const SLOTS: usize = 256;

/// Wheel bucket of router cycle `rc`: bucket `b` holds the cycles
/// `(64(b - 1), 64b]`, so a drain at a flit-cycle boundary (a multiple
/// of 64 at the default `TimeBase`) finds every entry of its bucket due.
#[inline]
fn bucket(rc: u64) -> u64 {
    rc.div_ceil(1 << SHIFT)
}

/// End of an intrusive list.
const NIL: u32 = u32::MAX;

/// Per-connection cache of the next injection time (router cycles).
#[derive(Debug, Clone)]
pub struct InjectionCalendar {
    next_rc: Vec<u64>,
    /// Exact `min(next_rc)` after every [`Self::drain_due`] and every
    /// [`Self::set_min_lb`].  Sound in between because source
    /// timestamps are monotone: [`Self::update`] can only move an entry
    /// later, so a previously exact minimum stays a valid lower bound.
    min_lb: u64,
    /// Next source in the same bucket or on the far list.
    link: Vec<u32>,
    /// One bit per source, set while a drain collects the due ones.
    due: Vec<u64>,
    /// First source of each bucket; slot `b % SLOTS` holds bucket `b`.
    head: [u32; SLOTS],
    /// Exact minimum of each slot's list ([`NEVER`] when empty).
    slot_min: [u64; SLOTS],
    /// One bit per slot: its list is non-empty.
    occupied: [u64; SLOTS / 64],
    /// [`bucket`] of the last drain; the wheel holds the buckets
    /// `[base, base + SLOTS)`.
    base: u64,
    far_head: u32,
    /// Exact minimum over the far list ([`NEVER`] when empty).
    far_min: u64,
    /// Set by [`Self::update`]: the buckets no longer match `next_rc`.
    replayed: bool,
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
        let n = next_rc.len();
        assert!(n < NIL as usize, "{n} sources overflow the u32 links");
        let min = next_rc.iter().copied().min().unwrap_or(NEVER);
        let mut cal = InjectionCalendar {
            link: vec![NIL; n],
            due: vec![0; n.div_ceil(64)],
            head: [NIL; SLOTS],
            slot_min: [NEVER; SLOTS],
            occupied: [0; SLOTS / 64],
            base: bucket(min),
            far_head: NIL,
            far_min: NEVER,
            min_lb: min,
            replayed: false,
            next_rc,
        };
        for i in 0..n {
            cal.place(i, cal.next_rc[i]);
        }
        cal
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

    /// Refresh connection `i` after its source was drained — for the
    /// benchmark's hand-mirrored replay only.  The entry is not
    /// re-bucketed, so [`Self::drain_due`] refuses (debug-asserts on) a
    /// calendar this has touched.
    #[inline]
    pub fn update(&mut self, i: usize, peek: Option<RouterCycle>) {
        self.store(i, peek);
        self.replayed = true;
    }

    /// Cache `peek` as connection `i`'s next time and return it.
    #[inline]
    fn store(&mut self, i: usize, peek: Option<RouterCycle>) -> u64 {
        let rc = peek.map_or(NEVER, |t| t.0);
        debug_assert!(
            rc >= self.next_rc[i],
            "source {i} moved its next injection earlier ({rc} < {})",
            self.next_rc[i]
        );
        self.next_rc[i] = rc;
        rc
    }

    /// Earliest upcoming injection across all connections ([`NEVER`] when
    /// every source is exhausted).  O(connections) — meant for tests and
    /// cold paths; the hot paths use [`Self::min_lower_bound`].
    pub fn min_next_rc(&self) -> u64 {
        self.next_rc.iter().copied().min().unwrap_or(NEVER)
    }

    /// O(1) lower bound on [`Self::min_next_rc`] (exact between drains,
    /// module docs).  `min_lb > now` proves no injection is due, so a
    /// per-cycle drain can be skipped outright.
    #[inline]
    pub fn min_lower_bound(&self) -> u64 {
        self.min_lb
    }

    /// Install the exact minimum the benchmark's replay recomputed
    /// during its full scan.
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
    /// O(1) while nothing is due.  A drain touches only the wheel
    /// buckets up to `now`, and makes virtual calls only into sources
    /// whose cached time has come; it leaves [`Self::min_lower_bound`]
    /// exact.
    ///
    /// `inline(always)`: with plain `inline` rustc leaves this out of
    /// line in the router step (`SwitchCore::inject` inside
    /// `FabricNode::step_cycle`), and the saturated-CBR step loses ~11 %
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
        debug_assert!(
            !self.replayed,
            "drain_due on a calendar `update` moved: its buckets are stale"
        );
        if self.min_lb > now.0 {
            return;
        }
        let now = now.0;
        // Every live entry is at or after the minimum, so the first
        // bucket that can hold a due one is the minimum's; past the
        // wheel's end only the far list can.
        let target = bucket(now);
        let last = target.min(self.base + SLOTS as u64 - 1);
        for b in bucket(self.min_lb)..=last {
            self.collect_bucket(b as usize % SLOTS, now);
        }
        self.base = target;
        if self.far_min <= now {
            self.collect_far(now);
        }
        for w in 0..self.due.len() {
            let mut bits = std::mem::take(&mut self.due[w]);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                buf.clear();
                sources[i].drain_until(RouterCycle(now), buf);
                let rc = self.store(i, sources[i].peek_next());
                self.place(i, rc);
                for &flit in buf.iter() {
                    sink(i, flit);
                }
            }
        }
        self.min_lb = self.first_bucket_min().min(self.far_min);
        debug_assert_eq!(self.min_lb, self.min_next_rc(), "calendar bound went stale");
    }

    /// Link source `i` (not on any list) into its bucket, or onto the
    /// far list past the wheel's end; an exhausted source goes nowhere.
    #[inline]
    fn place(&mut self, i: usize, rc: u64) {
        if rc == NEVER {
            return;
        }
        let b = bucket(rc);
        if b < self.base + SLOTS as u64 {
            let slot = b as usize % SLOTS;
            self.link[i] = self.head[slot];
            self.head[slot] = i as u32;
            self.slot_min[slot] = self.slot_min[slot].min(rc);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.link[i] = self.far_head;
            self.far_head = i as u32;
            self.far_min = self.far_min.min(rc);
        }
    }

    #[inline]
    fn mark_due(&mut self, i: usize) {
        self.due[i / 64] |= 1 << (i % 64);
    }

    /// Unlink every entry of `slot` that is due at `now` and mark it.
    #[inline]
    fn collect_bucket(&mut self, slot: usize, now: u64) {
        let (mut i, mut kept, mut min) = (self.head[slot], NIL, NEVER);
        while i != NIL {
            let next = self.link[i as usize];
            let rc = self.next_rc[i as usize];
            if rc <= now {
                self.mark_due(i as usize);
            } else {
                self.link[i as usize] = kept;
                kept = i;
                min = min.min(rc);
            }
            i = next;
        }
        self.head[slot] = kept;
        self.slot_min[slot] = min;
        if kept == NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
    }

    /// Walk the far list: mark what is due, move what the window now
    /// reaches into the wheel, keep the rest with its exact minimum.
    #[cold]
    fn collect_far(&mut self, now: u64) {
        let mut i = std::mem::replace(&mut self.far_head, NIL);
        self.far_min = NEVER;
        while i != NIL {
            let next = self.link[i as usize];
            let rc = self.next_rc[i as usize];
            if rc <= now {
                self.mark_due(i as usize);
            } else {
                self.place(i as usize, rc);
            }
            i = next;
        }
    }

    /// Earliest time in the wheel: the minimum of its first non-empty
    /// bucket from `base` on ([`NEVER`] when the wheel is empty).  Every
    /// entry lies in the buckets `[base, base + SLOTS)`, so that bucket
    /// holds the earliest ones.
    #[inline]
    fn first_bucket_min(&self) -> u64 {
        const WORDS: usize = SLOTS / 64;
        let start = self.base as usize % SLOTS;
        let (w0, bit) = (start / 64, start % 64);
        // The start word from `bit` up, the other words, then the start
        // word below `bit`: slot order from `base`, wrapping once.
        let first = (0..=WORDS).find_map(|k| {
            let w = (w0 + k) % WORDS;
            let bits = match k {
                0 => self.occupied[w] & (!0 << bit),
                WORDS => self.occupied[w] & !(!0 << bit),
                _ => self.occupied[w],
            };
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        });
        first.map_or(NEVER, |slot| self.slot_min[slot])
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "buckets are stale")]
    fn draining_after_update_trips_the_stale_bucket_assert() {
        let (mut sources, _) = counted(&[&[100, 300], &[200]]);
        let mut cal = InjectionCalendar::from_sources(&sources);
        // The replay's moves: source 0 leaves its bucket for 300 without
        // being re-bucketed, and the installed minimum is exact, so only
        // the stale bucket is left to catch.
        cal.update(0, Some(RouterCycle(300)));
        cal.set_min_lb(cal.min_next_rc());
        cal.drain_due(&mut sources, RouterCycle(250), &mut Vec::new(), |_, _| {});
    }

    #[test]
    fn far_entries_migrate_and_jumps_pass_the_span() {
        let span = (SLOTS as u64) << SHIFT;
        // Source 0 starts far beyond the wheel, source 1 ticks inside it,
        // source 2 lies two spans out, past a jump over the whole wheel.
        let (mut sources, _) = counted(&[
            &[span + 70, span + 5_000],
            &[64, 128, 3 * span],
            &[2 * span + 1],
        ]);
        let mut cal = InjectionCalendar::from_sources(&sources);
        let mut buf = Vec::new();
        let mut got = Vec::new();
        for now in [64, 128, span + 64, span + 70, 2 * span + 1, 4 * span] {
            cal.drain_due(&mut sources, RouterCycle(now), &mut buf, |i, f| {
                got.push((i, f.generated_at.0))
            });
            assert_eq!(cal.min_lower_bound(), cal.min_next_rc(), "at rc {now}");
        }
        assert_eq!(
            got,
            [
                (1, 64),
                (1, 128),
                (0, span + 70),
                (0, span + 5_000),
                (2, 2 * span + 1),
                (1, 3 * span)
            ]
        );
        assert_eq!(cal.min_lower_bound(), NEVER);
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
