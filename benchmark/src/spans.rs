//! In-memory span aggregation for the traced pass.
//!
//! The replay takes one clock reading at each stage boundary of a cycle.
//! Each stage span is aggregated per name (calls, total ns, log-bucketed
//! duration histogram); the raw spans of the first cycles are kept and
//! written out as JSON lines when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Sub-buckets per power of two: durations are resolved to 1/4 octave.
const SUB: usize = 4;
const BUCKETS: usize = 64 * SUB;

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() as usize;
    let frac = ((ns >> (exp - 2)) & 3) as usize;
    exp * SUB + frac
}

/// Lower edge of a bucket, the value a quantile reports.
fn bucket_floor(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    // `bucket_of` never yields SUB..2*SUB: 4 ns already has exponent 2.
    let (exp, frac) = (b / SUB, (b % SUB) as u64);
    (1u64 << exp) | (frac << (exp - 2))
}

/// Aggregate of every span recorded under one name.
#[derive(Debug, Clone)]
pub struct SpanStats {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    hist: Vec<u64>,
}

impl SpanStats {
    fn new(name: &'static str) -> Self {
        SpanStats {
            name,
            calls: 0,
            total_ns: 0,
            hist: vec![0; BUCKETS],
        }
    }

    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        self.hist[bucket_of(ns)] += 1;
    }

    /// Duration below which a share `q` of the calls fell, to bucket
    /// resolution (0 when nothing was recorded).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let rank = (q * self.calls as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.hist.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return bucket_floor(b);
            }
        }
        0
    }
}

/// One raw span: `name`, start and end in ns since the recorder was made,
/// and the cycle whose span caused it.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cycle: u64,
}

/// Where a stage-by-stage loop reads the clock.  `()` reads nothing, so an
/// untimed loop is the same code with the laps compiled out.
pub trait Laps {
    /// Start the clock: the first [`lap`](Self::lap) measures from here.
    fn start(&mut self);
    /// Spans recorded from now on belong to `cycle`.
    fn begin_cycle(&mut self, cycle: u64);
    /// Close stage `stage` at the current instant; the next stage starts
    /// at the same instant.
    fn lap(&mut self, stage: usize);
}

impl Laps for () {
    fn start(&mut self) {}
    fn begin_cycle(&mut self, _cycle: u64) {}
    fn lap(&mut self, _stage: usize) {}
}

/// Records the stage spans of consecutive cycles.
pub struct SpanRecorder {
    origin: Instant,
    last: Instant,
    cycle: u64,
    stats: Vec<SpanStats>,
    raw: Vec<RawSpan>,
    raw_cycles: u64,
}

impl SpanRecorder {
    /// A recorder for the given stage names (in pipeline order) that keeps
    /// the raw spans of the first `raw_cycles` cycles.
    pub fn new(stages: &[&'static str], raw_cycles: u64) -> Self {
        let now = Instant::now();
        SpanRecorder {
            origin: now,
            last: now,
            cycle: 0,
            stats: stages.iter().map(|s| SpanStats::new(s)).collect(),
            raw: Vec::with_capacity(stages.len() * raw_cycles as usize),
            raw_cycles,
        }
    }

    fn record(&mut self, stage: usize, start: Instant, end: Instant) {
        let st = &mut self.stats[stage];
        st.record((end - start).as_nanos() as u64);
        if self.cycle < self.raw_cycles {
            self.raw.push(RawSpan {
                name: st.name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                cycle: self.cycle,
            });
        }
    }

    pub fn stats(&self) -> &[SpanStats] {
        &self.stats
    }

    pub fn total_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.total_ns).sum()
    }

    /// The raw spans as JSON lines; `parent` names the cycle span.
    pub fn raw_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.raw {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":\"cycle-{}\"}}",
                s.name, s.start_ns, s.end_ns, s.cycle
            );
        }
        out
    }
}

impl Laps for SpanRecorder {
    fn start(&mut self) {
        self.last = Instant::now();
    }

    /// The clock is not read: a cycle's first span starts where the
    /// previous cycle's last one ended, so the spans tile the timed loop
    /// without gaps.
    fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// `stage` indexes the names given to [`SpanRecorder::new`].
    fn lap(&mut self, stage: usize) {
        let now = Instant::now();
        self.record(stage, self.last, now);
        self.last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_floors_invert() {
        let mut prev = 0;
        for ns in [0u64, 1, 3, 4, 7, 8, 9, 15, 16, 100, 1_000, 65_535, 1 << 40] {
            let b = bucket_of(ns);
            assert!(b >= prev, "bucket order broke at {ns}");
            prev = b;
            let floor = bucket_floor(b);
            assert!(floor <= ns, "floor {floor} above {ns}");
            // Quarter-octave resolution: the floor is within 25 % below.
            assert!(ns - floor <= ns / 4, "floor {floor} too far under {ns}");
        }
    }

    #[test]
    fn aggregation_counts_sums_and_ranks() {
        let mut s = SpanStats::new("x");
        for _ in 0..98 {
            s.record(100);
        }
        s.record(10_000);
        s.record(12_000);
        assert_eq!(s.calls, 100);
        assert_eq!(s.total_ns, 98 * 100 + 22_000);
        assert_eq!(s.quantile_ns(0.5), bucket_floor(bucket_of(100)));
        assert_eq!(s.quantile_ns(0.99), bucket_floor(bucket_of(10_000)));
        assert_eq!(SpanStats::new("empty").quantile_ns(0.5), 0);
    }

    #[test]
    fn laps_tile_the_cycle_and_raw_spans_stop_at_the_cap() {
        let mut r = SpanRecorder::new(&["a", "b"], 2);
        r.start();
        for cycle in 0..5 {
            r.begin_cycle(cycle);
            r.lap(0);
            r.lap(1);
        }
        assert_eq!(r.stats()[0].calls, 5);
        assert_eq!(r.stats()[1].calls, 5);
        assert_eq!(r.raw.len(), 4, "raw spans only for the first 2 cycles");
        // Spans tile: each starts where the one before it ended, across
        // the cycle boundary too.
        assert_eq!(r.raw[0].end_ns, r.raw[1].start_ns);
        assert_eq!(r.raw[1].end_ns, r.raw[2].start_ns);
        let jsonl = r.raw_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.starts_with("{\"name\":\"a\""));
        assert!(jsonl.contains("\"parent\":\"cycle-1\""));
    }
}
