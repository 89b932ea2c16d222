//! Differential test for the shared injection path (DESIGN.md §12).
//!
//! `InjectionCalendar::drain_due` is the one place the simulator drains
//! traffic sources: `SwitchCore::inject` calls it for `MmrRouter` and
//! every fabric node.  It touches only sources whose cached
//! next-injection time has come.  This suite pits it against the loop it replaced in the fabric —
//! call `drain_until` on **every** source, every time — on two identical
//! source sets, and demands the same `(source index, flit)` sequence, a
//! cache that equals `peek_next()` entry for entry, and a bound that is
//! the exact minimum after every call.  The calendar is a timing wheel
//! with a far list (`crates/traffic/src/calendar.rs`), so the strides
//! reach past the wheel's span and some sources retire right after a
//! flit they held on the far list.

use mmr_core::sim::rng::SimRng;
use mmr_core::sim::time::{RouterCycle, TimeBase};
use mmr_core::sim::units::Bandwidth;
use mmr_core::traffic::calendar::{InjectionCalendar, NEVER};
use mmr_core::traffic::connection::ConnectionId;
use mmr_core::traffic::flit::Flit;
use mmr_core::traffic::mpeg::{standard_sequences, MpegTrace};
use mmr_core::traffic::source::{ExpiringSource, TrafficSource};
use mmr_core::traffic::{BestEffortSource, CbrSource, InjectionModel, VbrSource};
use proptest::prelude::*;

type Sources = Vec<Box<dyn TrafficSource + Send>>;

/// Source-set sizes: one source, both sides of the due bitset's 64-entry
/// word, a router's worth, and a 64-word bitset.
const SIZES: [usize; 6] = [1, 63, 64, 65, 300, 4_096];

/// The 64 Kbps CBR period in router cycles at the default `TimeBase`:
/// 76 wheel spans, so such a source lives on the far list.
const FAR_PERIOD: u64 = 1_240_000;

/// A mixed set of `n` sources, fully determined by `seed`: the paper's
/// three CBR rates, 1-GOP MPEG-2 VBR under both injection models,
/// Poisson best-effort, and — for a `retire_pct` share, all of them at
/// 100 — an `ExpiringSource` wrapper that departs inside `span` (some at
/// cycle 0: exhausted before the first drain; some within four 64 Kbps
/// periods of their phase: they retire after a flit the calendar held
/// on its far list).
fn build_sources(n: usize, seed: u64, retire_pct: u64, span: u64) -> Sources {
    let tb = TimeBase::default();
    let mut rng = SimRng::seed_from_u64(seed);
    let seqs = standard_sequences();
    (0..n)
        .map(|i| {
            let conn = ConnectionId(i as u32);
            let phase = RouterCycle(rng.below(20_000));
            let src: Box<dyn TrafficSource + Send> = match rng.below(6) {
                0 => Box::new(CbrSource::new(conn, Bandwidth::kbps(64.0), phase, &tb)),
                1 => Box::new(CbrSource::new(conn, Bandwidth::mbps(1.54), phase, &tb)),
                2 => Box::new(CbrSource::new(conn, Bandwidth::mbps(55.0), phase, &tb)),
                k @ (3 | 4) => {
                    let params = &seqs[rng.index(seqs.len())];
                    let trace = MpegTrace::generate(params, 1, &tb, &mut rng);
                    let model = if k == 3 {
                        InjectionModel::SmoothRate
                    } else {
                        InjectionModel::BackToBack {
                            peak: Bandwidth::mbps(120.0),
                        }
                    };
                    Box::new(VbrSource::new(conn, trace, model, phase, &tb))
                }
                _ => Box::new(BestEffortSource::new(
                    conn,
                    Bandwidth::mbps(20.0),
                    4.0,
                    phase,
                    &tb,
                    rng.split(i as u64),
                )),
            };
            if rng.below(100) < retire_pct {
                let end = match rng.below(8) {
                    0 => 0,
                    1 => phase.0 + rng.below(4 * FAR_PERIOD),
                    _ => rng.below(span),
                };
                Box::new(ExpiringSource::new(src, RouterCycle(end)))
            } else {
                src
            }
        })
        .collect()
}

/// The fabric's stage 3 before the calendar: poll everything.
fn drain_all(sources: &mut Sources, now: RouterCycle, out: &mut Vec<(usize, Flit)>) {
    let mut buf = Vec::new();
    for (i, s) in sources.iter_mut().enumerate() {
        buf.clear();
        s.drain_until(now, &mut buf);
        out.extend(buf.iter().map(|&f| (i, f)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn drain_due_equals_polling_every_source(
        size in 0usize..SIZES.len(),
        seed in 0u64..u64::MAX,
        // One case in four retires every source, so the run ends in the
        // all-exhausted state.
        retire in 0usize..4,
        // (kind, length): back-to-back router cycles, whole flit cycles,
        // strides of up to 5 000 router cycles, and of 10^5 to 7·10^6,
        // past the wheel's span: the calendar takes any monotone `now`.
        strides in proptest::collection::vec((0usize..4, 1u64..=5_000), 1..400),
    ) {
        let n = SIZES[size];
        // Hundreds of sources drain ~10^5–10^6 flits per long stride: the
        // large sizes take only the first few, then the stride's length.
        let mut long_left = match n {
            4_096 => 1,
            300 => 8,
            _ => usize::MAX,
        };
        let retire_pct = if retire == 0 { 100 } else { 25 };
        let span = 2_500 * strides.len() as u64;
        let mut due_side = build_sources(n, seed, retire_pct, span);
        let mut poll_side = build_sources(n, seed, retire_pct, span);
        let mut cal = InjectionCalendar::from_sources(&due_side);
        prop_assert_eq!(cal.min_lower_bound(), cal.min_next_rc());

        let (mut got, mut want, mut buf) = (Vec::new(), Vec::new(), Vec::new());
        let mut now = 0u64;
        let mut generated = 0usize;
        // A last call past every departure closes the all-retire cases.
        let tail = (retire == 0).then_some((2, span.max(20_000 + 4 * FAR_PERIOD)));
        for (kind, len) in strides.into_iter().chain(tail) {
            now += match kind {
                0 => 1,
                1 => 64,
                3 if long_left > 0 => {
                    long_left -= 1;
                    (100_000 + len) << (len % 7)
                }
                _ => len,
            };
            got.clear();
            want.clear();
            cal.drain_due(&mut due_side, RouterCycle(now), &mut buf, |i, f| got.push((i, f)));
            drain_all(&mut poll_side, RouterCycle(now), &mut want);
            prop_assert_eq!(&got, &want, "drained flits differ at rc {}", now);
            generated += got.len();

            for (i, s) in due_side.iter().enumerate() {
                let peek = s.peek_next().map_or(NEVER, |t| t.0);
                prop_assert_eq!(cal.next_rc(i), peek, "stale cache entry {} at rc {}", i, now);
                prop_assert!(peek > now, "source {} left due at rc {}", i, now);
            }
            prop_assert_eq!(cal.min_lower_bound(), cal.min_next_rc());
            let exhausted = due_side.iter().all(|s| s.peek_next().is_none());
            prop_assert_eq!(cal.min_lower_bound() == NEVER, exhausted);
        }
        if retire == 0 {
            prop_assert_eq!(cal.min_lower_bound(), NEVER, "a retired set must end exhausted");
        } else if n >= 63 && now >= 30_000 {
            // Every CBR and VBR source emits its first flit at its phase
            // (< 20 000): a vacuous comparison of two empty streams fails.
            prop_assert!(generated > 0, "{} live sources generated nothing by rc {}", n, now);
        }
    }
}
