//! Property-based tests for the traffic subsystem.

use mmr_sim::rng::SimRng;
use mmr_sim::time::{RouterCycle, TimeBase};
use mmr_sim::units::Bandwidth;
use mmr_traffic::admission::{AdmissionControl, RoundConfig};
use mmr_traffic::besteffort::BestEffortSource;
use mmr_traffic::cbr::CbrSource;
use mmr_traffic::connection::ConnectionId;
use mmr_traffic::flit::Flit;
use mmr_traffic::injection::InjectionModel;
use mmr_traffic::mpeg::{standard_sequences, MpegTrace, FRAME_TIME_SECS, GOP_PATTERN};
use mmr_traffic::source::{round_rc, ExpiringSource, TrafficSource};
use mmr_traffic::vbr::VbrSource;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Recompute-every-call references for the sources' cached emission times.
//
// The sources keep the router cycle of their next flit in a field that
// `emit` refreshes; these restate each source's emission clock the way it
// was written before the cache — `f64::round()` of the clock on every
// `peek_next` and every `emit` — and the properties below compare the two
// flit for flit.  `clock()` exposes the raw `f64` so `round_rc` can be
// pinned against `f64::round` on exactly the values the sources feed it.
// ---------------------------------------------------------------------------

trait Reference {
    /// The emission clock under the cursor, `None` once exhausted.
    fn clock(&self) -> Option<f64>;
    /// Emit the flit under the cursor, stamped `at`, and advance.
    fn emit_at(&mut self, at: RouterCycle) -> Flit;
}

struct RefCbr {
    conn: ConnectionId,
    iat_rc: f64,
    next_time: f64,
    seq: u64,
}

impl Reference for RefCbr {
    fn clock(&self) -> Option<f64> {
        Some(self.next_time)
    }
    fn emit_at(&mut self, at: RouterCycle) -> Flit {
        let flit = Flit::cbr(self.conn, self.seq, at);
        self.seq += 1;
        self.next_time += self.iat_rc;
        flit
    }
}

struct RefBestEffort {
    conn: ConnectionId,
    mean_gap_rc: f64,
    mean_flits: f64,
    rng: SimRng,
    next_msg_rc: f64,
    in_flight: u64,
    seq: u64,
}

impl Reference for RefBestEffort {
    fn clock(&self) -> Option<f64> {
        Some(self.next_msg_rc)
    }
    fn emit_at(&mut self, at: RouterCycle) -> Flit {
        if self.in_flight == 0 {
            self.in_flight = if self.mean_flits <= 1.0 {
                1
            } else {
                let p = 1.0 / self.mean_flits;
                let u = self.rng.uniform();
                (1.0 + (1.0 - u).ln() / (1.0 - p).ln()).floor().max(1.0) as u64
            };
        }
        let flit = Flit::cbr(self.conn, self.seq, at);
        self.seq += 1;
        self.in_flight -= 1;
        if self.in_flight == 0 {
            self.next_msg_rc += self.rng.exponential(self.mean_gap_rc);
        }
        flit
    }
}

struct RefVbr {
    conn: ConnectionId,
    trace: MpegTrace,
    model: InjectionModel,
    tb: TimeBase,
    frame_time_rc: f64,
    start_rc: f64,
    frame_idx: usize,
    flit_in_frame: u64,
    seq: u64,
}

impl Reference for RefVbr {
    fn clock(&self) -> Option<f64> {
        let frame = self.trace.frames.get(self.frame_idx)?;
        let iat = self
            .model
            .iat_router_cycles(frame.flits, self.frame_time_rc, &self.tb);
        Some(
            self.start_rc
                + self.frame_idx as f64 * self.frame_time_rc
                + self.flit_in_frame as f64 * iat,
        )
    }
    fn emit_at(&mut self, at: RouterCycle) -> Flit {
        let k = self.frame_idx;
        let last = self.flit_in_frame + 1 == self.trace.frames[k].flits;
        let flit = Flit::vbr(self.conn, self.seq, at, k as u32, last);
        self.seq += 1;
        self.flit_in_frame += 1;
        if last {
            self.frame_idx += 1;
            self.flit_in_frame = 0;
        }
        flit
    }
}

/// Walk `src` and `reference` side by side for up to `flits` flits:
/// same `peek_next` before every flit (asked twice — it must not move),
/// same flit, and `round_rc` equal to `f64::round` on every clock.  With
/// `end` set, `src` is an [`ExpiringSource`] over the real source and
/// must read as exhausted from the first clock at or past `end`.
fn assert_streams_agree(
    src: &mut dyn TrafficSource,
    reference: &mut dyn Reference,
    end: Option<RouterCycle>,
    flits: usize,
) -> Result<usize, TestCaseError> {
    for n in 0..flits {
        let want = reference.clock().map(|x| {
            assert_eq!(round_rc(x), x.round() as u64, "round_rc({x})");
            RouterCycle(x.round() as u64)
        });
        let want = want.filter(|&t| end.is_none_or(|e| t < e));
        prop_assert_eq!(src.peek_next(), want, "peek before flit {}", n);
        prop_assert_eq!(src.peek_next(), want, "second peek before flit {}", n);
        let Some(at) = want else {
            return Ok(n);
        };
        prop_assert_eq!(src.emit(), reference.emit_at(at), "flit {}", n);
    }
    Ok(flits)
}

/// Wrap `src` in an [`ExpiringSource`] when a cut-off is given.
fn expiring(
    src: impl TrafficSource + Send + 'static,
    end: Option<RouterCycle>,
) -> Box<dyn TrafficSource + Send> {
    match end {
        Some(end) => Box::new(ExpiringSource::new(Box::new(src), end)),
        None => Box::new(src),
    }
}

/// A departure `cut` cycles after `phase` when that falls inside `span`
/// (half of the generated cases); none otherwise.
fn cut_off(cut: u64, phase: u64, span: u64) -> Option<RouterCycle> {
    (cut < span).then_some(RouterCycle(phase + cut))
}

const STREAM_FLITS: usize = 10_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cbr_stream_equals_the_recomputing_reference(
        kbps in 64.0f64..1_000_000.0,
        phase in 0u64..50_000_000,
        cut in 0u64..8_000_000,
    ) {
        let tb = TimeBase::default();
        let conn = ConnectionId(3);
        let bw = Bandwidth::kbps(kbps);
        let end = cut_off(cut, phase, 4_000_000);
        let mut src = expiring(CbrSource::new(conn, bw, RouterCycle(phase), &tb), end);
        let mut reference = RefCbr {
            conn,
            iat_rc: tb.flit_iat_router_cycles(bw.as_bps()),
            next_time: phase as f64,
            seq: 0,
        };
        let n = assert_streams_agree(src.as_mut(), &mut reference, end, STREAM_FLITS)?;
        prop_assert!(end.is_some() || n == STREAM_FLITS);
    }

    #[test]
    fn best_effort_stream_equals_the_recomputing_reference(
        mbps in 0.5f64..400.0,
        mean_flits in 1.0f64..32.0,
        phase in 0u64..50_000_000,
        seed in 0u64..u64::MAX,
        cut in 0u64..8_000_000,
    ) {
        let tb = TimeBase::default();
        let conn = ConnectionId(5);
        let bw = Bandwidth::mbps(mbps);
        let end = cut_off(cut, phase, 4_000_000);
        let rng = SimRng::seed_from_u64(seed);
        let mut src = expiring(
            BestEffortSource::new(conn, bw, mean_flits, RouterCycle(phase), &tb, rng.clone()),
            end,
        );
        let mean_gap_rc = mean_flits * tb.flit_bits as f64 / bw.as_bps() / tb.router_cycle_secs();
        let mut reference = RefBestEffort {
            conn,
            mean_gap_rc,
            mean_flits,
            rng,
            next_msg_rc: phase as f64,
            in_flight: 0,
            seq: 0,
        };
        reference.next_msg_rc += reference.rng.exponential(mean_gap_rc);
        let n = assert_streams_agree(src.as_mut(), &mut reference, end, STREAM_FLITS)?;
        prop_assert!(end.is_some() || n == STREAM_FLITS);
    }

    #[test]
    fn vbr_stream_equals_the_recomputing_reference(
        seq_idx in 0usize..7,
        back_to_back in 0u8..2,
        start in 0u64..50_000_000,
        seed in 0u64..500,
        cut in 0u64..80_000_000,
    ) {
        let tb = TimeBase::default();
        let conn = ConnectionId(7);
        let mut rng = SimRng::seed_from_u64(seed);
        let trace = MpegTrace::generate(&standard_sequences()[seq_idx], 2, &tb, &mut rng);
        let model = if back_to_back == 1 {
            InjectionModel::back_to_back_for(trace.stats().max_bits.div_ceil(1024), FRAME_TIME_SECS, &tb)
        } else {
            InjectionModel::SmoothRate
        };
        let end = cut_off(cut, start, 40_000_000);
        let total = trace.total_flits() as usize;
        let mut src = expiring(
            VbrSource::new(conn, trace.clone(), model, RouterCycle(start), &tb),
            end,
        );
        let mut reference = RefVbr {
            conn,
            trace,
            model,
            tb,
            frame_time_rc: FRAME_TIME_SECS / tb.router_cycle_secs(),
            start_rc: start as f64,
            frame_idx: 0,
            flit_in_frame: 0,
            seq: 0,
        };
        // The whole trace (two GOPs run to a few thousand flits), through
        // to the exhausted state.
        let n = assert_streams_agree(src.as_mut(), &mut reference, end, total + 1)?;
        prop_assert!(end.is_some() || n == total);
        prop_assert_eq!(src.peek_next(), None);
    }

    #[test]
    fn round_rc_is_f64_round(whole in 0u64..(1u64 << 52), frac in 0.0f64..1.0) {
        // Halves, both neighbours of a half, and arbitrary fractions, up
        // to where an `f64` still carries one.
        for x in [whole as f64 + frac, whole as f64 + 0.5, (whole as f64 + 0.5).next_down()] {
            prop_assert_eq!(round_rc(x), x.round() as u64, "x = {}", x);
        }
    }
}

proptest! {
    #[test]
    fn cbr_rate_matches_bandwidth(kbps in 64.0f64..100_000.0, phase in 0u64..1_000_000) {
        let tb = TimeBase::default();
        let bw = Bandwidth::kbps(kbps);
        let mut src = CbrSource::new(ConnectionId(0), bw, RouterCycle(phase), &tb);
        // Emit 500 flits; the span must equal 499 x IAT (within rounding).
        let first = src.peek_next().unwrap().0;
        let mut last = first;
        for _ in 0..500 {
            last = src.emit().generated_at.0;
        }
        let expected_span = 499.0 * tb.flit_iat_router_cycles(bw.as_bps());
        let span = (last - first) as f64;
        prop_assert!(
            (span - expected_span).abs() <= 500.0,
            "span {span} vs expected {expected_span}"
        );
    }

    #[test]
    fn cbr_timestamps_never_decrease(kbps in 64.0f64..1_000_000.0, seed in 0u64..100) {
        let tb = TimeBase::default();
        let mut rng = SimRng::seed_from_u64(seed);
        let phase = RouterCycle(rng.below(10_000_000));
        let mut src = CbrSource::new(ConnectionId(0), Bandwidth::kbps(kbps), phase, &tb);
        let mut last = 0;
        for _ in 0..200 {
            let t = src.peek_next().unwrap().0;
            prop_assert!(t >= last);
            prop_assert_eq!(src.emit().generated_at.0, t);
            last = t;
        }
    }

    #[test]
    fn mpeg_traces_respect_bounds(seq_idx in 0usize..7, gops in 1usize..8, seed in 0u64..500) {
        let params = &standard_sequences()[seq_idx];
        let tb = TimeBase::default();
        let mut rng = SimRng::seed_from_u64(seed);
        let trace = MpegTrace::generate(params, gops, &tb, &mut rng);
        prop_assert_eq!(trace.len(), gops * GOP_PATTERN.len());
        for f in &trace.frames {
            prop_assert!(f.bits as f64 >= params.min_bits);
            prop_assert!(f.bits as f64 <= params.max_bits);
            prop_assert!(f.flits >= 1);
            prop_assert!(f.flits * 1024 >= f.bits);
            prop_assert!((f.flits - 1) * 1024 < f.bits);
        }
        let s = trace.stats();
        prop_assert!(s.min_bits as f64 <= s.avg_bits && s.avg_bits <= s.max_bits as f64);
    }

    #[test]
    fn sr_injection_covers_frame_time(flits in 1u64..5_000) {
        let tb = TimeBase::default();
        let frame_rc = 0.033 / tb.router_cycle_secs();
        let iat = InjectionModel::SmoothRate.iat_router_cycles(flits, frame_rc, &tb);
        prop_assert!((iat * flits as f64 - frame_rc).abs() < 1e-6);
    }

    #[test]
    fn bb_peak_always_fits_its_design_frame(max_flits in 1u64..10_000) {
        let tb = TimeBase::default();
        let model = InjectionModel::back_to_back_for(max_flits, 0.033, &tb);
        let frame_rc = 0.033 / tb.router_cycle_secs();
        let iat = model.iat_router_cycles(max_flits, frame_rc, &tb);
        prop_assert!(iat * max_flits as f64 <= frame_rc * 1.0001);
    }

    #[test]
    fn admission_never_overbooks(
        requests in proptest::collection::vec(
            (0usize..4, 0usize..4, 10_000.0f64..200e6), 1..200),
    ) {
        let tb = TimeBase::default();
        let round = RoundConfig::default();
        let mut cac = AdmissionControl::new(4, round, tb);
        let mut booked_in = [0u64; 4];
        let mut booked_out = [0u64; 4];
        for (input, output, bps) in requests {
            let bw = Bandwidth::bps(bps);
            let slots = round.slots_for(bw, &tb);
            match cac.admit(input, output, bw, bw) {
                Ok(granted) => {
                    prop_assert_eq!(granted, slots);
                    booked_in[input] += slots;
                    booked_out[output] += slots;
                }
                Err(_) => {
                    // Rejection must be genuine: admitting would exceed a
                    // round on one side.
                    prop_assert!(
                        booked_in[input] + slots > round.cycles_per_round
                            || booked_out[output] + slots > round.cycles_per_round
                    );
                }
            }
            prop_assert!(booked_in.iter().all(|&b| b <= round.cycles_per_round));
            prop_assert!(booked_out.iter().all(|&b| b <= round.cycles_per_round));
        }
    }

    #[test]
    fn slots_cover_requested_bandwidth(bps in 1.0f64..1.24e9) {
        let tb = TimeBase::default();
        let round = RoundConfig::default();
        let slots = round.slots_for(Bandwidth::bps(bps), &tb);
        let slot_bw = round.slot_bandwidth(&tb).as_bps();
        prop_assert!(slots as f64 * slot_bw >= bps - 1e-6);
        prop_assert!((slots as f64 - 1.0) * slot_bw < bps);
    }
}
