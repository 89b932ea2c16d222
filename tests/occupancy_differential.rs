//! Differential tests for the occupancy indices (DESIGN.md §18).
//!
//! `VcMemory` and `Nic` keep one bit per queue, set exactly while the
//! queue holds a flit, and `LinkScheduler::select_where` /
//! `Nic::forward_one` walk those bits instead of every queue.  Each test
//! here pits the indexed code against a naive, obviously-correct
//! transcription of the full scan it replaced, on identical inputs, and
//! demands identical outputs — candidate for candidate, flit for flit,
//! bit for bit.  The SIABP test does the same for the libm-free power of
//! two against the `exp2` formula it replaced.

use mmr_core::arbiter::candidate::{CandidateSet, Priority};
use mmr_core::arbiter::priority::{Iabp, LinkPriority, Siabp};
use mmr_core::router::link_scheduler::{LinkScheduler, VcQosInfo};
use mmr_core::router::nic::Nic;
use mmr_core::router::vcmem::VcMemory;
use mmr_core::sim::rng::SimRng;
use mmr_core::sim::time::RouterCycle;
use mmr_core::traffic::connection::ConnectionId;
use mmr_core::traffic::flit::Flit;
use proptest::prelude::*;
use std::collections::VecDeque;

fn flit(conn: usize, seq: u64) -> Flit {
    Flit::cbr(ConnectionId(conn as u32), seq, RouterCycle(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) After every push and pop, bit `vc` of the index is set iff
    /// `vc` is non-empty, and the lengths sum to the occupancy.
    #[test]
    fn vc_memory_index_tracks_every_push_and_pop(
        vcs in 1usize..200,
        ops in proptest::collection::vec((0usize..200, 0usize..3), 1..400),
    ) {
        let mut mem = VcMemory::new(vcs, 3, 2);
        for (i, &(vc, op)) in ops.iter().enumerate() {
            let vc = vc % vcs;
            // Two pops per push on average would keep it empty; favour
            // pushes so queues also fill and refuse.
            if op < 2 {
                if mem.free_space(vc) > 0 {
                    mem.push(vc, flit(vc, i as u64), RouterCycle(i as u64));
                }
            } else {
                mem.pop(vc);
            }
            let words = mem.nonempty_words();
            prop_assert_eq!(words.len(), vcs.div_ceil(64));
            for v in 0..vcs {
                prop_assert_eq!(words[v / 64] >> (v % 64) & 1 == 1, !mem.is_empty(v));
            }
            prop_assert!(mem.index_consistent());
        }
    }
}

/// One offered candidate, reduced to what the arbiter sees.
type Offer = (usize, usize, usize, u64);

/// The link scheduler as it was before the occupancy index: probe every
/// VC homed on the input, then order by (priority desc, vc asc) and keep
/// the top `levels`.  A full sort stands in for the partial selection —
/// the comparator is a total order, so both pick the same prefix.
#[allow(clippy::too_many_arguments)]
fn full_scan_select(
    input: usize,
    vcs: &[usize],
    mem: &VcMemory,
    qos: &[VcQosInfo],
    priority_fn: &dyn LinkPriority,
    now: RouterCycle,
    levels: usize,
    eligible: impl Fn(usize) -> bool,
) -> Vec<Offer> {
    let mut scratch: Vec<(Priority, usize)> = Vec::new();
    for &vc in vcs {
        if !eligible(vc) {
            continue;
        }
        let Some(head) = mem.head(vc) else { continue };
        let waited = now.saturating_sub(head.entered_at).0;
        let info = &qos[vc];
        scratch.push((
            priority_fn.priority(info.reserved_slots, info.iat_rc, waited),
            vc,
        ));
    }
    scratch.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scratch
        .iter()
        .take(levels)
        .map(|&(p, vc)| (input, vc, qos[vc].output, p.0.to_bits()))
        .collect()
}

/// (b) `total` VCs dealt round-robin onto three inputs (so every input's
/// VCs interleave with the others' in every index word), churning
/// occupancy, a fresh random eligibility mask on two cycles in three.
fn assert_link_scheduler_matches_full_scan(
    total: usize,
    levels: usize,
    priority_fn: &dyn LinkPriority,
    seed: u64,
) {
    const INPUTS: usize = 3;
    let mut rng = SimRng::seed_from_u64(seed ^ ((total as u64) << 8) ^ levels as u64);
    let qos: Vec<VcQosInfo> = (0..total)
        .map(|_| {
            let slots = [1u64, 21, 181, 727][rng.index(4)];
            VcQosInfo {
                output: rng.index(INPUTS),
                reserved_slots: slots,
                iat_rc: 16_384.0 / slots as f64,
            }
        })
        .collect();
    let homed: Vec<Vec<usize>> = (0..INPUTS)
        .map(|input| {
            let mut vcs: Vec<usize> = (input..total).step_by(INPUTS).collect();
            // Construction order must not matter either.
            rng.shuffle(&mut vcs);
            vcs
        })
        .collect();
    let mut scheds: Vec<LinkScheduler> = homed
        .iter()
        .enumerate()
        .map(|(input, vcs)| LinkScheduler::new(input, vcs.clone()))
        .collect();
    let mut mem = VcMemory::new(total, 4, 2);
    let mut cs = CandidateSet::new(INPUTS, levels);
    // Occupancy density swings between nearly empty and nearly full.
    for cycle in 0..240u64 {
        let (pushes, pops) = if (cycle / 40) % 2 == 0 {
            (total / 8 + 2, total / 16 + 1)
        } else {
            (total / 16 + 1, total / 6 + 2)
        };
        for _ in 0..rng.index(pushes + 1) {
            let vc = rng.index(total);
            if mem.free_space(vc) > 0 {
                // Stagger arrival times so priorities differ.
                let entered = RouterCycle((cycle * 64).saturating_sub(rng.below(5_000)));
                mem.push(vc, flit(vc, cycle), entered);
            }
        }
        for _ in 0..rng.index(pops + 1) {
            mem.pop(rng.index(total));
        }
        let mask: Vec<bool> = match cycle % 3 {
            0 => vec![true; total],
            _ => (0..total).map(|_| rng.index(4) != 0).collect(),
        };
        let now = RouterCycle(cycle * 64);
        cs.clear();
        for (input, ls) in scheds.iter_mut().enumerate() {
            let n = ls.select_where(&mem, &qos, priority_fn, now, &mut cs, |vc| mask[vc]);
            let got: Vec<Offer> = (0..levels)
                .filter_map(|l| cs.get(input, l))
                .map(|c| (c.input, c.vc, c.output, c.priority.0.to_bits()))
                .collect();
            let want = full_scan_select(
                input,
                &homed[input],
                &mem,
                &qos,
                priority_fn,
                now,
                levels,
                |vc| mask[vc],
            );
            assert_eq!(
                got,
                want,
                "{} total={total} levels={levels} seed={seed} cycle={cycle} input={input}",
                priority_fn.name()
            );
            assert_eq!(n, want.len(), "offered count disagrees");
        }
    }
}

#[test]
fn link_scheduler_matches_full_scan_under_siabp() {
    for total in [1, 63, 64, 65, 130, 300] {
        for levels in [1, 2, 4] {
            for seed in 0..4 {
                assert_link_scheduler_matches_full_scan(total, levels, &Siabp, seed);
            }
        }
    }
}

#[test]
fn link_scheduler_matches_full_scan_under_iabp() {
    for total in [1, 63, 64, 65, 130, 300] {
        for levels in [1, 2, 4] {
            for seed in 0..4 {
                assert_link_scheduler_matches_full_scan(total, levels, &Iabp, seed);
            }
        }
    }
}

/// The NIC link controller as it was before the non-empty index: probe
/// `(rr + off) % n` for every offset.
struct FullScanNic {
    conns: Vec<usize>,
    queues: Vec<VecDeque<Flit>>,
    rr: usize,
}

impl FullScanNic {
    fn new(conns: Vec<usize>) -> Self {
        FullScanNic {
            queues: conns.iter().map(|_| VecDeque::new()).collect(),
            conns,
            rr: 0,
        }
    }

    fn forward_one(&mut self, has_credit: impl Fn(usize) -> bool) -> Option<(usize, Flit)> {
        let n = self.conns.len();
        for off in 0..n {
            let local = (self.rr + off) % n;
            let conn = self.conns[local];
            if !self.queues[local].is_empty() && has_credit(conn) {
                let flit = self.queues[local].pop_front().unwrap();
                self.rr = (local + 1) % n;
                return Some((conn, flit));
            }
        }
        None
    }
}

/// (c) Same served `(conn, seq)` sequence — hence the same round-robin
/// pointer after every call — under random enqueues and credit patterns,
/// through deep backlogs that grow the NIC's slot pool and then reuse
/// its freed slots.
#[test]
fn nic_forwarding_matches_full_scan() {
    fn same_state(fast: &Nic, naive: &FullScanNic, at: &str) {
        let depth: usize = naive.queues.iter().map(VecDeque::len).sum();
        assert_eq!(fast.total_depth(), depth, "{at}");
        assert_eq!(fast.is_empty(), depth == 0, "{at}");
        assert!(fast.index_consistent(), "{at}");
    }
    for n in [1usize, 64, 65, 130] {
        for seed in 0..6u64 {
            let mut rng = SimRng::seed_from_u64((seed << 16) ^ n as u64);
            // Global ids unrelated to local indices.
            let conns: Vec<usize> = (0..n).map(|i| 1_000 + 7 * i).collect();
            let mut fast = Nic::new(conns.clone());
            let mut naive = FullScanNic::new(conns.clone());
            let mut seq = vec![0u64; n];
            let mut deepest = 0;
            for step in 0..800 {
                // Bursts of arrivals, stretches that drain the NIC dry
                // (the depth-0 early return), and deep backlogs: one
                // connection past 64 queued flits and the NIC past one
                // flit per connection, so the pool grows and later
                // enqueues reuse the slots forwarding frees.
                let arrivals: Vec<usize> = match (step / 50) % 4 {
                    2 => Vec::new(),
                    3 if step % 50 == 0 => {
                        let hot = rng.index(n);
                        let mut burst = vec![hot; 65 + rng.index(40)];
                        burst.extend((0..=n).map(|_| rng.index(n)));
                        burst
                    }
                    _ => (0..rng.index(3)).map(|_| rng.index(n)).collect(),
                };
                for local in arrivals {
                    let f = flit(conns[local], seq[local]);
                    seq[local] += 1;
                    fast.enqueue(local, f);
                    naive.queues[local].push_back(f);
                }
                deepest = deepest.max(fast.total_depth());
                let density = [0, 1, 2, 4, 4][rng.index(5)];
                let credit: Vec<bool> = (0..n).map(|_| rng.index(4) < density).collect();
                let has_credit = |conn: usize| credit[(conn - 1_000) / 7];
                let got = fast.forward_one(has_credit).map(|(c, f)| (c, f.seq));
                let want = naive.forward_one(has_credit).map(|(c, f)| (c, f.seq));
                let at = format!("n={n} seed={seed} step={step}");
                assert_eq!(got, want, "{at}");
                same_state(&fast, &naive, &at);
            }
            assert!(deepest > n.max(64), "n={n} seed={seed}: deepest {deepest}");
            assert_eq!(fast.peak_depth(), deepest);
            // Drain what is left with every credit available.
            while let Some((c, f)) = fast.forward_one(|_| true) {
                let want = naive.forward_one(|_| true).map(|(c, f)| (c, f.seq));
                assert_eq!(Some((c, f.seq)), want, "n={n} seed={seed} drain");
                same_state(&fast, &naive, "drain");
            }
            assert!(naive.forward_one(|_| true).is_none());
        }
    }
}

/// SIABP as it was: the doubling factor from libm's `exp2`.
fn siabp_with_exp2(reserved_slots: u64, waited_rc: u64) -> f64 {
    let slots = reserved_slots.max(1);
    let shift = 64 - waited_rc.leading_zeros();
    let cap = (1u64 << 52) as f64;
    (slots as f64 * (shift as f64).exp2()).min(cap)
}

/// (d) Every reservation size × every delay bit length 0..=64, at both
/// ends of each bit length, through and past the 2^52 saturation edge.
#[test]
fn siabp_is_bit_identical_to_the_exp2_formula() {
    for slots in [0u64, 1, 21, 727, 16_384, 1 << 40] {
        for bits in 0..=64u32 {
            let (lo, hi) = match bits {
                0 => (0, 0),
                64 => (1 << 63, u64::MAX),
                b => (1 << (b - 1), (1 << b) - 1),
            };
            for waited in [lo, hi] {
                assert_eq!(
                    Siabp.priority(slots, 1.0, waited).0.to_bits(),
                    siabp_with_exp2(slots, waited).to_bits(),
                    "slots={slots} waited={waited} ({bits} bits)"
                );
            }
        }
    }
    // Just below, at and just above the cap for a reservation of 1.
    assert_eq!(Siabp.priority(1, 1.0, (1 << 51) - 1).0, (1u64 << 51) as f64);
    assert_eq!(Siabp.priority(1, 1.0, 1 << 51).0, (1u64 << 52) as f64);
    assert_eq!(Siabp.priority(1, 1.0, 1 << 52).0, (1u64 << 52) as f64);
}
