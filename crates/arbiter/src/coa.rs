//! The Candidate-Order Arbiter (COA) — the paper's contribution (§4).
//!
//! Each scheduling cycle the candidate vectors are arranged conceptually
//! into a *selection matrix* with one row group per candidate level and a
//! *conflict vector* counting, for every (level, output) pair, how many
//! inputs request that output at that level.  The algorithm then iterates:
//!
//! 1. **Port ordering** — pick the next output to match: lowest level
//!    first, then *ascending* conflict count within the level (ports with
//!    many conflicts are matched last, because they have the most
//!    remaining opportunities), ties broken at random.
//! 2. **Arbitration** — among the requests for that output at that level,
//!    grant the one with the highest priority (ties at random).
//! 3. Drop every request involving the matched input or output and
//!    recompute the conflict vector.
//!
//! The loop ends when no request from a free input to a free output
//! remains; the result is a conflict-free matching with at most one
//! virtual channel selected per physical input link.
//!
//! ## Kernel
//!
//! The selection matrix is exactly the candidate set's per-(level, output)
//! requester bit-rows (a `levels·ports × ports` bit-matrix Q), and the
//! conflict vector is the vector of row popcounts — so the kernel works in
//! dense bit-matrix form end to end:
//!
//! The key structural fact the kernel exploits: **levels drain strictly
//! in order, and within a level the conflict structure is frozen.**
//! "Lowest level first" means level `l` is only reached once levels
//! `< l` hold no live request, and counts never increase, so processing
//! is a single monotone sweep over levels.  While level `l` drains, a
//! grant removes one input and one output — but the granted input's
//! level-`l` candidate *is* the granted output, so no other output's
//! level-`l` requester set changes.  Every live output at the current
//! level therefore keeps its conflict count until the moment it is
//! itself matched.  Cross-level bookkeeping (the reference's per-grant
//! conflict-vector recomputation over the whole matrix) is unnecessary:
//!
//! * **Per-level build**: the sweep covers only
//!   [`CandidateSet::used_levels`] — levels above hold no candidate and
//!   would build nothing.  When it reaches a level, one masked
//!   popcount pass over that level's requester bit-rows
//!   ([`CandidateSet::request_rows`] ∧ `free_in`, free outputs only)
//!   scatters each live output into a *conflict bucket*: `buckets[k]` is
//!   the port set of outputs with exactly `k + 1` live conflicts.  An
//!   occupancy bitmask (bit `k` set iff bucket `k` is non-empty) rides
//!   along in registers.  The scatter is branch-free: a dead output
//!   masks its OR operands to zero.
//! * **Port ordering**: "ascending conflict count" is a trailing-zeros
//!   pick on the occupancy mask, and the tie set *is* the lowest
//!   occupied bucket — a random tie becomes a k-th-set-bit select on it.
//!   No row scan happens per grant: the ordering step is O(words).
//! * **Grant retire**: drop the granted output from its bucket (one
//!   masked word store) and clear the occupancy bit if the bucket
//!   drained.  That is the whole retire step.
//! * **Bucket 0 in one pass**: each free input has one candidate per
//!   level, so the live requester sets of a level's outputs *partition*
//!   the free inputs.  An output in bucket 0 has exactly one live
//!   requester, no other output shares it, and bucket 0 is the lowest
//!   bucket, so the sequential loop grants every bucket-0 output to its
//!   requester before it touches bucket 1 — whatever order its random
//!   port ordering picks.  That order decides only which RNG draws the
//!   loop makes, never who wins, and with one requester per output no
//!   reservoir tie-break draws at all.  So the kernel makes exactly the
//!   port-ordering draws the loop would (`rng.index(n)`,
//!   `rng.index(n − 1)`, …, `rng.index(2)` for `n` outputs; none for
//!   `n = 1`), then grants bucket 0 in ascending output order with no
//!   k-th-set-bit select, no requester scan and no per-grant bucket
//!   update, and counts one iteration, one examined request and one
//!   retired conflict per grant, as the loop does.  The matching, the
//!   RNG position and the work counts are bit-identical.  Buckets
//!   `k ≥ 1` keep the sequential loop: there the order decides which
//!   draw feeds which reservoir tie-break, and batching only their
//!   tie-free outputs pays for a pre-scan without beating bucket 0 alone.
//!
//! Port sets are [`crate::portset::PortSet`] words, so the same kernel
//! body serves 64-, 128- and 256-port routers; the width is dispatched
//! once per call and monomorphized.  The whole cycle costs
//! O(ports · levels / 64) word operations for the builds plus O(words)
//! per grant, instead of the naive O(ports² · levels); the golden
//! reference ([`crate::reference::ReferenceCoa`]) keeps the naive
//! recomputation and the differential property tests pin the two
//! together grant for grant *and* RNG draw for RNG draw.

use crate::candidate::{CandidateSet, MAX_PORTS};
use crate::matching::{Grant, Matching};
use crate::portset::{words_for_ports, PortSet};
use crate::scheduler::{KernelProbe, KernelStats, SwitchScheduler};
use mmr_sim::rng::SimRng;

/// The Candidate-Order Arbiter.
///
/// ```
/// use mmr_arbiter::candidate::{Candidate, CandidateSet, Priority};
/// use mmr_arbiter::coa::CandidateOrderArbiter;
/// use mmr_arbiter::scheduler::SwitchScheduler;
/// use mmr_sim::rng::SimRng;
///
/// let mut cs = CandidateSet::new(4, 4);
/// // Inputs 0 and 1 contend for output 2; input 1 has higher priority.
/// cs.push(Candidate { input: 0, vc: 0, output: 2, priority: Priority::new(10.0) });
/// cs.push(Candidate { input: 1, vc: 1, output: 2, priority: Priority::new(99.0) });
///
/// let mut coa = CandidateOrderArbiter::new(4);
/// let matching = coa.schedule(&cs, &mut SimRng::seed_from_u64(0));
/// assert_eq!(matching.grant_for(1).unwrap().output, 2);
/// assert!(matching.grant_for(0).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CandidateOrderArbiter {
    ports: usize,
    words: usize,
    /// Conflict buckets for the level currently being drained: row `k`
    /// (of `words` words) is the port set of free outputs with exactly
    /// `k + 1` live conflicts.  Scratch reused across cycles to stay
    /// allocation-free; every level drains its buckets back to all-zero
    /// (each bucketed output is eventually granted and removed), so no
    /// per-call clearing is needed, only a (normally no-op) resize.
    buckets: Vec<u64>,
    probe: KernelProbe,
}

impl CandidateOrderArbiter {
    /// COA for a router with `ports` ports.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0 && ports <= MAX_PORTS);
        CandidateOrderArbiter {
            ports,
            words: words_for_ports(ports),
            buckets: Vec::new(),
            probe: KernelProbe::default(),
        }
    }

    fn run<const W: usize>(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        let ports = self.ports;
        out.clear();

        self.buckets.resize(ports * W, 0);
        debug_assert!(self.buckets.iter().all(|&b| b == 0));
        let buckets = &mut self.buckets[..ports * W];
        let rows = cs.request_rows();

        let mut free_in = PortSet::<W>::full(ports);
        let mut free_out = PortSet::<W>::full(ports);
        // Work counts batched into locals; one probe update at the end
        // keeps the loop body free of counter stores.
        let mut iters = 0u64;
        let mut examined = 0u64;
        let mut retired = 0u64;

        // One monotone sweep over levels (see the module doc: a level
        // only becomes current once every lower level is drained, and
        // drained levels never revive).
        for level in 0..cs.used_levels() {
            if free_in.is_empty() || free_out.is_empty() {
                break;
            }
            // Per-level build: popcount each free output's requester row
            // against the current free inputs and scatter it into its
            // conflict bucket.  `occ` (bit `k` set iff bucket `k` is
            // non-empty) lives in registers.  The scatter is branch-free:
            // an output with no live requesters masks its OR operands to
            // zero (aimed at bucket `ports - 1` so the index stays in
            // range).
            let rrow = &rows[level * ports * W..][..ports * W];
            let mut occ = [0u64; W];
            let mut scan = free_out;
            while let Some(output) = scan.take_lowest() {
                let mut c = 0u32;
                for w in 0..W {
                    c += live_count(rrow[output * W + w] & free_in.word(w));
                }
                let live = u64::from(c != 0);
                let k = (c as usize).wrapping_sub(1).min(ports - 1);
                buckets[k * W + (output >> 6)] |= live << (output & 63);
                occ[k >> 6] |= live << (k & 63);
            }

            // Bucket 0 in one pass (module doc): the loop's port-ordering
            // draws over tie sets of n, n − 1, …, 2 outputs, then each
            // output to its one live requester, in ascending order.
            if occ[0] & 1 != 0 {
                let mut single = PortSet::<W>::from_words(&buckets[..W]);
                let n = single.count_ones() as usize;
                for ties in (2..=n).rev() {
                    rng.index(ties);
                }
                iters += n as u64;
                examined += n as u64;
                retired += n as u64;
                while let Some(output) = single.take_lowest() {
                    let input = PortSet::<W>::from_words(&rrow[output * W..][..W])
                        .and(&free_in)
                        .lowest()
                        .expect("bucket 0 holds outputs with one live requester");
                    let c = cs.candidate_at(input, level).expect("indexed candidate");
                    out.add(Grant {
                        input,
                        output,
                        vc: c.vc,
                        level,
                    });
                    free_in.remove(input);
                    free_out.remove(output);
                }
                buckets[..W].fill(0);
                occ[0] &= !1;
            }

            // Drain the rest of the level.  Within it the conflict
            // structure is frozen: a grant's input only requested the
            // granted output at this level, so no other output's count
            // changes and each remaining bucket entry stays valid until
            // granted.
            let mut occ_any = 0u64;
            for &w in &occ {
                occ_any |= w;
            }
            while occ_any != 0 {
                iters += 1;
                // Port ordering: ascending conflict count; ties at
                // random.  The minimum count is the lowest occupied
                // bucket, and that bucket is exactly the tie set.
                let mut k = 0usize;
                for (w, &bits) in occ.iter().enumerate() {
                    if bits != 0 {
                        k = w * 64 + bits.trailing_zeros() as usize;
                        break;
                    }
                }
                let bbase = k * W;
                let tie_mask = PortSet::<W>::from_words(&buckets[bbase..bbase + W]);
                let ntie = tie_mask.count_ones() as usize;
                debug_assert!(ntie > 0, "occupancy said this bucket is non-empty");
                let output = if ntie == 1 {
                    tie_mask.lowest().expect("tie mask is non-empty")
                } else {
                    tie_mask.kth_set_bit(rng.index(ntie))
                };

                // Arbitration: highest-priority request for `output` at
                // `level`, among free inputs; ties at random.  The
                // requester bitmask enumerates exactly the free inputs
                // whose level-`level` candidate targets `output`, in
                // ascending input order — the same visit order (and thus
                // the same RNG draw sequence) as the reference's full
                // port sweep.  Priorities compare as order-preserving
                // integer keys; key equality is `total_cmp` equality, so
                // the reservoir draws line up too.
                let mut requesters =
                    PortSet::<W>::from_words(cs.requesters_at(level, output)).and(&free_in);
                debug_assert!(
                    !requesters.is_empty(),
                    "the conflict bucket said this output has a request"
                );
                examined += u64::from(requesters.count_ones());
                let mut best_input = usize::MAX;
                let mut best_key = 0u64;
                let mut best_vc = 0usize;
                let mut ties = 0u32;
                while let Some(input) = requesters.take_lowest() {
                    let c = cs.candidate_at(input, level).expect("indexed candidate");
                    debug_assert_eq!(c.output, output);
                    let key = c.priority.sort_key();
                    if best_input == usize::MAX || key > best_key {
                        best_input = input;
                        best_key = key;
                        best_vc = c.vc;
                        ties = 1;
                    } else if key == best_key {
                        // Reservoir-sample among equal-priority requests
                        // so the tie-break is uniform.
                        ties += 1;
                        if rng.below(ties as u64) == 0 {
                            best_input = input;
                            best_vc = c.vc;
                        }
                    }
                }
                debug_assert_ne!(best_input, usize::MAX, "requester mask was non-empty");
                out.add(Grant {
                    input: best_input,
                    output,
                    vc: best_vc,
                    level,
                });
                free_in.remove(best_input);
                free_out.remove(output);
                // Retire: drop the granted output (k + 1 live conflict
                // entries) from its bucket; the occupancy bit falls with
                // the bucket.
                retired += (k + 1) as u64;
                buckets[bbase + (output >> 6)] &= !(1u64 << (output & 63));
                let mut any = 0u64;
                for w in 0..W {
                    any |= buckets[bbase + w];
                }
                occ[k >> 6] &= !(u64::from(any == 0) << (k & 63));
                occ_any = 0;
                for &w in &occ {
                    occ_any |= w;
                }
            }
        }
        self.probe.iterations(iters);
        self.probe.examined(examined);
        self.probe.retired(retired);
        self.probe.matched(out.size() as u64);
        debug_assert!(out.is_consistent_with(cs));
    }
}

/// `row.count_ones()`, with rows of 0 or 1 set bits — nearly all of them
/// on a small router — answered by two tests instead of the dozen-op
/// SWAR popcount baseline x86-64 compiles `count_ones` to.
#[inline]
fn live_count(row: u64) -> u32 {
    let rest = row & row.wrapping_sub(1); // `row` without its lowest set bit
    if rest == 0 {
        u32::from(row != 0)
    } else {
        1 + rest.count_ones()
    }
}

impl SwitchScheduler for CandidateOrderArbiter {
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        match self.words {
            1 => self.run::<1>(cs, rng, out),
            2 => self.run::<2>(cs, rng, out),
            _ => self.run::<4>(cs, rng, out),
        }
    }

    fn name(&self) -> &'static str {
        "Candidate-Order Arbiter"
    }

    fn kernel_stats(&self) -> KernelStats {
        self.probe.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{Candidate, Priority};

    fn cand(input: usize, vc: usize, output: usize, prio: f64) -> Candidate {
        Candidate {
            input,
            vc,
            output,
            priority: Priority::new(prio),
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0)
    }

    #[test]
    fn empty_candidates_empty_matching() {
        let cs = CandidateSet::new(4, 4);
        let m = CandidateOrderArbiter::new(4).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 0);
    }

    #[test]
    fn disjoint_requests_all_granted() {
        let mut cs = CandidateSet::new(4, 2);
        for i in 0..4 {
            cs.push(cand(i, i, (i + 1) % 4, 1.0 + i as f64));
        }
        let m = CandidateOrderArbiter::new(4).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 4);
        for i in 0..4 {
            assert_eq!(m.grant_for(i).unwrap().output, (i + 1) % 4);
        }
    }

    #[test]
    fn highest_priority_wins_contention() {
        // Three inputs all want output 0 at level 1; input 2 has the
        // highest priority.
        let mut cs = CandidateSet::new(4, 2);
        cs.push(cand(0, 0, 0, 5.0));
        cs.push(cand(1, 0, 0, 9.0));
        cs.push(cand(2, 0, 0, 100.0));
        let m = CandidateOrderArbiter::new(4).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 1);
        let g = m.grant_for(2).expect("input 2 must win");
        assert_eq!(g.output, 0);
        assert!(m.grant_for(0).is_none());
        assert!(m.grant_for(1).is_none());
    }

    #[test]
    fn losers_fall_back_to_lower_levels() {
        // Inputs 0 and 1 both want output 0 first; their level-2
        // candidates point at free outputs, so the loser still transmits.
        let mut cs = CandidateSet::new(4, 2);
        cs.set_input(0, &[cand(0, 0, 0, 10.0), cand(0, 1, 1, 2.0)]);
        cs.set_input(1, &[cand(1, 0, 0, 8.0), cand(1, 1, 2, 1.0)]);
        let m = CandidateOrderArbiter::new(4).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 2);
        assert_eq!(m.grant_for(0).unwrap().output, 0);
        let loser = m.grant_for(1).unwrap();
        assert_eq!(loser.output, 2);
        assert_eq!(loser.level, 1);
    }

    #[test]
    fn least_conflicted_output_matched_first() {
        // Output 0 is requested by inputs 0,1,2 (3 conflicts); output 1 by
        // input 3 only (1 conflict).  COA must match output 1 first —
        // observable because input 3 also requests output 0 at level 1 but
        // must be granted its level-1 choice... here we check that the
        // high-conflict port still ends up matched (matched *last*, not
        // dropped).
        let mut cs = CandidateSet::new(4, 1);
        cs.push(cand(0, 0, 0, 1.0));
        cs.push(cand(1, 0, 0, 2.0));
        cs.push(cand(2, 0, 0, 3.0));
        cs.push(cand(3, 0, 1, 0.5));
        let m = CandidateOrderArbiter::new(4).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 2);
        assert_eq!(m.grant_for(3).unwrap().output, 1);
        assert_eq!(
            m.grant_for(2).unwrap().output,
            0,
            "priority 3.0 wins output 0"
        );
    }

    #[test]
    fn level_one_served_before_level_two() {
        // Input 0's level-1 request for output 0 must beat input 1's
        // level-2 request for output 0, even though input 1's priority for
        // it is higher.
        let mut cs = CandidateSet::new(2, 2);
        cs.set_input(0, &[cand(0, 0, 0, 1.0)]);
        cs.set_input(1, &[cand(1, 0, 1, 50.0), cand(1, 1, 0, 40.0)]);
        let m = CandidateOrderArbiter::new(2).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 2);
        assert_eq!(m.grant_for(0).unwrap().output, 0);
        assert_eq!(m.grant_for(1).unwrap().output, 1);
    }

    #[test]
    fn one_grant_per_input_even_with_many_candidates() {
        let mut cs = CandidateSet::new(4, 4);
        // Input 0 requests every output.
        cs.set_input(
            0,
            &[
                cand(0, 0, 0, 9.0),
                cand(0, 1, 1, 8.0),
                cand(0, 2, 2, 7.0),
                cand(0, 3, 3, 6.0),
            ],
        );
        let m = CandidateOrderArbiter::new(4).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 1, "only one VC per physical link may transmit");
        assert_eq!(m.grant_for(0).unwrap().output, 0);
    }

    #[test]
    fn matching_is_always_maximal_on_candidates() {
        // After COA finishes there must be no remaining candidate linking
        // a free input to a free output (the loop only stops when none
        // remain).
        let mut r = rng();
        for seed in 0..50u64 {
            let mut cs = CandidateSet::new(4, 4);
            let mut gen = SimRng::seed_from_u64(seed);
            for input in 0..4 {
                let mut cands: Vec<Candidate> = (0..4)
                    .map(|vc| cand(input, vc, gen.index(4), gen.uniform() * 100.0))
                    .collect();
                cands.sort_by_key(|c| core::cmp::Reverse(c.priority));
                cs.set_input(input, &cands);
            }
            let m = CandidateOrderArbiter::new(4).schedule(&cs, &mut r);
            for c in cs.iter() {
                assert!(
                    m.input_matched(c.input) || m.output_matched(c.output),
                    "candidate {c:?} links free input to free output"
                );
            }
            assert!(m.is_consistent_with(&cs));
        }
    }

    #[test]
    fn incremental_conflicts_match_reference_at_64_ports() {
        // Full-width mask edge case: 64 ports uses every bit of the free
        // masks, so `1 << ports` must never be evaluated.
        let mut cs = CandidateSet::new(64, 2);
        let mut gen = SimRng::seed_from_u64(7);
        for input in 0..64 {
            let mut cands: Vec<Candidate> = (0..2)
                .map(|vc| cand(input, vc, gen.index(64), gen.uniform() * 100.0))
                .collect();
            cands.sort_by_key(|c| core::cmp::Reverse(c.priority));
            cs.set_input(input, &cands);
        }
        let mut fast_rng = SimRng::seed_from_u64(3);
        let mut ref_rng = SimRng::seed_from_u64(3);
        let fast = CandidateOrderArbiter::new(64).schedule(&cs, &mut fast_rng);
        let golden = crate::reference::ReferenceCoa::new(64).schedule(&cs, &mut ref_rng);
        assert_eq!(fast, golden);
    }

    #[test]
    fn bit_matrix_conflicts_match_reference_at_256_ports() {
        // Multi-word edge case: requester rows and free masks span four
        // words, and conflict counts can exceed u8 range in principle.
        let mut cs = CandidateSet::new(256, 2);
        let mut gen = SimRng::seed_from_u64(11);
        for input in 0..256 {
            let mut cands: Vec<Candidate> = (0..2)
                .map(|vc| cand(input, vc, gen.index(256), gen.uniform() * 100.0))
                .collect();
            cands.sort_by_key(|c| core::cmp::Reverse(c.priority));
            cs.set_input(input, &cands);
        }
        let mut fast_rng = SimRng::seed_from_u64(3);
        let mut ref_rng = SimRng::seed_from_u64(3);
        let fast = CandidateOrderArbiter::new(256).schedule(&cs, &mut fast_rng);
        let golden = crate::reference::ReferenceCoa::new(256).schedule(&cs, &mut ref_rng);
        assert_eq!(fast, golden);
        assert_eq!(fast_rng.next_u64_raw(), ref_rng.next_u64_raw());
    }
}
