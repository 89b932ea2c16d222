//! Load sweeps: the x-axes of the paper's figures.
//!
//! A sweep is a grid of (load, arbiter, seed) points over a base config.
//! Points are independent deterministic simulations, so they parallelize
//! embarrassingly; a scoped-thread fan-out spreads them across cores while
//! preserving the spec's deterministic result order.

use crate::config::SimConfig;
use crate::experiment::{run_experiment, ExperimentResult};
use mmr_arbiter::scheduler::ArbiterKind;
use serde::{Deserialize, Serialize};

/// A sweep definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Base configuration (its load/arbiter/seed fields are overridden).
    pub base: SimConfig,
    /// Target loads to visit.
    pub loads: Vec<f64>,
    /// Arbiters to compare.
    pub arbiters: Vec<ArbiterKind>,
    /// Seeds to average over (≥1).
    pub seeds: Vec<u64>,
}

impl SweepSpec {
    /// Total number of simulation points.
    pub fn point_count(&self) -> usize {
        self.loads.len() * self.arbiters.len() * self.seeds.len()
    }

    /// Enumerate the configs in deterministic order.
    pub fn configs(&self) -> Vec<SimConfig> {
        let mut out = Vec::with_capacity(self.point_count());
        for &arbiter in &self.arbiters {
            for &load in &self.loads {
                for &seed in &self.seeds {
                    out.push(
                        self.base
                            .with_load(load)
                            .with_arbiter(arbiter)
                            .with_seed(seed),
                    );
                }
            }
        }
        out
    }
}

/// One aggregated sweep point: the seed-averaged results for a
/// (load, arbiter) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Arbiter used.
    pub arbiter: ArbiterKind,
    /// Target load.
    pub target_load: f64,
    /// Mean achieved load across seeds.
    pub achieved_load: f64,
    /// Per-seed results.
    pub results: Vec<ExperimentResult>,
}

impl SweepPoint {
    /// Seed-mean of an arbitrary metric.
    pub fn mean_of<F: Fn(&ExperimentResult) -> f64>(&self, f: F) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results.iter().map(&f).sum::<f64>() / self.results.len() as f64
    }

    /// Seed-mean crossbar utilization.
    pub fn utilization(&self) -> f64 {
        self.mean_of(|r| r.summary.crossbar_utilization)
    }

    /// Seed-mean frame delay (µs).
    pub fn frame_delay_us(&self) -> f64 {
        self.mean_of(|r| r.summary.metrics.mean_frame_delay_us)
    }

    /// Seed-mean flit delay for a class (µs); 0 if the class is absent.
    pub fn class_delay_us(&self, class: mmr_traffic::connection::TrafficClass) -> f64 {
        self.mean_of(|r| {
            r.summary
                .metrics
                .class(class)
                .map(|c| c.mean_delay_us)
                .unwrap_or(0.0)
        })
    }

    /// Seed-mean throughput ratio (delivered/generated).
    pub fn throughput_ratio(&self) -> f64 {
        self.mean_of(|r| r.summary.throughput_ratio())
    }
}

/// Run a sweep, parallelized across points, returning aggregated points
/// grouped by (arbiter, load) in the spec's order.
pub fn sweep(spec: &SweepSpec) -> Vec<SweepPoint> {
    sweep_with_workers(spec, None)
}

/// [`sweep`] with an explicit worker count (`None` = one per core).
/// Results are identical for any worker count — points are independent
/// deterministic simulations and land at spec order regardless of which
/// thread computed them.
pub fn sweep_with_workers(spec: &SweepSpec, workers: Option<usize>) -> Vec<SweepPoint> {
    let configs = spec.configs();
    let results = parallel_map(&configs, run_experiment, workers);
    group_points(spec, results)
}

/// Aggregate a flat result list (in [`SweepSpec::configs`] order — seeds
/// innermost) back into (arbiter, load) points.  Shared by the sweep
/// runner and the cached pack runner (`CompiledPack::run`).
pub fn group_points(spec: &SweepSpec, results: Vec<ExperimentResult>) -> Vec<SweepPoint> {
    assert_eq!(
        results.len(),
        spec.point_count(),
        "result list does not match the sweep grid"
    );
    let s = spec.seeds.len();
    let mut points = Vec::with_capacity(spec.loads.len() * spec.arbiters.len());
    let mut it = results.into_iter();
    for &arbiter in &spec.arbiters {
        for &load in &spec.loads {
            let group: Vec<ExperimentResult> = (&mut it).take(s).collect();
            let achieved = group.iter().map(|r| r.achieved_load).sum::<f64>() / group.len() as f64;
            points.push(SweepPoint {
                arbiter,
                target_load: load,
                achieved_load: achieved,
                results: group,
            });
        }
    }
    points
}

/// Run a flat list of configs in parallel, preserving input order.
/// `workers = None` uses one thread per core.
pub fn run_all(configs: &[SimConfig], workers: Option<usize>) -> Vec<ExperimentResult> {
    parallel_map(configs, run_experiment, workers)
}

/// Order-preserving parallel map over a slice: results land at the same
/// index as their input regardless of which worker computed them.
fn parallel_map<T, R, F>(items: &[T], f: F, workers: Option<usize>) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(items.len().max(1));
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    if workers <= 1 {
        for (slot, item) in slots.iter_mut().zip(items) {
            *slot = Some(f(item));
        }
    } else {
        // Deterministic chunked dispatch: the input is split into `workers`
        // contiguous chunks (the first `len % workers` chunks take one
        // extra item), and each thread gets exclusive `&mut` access to its
        // own output chunk.  `split_at_mut` proves the disjointness the
        // old shared-index/raw-pointer scheme asserted by hand, so there
        // is no unsafe and no cross-thread index traffic at all — which
        // worker computes which point is a pure function of (len, workers).
        let f = &f;
        let base = items.len() / workers;
        let rem = items.len() % workers;
        std::thread::scope(|scope| {
            let mut slots_rest = slots.as_mut_slice();
            let mut items_rest = items;
            for w in 0..workers {
                let take = base + usize::from(w < rem);
                let (slot_chunk, s_rest) = std::mem::take(&mut slots_rest).split_at_mut(take);
                let (item_chunk, i_rest) = items_rest.split_at(take);
                slots_rest = s_rest;
                items_rest = i_rest;
                scope.spawn(move || {
                    for (slot, item) in slot_chunk.iter_mut().zip(item_chunk) {
                        *slot = Some(f(item));
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RunLength, WorkloadSpec};

    fn quick_base() -> SimConfig {
        SimConfig {
            workload: WorkloadSpec::cbr(0.3),
            warmup_cycles: 100,
            run: RunLength::Cycles(1_500),
            ..Default::default()
        }
    }

    /// COA vs WFA over `loads`, one seed (the paper's setup).
    fn coa_vs_wfa(loads: Vec<f64>) -> SweepSpec {
        SweepSpec {
            seeds: vec![quick_base().seed],
            base: quick_base(),
            loads,
            arbiters: vec![ArbiterKind::Coa, ArbiterKind::Wfa],
        }
    }

    #[test]
    fn sweep_visits_full_grid() {
        let spec = SweepSpec {
            base: quick_base(),
            loads: vec![0.2, 0.4],
            arbiters: vec![ArbiterKind::Coa, ArbiterKind::Wfa],
            seeds: vec![1, 2],
        };
        assert_eq!(spec.point_count(), 8);
        let points = sweep(&spec);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(p.results.len(), 2);
            assert!(p.utilization() > 0.0);
        }
        // Order: arbiter-major, then load.
        assert_eq!(points[0].arbiter, ArbiterKind::Coa);
        assert_eq!(points[0].target_load, 0.2);
        assert_eq!(points[1].target_load, 0.4);
        assert_eq!(points[2].arbiter, ArbiterKind::Wfa);
    }

    #[test]
    fn parallel_matches_sequential() {
        let spec = coa_vs_wfa(vec![0.3]);
        let parallel = sweep(&spec);
        let sequential: Vec<ExperimentResult> = spec
            .configs()
            .iter()
            .map(crate::experiment::run_experiment)
            .collect();
        assert_eq!(parallel[0].results[0], sequential[0]);
        assert_eq!(parallel[1].results[0], sequential[1]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // Chunked dispatch must be invisible in the output: 1, 2 and 8
        // workers (uneven chunks, single-point chunks) produce the same
        // points, down to the serialized bytes of the whole sweep.
        let spec = SweepSpec {
            base: quick_base(),
            loads: vec![0.3, 0.5],
            arbiters: vec![ArbiterKind::Coa, ArbiterKind::Wfa],
            seeds: vec![7, 8],
        };
        let one = sweep_with_workers(&spec, Some(1));
        let two = sweep_with_workers(&spec, Some(2));
        let eight = sweep_with_workers(&spec, Some(8));
        assert_eq!(one, two);
        assert_eq!(one, eight);
        let json_one = serde_json::to_string(&one).expect("points serialize");
        let json_two = serde_json::to_string(&two).expect("points serialize");
        let json_eight = serde_json::to_string(&eight).expect("points serialize");
        assert_eq!(
            json_one, json_two,
            "sweep JSON differs between 1 and 2 workers"
        );
        assert_eq!(
            json_one, json_eight,
            "sweep JSON differs between 1 and 8 workers"
        );
    }

    #[test]
    fn point_metric_helpers() {
        let spec = coa_vs_wfa(vec![0.3]);
        let points = sweep(&spec);
        let p = &points[0];
        assert!(p.throughput_ratio() > 0.9);
        assert!(p.class_delay_us(mmr_traffic::connection::TrafficClass::CbrHigh) > 0.0);
        assert_eq!(p.frame_delay_us(), 0.0, "CBR workloads have no frames");
    }
}
