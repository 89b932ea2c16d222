//! Saturation-point detection.
//!
//! The paper reads saturation off its delay plots: the load at which
//! average delay turns vertical (equivalently, where the router stops
//! keeping up with generation).  We detect it from sweep results with two
//! complementary signals:
//!
//! * **throughput deficit** — delivered/generated drops below a threshold
//!   (the backlog grows without bound), and
//! * **delay blow-up** — mean delay exceeds a multiple of the low-load
//!   baseline delay.
//!
//! [`ExperimentCache`] dedups experiment runs on their full config, so
//! packs that share grid cells (`mmr gate`) simulate each cell once.

use crate::config::SimConfig;
use crate::experiment::{run_experiment, ExperimentResult};
use crate::sweep::SweepPoint;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Thresholds for calling a load point saturated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaturationCriteria {
    /// Saturated if delivered/generated falls below this.
    pub min_throughput_ratio: f64,
    /// Saturated if mean delay exceeds `baseline × delay_blowup`.
    pub delay_blowup: f64,
}

impl Default for SaturationCriteria {
    fn default() -> Self {
        SaturationCriteria {
            min_throughput_ratio: 0.95,
            delay_blowup: 20.0,
        }
    }
}

/// Find the saturation load for one arbiter's series (points must share
/// the arbiter and be sorted by ascending load).
///
/// Returns the *achieved load of the first saturated point*, or `None` if
/// the series never saturates.  `delay_of` extracts the delay metric the
/// figure plots (class flit delay for Fig. 5, frame delay for Fig. 9).
pub fn detect_saturation<F>(
    points: &[SweepPoint],
    criteria: SaturationCriteria,
    delay_of: F,
) -> Option<f64>
where
    F: Fn(&SweepPoint) -> f64,
{
    if points.is_empty() {
        return None;
    }
    // Baseline: the delay at the lowest measured load.
    let baseline = delay_of(&points[0]).max(1e-9);
    for p in points {
        let saturated_by_throughput = p.throughput_ratio() < criteria.min_throughput_ratio;
        let saturated_by_delay = delay_of(p) > baseline * criteria.delay_blowup;
        if saturated_by_throughput || saturated_by_delay {
            return Some(p.achieved_load);
        }
    }
    None
}

/// Dedup cache of experiment results keyed on the full serialized config.
///
/// The key is the config's canonical JSON, so two configs hit the same
/// entry exactly when every simulated parameter matches — load, arbiter,
/// seed, run length, fault plan, engine, all of it.  Determinism makes
/// the cache sound: the same config always replays to the same
/// [`ExperimentResult`], so returning a cached result is
/// indistinguishable from re-running the simulation.
#[derive(Debug, Default)]
pub struct ExperimentCache {
    map: HashMap<String, ExperimentResult>,
    hits: u64,
    misses: u64,
}

impl ExperimentCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache key for a config: its canonical JSON serialization.
    pub fn key(cfg: &SimConfig) -> String {
        serde_json::to_string(cfg).expect("SimConfig serializes")
    }

    /// Run `cfg`, reusing the cached result if this exact config was
    /// already measured.
    pub fn run(&mut self, cfg: &SimConfig) -> ExperimentResult {
        let key = Self::key(cfg);
        if let Some(r) = self.map.get(&key) {
            self.hits += 1;
            return r.clone();
        }
        self.misses += 1;
        let result = run_experiment(cfg);
        self.map.insert(key, result.clone());
        result
    }

    /// Run a batch of configs, reusing cached results and fanning the
    /// misses out across `workers` threads (via [`crate::sweep::run_configs`];
    /// `None` = one per core).  Results come back in input order, and
    /// duplicate configs within the batch simulate only once.
    pub fn run_many(
        &mut self,
        configs: &[SimConfig],
        workers: Option<usize>,
    ) -> Vec<ExperimentResult> {
        let keys: Vec<String> = configs.iter().map(Self::key).collect();
        let mut miss_configs: Vec<SimConfig> = Vec::new();
        let mut miss_keys: Vec<&String> = Vec::new();
        for (cfg, key) in configs.iter().zip(&keys) {
            if self.map.contains_key(key) {
                self.hits += 1;
            } else if miss_keys.contains(&key) {
                self.hits += 1; // duplicate within the batch: one run serves both
            } else {
                self.misses += 1;
                miss_configs.push(cfg.clone());
                miss_keys.push(key);
            }
        }
        let fresh = crate::sweep::run_configs(&miss_configs, workers);
        for (key, result) in miss_keys.into_iter().zip(fresh) {
            self.map.insert(key.clone(), result);
        }
        keys.iter()
            .map(|key| self.map.get(key).expect("batch filled every key").clone())
            .collect()
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to simulate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct configs stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::experiment::ExperimentResult;
    use mmr_arbiter::scheduler::ArbiterKind;
    use mmr_router::metrics::MetricsReport;
    use mmr_router::router::RouterSummary;

    /// Hand-build a sweep point with the given load, throughput ratio and
    /// frame delay.
    fn point(load: f64, throughput: f64, frame_delay_us: f64) -> SweepPoint {
        let metrics = MetricsReport {
            classes: vec![mmr_router::metrics::ClassStats {
                class: mmr_traffic::connection::TrafficClass::Vbr,
                generated: 1000,
                delivered: (1000.0 * throughput) as u64,
                mean_delay_us: frame_delay_us,
                p99_delay_us: frame_delay_us,
                max_delay_us: frame_delay_us,
            }],
            qos_violations: 0,
            frames_delivered: 10,
            mean_frame_delay_us: frame_delay_us,
            max_frame_delay_us: frame_delay_us,
            p99_frame_delay_us: frame_delay_us,
            mean_frame_jitter_us: 0.0,
            p99_frame_jitter_us: 0.0,
            max_frame_jitter_us: 0.0,
        };
        let summary = RouterSummary {
            arbiter: "x".into(),
            priority_fn: "y".into(),
            reservation_fairness: 1.0,
            metrics,
            crossbar_utilization: load,
            crossbar_busy_fraction: 1.0,
            reconfigurations: 0,
            measured_cycles: 1000,
            generated_flits: 1000,
            delivered_flits: (1000.0 * throughput) as u64,
            delivered_per_output: vec![],
            peak_nic_depth: 0,
            peak_vc_occupancy: 0,
            backlog_flits: 0,
            generation_window_cycles: None,
            delivered_in_window: 0,
            faults: mmr_router::fault::FaultReport::default(),
        };
        SweepPoint {
            arbiter: ArbiterKind::Coa,
            target_load: load,
            achieved_load: load,
            results: vec![ExperimentResult {
                config: SimConfig::default(),
                achieved_load: load,
                connections: 1,
                admission: Default::default(),
                executed_cycles: 1000,
                drained: true,
                summary,
                telemetry: None,
                trace: None,
                fabric: None,
            }],
        }
    }

    #[test]
    fn no_saturation_in_healthy_series() {
        let series = vec![
            point(0.2, 1.0, 10.0),
            point(0.4, 1.0, 11.0),
            point(0.6, 1.0, 14.0),
        ];
        assert_eq!(
            detect_saturation(&series, SaturationCriteria::default(), |p| p
                .frame_delay_us()),
            None
        );
    }

    #[test]
    fn throughput_deficit_triggers() {
        let series = vec![
            point(0.5, 1.0, 10.0),
            point(0.7, 0.99, 12.0),
            point(0.8, 0.80, 15.0),
        ];
        let sat = detect_saturation(&series, SaturationCriteria::default(), |p| {
            p.frame_delay_us()
        });
        assert_eq!(sat, Some(0.8));
    }

    #[test]
    fn delay_blowup_triggers() {
        let series = vec![point(0.5, 1.0, 10.0), point(0.7, 0.99, 500.0)];
        let sat = detect_saturation(&series, SaturationCriteria::default(), |p| {
            p.frame_delay_us()
        });
        assert_eq!(sat, Some(0.7));
    }

    #[test]
    fn empty_series_is_none() {
        assert_eq!(
            detect_saturation(&[], SaturationCriteria::default(), |p| p.frame_delay_us()),
            None
        );
    }

    use crate::config::{RunLength, WorkloadSpec};
    use crate::sweep::SweepSpec;

    fn quick_base() -> SimConfig {
        SimConfig {
            workload: WorkloadSpec::cbr(0.3),
            warmup_cycles: 100,
            run: RunLength::Cycles(1_500),
            ..Default::default()
        }
    }

    #[test]
    fn cache_dedups_identical_configs() {
        let cfg = quick_base();
        let mut cache = ExperimentCache::new();
        let a = cache.run(&cfg);
        let b = cache.run(&cfg);
        assert_eq!(a, b, "cached replay must equal the original run");
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        // A different load is a different key.
        cache.run(&cfg.with_load(0.4));
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (2, 1, 2));
    }

    #[test]
    fn seeded_cache_reuses_sweep_results_without_resimulating() {
        let spec = SweepSpec {
            seeds: vec![quick_base().seed],
            base: quick_base(),
            loads: vec![0.3, 0.5],
            arbiters: vec![ArbiterKind::Coa, ArbiterKind::Wfa],
        };
        // A batch run seeds the cache with every grid config it measured.
        let mut cache = ExperimentCache::new();
        cache.run_many(&spec.configs(), Some(1));
        assert_eq!(cache.len(), spec.point_count());
        let seeded = cache.misses();
        // Every grid config is warm: replaying the sweep costs zero runs.
        for cfg in spec.configs() {
            let r = cache.run(&cfg);
            assert!((r.achieved_load - cfg.workload.target_load()).abs() < 0.2);
        }
        assert_eq!(
            cache.misses(),
            seeded,
            "grid configs must all be cache hits"
        );
        assert_eq!(cache.hits(), spec.point_count() as u64);
    }
}
