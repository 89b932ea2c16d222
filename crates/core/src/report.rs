//! Rendering sweep results as the paper's tables and series.

use crate::sweep::SweepPoint;
use mmr_arbiter::scheduler::ArbiterKind;

/// Group sweep points by arbiter, preserving load order within each
/// series.
pub fn series_by_arbiter(points: &[SweepPoint]) -> Vec<(ArbiterKind, Vec<&SweepPoint>)> {
    let mut out: Vec<(ArbiterKind, Vec<&SweepPoint>)> = Vec::new();
    for p in points {
        match out.iter_mut().find(|(k, _)| *k == p.arbiter) {
            Some((_, v)) => v.push(p),
            None => out.push((p.arbiter, vec![p])),
        }
    }
    out
}

/// Render an x/y table with one column per arbiter:
///
/// ```text
/// # <title>
/// load(%)      COA      WFA
///   50.0     12.34    13.99
/// ```
pub fn render_xy_table<F>(title: &str, ylabel: &str, points: &[SweepPoint], f: F) -> String
where
    F: Fn(&SweepPoint) -> f64,
{
    let series = series_by_arbiter(points);
    let mut s = format!("# {title}\n# y = {ylabel}\n");
    s.push_str(&format!("{:>9}", "load(%)"));
    for (k, _) in &series {
        s.push_str(&format!("{:>12}", k.label()));
    }
    s.push('\n');
    let n = series.first().map(|(_, v)| v.len()).unwrap_or(0);
    for i in 0..n {
        let load = series[0].1[i].achieved_load * 100.0;
        s.push_str(&format!("{load:>9.1}"));
        for (_, pts) in &series {
            let y = pts.get(i).map(|p| f(p)).unwrap_or(f64::NAN);
            s.push_str(&format!("{y:>12.3}"));
        }
        s.push('\n');
    }
    s
}

/// A simple fixed-width table builder for the report binaries.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with per-column width fitting.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::experiment::ExperimentResult;
    use mmr_router::metrics::MetricsReport;
    use mmr_router::router::RouterSummary;

    fn point(arbiter: ArbiterKind, load: f64, util: f64) -> SweepPoint {
        let summary = RouterSummary {
            arbiter: arbiter.label().into(),
            priority_fn: "SIABP".into(),
            reservation_fairness: 1.0,
            metrics: MetricsReport {
                classes: vec![],
                qos_violations: 0,
                frames_delivered: 0,
                mean_frame_delay_us: 0.0,
                max_frame_delay_us: 0.0,
                p99_frame_delay_us: 0.0,
                mean_frame_jitter_us: 0.0,
                p99_frame_jitter_us: 0.0,
                max_frame_jitter_us: 0.0,
            },
            crossbar_utilization: util,
            crossbar_busy_fraction: 1.0,
            reconfigurations: 0,
            measured_cycles: 100,
            generated_flits: 100,
            delivered_flits: 100,
            delivered_per_output: vec![],
            peak_nic_depth: 0,
            peak_vc_occupancy: 0,
            backlog_flits: 0,
            generation_window_cycles: None,
            delivered_in_window: 0,
            faults: mmr_router::fault::FaultReport::default(),
        };
        SweepPoint {
            arbiter,
            target_load: load,
            achieved_load: load,
            results: vec![ExperimentResult {
                config: SimConfig::default(),
                achieved_load: load,
                connections: 1,
                admission: Default::default(),
                executed_cycles: 100,
                drained: true,
                summary,
                telemetry: None,
                fabric: None,
            }],
        }
    }

    fn sample_points() -> Vec<SweepPoint> {
        vec![
            point(ArbiterKind::Coa, 0.5, 0.50),
            point(ArbiterKind::Coa, 0.7, 0.69),
            point(ArbiterKind::Wfa, 0.5, 0.49),
            point(ArbiterKind::Wfa, 0.7, 0.66),
        ]
    }

    #[test]
    fn grouping_preserves_order() {
        let pts = sample_points();
        let series = series_by_arbiter(&pts);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, ArbiterKind::Coa);
        assert_eq!(series[0].1.len(), 2);
        assert_eq!(series[0].1[1].target_load, 0.7);
    }

    #[test]
    fn xy_table_has_all_series() {
        let pts = sample_points();
        let t = render_xy_table("Fig 8", "utilization", &pts, |p| p.utilization() * 100.0);
        assert!(t.contains("COA"));
        assert!(t.contains("WFA"));
        assert!(t.contains("50.0"));
        assert!(t.lines().count() >= 5);
    }

    #[test]
    fn text_table_alignment() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["x", "1"]).row(vec!["longer-name", "2.5"]);
        let r = t.render();
        assert!(r.contains("longer-name"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn text_table_rejects_bad_rows() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one"]);
    }
}
