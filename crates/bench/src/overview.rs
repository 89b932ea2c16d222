//! `results/workload_<pack>.html` — the QoS observatory dashboard.
//!
//! A single self-contained HTML file: the experiment's observatory data
//! is inlined as JSON and rendered client-side by a small vanilla-JS SVG
//! layer (no network dependencies, openable from `file://`).  Panels:
//!
//! * KPI row — delivered flits, SLO violations, best-effort starvation,
//!   CAC reject rate;
//! * per-class end-to-end delay CDFs, read straight from the
//!   observatory's log-bucketed histograms (cumulative bucket counts);
//! * an SLO table (the accessibility twin of the CDF chart: every value
//!   the charts encode is also a number in a table);
//! * the `BENCH_<n>` trajectory of the telemetry layer's per-cycle cost
//!   across repository revisions.
//!
//! The categorical palette (5 slots, light and dark steps) was validated
//! for adjacent-pair CVD separation and normal-vision distance in both
//! modes; three light-mode slots sit below 3:1 contrast on the surface,
//! which is why the table view is always rendered alongside the chart.

use mmr_core::experiment::ExperimentResult;
use mmr_router::ObservatoryReport;
use mmr_sim::stats::LogHistogram;
use serde::Serialize;
use std::path::Path;

/// One `results/BENCH_<n>.json` point of the telemetry-cost trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct BenchTrajPoint {
    /// Revision index `n` from the file name.
    pub n: u64,
    /// Router step cost with telemetry disarmed, ns/cycle.
    pub disabled_ns: f64,
    /// Router step cost with telemetry armed, ns/cycle.
    pub armed_ns: f64,
}

fn value_f64(v: &serde_json::Value) -> Option<f64> {
    match v {
        serde_json::Value::U64(n) => Some(*n as f64),
        serde_json::Value::I64(n) => Some(*n as f64),
        serde_json::Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// Scan `dir` for `BENCH_<n>.json` files and extract the telemetry
/// cost trajectory, sorted by `n`.  Files without a `telemetry` section
/// are skipped.
pub fn load_bench_trajectory(dir: &Path) -> Vec<BenchTrajPoint> {
    let mut points = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return points;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        let Ok(value) = serde_json::parse_value(&text) else {
            continue;
        };
        let Some(t) = value.get("telemetry") else {
            continue;
        };
        let (Some(disabled_ns), Some(armed_ns)) = (
            t.get("disabled_ns_per_cycle").and_then(value_f64),
            t.get("armed_ns_per_cycle").and_then(value_f64),
        ) else {
            continue;
        };
        points.push(BenchTrajPoint {
            n,
            disabled_ns,
            armed_ns,
        });
    }
    points.sort_by_key(|p| p.n);
    points
}

/// Per-class row of the dashboard data: table values plus the delay CDF
/// polyline extracted from the observatory histogram.
#[derive(Debug, Serialize)]
struct ClassRow {
    label: String,
    generated: u64,
    delivered: u64,
    mean_delay_us: f64,
    p50_delay_us: f64,
    p99_delay_us: f64,
    max_delay_us: f64,
    p99_jitter_us: f64,
    p99_residency_us: f64,
    slo_violations: u64,
    /// CDF x-coordinates (delay, µs), one per non-empty bucket.
    cdf_us: Vec<f64>,
    /// CDF y-coordinates (cumulative % of deliveries), same length.
    cdf_pct: Vec<f64>,
}

#[derive(Debug, Serialize)]
struct SloPanel {
    delay_bound_us: f64,
    violations_total: u64,
    best_effort_starved_windows: u64,
    best_effort_starved_cycles: u64,
    windows_observed: u64,
    admission_accepted: u64,
    admission_rejected: u64,
    admission_reject_pct: f64,
}

#[derive(Debug, Serialize)]
struct OverviewData {
    scenario: String,
    arbiter: String,
    achieved_load: f64,
    executed_cycles: u64,
    delivered_flits: u64,
    classes: Vec<ClassRow>,
    slo: SloPanel,
    bench: Vec<BenchTrajPoint>,
}

/// Cumulative distribution of a log-bucketed histogram: one point per
/// non-empty bucket at `(bucket hi, cumulative fraction)`, the top point
/// clamped to the observed maximum.
fn cdf(h: &LogHistogram, us_per_rc: f64) -> (Vec<f64>, Vec<f64>) {
    let total = h.count();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    if total == 0 {
        return (xs, ys);
    }
    let mut cum = 0u64;
    for b in h.nonzero_buckets() {
        cum += b.count;
        xs.push(b.hi.min(h.max()) as f64 * us_per_rc);
        ys.push(100.0 * cum as f64 / total as f64);
    }
    (xs, ys)
}

fn quantile_us(h: &LogHistogram, q: f64, us_per_rc: f64) -> f64 {
    h.quantile(q).map(|v| v as f64 * us_per_rc).unwrap_or(0.0)
}

/// Assemble the dashboard data model from an experiment result and its
/// armed router's observatory report.
fn build_data(
    scenario: &str,
    result: &ExperimentResult,
    observatory: &ObservatoryReport,
    bench: &[BenchTrajPoint],
) -> OverviewData {
    let us_per_rc = result.config.router.time.router_cycle_secs() * 1e6;
    let classes = observatory
        .classes
        .iter()
        .filter(|c| !c.delay.is_empty())
        .map(|c| {
            let (cdf_us, cdf_pct) = cdf(&c.delay, us_per_rc);
            let generated = result
                .summary
                .metrics
                .class(c.class)
                .map(|s| s.generated)
                .unwrap_or(0);
            ClassRow {
                label: c.class.label().to_string(),
                generated,
                delivered: c.delay.count(),
                mean_delay_us: c.delay.mean() * us_per_rc,
                p50_delay_us: quantile_us(&c.delay, 0.50, us_per_rc),
                p99_delay_us: quantile_us(&c.delay, 0.99, us_per_rc),
                max_delay_us: c.delay.max() as f64 * us_per_rc,
                p99_jitter_us: quantile_us(&c.jitter, 0.99, us_per_rc),
                p99_residency_us: quantile_us(&c.residency, 0.99, us_per_rc),
                slo_violations: c.slo_violations,
                cdf_us,
                cdf_pct,
            }
        })
        .collect();
    let slo = SloPanel {
        delay_bound_us: observatory.slo.delay_bound_rc as f64 * us_per_rc,
        violations_total: observatory.slo.violations_total,
        best_effort_starved_windows: observatory.slo.best_effort_starved_windows,
        best_effort_starved_cycles: observatory.slo.best_effort_starved_cycles,
        windows_observed: observatory.slo.windows_observed,
        admission_accepted: result.admission.accepted,
        admission_rejected: result.admission.rejected,
        admission_reject_pct: 100.0 * result.admission.reject_rate(),
    };
    OverviewData {
        scenario: scenario.to_string(),
        arbiter: result.summary.arbiter.clone(),
        achieved_load: result.achieved_load,
        executed_cycles: result.executed_cycles,
        delivered_flits: result.summary.delivered_flits,
        classes,
        slo,
        bench: bench.to_vec(),
    }
}

/// Render the self-contained overview dashboard of an armed run, from
/// its result and its observatory report.
pub fn render_overview(
    scenario: &str,
    result: &ExperimentResult,
    observatory: &ObservatoryReport,
    bench: &[BenchTrajPoint],
) -> String {
    let data = build_data(scenario, result, observatory, bench);
    let json = serde_json::to_string(&data).expect("overview data serializes");
    // `</script>`-safe embedding: break any close-tag sequence.
    let json = json.replace("</", "<\\/");
    TEMPLATE.replace("__OVERVIEW_DATA__", &json)
}

/// Structural self-check for a rendered dashboard: the inline JSON
/// parses and every panel the template promises is present.  Returns a
/// human-readable error on failure (used by `mmr gate`).
pub fn validate_overview(html: &str) -> Result<(), String> {
    for marker in [
        "</html>",
        "id=\"overview-data\"",
        "id=\"cdf-chart\"",
        "id=\"bench-chart\"",
        "id=\"class-table\"",
        "id=\"kpi-row\"",
    ] {
        if !html.contains(marker) {
            return Err(format!("the dashboard is missing `{marker}`"));
        }
    }
    let start = html
        .find("id=\"overview-data\"")
        .and_then(|i| html[i..].find('>').map(|j| i + j + 1))
        .ok_or("unterminated data script tag")?;
    let end = start
        + html[start..]
            .find("</script>")
            .ok_or("unclosed data script")?;
    let json = html[start..end].replace("<\\/", "</");
    let value: serde_json::Value =
        serde_json::parse_value(json.trim()).map_err(|e| format!("inline JSON invalid: {e}"))?;
    for key in ["scenario", "classes", "slo", "bench"] {
        if value.get(key).is_none() {
            return Err(format!("inline JSON is missing `{key}`"));
        }
    }
    match value.get("classes") {
        Some(serde_json::Value::Array(classes)) if !classes.is_empty() => Ok(()),
        _ => Err("inline JSON has no per-class observations".into()),
    }
}

/// The dashboard shell.  Palette: categorical slots 1–5 (blue, orange,
/// aqua, yellow, magenta) with per-mode steps, validated for adjacent
/// CVD separation on both surfaces; text wears ink tokens, never series
/// color; gridlines are solid hairlines; lines are 2px.
const TEMPLATE: &str = r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>MMR QoS observatory</title>
<style>
  .viz-root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --page: #f9f9f7;
    --text-primary: #0b0b0b;
    --text-secondary: #52514e;
    --text-muted: #898781;
    --grid: #e1e0d9;
    --axis: #c3c2b7;
    --border: rgba(11, 11, 11, 0.10);
    --series-1: #2a78d6;
    --series-2: #eb6834;
    --series-3: #1baf7a;
    --series-4: #eda100;
    --series-5: #e87ba4;
    --status-critical: #d03b3b;
    --status-good: #0ca30c;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --page: #0d0d0d;
      --text-primary: #ffffff;
      --text-secondary: #c3c2b7;
      --text-muted: #898781;
      --grid: #2c2c2a;
      --axis: #383835;
      --border: rgba(255, 255, 255, 0.10);
      --series-1: #3987e5;
      --series-2: #d95926;
      --series-3: #199e70;
      --series-4: #c98500;
      --series-5: #d55181;
      --status-critical: #d03b3b;
      --status-good: #0ca30c;
    }
  }
  body.viz-root {
    margin: 0;
    background: var(--page);
    color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  main { max-width: 1060px; margin: 0 auto; padding: 24px 20px 48px; }
  h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
  .subtitle { color: var(--text-secondary); margin: 0 0 20px; }
  .card {
    background: var(--surface-1);
    border: 1px solid var(--border);
    border-radius: 10px;
    padding: 16px 18px;
    margin-bottom: 18px;
  }
  .card h2 { font-size: 15px; font-weight: 600; margin: 0 0 2px; }
  .card .note { color: var(--text-muted); font-size: 12px; margin: 0 0 12px; }
  #kpi-row { display: grid; grid-template-columns: repeat(auto-fit, minmax(180px, 1fr)); gap: 12px; margin-bottom: 18px; }
  .tile { background: var(--surface-1); border: 1px solid var(--border); border-radius: 10px; padding: 12px 16px; }
  .tile .label { color: var(--text-secondary); font-size: 12px; }
  .tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
  .tile .detail { color: var(--text-muted); font-size: 12px; margin-top: 2px; }
  .legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 0 0 8px; font-size: 12px; color: var(--text-secondary); }
  .legend .key { display: inline-flex; align-items: center; gap: 6px; }
  .legend .swatch { width: 14px; height: 0; border-top: 2px solid; border-radius: 1px; }
  svg { display: block; width: 100%; height: auto; }
  svg text { fill: var(--text-muted); font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; }
  .gridline { stroke: var(--grid); stroke-width: 1; }
  .axisline { stroke: var(--axis); stroke-width: 1; }
  .series { fill: none; stroke-width: 2; stroke-linejoin: round; stroke-linecap: round; }
  .crosshair { stroke: var(--axis); stroke-width: 1; visibility: hidden; }
  .chart-wrap { position: relative; }
  .tooltip {
    position: absolute; pointer-events: none; visibility: hidden;
    background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
    padding: 8px 10px; font-size: 12px; box-shadow: 0 2px 10px rgba(0,0,0,0.12);
    min-width: 140px; z-index: 2;
  }
  .tooltip .tt-title { color: var(--text-muted); margin-bottom: 4px; }
  .tooltip .tt-row { display: flex; align-items: center; gap: 6px; margin-top: 2px; }
  .tooltip .tt-key { width: 12px; height: 0; border-top: 2px solid; flex: none; }
  .tooltip .tt-val { font-weight: 600; color: var(--text-primary); margin-left: auto; }
  .tooltip .tt-name { color: var(--text-secondary); }
  table { border-collapse: collapse; width: 100%; font-size: 13px; }
  th, td { text-align: right; padding: 6px 10px; border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums; }
  th:first-child, td:first-child { text-align: left; }
  th { color: var(--text-secondary); font-weight: 500; }
  td.class-name { color: var(--text-primary); }
  td .dot { display: inline-block; width: 8px; height: 8px; border-radius: 50%; margin-right: 7px; }
  .bad { color: var(--status-critical); font-weight: 600; }
  .ok { color: var(--status-good); font-weight: 600; }
</style>
</head>
<body class="viz-root">
<script id="overview-data" type="application/json">__OVERVIEW_DATA__</script>
<main>
  <h1>MMR QoS observatory</h1>
  <p class="subtitle" id="subtitle"></p>
  <div id="kpi-row"></div>
  <div class="card">
    <h2>End-to-end flit delay — CDF per class</h2>
    <p class="note">Cumulative share of delivered flits vs delay (&micro;s, log scale), from the observatory's log-bucketed histograms (&le;12.5% bucket error).</p>
    <div class="legend" id="cdf-legend"></div>
    <div class="chart-wrap"><svg id="cdf-chart"></svg><div class="tooltip" id="cdf-tip"></div></div>
  </div>
  <div class="card">
    <h2>Per-class service detail</h2>
    <p class="note">The table twin of the chart above: every plotted value, as numbers.</p>
    <table id="class-table"></table>
  </div>
  <div class="card">
    <h2>Telemetry cost trajectory</h2>
    <p class="note">Router step cost (ns/cycle) across repository revisions (BENCH_n), telemetry disarmed vs armed.</p>
    <div class="legend" id="bench-legend"></div>
    <div class="chart-wrap"><svg id="bench-chart"></svg><div class="tooltip" id="bench-tip"></div></div>
  </div>
</main>
<script>
"use strict";
const DATA = JSON.parse(document.getElementById("overview-data").textContent);
const SERIES_VARS = ["--series-1", "--series-2", "--series-3", "--series-4", "--series-5"];
const css = name => getComputedStyle(document.body).getPropertyValue(name).trim();

function fmt(v, digits) {
  if (!isFinite(v)) return "-";
  if (digits === undefined) digits = v >= 100 ? 0 : v >= 10 ? 1 : 2;
  return v.toLocaleString("en-US", { maximumFractionDigits: digits, minimumFractionDigits: 0 });
}

function el(tag, attrs, parent) {
  const ns = "http://www.w3.org/2000/svg";
  const node = tag === "div" || tag === "span" ? document.createElement(tag) : document.createElementNS(ns, tag);
  for (const k in attrs) node.setAttribute(k, attrs[k]);
  if (parent) parent.appendChild(node);
  return node;
}

function tile(parent, label, value, detail, cls) {
  const t = document.createElement("div");
  t.className = "tile";
  const l = document.createElement("div"); l.className = "label"; l.textContent = label;
  const v = document.createElement("div"); v.className = "value" + (cls ? " " + cls : ""); v.textContent = value;
  t.appendChild(l); t.appendChild(v);
  if (detail) { const d = document.createElement("div"); d.className = "detail"; d.textContent = detail; t.appendChild(d); }
  parent.appendChild(t);
}

function legend(container, series) {
  for (const s of series) {
    const key = document.createElement("span"); key.className = "key";
    const sw = document.createElement("span"); sw.className = "swatch"; sw.style.borderTopColor = s.color;
    const name = document.createElement("span"); name.textContent = s.label;
    key.appendChild(sw); key.appendChild(name); container.appendChild(key);
  }
}

// Shared line-chart renderer: series = [{label, color, xs, ys}], opts =
// {xlog, xTicks(fn)?, xLabel, yLabel, yMax?}.  Draws hairline grid, 2px
// lines, and a crosshair+tooltip listing every series at the nearest X.
function lineChart(svgId, tipId, series, opts) {
  const svg = document.getElementById(svgId);
  const tip = document.getElementById(tipId);
  const W = 980, H = 300, M = { l: 58, r: 16, t: 10, b: 36 };
  svg.setAttribute("viewBox", "0 0 " + W + " " + H);
  svg.replaceChildren();
  const xsAll = series.flatMap(s => s.xs), ysAll = series.flatMap(s => s.ys);
  if (!xsAll.length) return;
  const xMinRaw = Math.min(...xsAll), xMaxRaw = Math.max(...xsAll);
  const xMin = opts.xlog ? Math.max(1e-3, xMinRaw) : xMinRaw;
  const xMax = Math.max(xMaxRaw, xMin * (opts.xlog ? 10 : 1) + 1e-9);
  const yMax = opts.yMax !== undefined ? opts.yMax : Math.max(...ysAll) * 1.08;
  const xPos = v => {
    if (opts.xlog) {
      const lv = Math.log10(Math.max(v, xMin));
      return M.l + (lv - Math.log10(xMin)) / (Math.log10(xMax) - Math.log10(xMin)) * (W - M.l - M.r);
    }
    return M.l + (v - xMin) / (xMax - xMin) * (W - M.l - M.r);
  };
  const yPos = v => H - M.b - (v / yMax) * (H - M.t - M.b);

  // Grid + ticks.
  const yTicks = 4;
  for (let i = 0; i <= yTicks; i++) {
    const v = yMax * i / yTicks, y = yPos(v);
    el("line", { x1: M.l, x2: W - M.r, y1: y, y2: y, class: "gridline" }, svg);
    const t = el("text", { x: M.l - 8, y: y + 4, "text-anchor": "end" }, svg);
    t.textContent = fmt(v, v < 10 ? 1 : 0);
  }
  let xTickVals = [];
  if (opts.xlog) {
    for (let e = Math.floor(Math.log10(xMin)); e <= Math.ceil(Math.log10(xMax)); e++) {
      const v = Math.pow(10, e);
      if (v >= xMin / 1.001 && v <= xMax * 1.001) xTickVals.push(v);
    }
  } else {
    const n = Math.min(8, Math.max(2, Math.round(xMax - xMin)));
    for (let i = 0; i <= n; i++) xTickVals.push(xMin + (xMax - xMin) * i / n);
  }
  for (const v of xTickVals) {
    const x = xPos(v);
    el("line", { x1: x, x2: x, y1: M.t, y2: H - M.b, class: "gridline" }, svg);
    const t = el("text", { x: x, y: H - M.b + 16, "text-anchor": "middle" }, svg);
    t.textContent = opts.xTickFmt ? opts.xTickFmt(v) : fmt(v);
  }
  el("line", { x1: M.l, x2: W - M.r, y1: H - M.b, y2: H - M.b, class: "axisline" }, svg);
  el("line", { x1: M.l, x2: M.l, y1: M.t, y2: H - M.b, class: "axisline" }, svg);
  const xl = el("text", { x: (M.l + W - M.r) / 2, y: H - 4, "text-anchor": "middle" }, svg);
  xl.textContent = opts.xLabel;
  const yl = el("text", { x: 14, y: (M.t + H - M.b) / 2, "text-anchor": "middle",
    transform: "rotate(-90 14 " + (M.t + H - M.b) / 2 + ")" }, svg);
  yl.textContent = opts.yLabel;

  // Series lines.
  for (const s of series) {
    const d = s.xs.map((x, i) => (i ? "L" : "M") + xPos(x).toFixed(1) + " " + yPos(s.ys[i]).toFixed(1)).join(" ");
    el("path", { d: d, class: "series", stroke: s.color }, svg);
  }

  // Crosshair + tooltip: snap to nearest point per series.
  const hair = el("line", { y1: M.t, y2: H - M.b, class: "crosshair" }, svg);
  const wrap = svg.parentElement;
  svg.addEventListener("pointerleave", () => {
    hair.style.visibility = "hidden"; tip.style.visibility = "hidden";
  });
  svg.addEventListener("pointermove", ev => {
    const rect = svg.getBoundingClientRect();
    const px = (ev.clientX - rect.left) / rect.width * W;
    if (px < M.l || px > W - M.r) { hair.style.visibility = "hidden"; tip.style.visibility = "hidden"; return; }
    let snapX = null;
    const rows = [];
    for (const s of series) {
      if (!s.xs.length) continue;
      let best = 0, bestD = Infinity;
      for (let i = 0; i < s.xs.length; i++) {
        const d = Math.abs(xPos(s.xs[i]) - px);
        if (d < bestD) { bestD = d; best = i; }
      }
      rows.push({ label: s.label, color: s.color, x: s.xs[best], y: s.ys[best] });
      const sx = xPos(s.xs[best]);
      if (snapX === null || Math.abs(sx - px) < Math.abs(snapX - px)) snapX = sx;
    }
    hair.setAttribute("x1", snapX); hair.setAttribute("x2", snapX);
    hair.style.visibility = "visible";
    tip.replaceChildren();
    const title = document.createElement("div"); title.className = "tt-title";
    title.textContent = opts.xLabel + ": " + (opts.xTickFmt ? opts.xTickFmt(rows[0].x) : fmt(rows[0].x));
    tip.appendChild(title);
    for (const r of rows) {
      const row = document.createElement("div"); row.className = "tt-row";
      const key = document.createElement("span"); key.className = "tt-key"; key.style.borderTopColor = r.color;
      const name = document.createElement("span"); name.className = "tt-name"; name.textContent = r.label;
      const val = document.createElement("span"); val.className = "tt-val"; val.textContent = fmt(r.y) + (opts.yUnit || "");
      row.appendChild(key); row.appendChild(name); row.appendChild(val); tip.appendChild(row);
    }
    tip.style.visibility = "visible";
    const wrapRect = wrap.getBoundingClientRect();
    let left = (ev.clientX - wrapRect.left) + 14;
    if (left + tip.offsetWidth > wrapRect.width - 4) left = left - tip.offsetWidth - 28;
    tip.style.left = left + "px";
    tip.style.top = Math.max(0, ev.clientY - wrapRect.top - tip.offsetHeight - 10) + "px";
  });
}

// --- KPI row ---
const kpi = document.getElementById("kpi-row");
tile(kpi, "Delivered flits", fmt(DATA.delivered_flits), DATA.executed_cycles.toLocaleString("en-US") + " cycles @ load " + DATA.achieved_load.toFixed(2));
tile(kpi, "SLO violations", fmt(DATA.slo.violations_total),
  "bound " + fmt(DATA.slo.delay_bound_us) + " µs, guaranteed classes",
  DATA.slo.violations_total > 0 ? "bad" : "ok");
tile(kpi, "Best-effort starved windows", fmt(DATA.slo.best_effort_starved_windows),
  "of " + fmt(DATA.slo.windows_observed) + " windows (" + fmt(DATA.slo.best_effort_starved_cycles) + " cycles)",
  DATA.slo.best_effort_starved_windows > 0 ? "bad" : "ok");
tile(kpi, "CAC reject rate", fmt(DATA.slo.admission_reject_pct, 1) + "%",
  fmt(DATA.slo.admission_accepted) + " accepted / " + fmt(DATA.slo.admission_rejected) + " rejected");

document.getElementById("subtitle").textContent =
  DATA.scenario + " · " + DATA.arbiter + " · achieved load " + DATA.achieved_load.toFixed(2);

// --- Delay CDF per class ---
const cdfSeries = DATA.classes.map((c, i) => ({
  label: c.label, color: css(SERIES_VARS[i % SERIES_VARS.length]),
  xs: c.cdf_us, ys: c.cdf_pct,
}));
legend(document.getElementById("cdf-legend"), cdfSeries);
lineChart("cdf-chart", "cdf-tip", cdfSeries,
  { xlog: true, xLabel: "delay (µs)", yLabel: "% of flits", yMax: 100, yUnit: "%" });

// --- Class table ---
const table = document.getElementById("class-table");
{
  const head = document.createElement("tr");
  for (const h of ["class", "generated", "delivered", "mean delay µs", "p50 µs", "p99 µs", "max µs", "p99 jitter µs", "p99 residency µs", "SLO violations"]) {
    const th = document.createElement("th"); th.textContent = h; head.appendChild(th);
  }
  table.appendChild(head);
  DATA.classes.forEach((c, i) => {
    const tr = document.createElement("tr");
    const name = document.createElement("td"); name.className = "class-name";
    const dot = document.createElement("span"); dot.className = "dot";
    dot.style.background = css(SERIES_VARS[i % SERIES_VARS.length]);
    name.appendChild(dot); name.appendChild(document.createTextNode(c.label)); tr.appendChild(name);
    for (const v of [fmt(c.generated), fmt(c.delivered), fmt(c.mean_delay_us), fmt(c.p50_delay_us), fmt(c.p99_delay_us), fmt(c.max_delay_us), fmt(c.p99_jitter_us), fmt(c.p99_residency_us), fmt(c.slo_violations)]) {
      const td = document.createElement("td"); td.textContent = v; tr.appendChild(td);
    }
    table.appendChild(tr);
  });
}

// --- BENCH trajectory ---
const benchSeries = [
  { label: "disarmed ns/cycle", color: css("--series-1"), xs: DATA.bench.map(b => b.n), ys: DATA.bench.map(b => b.disabled_ns) },
  { label: "armed ns/cycle", color: css("--series-2"), xs: DATA.bench.map(b => b.n), ys: DATA.bench.map(b => b.armed_ns) },
];
if (DATA.bench.length) {
  legend(document.getElementById("bench-legend"), benchSeries);
  lineChart("bench-chart", "bench-tip", benchSeries,
    { xlog: false, xLabel: "BENCH revision", yLabel: "ns per cycle", xTickFmt: v => "n=" + Math.round(v) });
} else {
  document.getElementById("bench-chart").replaceWith(Object.assign(document.createElement("p"), { textContent: "no BENCH_n.json files found", className: "note" }));
}
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_has_every_validated_marker() {
        // The validator's markers must stay in sync with the template.
        let fake = TEMPLATE.replace(
            "__OVERVIEW_DATA__",
            r#"{"scenario":"t","classes":[{"label":"cbr-high"}],"slo":{},"bench":[]}"#,
        );
        validate_overview(&fake).expect("template with data validates");
    }

    #[test]
    fn validator_rejects_missing_panels() {
        assert!(validate_overview("<html></html>").is_err());
        let no_classes = TEMPLATE.replace(
            "__OVERVIEW_DATA__",
            r#"{"scenario":"t","classes":[],"slo":{},"bench":[]}"#,
        );
        assert!(validate_overview(&no_classes).is_err());
    }

    #[test]
    fn bench_trajectory_ignores_foreign_files() {
        let dir = std::env::temp_dir().join("mmr_overview_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_3.json"),
            r#"{"telemetry":{"disabled_ns_per_cycle":800.0,"armed_ns_per_cycle":1600.0}}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join("BENCH_1.json"),
            r#"{"telemetry":{"disabled_ns_per_cycle":900.0,"armed_ns_per_cycle":1700.0}}"#,
        )
        .unwrap();
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap();
        std::fs::write(dir.join("other.json"), "{}").unwrap();
        let points = load_bench_trajectory(&dir);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].n, 1);
        assert_eq!(points[1].n, 3);
        assert_eq!(points[1].disabled_ns, 800.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
