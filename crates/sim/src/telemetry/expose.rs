//! Prometheus text exposition (version 0.0.4) of an armed router's
//! counters, stage figures and histograms.
//!
//! Writers append `# HELP`/`# TYPE` headers and sample lines to a
//! caller-supplied `String`, so a scrape loop that reuses its buffer
//! performs no heap allocation once the buffer has grown to its working
//! size: metric names come in concatenated pieces (`&[ns, "_", name]`),
//! so namespaced names need no intermediate `String`, and every family
//! writer takes iterators (of `(name, value)` counter pairs,
//! `(name, calls, work, wall_ns)` stage tuples, or
//! [`crate::stats::LogHistogram::nonzero_buckets`]) rather than owned
//! collections.
//!
//! Histograms follow the Prometheus convention: cumulative `le` buckets
//! (each bucket counts observations `<=` its bound), a `+Inf` bucket
//! equal to `_count`, and an exact `_sum`.  Bucket bounds come from the
//! [`LogHistogram`]'s own geometric grid, scaled by a caller-supplied
//! factor so router-cycle measurements can be exposed in microseconds.
//!
//! [`validate_exposition`] is the matching self-check parser used by
//! tests and the CI artifact gate: it verifies headers, metric-name
//! syntax, monotone cumulative buckets, and `_count`/`+Inf` agreement.

use crate::stats::LogHistogram;
use std::fmt::Write;

fn push_parts(out: &mut String, parts: &[&str]) {
    for p in parts {
        out.push_str(p);
    }
}

/// Write a `# HELP` + `# TYPE` header for a metric family, its name
/// given in concatenated pieces.
pub fn write_header_parts(out: &mut String, name: &[&str], help: &str, kind: &str) {
    debug_assert!(
        valid_metric_name(name),
        "invalid metric name {}",
        name.concat()
    );
    out.push_str("# HELP ");
    push_parts(out, name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    push_parts(out, name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn write_label_set(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

/// Write one integer-valued sample line, its metric name in
/// concatenated pieces.
pub fn write_sample_parts(out: &mut String, name: &[&str], labels: &[(&str, &str)], value: u64) {
    push_parts(out, name);
    write_label_set(out, labels);
    let _ = writeln!(out, " {value}");
}

/// Write one float-valued sample line, its metric name in concatenated
/// pieces.
pub fn write_sample_f64_parts(
    out: &mut String,
    name: &[&str],
    labels: &[(&str, &str)],
    value: f64,
) {
    push_parts(out, name);
    write_label_set(out, labels);
    let _ = writeln!(out, " {value}");
}

/// Write a counter family from `(name, value)` pairs.  Each counter
/// becomes `<ns>_<name>`.
pub fn write_counters<'a>(
    out: &mut String,
    ns: &str,
    counters: impl Iterator<Item = (&'a str, u64)>,
) {
    for (name, value) in counters {
        push_parts(
            out,
            &["# HELP ", ns, "_", name, " Router counter ", name, ".\n"],
        );
        push_parts(out, &["# TYPE ", ns, "_", name, " counter\n"]);
        write_sample_parts(out, &[ns, "_", name], &[], value);
    }
}

/// Write the stage-profile families from `(name, calls, work, wall_ns)`
/// tuples.
pub fn write_stages<'a>(
    out: &mut String,
    ns: &str,
    stages: impl Iterator<Item = (&'a str, u64, u64, u64)> + Clone,
) {
    write_header_parts(
        out,
        &[ns, "_stage_calls_total"],
        "Times each pipeline stage executed.",
        "counter",
    );
    for (name, calls, _, _) in stages.clone() {
        write_sample_parts(out, &[ns, "_stage_calls_total"], &[("stage", name)], calls);
    }
    write_header_parts(
        out,
        &[ns, "_stage_work_total"],
        "Logical work units accumulated per pipeline stage.",
        "counter",
    );
    for (name, _, work, _) in stages.clone() {
        write_sample_parts(out, &[ns, "_stage_work_total"], &[("stage", name)], work);
    }
    write_header_parts(
        out,
        &[ns, "_stage_wall_ns_total"],
        "Wall nanoseconds accumulated per pipeline stage (zero unless telemetry is armed with wall_clock).",
        "counter",
    );
    for (name, _, _, wall_ns) in stages {
        write_sample_parts(
            out,
            &[ns, "_stage_wall_ns_total"],
            &[("stage", name)],
            wall_ns,
        );
    }
}

/// Write one [`LogHistogram`] as a Prometheus histogram with cumulative
/// `le` buckets.  `scale` converts recorded integer values to the exposed
/// unit (e.g. router cycles → microseconds); `labels` are attached to
/// every sample line.  Allocation-free given a warm `out` buffer.
pub fn write_histogram(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    h: &LogHistogram,
    scale: f64,
) {
    let mut cumulative = 0u64;
    for b in h.nonzero_buckets() {
        cumulative += b.count;
        out.push_str(name);
        out.push_str("_bucket{");
        for (k, v) in labels {
            let _ = write!(out, "{k}=\"{v}\",");
        }
        let _ = writeln!(out, "le=\"{}\"}} {cumulative}", b.hi as f64 * scale);
    }
    out.push_str(name);
    out.push_str("_bucket{");
    for (k, v) in labels {
        let _ = write!(out, "{k}=\"{v}\",");
    }
    let _ = writeln!(out, "le=\"+Inf\"}} {}", h.count());
    write_sample_f64_parts(out, &[name, "_sum"], labels, h.sum() as f64 * scale);
    write_sample_parts(out, &[name, "_count"], labels, h.count());
}

/// Whether the concatenation of `name`'s pieces is a valid metric name
/// (checked without building it, so the writers stay allocation-free).
fn valid_metric_name(name: &[&str]) -> bool {
    let mut chars = name.iter().flat_map(|p| p.chars());
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Summary of a validated exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpositionStats {
    /// Metric families declared with `# TYPE`.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

/// Strip a histogram-series suffix, giving the declared family name.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

/// Validate a Prometheus text exposition: every sample's family must be
/// declared with `# TYPE`, metric names must be syntactically valid,
/// histogram `le` buckets must be cumulative (monotone non-decreasing)
/// and agree with `_count` at `+Inf`.  Returns summary statistics or a
/// message naming the first offending line.
pub fn validate_exposition(text: &str) -> Result<ExpositionStats, String> {
    let mut families: Vec<(String, String)> = Vec::new();
    let mut samples = 0usize;
    // Cumulative-bucket state for the histogram series currently being
    // read: (series key = name + labels sans le, last cumulative count).
    let mut bucket_series: Option<(String, u64, bool)> = None; // (key, last cum, saw +Inf)
    let mut inf_count: Option<u64> = None;

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| Err::<ExpositionStats, _>(format!("line {}: {msg}", ln + 1));
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or_default();
            let kind = it.next().unwrap_or_default();
            if !valid_metric_name(&[name]) {
                return err(format!("invalid family name `{name}`"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return err(format!("unknown metric type `{kind}`"));
            }
            if families.iter().any(|(n, _)| n == name) {
                return err(format!("duplicate # TYPE for `{name}`"));
            }
            families.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }

        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return err("sample line has no value".into()),
        };
        let value: f64 = match value.parse() {
            Ok(v) => v,
            Err(_) => return err(format!("unparseable sample value `{value}`")),
        };
        let name = series.split('{').next().unwrap_or_default();
        if !valid_metric_name(&[name]) {
            return err(format!("invalid metric name `{name}`"));
        }
        let family = family_of(name);
        let declared = families.iter().find(|(n, _)| n == family || n == name);
        if declared.is_none() {
            return err(format!("sample for undeclared family `{family}`"));
        }
        samples += 1;

        // Histogram bucket bookkeeping.
        if name.ends_with("_bucket") {
            let labels = series.strip_prefix(name).unwrap_or_default();
            let (le, key) = match extract_le(labels) {
                Some(pair) => pair,
                None => return err("histogram bucket without an `le` label".into()),
            };
            let cum = value as u64;
            match &mut bucket_series {
                Some((k, last, saw_inf)) if *k == key => {
                    if *saw_inf {
                        return err(format!("bucket after +Inf in series `{key}`"));
                    }
                    if cum < *last {
                        return err(format!(
                            "cumulative bucket count decreased ({last} -> {cum}) in `{key}`"
                        ));
                    }
                    *last = cum;
                    if le == "+Inf" {
                        *saw_inf = true;
                        inf_count = Some(cum);
                    }
                }
                _ => {
                    bucket_series = Some((key, cum, le == "+Inf"));
                    if le == "+Inf" {
                        inf_count = Some(cum);
                    }
                }
            }
        } else if name.ends_with("_count") {
            if let Some(expected) = inf_count.take() {
                if value as u64 != expected {
                    return err(format!(
                        "_count {} disagrees with +Inf bucket {expected}",
                        value as u64
                    ));
                }
            }
            bucket_series = None;
        }
    }
    if let Some((key, _, saw_inf)) = bucket_series {
        if !saw_inf {
            return Err(format!(
                "histogram series `{key}` never closed with le=\"+Inf\""
            ));
        }
    }
    Ok(ExpositionStats {
        families: families.len(),
        samples,
    })
}

/// Split a bucket label set into its `le` value and the series key (the
/// label set with `le` removed).
fn extract_le(labels: &str) -> Option<(String, String)> {
    let inner = labels.strip_prefix('{')?.strip_suffix('}')?;
    let mut le = None;
    let mut key = String::new();
    for part in inner.split(',') {
        if part.is_empty() {
            continue;
        }
        let (k, v) = part.split_once('=')?;
        if k == "le" {
            le = Some(v.trim_matches('"').to_string());
        } else {
            key.push_str(part);
            key.push(',');
        }
    }
    Some((le?, key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_sample_lines_are_well_formed() {
        let mut out = String::new();
        write_header_parts(
            &mut out,
            &["mmr_cycles"],
            "Executed flit cycles.",
            "counter",
        );
        write_sample_parts(&mut out, &["mmr_cycles"], &[], 8000);
        write_sample_parts(&mut out, &["mmr_grants"], &[("port", "3")], 17);
        assert!(out.contains("# TYPE mmr_cycles counter"));
        assert!(out.contains("mmr_cycles 8000\n"));
        assert!(out.contains("mmr_grants{port=\"3\"} 17\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_validate() {
        let mut h = LogHistogram::default();
        for v in [1u64, 1, 5, 100, 100_000] {
            h.record(v);
        }
        let mut out = String::new();
        write_header_parts(&mut out, &["mmr_delay_us"], "Delay.", "histogram");
        write_histogram(&mut out, "mmr_delay_us", &[("class", "vbr")], &h, 1.0);
        let stats = validate_exposition(&out).expect("generated exposition validates");
        assert!(stats.samples >= 7, "buckets + +Inf + sum + count");
        assert!(out.contains("le=\"+Inf\"} 5\n"));
        assert!(out.contains("mmr_delay_us_count{class=\"vbr\"} 5"));
        assert!(out.contains("mmr_delay_us_sum{class=\"vbr\"} 100107"));
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        // Sample without a TYPE header.
        assert!(validate_exposition("orphan_metric 5\n").is_err());
        // Non-monotone cumulative buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_exposition(bad).unwrap_err().contains("decreased"));
        // _count disagreeing with +Inf.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        assert!(validate_exposition(bad).unwrap_err().contains("disagrees"));
        // Unclosed histogram series.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n";
        assert!(validate_exposition(bad).unwrap_err().contains("+Inf"));
        // Invalid metric name.
        assert!(validate_exposition("# TYPE 9bad counter\n9bad 1\n").is_err());
        // Duplicate TYPE.
        let bad = "# TYPE c counter\n# TYPE c counter\nc 1\n";
        assert!(validate_exposition(bad).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn stage_and_counter_writers_validate() {
        let counters = [("cycles", 100u64), ("grants_issued", 42)];
        let stages = [
            ("arbitration", 100u64, 42u64, 0u64),
            ("crossbar", 100, 40, 0),
        ];
        let mut out = String::new();
        write_counters(&mut out, "mmr", counters.iter().copied());
        write_stages(
            &mut out,
            "mmr",
            stages.iter().map(|&(n, c, w, t)| (n, c, w, t)),
        );
        let stats = validate_exposition(&out).expect("writer output validates");
        assert_eq!(stats.families, 5, "2 counters + 3 stage families");
        assert!(out.contains("mmr_stage_work_total{stage=\"arbitration\"} 42"));
    }

    #[test]
    fn empty_histogram_still_closes_its_series() {
        let h = LogHistogram::default();
        let mut out = String::new();
        write_header_parts(&mut out, &["h"], "Empty.", "histogram");
        write_histogram(&mut out, "h", &[], &h, 1.0);
        validate_exposition(&out).expect("empty histogram exposes +Inf/sum/count");
        assert!(out.contains("h_bucket{le=\"+Inf\"} 0"));
    }
}
