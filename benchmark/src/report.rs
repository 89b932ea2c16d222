//! Output of one benchmark run: a `name workload value unit` line per
//! metric, an entry in `benchmark/out/result.json`, and the one-line JSON
//! result the driver reads last.

use crate::host::HostNoise;
use crate::stats::Summary;
use serde_json::Value;

const OUT_DIR: &str = "benchmark/out";

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The host as a run saw it: control-kernel drift, cores, compiler.
pub fn host_note(noise: &HostNoise) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("control_ops_per_s", Value::F64(noise.median)),
        ("control_min", Value::F64(noise.min)),
        ("control_max", Value::F64(noise.max)),
        ("noisy_rounds", Value::U64(noise.noisy_rounds as u64)),
        ("nproc", Value::U64(nproc as u64)),
        // `run.sh` exports it; empty when a binary is started by hand.
        (
            "rustc",
            Value::Str(std::env::var("BENCH_RUSTC").unwrap_or_default()),
        ),
    ])
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    summary: Option<Summary>,
}

/// Collects what a run measured and writes it out once, at the end.
pub struct Report {
    workload: String,
    trace: u8,
    metrics: Vec<Metric>,
    notes: Vec<(String, Value)>,
}

impl Report {
    pub fn new(workload: &str, trace: u8) -> Self {
        Report {
            workload: workload.into(),
            trace,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A metric with a single value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            summary: None,
        });
    }

    /// A metric reported as the fast quartile of its round samples.
    pub fn metric_of(&mut self, name: &str, s: Summary, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: s.fast,
            unit,
            summary: Some(s),
        });
    }

    /// A fact for the result file and the log (not a contract metric).
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.into(), value));
    }

    /// Print the metric lines, merge this run into `result.json`, and
    /// print the driver's result object as the last line of stdout.
    pub fn finish(self, attempted: u64, failed: u64) {
        for m in &self.metrics {
            match m.summary {
                Some(s) => println!(
                    "{} {} {:?} {} median={:?} iqr={:?} n={}",
                    m.name, self.workload, m.value, m.unit, s.median, s.iqr, s.n
                ),
                None => println!("{} {} {:?} {}", m.name, self.workload, m.value, m.unit),
            }
        }
        for (k, v) in self.notes.iter().filter(|(k, _)| k != "samples") {
            let v = serde_json::to_string(v).expect("notes serialize");
            println!("# {k} {} {v}", self.workload);
        }
        let detailed = self
            .metrics
            .iter()
            .map(|m| {
                let mut f = vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ];
                if let Some(s) = m.summary {
                    f.push(("median", Value::F64(s.median)));
                    f.push(("iqr", Value::F64(s.iqr)));
                    f.push(("n", Value::U64(s.n as u64)));
                }
                (m.name.clone(), obj(f))
            })
            .collect();
        let mut entry = vec![
            ("attempted".to_string(), Value::U64(attempted)),
            ("failed".to_string(), Value::U64(failed)),
        ];
        entry.extend(self.notes);
        entry.push(("metrics".into(), Value::Object(detailed)));
        let key = format!("{}.trace{}", self.workload, self.trace);
        if let Err(e) = merge_into_result_file(&key, Value::Object(entry)) {
            // The result file is a convenience; the driver reads stdout.
            eprintln!("warning: {e}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = obj(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        let line = obj([
            ("correct", Value::Bool(failed == 0)),
            ("attempted", Value::U64(attempted)),
            ("failed", Value::U64(failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("result serializes")
        );
    }
}

/// Write `text` to `benchmark/out/<name>`.
pub fn write_out_file(name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{name}");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `result.json` holds the latest run of every (workload, trace) pair, so
/// a full `run.sh` leaves one file with every metric of every workload.
fn merge_into_result_file(key: &str, entry: Value) -> Result<(), String> {
    let path = format!("{OUT_DIR}/result.json");
    let mut fields = match std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::parse_value(&text).ok())
    {
        Some(Value::Object(fields)) => fields,
        _ => Vec::new(),
    };
    fields.retain(|(k, _)| k != key);
    fields.push((key.into(), entry));
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    let text = serde_json::to_string_pretty(&Value::Object(fields)).expect("result serializes");
    write_out_file("result.json", &(text + "\n"))
}
