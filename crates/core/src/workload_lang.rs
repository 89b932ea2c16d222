//! Declarative workload language: TOML/JSON scenario packs.
//!
//! A pack is the one way this repo says what an experiment runs and
//! claims — the paper's figures included.  It is a TOML (or JSON)
//! document naming connection groups or a canned preset, VBR streams,
//! per-connection rates, ramp schedules, churn windows, fault plans, an
//! optional fabric topology, router design knobs, a load sweep, and typed
//! conformance claims.
//! [`WorkloadSpec::parse`] reads it, [`WorkloadSpec::validate`] rejects
//! malformed documents with typed [`SpecError`]s (never panics),
//! [`validate_pack_set`] checks a set of packs together (unique claim
//! ids, resolvable cross-pack panels), and [`WorkloadSpec::compile`]
//! lowers a pack onto the existing [`SimConfig`]/[`SweepSpec`] machinery
//! and its claims onto [`Check`]s, so the whole sweep/cache/conformance
//! stack runs unchanged.
//!
//! The committed packs live under `workloads/`; `mmr gate` (mmr-bench)
//! runs them all through one experiment cache and gates their claims in
//! CI.  TOML support is a self-contained, read-only subset (tables,
//! arrays of tables, scalars, inline arrays, comments) because the build
//! environment vendors no external TOML crate; JSON documents are
//! detected by a leading `{` and parsed with the vendored `serde_json`.
//!
//! Sections that describe a config concept deserialize into the
//! config's own type: `[[ramp.step]]` into [`RampStepConfig`] and
//! `[churn]` into [`ChurnConfig`], so a pack and a `SimConfig` spell a
//! ramp or a churn window the same way.

use crate::config::{
    vbr_cycle_budget, BestEffortSpec, ChurnConfig, ConfigError, FabricSpec, FaultSpec,
    InjectionKind, MixGroup, RampScheduleConfig, RampStepConfig, RunLength, SimConfig,
    WorkloadSpec as ConfigWorkload,
};
use crate::conformance::{
    ensemble_seeds, render_claims, Bound, Cell, Check, ClaimOutcome, CurveMetric, CurveValue,
    Ensemble, HwAxis, Loads, PackData, Panel,
};
use crate::saturation::ExperimentCache;
use crate::sweep::{group_points, SweepSpec};
use mmr_arbiter::hw::HwBlock;
use mmr_arbiter::priority::PriorityKind;
use mmr_arbiter::scheduler::ArbiterKind;
use mmr_router::config::{LinkPolicy, RouterConfig};
use mmr_router::fabric::Topology;
use mmr_sim::ensure;
use mmr_sim::fault::FaultPlanConfig;
use mmr_traffic::connection::TrafficClass;
use mmr_traffic::mpeg::{standard_sequences, GOP_PATTERN};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Load-grid matching tolerance: claim anchors and sweep loads are
/// compared with this slack so generated grids (`initial`/`max`/`step`)
/// behave like explicit lists.
const LOAD_EPS: f64 = 1e-6;

/// The `[traffic] preset` of the router-less MPEG pack: the seven
/// Table 1 sequences, synthesized per seed, plus the Fig. 7 injection
/// histograms.
const MPEG_PRESET: &str = "mpeg-sequences";

/// Entries per round of the `tdm` / `tdm-backfill` slot tables.
const SLOT_TABLE_LEN: usize = 1024;

/// Largest seed ensemble (and generated load grid) a pack may ask for:
/// far past any median a claim needs, and small enough that compiling
/// never fails to allocate.
const MAX_SEEDS: usize = 1024;

/// How much simulation to spend per point: every pack names a quick run
/// (`[run]`, `[sweep]`) and may override it for full fidelity
/// (`[run.full]`, `[sweep.full]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Short runs for tests and smoke checks.
    Quick,
    /// Paper-scale runs for figure regeneration.
    Full,
}

impl Fidelity {
    /// `"quick"` / `"full"`, as reports record it.
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Quick => "quick",
            Fidelity::Full => "full",
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A workload document that cannot be read or run.
///
/// The proptest fuzzers assert that malformed documents always surface as
/// one of these — never as a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid TOML/JSON, or does not deserialize into
    /// the pack schema (a missing or mistyped field).
    Parse {
        /// 1-based line of the offending input (0 for JSON documents and
        /// schema errors).
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A field holds a value the pack cannot run, named by its path:
    /// `sweep.seeds`, `traffic.group[0].class`, `claim[<id>].at_load`, or
    /// the [`SimConfig::check`] field of a compiled point, such as
    /// `router.candidate_levels`.
    Config(ConfigError),
}

impl From<ConfigError> for SpecError {
    fn from(e: ConfigError) -> Self {
        SpecError::Config(e)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            SpecError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------------
// TOML subset: parse
// ---------------------------------------------------------------------------

/// Parse a TOML document (the subset this language uses: bare-key tables,
/// dotted table headers, arrays of tables, strings, booleans, integers,
/// floats, possibly-multiline inline arrays, `#` comments) into the
/// vendored serde [`Value`] data model.
pub fn toml_to_value(text: &str) -> Result<Value, SpecError> {
    let mut root = Value::Object(Vec::new());
    // Path of the table the next `key = value` lands in.
    let mut current: Vec<String> = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]);
        let line = line.trim();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let path_str = rest.strip_suffix("]]").ok_or_else(|| SpecError::Parse {
                line: lineno,
                msg: "unterminated [[table]] header".into(),
            })?;
            current = parse_header_path(path_str, lineno)?;
            let slot = descend(&mut root, &current[..current.len() - 1], lineno)?;
            let fields = as_object_mut(slot, lineno)?;
            let key = current.last().unwrap().clone();
            match fields.iter_mut().find(|(k, _)| *k == key) {
                Some((_, Value::Array(items))) => items.push(Value::Object(Vec::new())),
                Some(_) => {
                    return Err(SpecError::Parse {
                        line: lineno,
                        msg: format!("`{key}` redefined as an array of tables"),
                    })
                }
                None => fields.push((key, Value::Array(vec![Value::Object(Vec::new())]))),
            }
        } else if let Some(rest) = line.strip_prefix('[') {
            let path_str = rest.strip_suffix(']').ok_or_else(|| SpecError::Parse {
                line: lineno,
                msg: "unterminated [table] header".into(),
            })?;
            current = parse_header_path(path_str, lineno)?;
            // Materialize the table so empty tables round-trip.
            descend(&mut root, &current, lineno)?;
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            if !is_bare_key(key) {
                return Err(SpecError::Parse {
                    line: lineno,
                    msg: format!("`{key}` is not a bare key"),
                });
            }
            let mut value_text = line[eq + 1..].trim().to_string();
            // Join continuation lines until brackets balance (multiline
            // inline arrays).
            while bracket_depth(&value_text).ok_or_else(|| SpecError::Parse {
                line: lineno,
                msg: "unterminated string".into(),
            })? > 0
            {
                if i >= lines.len() {
                    return Err(SpecError::Parse {
                        line: lineno,
                        msg: "unterminated array".into(),
                    });
                }
                value_text.push(' ');
                value_text.push_str(strip_comment(lines[i]).trim());
                i += 1;
            }
            let value = parse_scalar(&value_text, lineno)?;
            let slot = descend(&mut root, &current, lineno)?;
            let fields = as_object_mut(slot, lineno)?;
            if fields.iter().any(|(k, _)| k == key) {
                return Err(SpecError::Parse {
                    line: lineno,
                    msg: format!("duplicate key `{key}`"),
                });
            }
            fields.push((key.to_string(), value));
        } else {
            return Err(SpecError::Parse {
                line: lineno,
                msg: format!("expected `key = value` or a table header, got `{line}`"),
            });
        }
    }
    Ok(root)
}

/// Drop a `#` comment, respecting `"` string delimiters.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (idx, ch) in line.char_indices() {
        match ch {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_header_path(path: &str, line: usize) -> Result<Vec<String>, SpecError> {
    let parts: Vec<String> = path
        .trim()
        .split('.')
        .map(|p| p.trim().to_string())
        .collect();
    if parts.iter().any(|p| !is_bare_key(p)) {
        return Err(SpecError::Parse {
            line,
            msg: format!("`{path}` is not a dotted bare-key path"),
        });
    }
    Ok(parts)
}

/// Net bracket depth of `text` outside strings; `None` when a string is
/// left open.
fn bracket_depth(text: &str) -> Option<i32> {
    let mut depth = 0;
    let mut in_str = false;
    let mut escaped = false;
    for ch in text.chars() {
        match ch {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    if in_str {
        None
    } else {
        Some(depth)
    }
}

/// Walk (and create) nested tables along `path`; inside an array of
/// tables, the path step lands on the most recent element.
fn descend<'a>(
    root: &'a mut Value,
    path: &[String],
    line: usize,
) -> Result<&'a mut Value, SpecError> {
    let mut node = root;
    for key in path {
        let fields = as_object_mut(node, line)?;
        let idx = match fields.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                fields.push((key.clone(), Value::Object(Vec::new())));
                fields.len() - 1
            }
        };
        node = &mut fields[idx].1;
        if let Value::Array(items) = node {
            node = items.last_mut().ok_or_else(|| SpecError::Parse {
                line,
                msg: format!("`{key}` is an empty array of tables"),
            })?;
        }
    }
    Ok(node)
}

fn as_object_mut(v: &mut Value, line: usize) -> Result<&mut Vec<(String, Value)>, SpecError> {
    match v {
        Value::Object(fields) => Ok(fields),
        other => Err(SpecError::Parse {
            line,
            msg: format!("expected a table, found {other:?}"),
        }),
    }
}

/// Parse one TOML scalar or inline array.
fn parse_scalar(text: &str, line: usize) -> Result<Value, SpecError> {
    let text = text.trim();
    if text.is_empty() {
        return Err(SpecError::Parse {
            line,
            msg: "empty value".into(),
        });
    }
    if let Some(rest) = text.strip_prefix('"') {
        let (s, used) = parse_basic_string(rest, line)?;
        if !rest[used..].trim().is_empty() {
            return Err(SpecError::Parse {
                line,
                msg: "trailing characters after string".into(),
            });
        }
        return Ok(Value::Str(s));
    }
    if text.starts_with('[') {
        if !text.ends_with(']') {
            return Err(SpecError::Parse {
                line,
                msg: "unterminated array".into(),
            });
        }
        let inner = &text[1..text.len() - 1];
        let mut items = Vec::new();
        for piece in split_top_level(inner, line)? {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            items.push(parse_scalar(piece, line)?);
        }
        return Ok(Value::Array(items));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let digits = text.replace('_', "");
    if let Some(hex) = digits.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16)
            .map(Value::U64)
            .map_err(|_| SpecError::Parse {
                line,
                msg: format!("`{text}` is not a hex integer"),
            });
    }
    let is_float = digits.contains('.') || digits.contains('e') || digits.contains('E');
    if !is_float {
        if let Ok(n) = digits.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        if let Ok(n) = digits.parse::<i64>() {
            return Ok(Value::I64(n));
        }
    }
    if let Ok(x) = digits.parse::<f64>() {
        if x.is_finite() {
            return Ok(Value::F64(x));
        }
    }
    Err(SpecError::Parse {
        line,
        msg: format!("`{text}` is not a TOML value this subset accepts"),
    })
}

/// Parse the contents of a basic string (after the opening quote);
/// returns the unescaped string and the byte length consumed **including**
/// the closing quote.
fn parse_basic_string(rest: &str, line: usize) -> Result<(String, usize), SpecError> {
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((idx, ch)) = chars.next() {
        match ch {
            '"' => return Ok((out, idx + 1)),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                other => {
                    return Err(SpecError::Parse {
                        line,
                        msg: format!("unsupported escape {other:?}"),
                    })
                }
            },
            c => out.push(c),
        }
    }
    Err(SpecError::Parse {
        line,
        msg: "unterminated string".into(),
    })
}

/// Split an inline-array body at top-level commas.
fn split_top_level(text: &str, line: usize) -> Result<Vec<&str>, SpecError> {
    let mut pieces = Vec::new();
    let mut depth = 0;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0;
    for (idx, ch) in text.char_indices() {
        match ch {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                pieces.push(&text[start..idx]);
                start = idx + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    if in_str {
        return Err(SpecError::Parse {
            line,
            msg: "unterminated string in array".into(),
        });
    }
    pieces.push(&text[start..]);
    Ok(pieces)
}

/// Parse a workload document: JSON when the first non-space byte is `{`,
/// the TOML subset otherwise.
pub fn parse_document(text: &str) -> Result<Value, SpecError> {
    if text.trim_start().starts_with('{') {
        serde_json::parse_value(text).map_err(|e| SpecError::Parse {
            line: 0,
            msg: e.to_string(),
        })
    } else {
        toml_to_value(text)
    }
}

// ---------------------------------------------------------------------------
// The typed document
// ---------------------------------------------------------------------------

/// `[meta]` — pack identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaSpec {
    /// Pack name (also the results-file stem; `[a-zA-Z0-9_-]+`).
    pub name: String,
    /// One-line description for reports.
    pub description: String,
}

/// One `[[traffic.group]]` — a CBR connection population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSpec {
    /// Group name (reporting only).
    pub name: String,
    /// Traffic-class label (`cbr-low`, `cbr-med`, `cbr-high`, `vbr`,
    /// `best-effort`).
    pub class: String,
    /// Per-connection rate in kbit/s.
    pub rate_kbps: f64,
    /// Relative admission pick weight.
    pub weight: f64,
}

/// `[traffic]` — exactly one of a canned preset, explicit groups, or
/// MPEG-2 VBR streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Canned preset: `paper-cbr` (the paper's CBR mix) or
    /// `mpeg-sequences` (the seven Table 1 sequences, synthesized per
    /// seed with the Fig. 7 injection histograms; no router runs).
    pub preset: Option<String>,
    /// Explicit connection groups.
    pub group: Option<Vec<GroupSpec>>,
    /// MPEG-2 VBR streams under the `sr` (Smooth-Rate) or `bb`
    /// (Back-to-Back) injection model.
    pub vbr: Option<String>,
    /// VBR packs only: enforce §2's peak-bandwidth admission test
    /// (default false).
    pub enforce_peak: Option<bool>,
}

/// `[router]` — the design knobs the paper fixes without data; each
/// absent key keeps the paper's default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterSec {
    /// Candidate levels k offered per input (default 4).
    pub candidate_levels: Option<u64>,
    /// Per-VC buffer capacity in flits (default 4).
    pub vc_buffer_flits: Option<u64>,
    /// Link-priority function: `siabp` (default), `iabp`, `fifo`,
    /// `static`.
    pub priority: Option<String>,
    /// Link policy: `priority` (default), `tdm` (a literal slot table),
    /// `tdm-backfill` (the table, idle slots re-offered).
    pub link_policy: Option<String>,
    /// VBR concurrency factor of the peak admission test (default 2.0,
    /// at least 1.0).
    pub concurrency_factor: Option<f64>,
}

/// `[best_effort]` — unreserved background traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BestEffortSec {
    /// Offered best-effort load per input link.
    pub load: f64,
    /// Mean message length in flits.
    pub mean_flits: f64,
}

/// `[run.full]` — full-fidelity overrides (replaces `[run]` whole).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunFull {
    /// Warm-up flit cycles.
    pub warmup: Option<u64>,
    /// Flit cycles to run, the warm-up included.
    pub cycles: Option<u64>,
    /// GOPs per VBR connection or synthesized sequence.
    pub gops: Option<u64>,
}

/// `[run]` — run lengths (quick fidelity; `[run.full]` overrides).  CBR
/// and group packs run `warmup` + `cycles` flit cycles; VBR packs and
/// the MPEG pack run `gops` GOPs, drained within
/// [`vbr_cycle_budget`] with no warm-up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSec {
    /// Warm-up flit cycles.
    pub warmup: Option<u64>,
    /// Flit cycles to run, the warm-up included.
    pub cycles: Option<u64>,
    /// GOPs per VBR connection or synthesized sequence.
    pub gops: Option<u64>,
    /// Full-fidelity overrides.
    pub full: Option<RunFull>,
}

/// `[sweep.full]` — full-fidelity overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepFull {
    /// Full-fidelity load grid.
    pub loads: Option<Vec<f64>>,
    /// Full-fidelity ensemble size.
    pub seeds: Option<u64>,
}

/// `[sweep]` — the offered-load grid, arbiters, and seed ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSec {
    /// Explicit load grid, exclusive with `initial`/`max`/`step`.
    pub loads: Option<Vec<f64>>,
    /// Generated grid start (inclusive).
    pub initial: Option<f64>,
    /// Generated grid end (inclusive, within rounding).
    pub max: Option<f64>,
    /// Generated grid increment.
    pub step: Option<f64>,
    /// Arbiter names (`coa`, `wfa`, `islip`, `islip:4`, `pim`, `greedy`,
    /// `random`, `mwm`, `mwm-approx`, `frame-fair`, `cq`, ...).  Absent
    /// only in the router-less MPEG pack.
    pub arbiters: Option<Vec<String>>,
    /// Ensemble size (deterministic seeds derived from `seed`).
    pub seeds: u64,
    /// Base seed (default: the paper's `0xB1ACA`).
    pub seed: Option<u64>,
    /// Full-fidelity overrides.
    pub full: Option<SweepFull>,
}

/// `[ramp]` — staged connection activation, one `[[ramp.step]]` per
/// breakpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RampSec {
    /// Breakpoints, strictly increasing in cycle, ending at 1.0.
    pub step: Vec<RampStepConfig>,
}

/// `[fault]` — a scaled default fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSec {
    /// Fault window start cycle.
    pub window_start: u64,
    /// Fault window length in cycles.
    pub window_len: u64,
    /// Rate multiplier over the default plan (0 = no faults).
    pub factor: f64,
}

/// `[fabric]` — optional multi-router topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSec {
    /// `line`, `ring`, `mesh`, or `torus`.
    pub topology: String,
    /// Grid width (mesh/torus).
    pub x: Option<u64>,
    /// Grid height (mesh/torus).
    pub y: Option<u64>,
    /// Router count (line).
    pub stages: Option<u64>,
    /// Router count (ring).
    pub nodes: Option<u64>,
    /// Host ports per router.
    pub host_ports: Option<u64>,
    /// Worker threads.
    pub workers: Option<u64>,
    /// Inter-node link latency in flit cycles.
    pub link_latency: Option<u64>,
}

/// One `[[claim]]` — a typed, regression-gated conformance claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaimSpec {
    /// Claim identifier (`pack.short-slug`).
    pub id: String,
    /// Human description.
    pub description: String,
    /// Check kind; DESIGN.md §13 maps each onto its [`Check`].
    pub kind: String,
    /// Traffic class the check reads (kinds that need one).
    pub class: Option<String>,
    /// Class expected to see *more* delay (`delay-ratio-at-least`).
    pub slower: Option<String>,
    /// Class expected to see *less* delay (`delay-ratio-at-least`).
    pub faster: Option<String>,
    /// Arbiter under test (default: the sweep's first arbiter).
    pub arbiter: Option<String>,
    /// Comparison arbiter (two-arbiter kinds).
    pub versus: Option<String>,
    /// Pack the `versus` cell is read from (ratio kinds; default: this
    /// pack).
    pub versus_pack: Option<String>,
    /// Load-grid point the claim anchors at (point kinds).
    pub at_load: Option<f64>,
    /// Lower grid point of `utilization-scales`.
    pub from_load: Option<f64>,
    /// Last grid point of a load-prefix (`*-until`) kind.
    pub until_load: Option<f64>,
    /// Prefix of the frame time `bb-burst` reads, 0–1.
    pub within_fraction: Option<f64>,
    /// Table 1 row `sawtooth` reads (0-based).
    pub sequence: Option<u64>,
    /// Threshold the ensemble median is gated against.
    pub threshold: f64,
}

/// A parsed workload document — the root of the language.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// `[meta]`.
    pub meta: MetaSpec,
    /// `[traffic]`.
    pub traffic: TrafficSpec,
    /// `[router]`.
    pub router: Option<RouterSec>,
    /// `[best_effort]`.
    pub best_effort: Option<BestEffortSec>,
    /// `[run]`.
    pub run: RunSec,
    /// `[sweep]`.
    pub sweep: SweepSec,
    /// `[ramp]`.
    pub ramp: Option<RampSec>,
    /// `[churn]` — mid-run departures and arrivals.
    pub churn: Option<ChurnConfig>,
    /// `[fault]`.
    pub fault: Option<FaultSec>,
    /// `[fabric]`.
    pub fabric: Option<FabricSec>,
    /// `[[claim]]`s.
    pub claim: Option<Vec<ClaimSpec>>,
}

/// Parse a traffic-class label; an unknown one is an error on `field`.
pub fn parse_class(label: &str, field: &str) -> Result<TrafficClass, ConfigError> {
    match label {
        "cbr-low" => Ok(TrafficClass::CbrLow),
        "cbr-med" | "cbr-medium" => Ok(TrafficClass::CbrMedium),
        "cbr-high" => Ok(TrafficClass::CbrHigh),
        "vbr" => Ok(TrafficClass::Vbr),
        "best-effort" => Ok(TrafficClass::BestEffort),
        other => Err(ConfigError::new(
            field,
            format!("unknown traffic class `{other}`"),
        )),
    }
}

/// Parse an arbiter name (optionally `islip:N` / `pim:N` for iteration
/// counts); an unknown one is an error on `field`.
pub fn parse_arbiter(name: &str, field: &str) -> Result<ArbiterKind, ConfigError> {
    let unknown = || ConfigError::new(field, format!("unknown arbiter `{name}`"));
    let (base, param) = match name.split_once(':') {
        Some((b, p)) => (b, Some(p)),
        None => (name, None),
    };
    let iterations = |default: usize| match param {
        None => Ok(default),
        Some(p) => p.parse().map_err(|_| unknown()),
    };
    let kind = match base {
        "coa" => ArbiterKind::Coa,
        "wfa" => ArbiterKind::Wfa,
        "wfa-fixed" => ArbiterKind::WfaFixed,
        "islip" => ArbiterKind::Islip {
            iterations: iterations(2)?,
        },
        "pim" => ArbiterKind::Pim {
            iterations: iterations(2)?,
        },
        "greedy" => ArbiterKind::GreedyPriority,
        "random" => ArbiterKind::Random,
        "mwm" => ArbiterKind::MwmExact,
        "mwm-approx" => ArbiterKind::MwmApprox,
        "frame-fair" => ArbiterKind::FrameFair {
            frame: mmr_arbiter::frame::DEFAULT_FRAME,
        },
        "cq" => ArbiterKind::CrosspointQueued {
            cap: mmr_arbiter::cq::DEFAULT_CAP,
        },
        _ => return Err(unknown()),
    };
    if param.is_some() && !matches!(kind, ArbiterKind::Islip { .. } | ArbiterKind::Pim { .. }) {
        return Err(unknown());
    }
    Ok(kind)
}

/// Parse a link-priority function name (`siabp`, `iabp`, `fifo`,
/// `static`); an unknown one is an error on `field`.
pub fn parse_priority(name: &str, field: &str) -> Result<PriorityKind, ConfigError> {
    PriorityKind::all()
        .into_iter()
        .find(|k| k.label().to_ascii_lowercase() == name)
        .ok_or_else(|| ConfigError::new(field, format!("unknown priority function `{name}`")))
}

/// Parse a `[router] link_policy` name (`priority`, `tdm`,
/// `tdm-backfill`).
pub fn parse_link_policy(name: &str) -> Result<LinkPolicy, ConfigError> {
    let table = |backfill| LinkPolicy::SlotTable {
        backfill,
        table_len: SLOT_TABLE_LEN,
    };
    match name {
        "priority" => Ok(LinkPolicy::Priority),
        "tdm" => Ok(table(false)),
        "tdm-backfill" => Ok(table(true)),
        other => Err(ConfigError::new(
            "router.link_policy",
            format!("`{other}` is none of priority / tdm / tdm-backfill"),
        )),
    }
}

/// Parse a `[traffic] vbr` injection label.
fn parse_injection(label: &str) -> Result<InjectionKind, ConfigError> {
    match label {
        "sr" => Ok(InjectionKind::SmoothRate),
        "bb" => Ok(InjectionKind::BackToBack),
        other => Err(ConfigError::new(
            "traffic.vbr",
            format!("`{other}` is neither `sr` nor `bb`"),
        )),
    }
}

/// The default fault plan over `[fault]`'s window, its rates scaled by
/// `factor`.
fn fault_plan(sec: &FaultSec) -> FaultPlanConfig {
    FaultPlanConfig {
        window_start: sec.window_start,
        window_len: sec.window_len,
        ..FaultPlanConfig::default()
    }
    .scaled(sec.factor)
}

impl ClaimSpec {
    /// The path of the claim field `name`, as errors name it:
    /// `claim[<id>].<name>`.
    fn field(&self, name: &str) -> String {
        format!("claim[{}].{name}", self.id)
    }

    /// The required claim field `name`, or the error naming it.
    fn need<T>(&self, name: &str, value: Option<T>) -> Result<T, ConfigError> {
        value.ok_or_else(|| {
            ConfigError::new(
                self.field(name),
                format!("kind `{}` needs this field", self.kind),
            )
        })
    }
}

impl WorkloadSpec {
    /// Parse a TOML or JSON workload document.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let value = parse_document(text)?;
        Self::from_value(&value).map_err(|e| SpecError::Parse {
            line: 0,
            msg: e.to_string(),
        })
    }

    /// True for the router-less MPEG pack (`preset = "mpeg-sequences"`).
    pub fn is_trace_pack(&self) -> bool {
        self.traffic.preset.as_deref() == Some(MPEG_PRESET)
    }

    /// The sweep's arbiter names (none in the MPEG pack).
    fn arbiter_names(&self) -> &[String] {
        self.sweep.arbiters.as_deref().unwrap_or(&[])
    }

    /// The load grid for a fidelity (explicit list, full override, or
    /// `initial`/`max`/`step` generation).  Assumes a validated spec.
    pub fn loads(&self, fidelity: Fidelity) -> Vec<f64> {
        if fidelity == Fidelity::Full {
            if let Some(full) = &self.sweep.full {
                if let Some(loads) = &full.loads {
                    return loads.clone();
                }
            }
        }
        if let Some(loads) = &self.sweep.loads {
            return loads.clone();
        }
        match (self.sweep.initial, self.sweep.max, self.sweep.step) {
            (Some(initial), Some(max), Some(step)) if step > 0.0 && max >= initial => {
                let n = ((max - initial) / step + LOAD_EPS).floor() as usize + 1;
                (0..n).map(|i| initial + i as f64 * step).collect()
            }
            _ => vec![],
        }
    }

    /// True when both fidelities' grids visit `load`.
    fn sweeps(&self, load: f64) -> bool {
        [Fidelity::Quick, Fidelity::Full]
            .iter()
            .all(|&f| self.loads(f).iter().any(|&l| (l - load).abs() < LOAD_EPS))
    }

    /// Number of ensemble seeds for a fidelity.
    pub fn seed_count(&self, fidelity: Fidelity) -> usize {
        if fidelity == Fidelity::Full {
            if let Some(full) = &self.sweep.full {
                if let Some(s) = full.seeds {
                    return s as usize;
                }
            }
        }
        self.sweep.seeds as usize
    }

    /// The run a fidelity uses: warm-up cycles, run length, and GOPs per
    /// VBR connection or sequence (0 for cycle-counted runs).
    fn run_length(&self, fidelity: Fidelity) -> Result<(u64, RunLength, usize), ConfigError> {
        let (section, (warmup, cycles, gops)) = match (fidelity, self.run.full) {
            (Fidelity::Full, Some(f)) => ("run.full", (f.warmup, f.cycles, f.gops)),
            _ => ("run", (self.run.warmup, self.run.cycles, self.run.gops)),
        };
        ensure!(gops != Some(0); format!("{section}.gops"), "a run needs at least one GOP");
        let counts_gops = self.traffic.vbr.is_some() || self.is_trace_pack();
        match (counts_gops, warmup, cycles, gops) {
            (false, Some(warmup), Some(cycles), None) => Ok((warmup, RunLength::Cycles(cycles), 0)),
            // The drain budget is linear in `gops`: refuse counts it
            // cannot represent.
            (true, None, None, Some(gops)) if gops.checked_mul(vbr_cycle_budget(1)).is_some() => {
                let max_cycles = vbr_cycle_budget(gops as usize);
                Ok((0, RunLength::UntilDrained { max_cycles }, gops as usize))
            }
            (false, ..) => Err(ConfigError::new(
                section,
                "needs `warmup` and `cycles`, and no `gops`",
            )),
            (true, ..) => Err(ConfigError::new(
                section,
                "VBR and MPEG packs run a drainable `gops` count, with no `warmup` or `cycles`",
            )),
        }
    }

    /// Validate the document, returning the first typed error found.
    /// The pack's own schema comes first: meta, section exclusivity, the
    /// run and sweep shape, seeds, capacity and claims.  Then every
    /// `(fidelity, load, arbiter)` point compiles and must pass
    /// [`SimConfig::check`], the one semantic validator.
    pub fn validate(&self) -> Result<(), SpecError> {
        ensure!(is_bare_key(&self.meta.name); "meta.name",
            "`{}` must be [a-zA-Z0-9_-]+", self.meta.name);
        let t = &self.traffic;
        let sources = [t.preset.is_some(), t.group.is_some(), t.vbr.is_some()];
        ensure!(sources.iter().filter(|&&given| given).count() == 1; "traffic",
            "needs exactly one of `preset` / `group` / `vbr`");
        if let Some(preset) = &t.preset {
            ensure!(preset == "paper-cbr" || preset == MPEG_PRESET; "traffic.preset",
                "unknown preset `{preset}`");
        }
        if let Some(vbr) = &t.vbr {
            parse_injection(vbr)?;
        }
        ensure!(t.enforce_peak.is_none() || t.vbr.is_some(); "traffic.enforce_peak",
            "applies only to `vbr` packs");
        if let Some(groups) = &t.group {
            ensure!(!groups.is_empty(); "traffic.group", "is empty");
            for (i, g) in groups.iter().enumerate() {
                parse_class(&g.class, &format!("traffic.group[{i}].class"))?;
            }
        }
        for fidelity in [Fidelity::Quick, Fidelity::Full] {
            self.run_length(fidelity)?;
        }
        // Sweep: explicit loads XOR a generator, except in the MPEG pack,
        // which runs no router and so has neither.
        let sw = &self.sweep;
        let has_list = sw.loads.is_some();
        let has_gen = sw.initial.is_some() || sw.max.is_some() || sw.step.is_some();
        if self.is_trace_pack() {
            let foreign = [
                ("sweep.loads", has_list),
                ("sweep.initial", sw.initial.is_some()),
                ("sweep.max", sw.max.is_some()),
                ("sweep.step", sw.step.is_some()),
                (
                    "sweep.full.loads",
                    sw.full.as_ref().is_some_and(|f| f.loads.is_some()),
                ),
                ("sweep.arbiters", sw.arbiters.is_some()),
                ("best_effort", self.best_effort.is_some()),
                ("fault", self.fault.is_some()),
                ("fabric", self.fabric.is_some()),
                ("router", self.router.is_some()),
            ];
            if let Some((field, _)) = foreign.into_iter().find(|&(_, given)| given) {
                return Err(ConfigError::new(
                    field,
                    format!("the `{MPEG_PRESET}` preset runs no router, so this does not apply"),
                )
                .into());
            }
        } else {
            let gen_complete = sw.initial.is_some() && sw.max.is_some() && sw.step.is_some();
            ensure!(has_list != has_gen && (!has_gen || gen_complete); "sweep.loads",
                "[sweep] needs exactly one of `loads` / `initial`+`max`+`step`");
            if let (Some(step), true) = (sw.step, has_gen) {
                ensure!(step.is_finite() && step > 0.0; "sweep.step", "{step} must be positive");
                let span = sw.max.unwrap_or(0.0) - sw.initial.unwrap_or(0.0);
                ensure!(span / step <= MAX_SEEDS as f64; "sweep.step",
                    "a generated grid holds at most {MAX_SEEDS} loads");
            }
            ensure!([Fidelity::Quick, Fidelity::Full].map(|f| self.loads(f).is_empty()) == [false; 2];
                "sweep.loads", "the load grid is empty");
            ensure!(!self.arbiter_names().is_empty(); "sweep.arbiters",
                "must name at least one arbiter");
            for (i, name) in self.arbiter_names().iter().enumerate() {
                parse_arbiter(name, &format!("sweep.arbiters[{i}]"))?;
            }
        }
        let full_seeds = sw.full.as_ref().and_then(|f| f.seeds);
        for (field, seeds) in [
            ("sweep.seeds", Some(sw.seeds)),
            ("sweep.full.seeds", full_seeds),
        ] {
            if let Some(n) = seeds {
                ensure!((1..=MAX_SEEDS as u64).contains(&n); field,
                    "{n} seeds; an ensemble holds 1 to {MAX_SEEDS}");
            }
        }
        // Capacity: peak swept load, plus churn arrivals, plus best-effort
        // background must fit the link.
        let peak_load = self
            .loads(Fidelity::Quick)
            .iter()
            .chain(self.loads(Fidelity::Full).iter())
            .fold(0.0f64, |a, &b| a.max(b));
        let arrivals = self.churn.map(|c| c.arrivals).unwrap_or(0.0).max(0.0);
        let be = self.best_effort.as_ref().map(|b| b.load).unwrap_or(0.0);
        let declared = peak_load * (1.0 + arrivals) + be;
        ensure!(declared <= 1.0 + LOAD_EPS; "sweep.loads",
            "declared load {declared:.3} (peak load, churn arrivals and best-effort background) \
             exceeds link capacity");
        ensure!((self.ramp.is_none() && self.churn.is_none()) || t.group.is_some();
            "traffic.group", "ramp/churn schedules require [[traffic.group]]s");
        if let Some(claims) = &self.claim {
            ensure!(!claims.is_empty(); "claim", "is empty");
            for c in claims {
                self.validate_claim(c)?;
            }
        }
        for fidelity in [Fidelity::Quick, Fidelity::Full] {
            let sweep = self.sweep_spec(fidelity)?;
            for &load in &sweep.loads {
                for &arbiter in &sweep.arbiters {
                    sweep.base.with_load(load).with_arbiter(arbiter).check()?;
                }
            }
        }
        Ok(())
    }

    fn validate_claim(&self, c: &ClaimSpec) -> Result<(), SpecError> {
        ensure!(!c.id.is_empty(); "claim[].id", "is empty");
        let check = self.lower_claim(c)?;
        ensure!(check.reads_traces() == self.is_trace_pack(); c.field("kind"),
            "`{}` and pack `{}` disagree on whether a router runs", c.kind, self.meta.name);
        let reads_two_packs = matches!(
            check,
            Check::Curve {
                loads: Loads::At(_),
                value: CurveValue::Ratio(..),
                ..
            }
        );
        ensure!(c.versus_pack.is_none() || reads_two_packs; c.field("versus_pack"),
            "only ratio kinds read another pack");
        for (field, label) in [
            ("class", &c.class),
            ("slower", &c.slower),
            ("faster", &c.faster),
        ] {
            if let Some(label) = label {
                parse_class(label, &c.field(field))?;
            }
        }
        // A `versus` read from another pack is checked against that pack
        // by `validate_pack_set`; a hardware check names blocks, not
        // arbiters of the sweep.
        let versus = c.versus.as_ref().filter(|_| c.versus_pack.is_none());
        let arbiters = match check {
            Check::HwRatio { .. } => [None, None],
            _ => [c.arbiter.as_ref(), versus],
        };
        for (field, name) in ["arbiter", "versus"].into_iter().zip(arbiters) {
            if let Some(name) = name {
                parse_arbiter(name, &c.field(field))?;
                ensure!(self.arbiter_names().contains(name); c.field(field),
                    "reads arbiter `{name}` the sweep omits");
            }
        }
        ensure!(c.threshold.is_finite(); c.field("threshold"), "must be finite");
        for (field, load) in check.anchor_loads() {
            ensure!(self.sweeps(load); c.field(field), "{load} is not a swept load");
        }
        Ok(())
    }

    /// The router and link-priority function `[router]` selects (the
    /// paper's defaults for absent keys).
    fn router_config(&self) -> Result<(RouterConfig, PriorityKind), SpecError> {
        let SimConfig {
            mut router,
            mut priority,
            ..
        } = SimConfig::default();
        if let Some(sec) = &self.router {
            let size = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
            if let Some(k) = sec.candidate_levels {
                router.candidate_levels = size(k);
            }
            if let Some(depth) = sec.vc_buffer_flits {
                router.vc_buffer_flits = size(depth);
            }
            if let Some(name) = &sec.priority {
                priority = parse_priority(name, "router.priority")?;
            }
            if let Some(name) = &sec.link_policy {
                router.link_policy = parse_link_policy(name)?;
            }
            if let Some(factor) = sec.concurrency_factor {
                router.round.concurrency_factor = factor;
            }
        }
        Ok((router, priority))
    }

    /// The `[fabric]` section as a spec: the topology it names with the
    /// dimensions that topology needs, and any overridden defaults.
    fn fabric_spec(&self, sec: &FabricSec) -> Result<FabricSpec, SpecError> {
        let size = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
        let dim = |v: Option<u64>, name: &str| {
            v.map(size).ok_or_else(|| {
                ConfigError::new(
                    format!("fabric.{name}"),
                    format!("`{}` topology needs it", sec.topology),
                )
            })
        };
        let topology = match sec.topology.as_str() {
            "line" => Topology::Line {
                stages: dim(sec.stages, "stages")?,
            },
            "ring" => Topology::Ring {
                nodes: dim(sec.nodes, "nodes")?,
            },
            "mesh" => Topology::Mesh {
                x: dim(sec.x, "x")?,
                y: dim(sec.y, "y")?,
            },
            "torus" => Topology::Torus {
                x: dim(sec.x, "x")?,
                y: dim(sec.y, "y")?,
            },
            other => {
                return Err(ConfigError::new(
                    "fabric.topology",
                    format!("unknown topology `{other}`"),
                )
                .into())
            }
        };
        let mut spec = FabricSpec::new(topology);
        if let Some(hp) = sec.host_ports {
            spec.host_ports = size(hp);
        }
        if let Some(w) = sec.workers {
            spec.workers = size(w);
        }
        if let Some(l) = sec.link_latency {
            spec.link_latency = l;
        }
        Ok(spec)
    }

    /// Lower the document onto a [`SweepSpec`] plus typed pack claims.
    /// Validates first, so a successful compile implies a valid document.
    pub fn compile(&self, fidelity: Fidelity) -> Result<CompiledPack, SpecError> {
        self.validate()?;
        let claims = self
            .claim
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .map(|c| {
                Ok(CompiledClaim {
                    id: c.id.clone(),
                    description: c.description.clone(),
                    check: self.lower_claim(c)?,
                })
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        Ok(CompiledPack {
            name: self.meta.name.clone(),
            description: self.meta.description.clone(),
            trace_gops: self.is_trace_pack().then_some(self.run_length(fidelity)?.2),
            sweep: self.sweep_spec(fidelity)?,
            claims,
        })
    }

    /// The sweep a fidelity runs: the base config the sections describe,
    /// the load grid, the arbiters and the ensemble seeds.  Checks only
    /// what lowering needs; [`Self::validate`] checks the rest.
    fn sweep_spec(&self, fidelity: Fidelity) -> Result<SweepSpec, SpecError> {
        let (warmup, run, gops) = self.run_length(fidelity)?;
        let workload = match (&self.traffic.group, &self.traffic.vbr) {
            (Some(groups), _) => ConfigWorkload::Mix {
                target_load: 0.5,
                groups: groups
                    .iter()
                    .enumerate()
                    .map(|(i, g)| {
                        Ok(MixGroup {
                            class: parse_class(&g.class, &format!("traffic.group[{i}].class"))?,
                            rate_bps: g.rate_kbps * 1_000.0,
                            weight: g.weight,
                        })
                    })
                    .collect::<Result<Vec<_>, ConfigError>>()?,
                ramp: self.ramp.as_ref().map(|r| RampScheduleConfig {
                    steps: r.step.clone(),
                }),
                churn: self.churn,
            },
            (None, Some(vbr)) => ConfigWorkload::Vbr {
                target_load: 0.5,
                gops,
                injection: parse_injection(vbr)?,
                enforce_peak: self.traffic.enforce_peak.unwrap_or(false),
            },
            (None, None) => ConfigWorkload::cbr(0.5),
        };
        let (router, priority) = self.router_config()?;
        let mut base = SimConfig {
            router,
            priority,
            workload,
            warmup_cycles: warmup,
            run,
            ..SimConfig::default()
        };
        if let Some(be) = &self.best_effort {
            base.best_effort = Some(BestEffortSpec {
                per_link_load: be.load,
                mean_flits: be.mean_flits,
            });
        }
        if let Some(seed) = self.sweep.seed {
            base.seed = seed;
        }
        if let Some(fault) = &self.fault {
            base.fault = Some(FaultSpec {
                plan: fault_plan(fault),
                profile: Default::default(),
            });
        }
        if let Some(fabric) = &self.fabric {
            base.fabric = Some(self.fabric_spec(fabric)?);
        }
        let arbiters = self
            .arbiter_names()
            .iter()
            .enumerate()
            .map(|(i, n)| parse_arbiter(n, &format!("sweep.arbiters[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepSpec {
            seeds: ensemble_seeds(base.seed, self.seed_count(fidelity)),
            loads: self.loads(fidelity),
            arbiters,
            base,
        })
    }

    /// Lower one `[[claim]]` onto the conformance vocabulary (the kind
    /// table is DESIGN.md §13).  Every kind reads this pack's panel; the
    /// ratio kinds read their `versus` cell from `versus_pack` when it is
    /// set.
    fn lower_claim(&self, c: &ClaimSpec) -> Result<Check, ConfigError> {
        let panel = || Panel::new(&self.meta.name);
        let own = || -> Result<Cell, ConfigError> {
            let name = c.arbiter.as_ref().or(self.arbiter_names().first());
            let name = name.ok_or_else(|| {
                ConfigError::new(
                    c.field("arbiter"),
                    format!("reads a router sweep; the `{MPEG_PRESET}` preset runs none"),
                )
            })?;
            Ok((panel(), parse_arbiter(name, &c.field("arbiter"))?))
        };
        let versus = || -> Result<Cell, ConfigError> {
            let name = c.need("versus", c.versus.as_deref())?;
            let pack = c.versus_pack.as_deref().unwrap_or(&self.meta.name);
            Ok((Panel::new(pack), parse_arbiter(name, &c.field("versus"))?))
        };
        let class = |field: &str, label: &Option<String>| {
            parse_class(c.need(field, label.as_deref())?, &c.field(field))
        };
        let delay = || class("class", &c.class).map(CurveMetric::ClassDelayUs);
        let at = || c.need("at_load", c.at_load).map(Loads::At);
        let until = || c.need("until_load", c.until_load).map(Loads::Until);
        let t = c.threshold;
        let (at_most, at_least) = (Bound::AtMost(t), Bound::AtLeast(t));
        let curve = |metric, loads, value, bound| -> Result<Check, ConfigError> {
            Ok(Check::Curve {
                metric,
                loads,
                value,
                bound,
            })
        };
        let point = |metric, bound| curve(metric, at()?, CurveValue::Cell(own()?), bound);
        let ratio = || Ok(CurveValue::Ratio(own()?, versus()?));
        let symmetric = || Ok(CurveValue::Symmetric(own()?, versus()?));
        let block = |field: &str, name: &Option<String>| {
            let name = c.need(field, name.as_deref())?;
            HwBlock::parse(name).ok_or_else(|| {
                ConfigError::new(
                    c.field(field),
                    format!("`{name}` is none of the hardware blocks siabp / iabp / coa / wfa"),
                )
            })
        };
        let hw = |axis: HwAxis| -> Result<Check, ConfigError> {
            Ok(Check::HwRatio {
                axis,
                num: block("arbiter", &c.arbiter)?,
                den: block("versus", &c.versus)?,
                bound: at_least,
            })
        };
        use CurveMetric::{FrameDelayUs, ThroughputRatio, WindowUtilizationPct};
        match c.kind.as_str() {
            "delay-below" => point(delay()?, at_most),
            "frame-delay-below" => point(FrameDelayUs, at_most),
            "delay-ratio-at-least" => point(
                CurveMetric::ClassDelayRatio(
                    class("slower", &c.slower)?,
                    class("faster", &c.faster)?,
                ),
                at_least,
            ),
            "throughput-floor" => point(ThroughputRatio, at_least),
            "fairness-above" => point(CurveMetric::Fairness, at_least),
            "reject-rate-below" => point(CurveMetric::RejectRate, at_most),
            "utilization-above" => point(CurveMetric::CrossbarUtilization, at_least),
            "delay-within-factor" => curve(delay()?, at()?, ratio()?, at_most),
            "delay-factor-at-least" => curve(delay()?, at()?, ratio()?, at_least),
            "frame-delay-factor-at-least" => curve(FrameDelayUs, at()?, ratio()?, at_least),
            "saturation-gap" => Ok(Check::SaturationGap {
                panel: panel(),
                metric: delay()?,
                winner: own()?.1,
                loser: versus()?.1,
                min_points: t,
            }),
            "utilization-scales" => Ok(Check::UtilizationScales {
                panel: panel(),
                arbiter: own()?.1,
                lo_load: c.need("from_load", c.from_load)?,
                hi_load: c.need("at_load", c.at_load)?,
                min_ratio_of_ratios: t,
            }),
            "delay-parity-until" => curve(delay()?, until()?, symmetric()?, at_most),
            "utilization-parity-until" => {
                curve(WindowUtilizationPct, until()?, symmetric()?, at_most)
            }
            "delay-monotone-until" => Ok(Check::MonotoneDelay {
                panel: panel(),
                metric: delay()?,
                arbiter: own()?.1,
                until_load: c.need("until_load", c.until_load)?,
                min_step_ratio: t,
            }),
            "throughput-floor-until" => curve(
                ThroughputRatio,
                until()?,
                CurveValue::Cell(own()?),
                at_least,
            ),
            "delay-bounded-until" => curve(delay()?, until()?, ratio()?, at_most),
            "delay-floor-until" => curve(delay()?, until()?, CurveValue::OverBest(own()?), at_most),
            "bb-burst" => Ok(Check::BurstConcentration {
                panel: panel(),
                within_fraction: c.need("within_fraction", c.within_fraction)?,
                min_mass: t,
            }),
            "sr-coverage" => Ok(Check::SmoothCoverage {
                panel: panel(),
                min_active_fraction: t,
            }),
            "sr-peak" => Ok(Check::SmoothPeak {
                panel: panel(),
                max_peak_over_mean: t,
            }),
            "sawtooth" => {
                let row = c.need("sequence", c.sequence)?;
                let sequence = usize::try_from(row)
                    .ok()
                    .filter(|&s| s < standard_sequences().len())
                    .ok_or_else(|| {
                        ConfigError::new(c.field("sequence"), format!("Table 1 has no row {row}"))
                    })?;
                Ok(Check::Sawtooth {
                    panel: panel(),
                    sequence,
                    period: GOP_PATTERN.len(),
                    min_peak_fraction: t,
                })
            }
            "rates-within-factor" => Ok(Check::AvgRatesWithinFactor {
                panel: panel(),
                factor: t,
            }),
            "frame-ordering" => Ok(Check::FrameTypeOrdering {
                panel: panel(),
                min_ratio: t,
            }),
            "hw-area-ratio-at-least" => hw(HwAxis::Area),
            "hw-delay-ratio-at-least" => hw(HwAxis::Delay),
            other => Err(ConfigError::new(
                c.field("kind"),
                format!("unknown kind `{other}`"),
            )),
        }
    }
}

/// Validate packs as one set — what `mmr gate` runs together: pack names
/// and claim ids are unique, and every claim that reads another pack
/// (`versus_pack`) finds it, with a router sweep carrying the `versus`
/// arbiter at the claim's load in both fidelities.  Each pack must
/// already validate on its own.
pub fn validate_pack_set(specs: &[WorkloadSpec]) -> Result<(), SpecError> {
    let mut names = HashSet::new();
    for s in specs {
        ensure!(names.insert(s.meta.name.as_str()); "meta.name",
            "two packs are named `{}`", s.meta.name);
    }
    let mut ids = HashSet::new();
    for c in specs.iter().flat_map(|s| s.claim.iter().flatten()) {
        ensure!(ids.insert(c.id.as_str()); c.field("id"), "two claims have this id");
        let Some(pack) = &c.versus_pack else {
            continue;
        };
        let Some(other) = specs
            .iter()
            .find(|s| &s.meta.name == pack && !s.is_trace_pack())
        else {
            return Err(ConfigError::new(
                c.field("versus_pack"),
                format!("the set holds no router pack named `{pack}`"),
            )
            .into());
        };
        let versus = c.versus.as_deref().unwrap_or_default();
        ensure!(other.arbiter_names().iter().any(|n| n == versus); c.field("versus"),
            "reads arbiter `{versus}` pack `{pack}` omits");
        let at_load = c.at_load.unwrap_or(f64::NAN);
        ensure!(other.sweeps(at_load); c.field("at_load"),
            "{at_load} is not a swept load of pack `{pack}`");
    }
    Ok(())
}

/// The committed pack directory: `workloads/` at the workspace root, or
/// `MMR_WORKLOADS_DIR` when set.
pub fn workloads_dir() -> PathBuf {
    std::env::var_os("MMR_WORKLOADS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads"))
}

/// Read, parse and validate one pack document.
pub fn read_pack(path: &Path) -> Result<WorkloadSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    WorkloadSpec::parse(&text)
        .and_then(|spec| spec.validate().map(|_| spec))
        .map_err(|e| format!("{} is invalid: {e}", path.display()))
}

/// The committed pack `workloads/<name>.toml`, compiled at `fidelity`.
pub fn compile_committed(name: &str, fidelity: Fidelity) -> Result<CompiledPack, String> {
    read_pack(&workloads_dir().join(format!("{name}.toml")))?
        .compile(fidelity)
        .map_err(|e| format!("{name}: {e}"))
}

/// Every pack in `dir` (`.toml` and `.json`, in file-name order), each
/// validated on its own and all of them as a set
/// ([`validate_pack_set`]).
pub fn read_pack_dir(dir: &Path) -> Result<Vec<WorkloadSpec>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("toml" | "json")
            )
        })
        .collect();
    paths.sort();
    let specs = paths
        .iter()
        .map(|p| read_pack(p))
        .collect::<Result<Vec<_>, _>>()?;
    validate_pack_set(&specs).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(specs)
}

// ---------------------------------------------------------------------------
// Compiled packs and claim evaluation
// ---------------------------------------------------------------------------

/// One compiled `[[claim]]`: the document's identity over a conformance
/// [`Check`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledClaim {
    /// Claim id.
    pub id: String,
    /// Description for reports.
    pub description: String,
    /// The typed check, reading the panels (packs) it names.
    pub check: Check,
}

impl CompiledClaim {
    /// Judge the claim, which belongs to pack `pack`, over `e`.
    pub fn evaluate(&self, pack: &str, e: &Ensemble) -> ClaimOutcome {
        let (per_seed, bound, unit) = self.check.measure(e);
        ClaimOutcome::new(&self.id, pack, &self.description, per_seed, bound, unit)
    }
}

/// A compiled pack: the sweep to run plus the claims to gate it with.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPack {
    /// Pack name.
    pub name: String,
    /// Pack description.
    pub description: String,
    /// GOPs per synthesized sequence of the router-less MPEG pack;
    /// `None` for packs that run a router.
    pub trace_gops: Option<usize>,
    /// The sweep grid (no loads or arbiters in the MPEG pack).
    pub sweep: SweepSpec,
    /// Typed claims.
    pub claims: Vec<CompiledClaim>,
}

/// Per-class delay entry of a [`PackCurvePoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDelay {
    /// Class label.
    pub class: String,
    /// Seed-mean flit delay (µs).
    pub mean_delay_us: f64,
}

/// One reported sweep point of a pack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackCurvePoint {
    /// Arbiter label.
    pub arbiter: String,
    /// Target offered load.
    pub target_load: f64,
    /// Admission-achieved load (seed mean).
    pub achieved_load: f64,
    /// Seed-mean frame delay (µs).
    pub frame_delay_us: f64,
    /// Seed-mean delivered/generated throughput ratio.
    pub throughput: f64,
    /// Seed-mean crossbar utilization.
    pub utilization: f64,
    /// Seed-mean Jain's reservation-fairness index.
    pub fairness: f64,
    /// Seed-mean CAC rejection rate.
    pub reject_rate: f64,
    /// Per-class seed-mean delays.
    pub class_delay_us: Vec<ClassDelay>,
}

/// The evaluated report of one pack run (`results/workload_<name>.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackReport {
    /// Pack name.
    pub pack: String,
    /// Pack description.
    pub description: String,
    /// "quick" or "full".
    pub fidelity: String,
    /// Ensemble seeds.
    pub seeds: Vec<u64>,
    /// Swept loads.
    pub loads: Vec<f64>,
    /// Arbiter labels.
    pub arbiters: Vec<String>,
    /// Per-claim outcomes (ensemble-median gated).
    pub claims: Vec<ClaimOutcome>,
    /// The measured curves.
    pub curves: Vec<PackCurvePoint>,
}

impl PackReport {
    /// The pack header, then one line per claim (`render_claims`).
    pub fn render_text(&self) -> String {
        format!(
            "pack {} [{}] — {} loads x {} arbiters x {} seeds\n{}",
            self.pack,
            self.fidelity,
            self.loads.len(),
            self.arbiters.len(),
            self.seeds.len(),
            render_claims(&self.claims),
        )
    }
}

impl CompiledPack {
    /// Run the pack: its sweep through `cache` (measured configs are
    /// reused, the misses fan out in parallel), or the MPEG pack's trace
    /// synthesis.
    pub fn run(&self, cache: &mut ExperimentCache) -> PackData {
        match self.trace_gops {
            Some(gops) => PackData::traces(&self.sweep.seeds, gops),
            None => PackData {
                points: group_points(&self.sweep, cache.run_many(&self.sweep.configs(), None)),
                ..PackData::default()
            },
        }
    }

    /// Judge the pack's claims over `e` — which holds this pack's run and
    /// every pack its claims read — and assemble the report.
    pub fn evaluate(&self, e: &Ensemble, fidelity: Fidelity) -> PackReport {
        let claims = self
            .claims
            .iter()
            .map(|c| c.evaluate(&self.name, e))
            .collect();
        let curves = e
            .panel(&Panel::new(&self.name))
            .points
            .iter()
            .map(|p| PackCurvePoint {
                arbiter: p.arbiter.label().to_string(),
                target_load: p.target_load,
                achieved_load: p.achieved_load,
                frame_delay_us: p.frame_delay_us(),
                throughput: p.throughput_ratio(),
                utilization: p.utilization(),
                fairness: p.mean_of(|r| r.summary.reservation_fairness),
                reject_rate: p.mean_of(|r| r.admission.reject_rate()),
                class_delay_us: [
                    TrafficClass::CbrLow,
                    TrafficClass::CbrMedium,
                    TrafficClass::CbrHigh,
                    TrafficClass::Vbr,
                    TrafficClass::BestEffort,
                ]
                .iter()
                .filter(|&&class| {
                    p.results
                        .iter()
                        .any(|r| r.summary.metrics.class(class).is_some())
                })
                .map(|&class| ClassDelay {
                    class: class.label().to_string(),
                    mean_delay_us: p.class_delay_us(class),
                })
                .collect(),
            })
            .collect();
        PackReport {
            pack: self.name.clone(),
            description: self.description.clone(),
            fidelity: fidelity.label().to_string(),
            seeds: self.sweep.seeds.clone(),
            loads: self.sweep.loads.clone(),
            arbiters: self
                .sweep
                .arbiters
                .iter()
                .map(|a| a.label().to_string())
                .collect(),
            claims,
            curves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_pack(extra: &str) -> String {
        format!(
            r#"
[meta]
name = "test_pack"
description = "a minimal pack"

[traffic]
preset = "paper-cbr"

[run]
warmup = 100
cycles = 1000

[sweep]
loads = [0.3, 0.5]
arbiters = ["coa"]
seeds = 1
{extra}"#
        )
    }

    #[test]
    fn toml_parses_tables_arrays_and_scalars() {
        let v = toml_to_value(
            r#"
# top comment
title = "hello \"world\""
count = 42
neg = -7
ratio = 0.65
flag = true
grid = [0.1, 0.2,
        0.3]  # multiline

[outer.inner]
x = 1

[[items]]
name = "a"

[[items]]
name = "b"
"#,
        )
        .unwrap();
        assert_eq!(v.get("title"), Some(&Value::Str("hello \"world\"".into())));
        assert_eq!(v.get("count"), Some(&Value::U64(42)));
        assert_eq!(v.get("neg"), Some(&Value::I64(-7)));
        assert_eq!(v.get("ratio"), Some(&Value::F64(0.65)));
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("grid"),
            Some(&Value::Array(vec![
                Value::F64(0.1),
                Value::F64(0.2),
                Value::F64(0.3)
            ]))
        );
        assert_eq!(
            v.get("outer").unwrap().get("inner").unwrap().get("x"),
            Some(&Value::U64(1))
        );
        match v.get("items") {
            Some(Value::Array(items)) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[1].get("name"), Some(&Value::Str("b".into())));
            }
            other => panic!("items should be an array of tables, got {other:?}"),
        }
    }

    #[test]
    fn toml_rejects_malformed_lines() {
        for (doc, what) in [
            ("key value", "missing equals"),
            ("[unterminated", "open header"),
            ("x = [1, 2", "open array"),
            ("x = \"abc", "open string"),
            ("x = @nope", "bad scalar"),
            ("x = 1\nx = 2", "duplicate key"),
        ] {
            assert!(toml_to_value(doc).is_err(), "{what} should fail: {doc}");
        }
    }

    #[test]
    fn minimal_pack_parses_and_validates() {
        let spec = WorkloadSpec::parse(&minimal_pack("")).unwrap();
        assert_eq!(spec.meta.name, "test_pack");
        spec.validate().unwrap();
        let pack = spec.compile(Fidelity::Quick).unwrap();
        assert_eq!(pack.sweep.loads, vec![0.3, 0.5]);
        assert_eq!(pack.sweep.arbiters, vec![ArbiterKind::Coa]);
        assert_eq!(pack.sweep.seeds, vec![SimConfig::default().seed]);
    }

    #[test]
    fn json_documents_are_accepted() {
        let spec = WorkloadSpec::parse(&minimal_pack("")).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back = WorkloadSpec::parse(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn generated_load_grid() {
        let doc =
            minimal_pack("").replace("loads = [0.3, 0.5]", "initial = 0.2\nmax = 0.6\nstep = 0.2");
        let spec = WorkloadSpec::parse(&doc).unwrap();
        spec.validate().unwrap();
        let loads = spec.loads(Fidelity::Quick);
        assert_eq!(loads.len(), 3);
        assert!((loads[0] - 0.2).abs() < 1e-12);
        assert!((loads[2] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn validator_rejects_malformed_specs() {
        let group_pack = |groups: &str, extra: &str| {
            minimal_pack(extra).replace("preset = \"paper-cbr\"", groups)
        };
        let bad_rate = group_pack(
            "[[traffic.group]]\nname = \"g\"\nclass = \"cbr-low\"\nrate_kbps = -64.0\nweight = 1.0",
            "",
        );
        assert!(matches!(
            WorkloadSpec::parse(&bad_rate).unwrap().validate(),
            Err(SpecError::Config(e)) if e.field == "workload.groups[0].rate_bps"
        ));
        let overlap = group_pack(
            "[[traffic.group]]\nname = \"g\"\nclass = \"cbr-low\"\nrate_kbps = 64.0\nweight = 1.0",
            "[[ramp.step]]\nat_cycle = 100\nfraction = 0.5\n\n[[ramp.step]]\nat_cycle = 100\nfraction = 1.0\n",
        );
        assert!(matches!(
            WorkloadSpec::parse(&overlap).unwrap().validate(),
            Err(SpecError::Config(e)) if e.field == "workload.ramp.steps[1].at_cycle"
        ));
        let over_capacity = minimal_pack("\n[best_effort]\nload = 0.7\nmean_flits = 8.0\n")
            .replace("loads = [0.3, 0.5]", "loads = [0.9]");
        assert!(matches!(
            WorkloadSpec::parse(&over_capacity).unwrap().validate(),
            Err(SpecError::Config(e)) if e.field == "sweep.loads" && e.reason.contains("capacity")
        ));
        let unknown_arbiter = minimal_pack("").replace("\"coa\"", "\"quantum\"");
        assert!(matches!(
            WorkloadSpec::parse(&unknown_arbiter).unwrap().validate(),
            Err(SpecError::Config(e)) if e.field == "sweep.arbiters[0]"
        ));
        let unswept = minimal_pack(
            "\n[[claim]]\nid = \"x.y\"\ndescription = \"d\"\nkind = \"throughput-floor\"\nat_load = 0.77\nthreshold = 0.5\n",
        );
        assert!(matches!(
            WorkloadSpec::parse(&unswept).unwrap().validate(),
            Err(SpecError::Config(e)) if e.field == "claim[x.y].at_load"
        ));
    }

    #[test]
    fn fabric_section_compiles_to_fabric_spec() {
        let doc = minimal_pack("\n[fabric]\ntopology = \"mesh\"\nx = 2\ny = 2\nworkers = 2\n");
        let spec = WorkloadSpec::parse(&doc).unwrap();
        let pack = spec.compile(Fidelity::Quick).unwrap();
        let fabric = pack.sweep.base.fabric.expect("fabric set");
        assert_eq!(fabric.topology, Topology::Mesh { x: 2, y: 2 });
        assert_eq!(fabric.workers, 2);
    }

    #[test]
    fn arbiter_and_class_names_parse() {
        assert_eq!(parse_arbiter("coa", "a").unwrap(), ArbiterKind::Coa);
        assert_eq!(
            parse_arbiter("islip:4", "a").unwrap(),
            ArbiterKind::Islip { iterations: 4 }
        );
        assert_eq!(
            parse_arbiter("frame-fair", "a").unwrap(),
            ArbiterKind::FrameFair {
                frame: mmr_arbiter::frame::DEFAULT_FRAME
            }
        );
        assert_eq!(parse_arbiter("coa:3", "a").unwrap_err().field, "a");
        assert_eq!(
            parse_class("cbr-med", "c").unwrap(),
            TrafficClass::CbrMedium
        );
        assert_eq!(parse_class("gold", "c").unwrap_err().field, "c");
    }
}
