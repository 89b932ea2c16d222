//! `mmr` — command-line front-end to the simulator.
//!
//! ```text
//! mmr run   [--load 0.7] [--arbiter coa|wfa|islip|pim|greedy|random|...]
//!           [--priority siabp|iabp|fifo|static] [--vbr sr|bb] [--gops 4]
//!           [--cycles 50000] [--warmup 5000] [--seed N] [--json]
//! mmr run   --config sim.json            # full SimConfig from JSON
//! mmr sweep [--loads 0.5,0.7,0.9] [--arbiters coa,wfa] [run flags]
//! mmr gate  [--full] [--list] [--pack NAME]
//! ```
//!
//! `mmr gate` is the claim gate: it runs every workload pack under
//! `workloads/` (or only `--pack NAME` and the packs its claims read)
//! through one experiment cache, writes
//! `results/workload_<pack>.{json,txt}`, and exits 1 when any claim
//! misses its threshold at the ensemble median.  Each report renders the
//! pack's curves; the router-less `mpeg` pack's renders Table 1, the
//! Fig. 6 Flower Garden profile and both Fig. 7 histograms from its
//! first seed.  For each single-router pack it also runs the
//! representative point (the first claim's load and arbiter, else the
//! highest load and first arbiter) once with telemetry armed and writes
//! `results/workload_<pack>.{html,prom,telemetry.json,trace.jsonl}`: the
//! dashboard, the self-validated Prometheus exposition, the telemetry
//! report and the grant trace.  `--list` validates the pack set — every pack on its own,
//! claim ids unique across packs, cross-pack panels resolvable — and
//! prints the catalog without simulating.
//!
//! Exits 0 on success, 1 when a claim fails or a `--config` file cannot
//! be read or parsed, and 2 on a usage error or a config the simulator
//! cannot run: every point `run`, `sweep` and `gate` would simulate is
//! checked by `SimConfig::check` first, and the bad field named.

use mmr_arbiter::scheduler::ArbiterKind;
use mmr_bench::overview::{load_bench_trajectory, render_overview, validate_overview};
use mmr_bench::{banner, claim_tally, emit, report_failures, results_dir};
use mmr_core::config::{
    vbr_cycle_budget, InjectionKind, RunLength, SimConfig, TelemetrySpec, WorkloadSpec,
};
use mmr_core::conformance::{Ensemble, PackData, Panel};
use mmr_core::experiment::run_experiment;
use mmr_core::report::{render_xy_table, TextTable};
use mmr_core::saturation::ExperimentCache;
use mmr_core::sweep::{sweep, SweepPoint, SweepSpec};
use mmr_core::workload_lang::{
    parse_arbiter, parse_priority, read_pack_dir, workloads_dir, CompiledPack, Fidelity,
    WorkloadSpec as Pack,
};
use mmr_sim::telemetry::recorder::to_jsonl;
use mmr_sim::telemetry::validate_exposition;
use mmr_traffic::mpeg::FRAME_TIME_SECS;
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: mmr <run|sweep|gate> [flags]\n\
         \n\
         run flags:\n\
           --config FILE          load a full SimConfig from JSON (other flags override)\n\
           --load F               target offered load fraction (default 0.7)\n\
           --arbiter NAME         coa|wfa|wfa-fixed|islip[:N]|pim[:N]|greedy|random|\n\
                                  mwm|mwm-approx|frame-fair|cq (default coa)\n\
           --priority NAME        siabp|iabp|fifo|static (default siabp)\n\
           --vbr sr|bb            use MPEG-2 VBR with the given injection model\n\
           --gops N               GOPs per VBR connection (default 4)\n\
           --cycles N             flit cycles to run (default 50000; VBR runs until drained)\n\
           --warmup N             warm-up cycles (default 5000)\n\
           --seed N               master seed (default 0xB1ACA)\n\
           --json                 emit the result (sweep: every point) as JSON\n\
         \n\
         sweep flags (plus run flags):\n\
           --loads A,B,C          loads to visit (default 0.5,0.7,0.8,0.9)\n\
           --arbiters A,B         arbiters to compare (default coa,wfa)\n\
         \n\
         gate flags:\n\
           --full                 paper-scale fidelity ([run.full]/[sweep.full])\n\
           --list                 validate the pack set and print the catalog; no simulation\n\
           --pack NAME            run one pack (plus the packs its claims read)\n"
    );
    exit(2)
}

/// A parsed value, or exit 2 naming the error.
fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

/// An arbiter name in the packs' spelling; exits 2 on an unknown name.
fn arbiter(s: &str) -> ArbiterKind {
    or_exit(parse_arbiter(s, "arbiter"))
}

/// The value-taking flags of `mmr run` (and of `mmr sweep`, which adds
/// its grid).
const RUN_FLAGS: [&str; 9] = [
    "config", "load", "arbiter", "priority", "vbr", "gops", "cycles", "warmup", "seed",
];

/// Parse `--flag value` pairs, each a run flag or named in `extra`, plus
/// the bare `--json` switch; exits 2 naming any other flag.
fn parse_flags(args: &[String], extra: &[&str]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut switches = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if matches!(name, "json") {
                switches.push(name.to_string());
                i += 1;
            } else if !RUN_FLAGS.contains(&name) && !extra.contains(&name) {
                eprintln!("unknown flag --{name}");
                usage()
            } else if i + 1 < args.len() {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                eprintln!("flag --{name} needs a value");
                usage()
            }
        } else {
            eprintln!("unexpected argument '{a}'");
            usage()
        }
    }
    (flags, switches)
}

fn config_from_flags(flags: &HashMap<String, String>) -> SimConfig {
    let mut cfg = if let Some(path) = flags.get("config") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("invalid config {path}: {e}");
            exit(1)
        })
    } else {
        SimConfig::default()
    };
    let parse_f64 = |s: &String| -> f64 {
        s.parse().unwrap_or_else(|_| {
            eprintln!("not a number: {s}");
            usage()
        })
    };
    let parse_u64 = |s: &String| -> u64 {
        s.parse().unwrap_or_else(|_| {
            eprintln!("not an integer: {s}");
            usage()
        })
    };
    if let Some(v) = flags.get("vbr") {
        let injection = match v.as_str() {
            "sr" => InjectionKind::SmoothRate,
            "bb" => InjectionKind::BackToBack,
            other => {
                eprintln!("--vbr takes sr or bb, not '{other}'");
                usage()
            }
        };
        let gops = flags.get("gops").map(&parse_u64).unwrap_or(4) as usize;
        cfg.workload = WorkloadSpec::Vbr {
            target_load: cfg.workload.target_load(),
            gops,
            injection,
            enforce_peak: false,
        };
        cfg.warmup_cycles = 0;
        cfg.run = RunLength::UntilDrained {
            max_cycles: vbr_cycle_budget(gops),
        };
    }
    if let Some(v) = flags.get("load") {
        cfg.workload = cfg.workload.with_load(parse_f64(v));
    }
    if let Some(v) = flags.get("arbiter") {
        cfg.arbiter = arbiter(v);
    }
    if let Some(v) = flags.get("priority") {
        cfg.priority = or_exit(parse_priority(v, "priority"));
    }
    if let Some(v) = flags.get("cycles") {
        cfg.run = RunLength::Cycles(parse_u64(v));
    }
    if let Some(v) = flags.get("warmup") {
        cfg.warmup_cycles = parse_u64(v);
    }
    if let Some(v) = flags.get("seed") {
        cfg.seed = parse_u64(v);
    }
    or_exit(cfg.check());
    cfg
}

fn cmd_run(args: &[String]) {
    let (flags, switches) = parse_flags(args, &[]);
    let cfg = config_from_flags(&flags);
    let result = run_experiment(&cfg);
    if switches.iter().any(|s| s == "json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&result).expect("result serializes")
        );
        return;
    }
    println!(
        "{} | {} | load {:.1}% ({} connections) | {} cycles",
        result.summary.arbiter,
        result.summary.priority_fn,
        result.achieved_load * 100.0,
        result.connections,
        result.executed_cycles
    );
    let mut t = TextTable::new(vec!["class", "generated", "delivered", "mean µs", "p99 µs"]);
    for c in &result.summary.metrics.classes {
        t.row(vec![
            c.class.label().to_string(),
            c.generated.to_string(),
            c.delivered.to_string(),
            format!("{:.2}", c.mean_delay_us),
            format!("{:.2}", c.p99_delay_us),
        ]);
    }
    println!("{}", t.render());
    if result.summary.metrics.frames_delivered > 0 {
        println!(
            "frames: {} delivered, mean delay {:.1} µs, mean jitter {:.2} µs",
            result.summary.metrics.frames_delivered,
            result.summary.metrics.mean_frame_delay_us,
            result.summary.metrics.mean_frame_jitter_us
        );
    }
    println!(
        "utilization {:.1}% | throughput {:.3} | fairness {:.3}",
        result.summary.crossbar_utilization * 100.0,
        result.summary.throughput_ratio(),
        result.summary.reservation_fairness
    );
}

fn cmd_sweep(args: &[String]) {
    let (flags, switches) = parse_flags(args, &["loads", "arbiters"]);
    let base = config_from_flags(&flags);
    let loads: Vec<f64> = flags
        .get("loads")
        .map(|s| {
            s.split(',')
                .map(|x| {
                    x.trim().parse().unwrap_or_else(|_| {
                        eprintln!("--loads: `{x}` is not a number");
                        exit(2)
                    })
                })
                .collect()
        })
        .unwrap_or_else(|| vec![0.5, 0.7, 0.8, 0.9]);
    let arbiters: Vec<ArbiterKind> = flags
        .get("arbiters")
        .map(|s| s.split(',').map(|x| arbiter(x.trim())).collect())
        .unwrap_or_else(|| vec![ArbiterKind::Coa, ArbiterKind::Wfa]);
    for &load in &loads {
        for &a in &arbiters {
            or_exit(base.with_load(load).with_arbiter(a).check());
        }
    }
    let spec = SweepSpec {
        seeds: vec![base.seed],
        base,
        loads,
        arbiters,
    };
    eprintln!("running {} points…", spec.point_count());
    let points = sweep(&spec);
    if switches.iter().any(|s| s == "json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&points).expect("sweep points serialize")
        );
        return;
    }
    let is_vbr = matches!(spec.base.workload, WorkloadSpec::Vbr { .. });
    if is_vbr {
        print!(
            "{}",
            render_xy_table("frame delay", "mean frame delay (µs)", &points, |p| p
                .frame_delay_us())
        );
    } else {
        print!(
            "{}",
            render_xy_table(
                "high-class flit delay",
                "mean 55 Mbps-class delay (µs)",
                &points,
                |p| p.class_delay_us(mmr_traffic::connection::TrafficClass::CbrHigh)
            )
        );
    }
    print!(
        "{}",
        render_xy_table("utilization", "crossbar utilization (%)", &points, |p| {
            p.utilization() * 100.0
        })
    );
}

/// The curves the retired figure printers drew, one `render_xy_table`
/// per metric: frame delay, window utilization and frame jitter for VBR
/// packs; mean flit delay per traffic class otherwise.
fn render_curves(pack: &CompiledPack, points: &[SweepPoint]) -> String {
    let Some(first) = points.first() else {
        return String::new();
    };
    let table = |title: &str, ylabel: &str, f: &dyn Fn(&SweepPoint) -> f64| {
        render_xy_table(&format!("{} — {title}", pack.name), ylabel, points, f) + "\n"
    };
    if matches!(pack.sweep.base.workload, WorkloadSpec::Vbr { .. }) {
        [
            table(
                "frame delay",
                "mean frame delay since generation (µs)",
                &|p| p.frame_delay_us(),
            ),
            table(
                "window utilization",
                "crossbar utilization within the generation window (%)",
                &|p| p.mean_of(|r| r.summary.generation_window_utilization()) * 100.0,
            ),
            table("frame jitter", "mean frame jitter (µs)", &|p| {
                p.mean_of(|r| r.summary.metrics.mean_frame_jitter_us)
            }),
        ]
        .concat()
    } else {
        first.results[0]
            .summary
            .metrics
            .classes
            .iter()
            .map(|c| {
                table(
                    &format!("{} delay", c.class.label()),
                    "mean flit delay since generation (µs)",
                    &|p| p.class_delay_us(c.class),
                )
            })
            .collect()
    }
}

/// The MPEG pack's first seed as the paper draws it: the Table 1
/// sequence statistics, the Fig. 6 Flower Garden per-frame rate profile
/// and both Fig. 7 frame-0 injection histograms.
fn render_traces(data: &PackData) -> String {
    let mut table = TextTable::new(vec![
        "Video Sequence",
        "Max",
        "Min",
        "Average",
        "Avg Mbps",
        "Peak Mbps",
    ]);
    for trace in &data.traces[0] {
        let s = trace.stats();
        table.row(vec![
            trace.name.clone(),
            s.max_bits.to_string(),
            s.min_bits.to_string(),
            format!("{:.0}", s.avg_bits),
            format!("{:.2}", s.avg_bandwidth.as_mbps()),
            format!("{:.2}", s.peak_bandwidth.as_mbps()),
        ]);
    }
    let mut out = format!(
        "# Table 1 — MPEG-2 sequence statistics (bits)\n{}",
        table.render()
    );
    let garden = data.traces[0]
        .iter()
        .find(|t| t.name == "Flower Garden")
        .expect("Table 1 lists Flower Garden");
    out.push_str("\n# Fig. 6 — Flower Garden bandwidth profile\n# time(ms)  rate(Mbit/s)  frame\n");
    for (i, (rate, frame)) in garden
        .rate_profile_mbps()
        .iter()
        .zip(&garden.frames)
        .enumerate()
    {
        let t_ms = i as f64 * FRAME_TIME_SECS * 1e3;
        let bar = "#".repeat((rate / 2.0).round() as usize);
        out.push_str(&format!(
            "{t_ms:>9.0} {rate:>12.1}   {:?} {bar}\n",
            frame.ty
        ));
    }
    for (model, hist) in [
        ("(a) Back-to-Back", &data.bb_hist[0]),
        ("(b) Smooth-Rate", &data.sr_hist[0]),
    ] {
        out.push_str(&format!(
            "\n# Fig. 7{model} — frame-0 flits per frame-time bucket\n"
        ));
        let max = f64::from(hist.iter().copied().max().unwrap_or(0).max(1));
        for (i, &b) in hist.iter().enumerate() {
            let t_ms = i as f64 / hist.len() as f64 * FRAME_TIME_SECS * 1e3;
            let bar = "#".repeat((f64::from(b) / max * 50.0).round() as usize);
            out.push_str(&format!("{t_ms:>6.1} ms |{bar:<50}| {b}\n"));
        }
    }
    out
}

/// A router pack's representative point: its first claim's `at_load`
/// and `arbiter` when that claim names both, else the highest load and
/// the first arbiter.
fn representative_point(spec: &Pack, pack: &CompiledPack) -> (f64, ArbiterKind) {
    let first = spec.claim.as_deref().and_then(<[_]>::first);
    first
        .and_then(|c| {
            Some((
                c.at_load?,
                parse_arbiter(c.arbiter.as_deref()?, "arbiter").ok()?,
            ))
        })
        .unwrap_or_else(|| {
            let peak = pack
                .sweep
                .loads
                .iter()
                .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            (peak, pack.sweep.arbiters[0])
        })
}

/// The artifacts of a router pack's representative point, from one run
/// with telemetry and the observatory armed (base seed, no wall clock, so
/// every byte is deterministic): `workload_<pack>.html` (the dashboard),
/// `.prom` (the Prometheus exposition), `.telemetry.json` (the telemetry
/// report) and `.trace.jsonl` (the flight recorder's retained events).
/// Exits 1 when the exposition or the dashboard fails its self-check.
fn write_artifacts(spec: &Pack, pack: &CompiledPack) {
    let (load, arbiter) = representative_point(spec, pack);
    let mut rep = pack.sweep.base.with_load(load);
    rep.arbiter = arbiter;
    rep.telemetry = Some(TelemetrySpec::default());
    let result = run_experiment(&rep);
    let fail = |what: String| -> ! {
        eprintln!("mmr gate: {}: {what}", pack.name);
        exit(1)
    };
    let prom = result.prometheus();
    if let Err(e) = validate_exposition(&prom) {
        fail(format!("exposition failed validation: {e}"))
    }
    let bench = load_bench_trajectory(&results_dir());
    let scenario = format!("{} @ load {load}", pack.name);
    let Some(html) = render_overview(&scenario, &result, &bench) else {
        fail("the run produced no observatory data".into())
    };
    if let Err(e) = validate_overview(&html) {
        fail(format!("overview failed validation: {e}"))
    }
    let report = result.telemetry.as_ref().expect("an armed run reports");
    let telemetry = serde_json::to_string_pretty(report).expect("report serializes") + "\n";
    let trace = to_jsonl(result.trace.iter().flatten().copied());
    for (ext, body) in [
        ("html", &html),
        ("prom", &prom),
        ("telemetry.json", &telemetry),
        ("trace.jsonl", &trace),
    ] {
        let path = results_dir().join(format!("workload_{}.{ext}", pack.name));
        std::fs::write(&path, body).expect("write pack artifact");
        eprintln!("[written {}]", path.display());
    }
}

/// The pack catalog `--list` prints once the set validates.
fn print_catalog(specs: &[Pack], fidelity: Fidelity) {
    println!(
        "{:<16} {:>6} {:>7} {:>6}  description",
        "pack", "loads", "claims", "seeds"
    );
    println!("{}", "-".repeat(88));
    let mut claims = 0;
    for spec in specs {
        let ids = spec.claim.as_deref().unwrap_or_default();
        println!(
            "{:<16} {:>6} {:>7} {:>6}  {}",
            spec.meta.name,
            spec.loads(fidelity).len(),
            ids.len(),
            spec.seed_count(fidelity),
            spec.meta.description
        );
        ids.iter().for_each(|c| println!("    {}", c.id));
        claims += ids.len();
    }
    println!(
        "{} packs, {claims} claims: every pack validates, claim ids are unique, \
         cross-pack panels resolve",
        specs.len()
    );
}

fn cmd_gate(args: &[String]) {
    let (mut fidelity, mut list, mut only) = (Fidelity::Quick, false, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => fidelity = Fidelity::Full,
            "--list" => list = true,
            "--pack" => match it.next() {
                Some(name) => only = Some(name.as_str()),
                None => {
                    eprintln!("flag --pack needs a value");
                    usage()
                }
            },
            other => {
                eprintln!("unexpected argument '{other}'");
                usage()
            }
        }
    }
    let dir = workloads_dir();
    let specs = read_pack_dir(&dir).unwrap_or_else(|e| {
        eprintln!("mmr gate: {e}");
        exit(2)
    });
    if let Some(name) = only {
        if !specs.iter().any(|s| s.meta.name == name) {
            eprintln!("mmr gate: no pack named `{name}` under {}", dir.display());
            exit(2)
        }
    }
    if list {
        print_catalog(&specs, fidelity);
        return;
    }
    let selected = |name: &str| only.is_none_or(|o| o == name);
    // The selected packs, plus every pack their claims read.
    let packs: Vec<CompiledPack> = specs
        .iter()
        .filter(|s| {
            selected(&s.meta.name)
                || specs.iter().any(|t| {
                    selected(&t.meta.name)
                        && t.claim
                            .iter()
                            .flatten()
                            .any(|c| c.versus_pack.as_ref() == Some(&s.meta.name))
                })
        })
        .map(|s| s.compile(fidelity).expect("a validated pack compiles"))
        .collect();

    let mut cache = ExperimentCache::new();
    let mut ensemble = Ensemble::default();
    for pack in &packs {
        eprintln!(
            "running pack {}: {} loads x {} arbiters x {} seeds…",
            pack.name,
            pack.sweep.loads.len(),
            pack.sweep.arbiters.len(),
            pack.sweep.seeds.len()
        );
        ensemble.insert(&pack.name, pack.run(&mut cache));
    }

    let mut outcomes = Vec::new();
    for pack in packs.iter().filter(|p| selected(&p.name)) {
        let report = pack.evaluate(&ensemble, fidelity);
        let data = ensemble.panel(&Panel::new(&pack.name));
        let points = &data.points;
        let mut out = banner(&format!("Pack {}", pack.name), &pack.description, fidelity);
        out.push_str(&report.render_text());
        out.push_str(&format!("\n{}\n\n", claim_tally(&report.claims)));
        out.push_str(&match pack.trace_gops {
            Some(_) => render_traces(data),
            None => render_curves(pack, points),
        });
        emit(&format!("workload_{}.txt", pack.name), &out);
        let path = results_dir().join(format!("workload_{}.json", pack.name));
        let json = serde_json::to_string(&report).expect("pack report serializes");
        std::fs::write(&path, json).expect("write pack report json");
        eprintln!("[written {}]", path.display());
        // The artifacts read telemetry, which arms the single router only.
        if !points.is_empty() && pack.sweep.base.fabric.is_none() {
            let spec = specs.iter().find(|s| s.meta.name == pack.name);
            write_artifacts(spec.expect("every pack has a spec"), pack);
        }
        outcomes.extend(report.claims);
    }
    eprintln!(
        "mmr gate: {} packs, {} simulations, {} cache hits",
        packs.len(),
        cache.misses(),
        cache.hits()
    );
    println!("mmr gate: {}", claim_tally(&outcomes));
    if !report_failures("mmr gate FAILED:", &outcomes) {
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("gate") => cmd_gate(&args[1..]),
        _ => usage(),
    }
}
