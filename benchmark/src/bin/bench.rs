//! End-to-end pass (tracing off): rounds of one fixed-work unit of a
//! workload plus the control kernel, output checks on every unit, and an
//! isolated child process for peak RSS.

use mmr_benchmark::host::{self, Args, Control};
use mmr_benchmark::report::{host_note, obj, Report};
use mmr_benchmark::stats::{aa_delta, median, summarize};
use mmr_benchmark::sut::{self, UnitOutcome, WorkloadId, DEFAULT_SEED};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::Instant;

const GOLDEN_PATH: &str = "benchmark/golden.json";
/// Rounds run even when `--seconds` is already spent: the fast quartile
/// needs them (the sweep's unit takes 6 s), and `run.sh --check` smokes
/// every workload with `--seconds 0`.
const MIN_ROUNDS: usize = 3;

/// One unit as an operation: `Err` when it panicked or broke flit
/// conservation.
fn checked_unit(
    w: WorkloadId,
    seed: u64,
    backlog0: &[usize],
    control: &mut Control,
) -> Result<UnitOutcome, String> {
    let unit = catch_unwind(AssertUnwindSafe(|| {
        sut::run_unit(w, seed, backlog0, control)
    }))
    .map_err(|_| "unit panicked".to_string())?;
    if unit.unconserved > 0 {
        return Err(format!("{} members lost or made flits", unit.unconserved));
    }
    Ok(unit)
}

/// One checked unit outside any run: fresh control, own mesh twin.
fn single_unit(w: WorkloadId, seed: u64) -> Result<UnitOutcome, String> {
    let backlog0 = sut::mesh_backlogs(w, seed);
    checked_unit(w, seed, &backlog0, &mut Control::default())
}

fn golden() -> Result<Vec<(String, Value)>, String> {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .map_err(|e| format!("cannot read {GOLDEN_PATH}: {e}"))?;
    match serde_json::parse_value(&text) {
        Ok(Value::Object(fields)) => Ok(fields),
        _ => Err(format!("{GOLDEN_PATH} is not a JSON object")),
    }
}

fn regold() -> Result<(), String> {
    let mut fields = Vec::new();
    for w in WorkloadId::ALL {
        let unit = single_unit(w, DEFAULT_SEED)?;
        println!("golden {} {:016x}", w.name(), unit.fingerprint);
        fields.push((
            w.name().to_string(),
            Value::Str(format!("{:016x}", unit.fingerprint)),
        ));
    }
    let text = serde_json::to_string_pretty(&Value::Object(fields)).expect("golden serializes");
    std::fs::write(GOLDEN_PATH, text + "\n").map_err(|e| format!("cannot write {GOLDEN_PATH}: {e}"))
}

/// The RSS child: one unit in a fresh process, then `VmHWM`.
fn rss_child(w: WorkloadId, seed: u64) -> Result<(), String> {
    let unit = single_unit(w, seed)?;
    println!("{} {:016x}", host::vm_hwm_kib()?, unit.fingerprint);
    Ok(())
}

fn spawn_rss_child(w: WorkloadId, seed: u64) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--rss-child",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start RSS child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "RSS child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut words = text.split_whitespace();
    let kib: f64 = words
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("RSS child printed no VmHWM")?;
    let fp = words
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("RSS child printed no fingerprint")?;
    Ok((kib / 1024.0, fp))
}

fn measure(w: WorkloadId, args: &Args) -> Result<(), String> {
    let seed = args.seed;
    let mut report = Report::new(w.name(), 0);
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    // Untimed pre-pass: what the checks compare against.
    let t_setup = Instant::now();
    let mut control = Control::default();
    let backlog0 = sut::mesh_backlogs(w, seed);
    let twin = match w.twin() {
        Some(t) => Some(checked_unit(t, seed, &backlog0, &mut control)?.fingerprint),
        None => None,
    };

    // [round][member] nominal seconds, and the same in wall seconds.
    let mut run: Vec<Vec<f64>> = Vec::new();
    let mut setup: Vec<Vec<f64>> = Vec::new();
    let mut run_wall: Vec<Vec<f64>> = Vec::new();
    let mut setup_wall: Vec<Vec<f64>> = Vec::new();
    let mut round_rates = Vec::new();
    let mut sim_cycles = 0u64;
    let mut first: Option<u64> = None;
    let t0 = Instant::now();
    while run.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        match checked_unit(w, seed, &backlog0, &mut control) {
            Ok(unit) => {
                let reference = *first.get_or_insert(unit.fingerprint);
                if unit.fingerprint != reference {
                    failures.push(format!(
                        "round {attempted}: fingerprint differs from round 1"
                    ));
                } else if twin.is_some_and(|t| t != unit.fingerprint) {
                    let twin = w.twin().expect("twin").name();
                    failures.push(format!("round {attempted}: result differs from {twin}"));
                }
                sim_cycles = unit.members.iter().map(|m| m.sim_cycles).sum();
                run.push(unit.members.iter().map(|m| m.run.nominal_s()).collect());
                setup.push(vec![unit.setup.nominal_s()]);
                run_wall.push(unit.members.iter().map(|m| m.run.work_s).collect());
                setup_wall.push(vec![unit.setup.work_s]);
            }
            Err(e) => failures.push(format!("round {attempted}: {e}")),
        }
        round_rates.push(median(&control.take_rates()));
        if failures.len() > 8 {
            break;
        }
    }
    let measured_s = t0.elapsed().as_secs_f64();

    attempted += 1;
    let rss = match spawn_rss_child(w, seed) {
        Ok((mib, fp)) => {
            if Some(fp) != first {
                failures.push("RSS child: fingerprint differs from round 1".into());
            }
            mib
        }
        Err(e) => {
            failures.push(e);
            f64::NAN
        }
    };
    if run.is_empty() || !rss.is_finite() {
        return Err(format!("nothing measured: {}", failures.join("; ")));
    }

    let golden_status = if seed != DEFAULT_SEED {
        "skipped (non-default seed)"
    } else {
        let want = golden()?
            .into_iter()
            .find(|(k, _)| k == w.name())
            .map(|(_, v)| v);
        if want == first.map(|f| Value::Str(format!("{f:016x}"))) {
            "match"
        } else {
            println!("sim_stats_changed {}", w.name());
            "changed"
        }
    };

    let rate = |t: f64| sim_cycles as f64 / t;
    let aa_rate = aa_delta(&run, rate);
    let aa_setup = aa_delta(&setup, |t| t);
    report.metric_of("sim_cycles_per_s", summarize(&run, rate), "1/s");
    report.metric_of("setup_s", summarize(&setup, |t| t), "s");
    report.metric("peak_rss_mib", rss, "MiB");
    let wall = summarize(&run_wall, rate);
    println!(
        "wall_sim_cycles_per_s {} {:?} 1/s median={:?} iqr={:?} n={}",
        w.name(),
        wall.fast,
        wall.median,
        wall.iqr,
        wall.n
    );
    println!("aa_delta sim_cycles_per_s {} {aa_rate:+.4}", w.name());
    println!("aa_delta setup_s {} {aa_setup:+.4}", w.name());
    let noise = host::host_noise(&round_rates);
    let failed = failures.len() as u64;
    report.note("fail_ratio", Value::F64(failed as f64 / attempted as f64));
    report.note(
        "failures",
        Value::Array(failures.into_iter().map(Value::Str).collect()),
    );
    report.note("golden", Value::Str(golden_status.into()));
    report.note(
        "aa_delta",
        obj([
            ("sim_cycles_per_s", Value::F64(aa_rate)),
            ("setup_s", Value::F64(aa_setup)),
        ]),
    );
    report.note("wall_sim_cycles_per_s", Value::F64(wall.fast));
    report.note("host", host_note(&noise));
    report.note(
        "run",
        obj([
            ("seed", Value::U64(seed)),
            ("seconds", Value::F64(args.seconds)),
            ("rounds", Value::U64(run.len() as u64)),
            ("sim_cycles_per_unit", Value::U64(sim_cycles)),
            ("measured_s", Value::F64(measured_s)),
            ("pre_pass_s", Value::F64((t0 - t_setup).as_secs_f64())),
            ("unit", Value::Str(sut::unit_description(w))),
        ]),
    );
    // Raw [round][member] seconds, so another estimator can be tried on
    // a finished run.
    let row = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::F64(x)).collect());
    let rows = |m: &[Vec<f64>]| Value::Array(m.iter().map(|r| row(r)).collect());
    report.note(
        "samples",
        obj([
            ("run_s", rows(&run)),
            ("setup_s", rows(&setup)),
            ("run_wall_s", rows(&run_wall)),
            ("setup_wall_s", rows(&setup_wall)),
            ("control_ops_per_s", row(&round_rates)),
        ]),
    );
    report.finish(attempted, failed);
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = host::parse_args(&argv, DEFAULT_SEED)?;
    host::check_build_parity()?;
    if args.regold {
        return regold();
    }
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    if args.rss_child {
        rss_child(w, args.seed)
    } else {
        measure(w, &args)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
