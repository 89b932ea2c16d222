//! Host-side plumbing: the control kernel, peak RSS, the build-parity
//! guard and the command line.

use crate::stats;
use std::time::Instant;

/// Element operations per control slice.
const SLICE_OPS: u64 = 1 << 17;

/// Control slices on each side of a section that runs for seconds.
pub const LONG_SECTION_SLICES: usize = 8;

/// Spawn/join pairs in one [`Shape::Epochs`] slice.
const SLICE_EPOCHS: u64 = 16;

/// How a measured section uses the host; its control runs in that shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One thread, or threads that only meet when the section ends (the
    /// sweep): what slows it is what slows one busy core.
    Serial,
    /// Two threads that are spawned and joined every few tens of
    /// microseconds, as the fabric's epoch-batched executor does: a stolen
    /// or late core stalls every barrier, far beyond its share of time.
    Epochs,
}

impl Shape {
    /// Control operations per lane in one *nominal* host second.  The
    /// quiet sandbox runs the control at about these rates next to the
    /// workloads (an epoch slice mostly waits for its 16 spawns and
    /// joins), so nominal and wall seconds roughly agree there; on any
    /// host a constant only scales every normalized number of a workload
    /// by the same factor.
    pub fn nominal_ops_per_s(self) -> f64 {
        match self {
            Shape::Serial => 80e6,
            Shape::Epochs => 25e6,
        }
    }
}

/// The same-run control: a fixed kernel that lives here, shares no code
/// with the simulator, and is timed right before and right after every
/// measured section.
///
/// The shared host slows in phases of seconds to minutes (a busy sibling
/// thread, a noisy neighbour), by 10 to 40 %, and no estimator inside a
/// ten-second run can undo a phase that outlasts the run.  Dividing each
/// section's time by that of the slices bracketing it cancels the phase.
/// That only works if the kernel suffers from contention the way the
/// simulator does, so it mimics the router step's mix: a scan with random
/// reads and writes over a table beyond L1, data-dependent branches, float
/// priority arithmetic, and a top-4 partial sort per 16 entries.
pub struct Control {
    lanes: [Lane; 2],
    /// Rate of every serial slice since the last [`Control::take_rates`].
    rates: Vec<f64>,
}

struct Lane {
    table: Vec<f64>,
    rng: u64,
}

impl Default for Control {
    fn default() -> Self {
        let lane = |k: u64| Lane {
            table: vec![1.0; 1 << 16],
            rng: 0x9E37_79B9_7F4A_7C15 ^ k,
        };
        Control {
            lanes: [lane(0), lane(1)],
            rates: Vec::new(),
        }
    }
}

impl Lane {
    fn run(&mut self, ops: u64) {
        let mask = self.table.len() - 1;
        let mut x = self.rng;
        let mut acc = 0usize;
        let mut scratch = [(0u64, 0usize); 16];
        for _ in 0..ops / 16 {
            for s in scratch.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x >> 7) as usize & mask;
                let v = self.table[i];
                let p = if v > 0.5 {
                    v * 1.0001 + (x & 7) as f64
                } else {
                    v / 3.0 + 1.0
                };
                self.table[i] = if p > 1e6 { 1.0 } else { p };
                *s = (p.to_bits(), i);
            }
            scratch.select_nth_unstable_by(3, |a, b| b.0.cmp(&a.0));
            scratch[..4].sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
            acc = acc.wrapping_add(scratch[0].1);
        }
        self.rng = x;
        std::hint::black_box(acc);
    }
}

impl Control {
    /// Run one slice of `SLICE_OPS` operations per lane in `shape`;
    /// returns its host seconds.
    fn slice(&mut self, shape: Shape) -> f64 {
        let [first, second] = &mut self.lanes;
        let t0 = Instant::now();
        match shape {
            Shape::Serial => first.run(SLICE_OPS),
            Shape::Epochs => {
                for _ in 0..SLICE_EPOCHS {
                    std::thread::scope(|s| {
                        s.spawn(|| second.run(SLICE_OPS / SLICE_EPOCHS));
                        first.run(SLICE_OPS / SLICE_EPOCHS);
                    });
                }
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        if shape == Shape::Serial {
            self.rates.push(SLICE_OPS as f64 / dt);
        }
        dt
    }

    /// Operations per second of each serial slice run since the last call.
    pub fn take_rates(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.rates)
    }

    /// Time `work` between two control slices of its shape.
    pub fn bracket<T>(&mut self, shape: Shape, work: impl FnOnce() -> T) -> (T, Bracketed) {
        self.bracket_with(shape, 1, work)
    }

    /// Time `work` between `slices` control slices on each side.  A run
    /// has hundreds of short sections, whose slice noise averages out, but
    /// only a handful of sections that take seconds; those pass
    /// [`LONG_SECTION_SLICES`].
    pub fn bracket_with<T>(
        &mut self,
        shape: Shape,
        slices: usize,
        work: impl FnOnce() -> T,
    ) -> (T, Bracketed) {
        let mut control: Vec<f64> = (0..slices).map(|_| self.slice(shape)).collect();
        let t0 = Instant::now();
        let out = work();
        let work_s = t0.elapsed().as_secs_f64();
        control.extend((0..slices).map(|_| self.slice(shape)));
        let bracketed = Bracketed {
            work_s,
            control_s: stats::median(&control),
            shape,
        };
        (out, bracketed)
    }
}

/// Host seconds of a section and of the control slices around it.
#[derive(Debug, Clone, Copy)]
pub struct Bracketed {
    pub work_s: f64,
    /// Median of the slices before and after.
    pub control_s: f64,
    pub shape: Shape,
}

impl Bracketed {
    /// `work_s` in nominal seconds: wall time scaled by how fast the
    /// control ran next to it.
    pub fn nominal_s(&self) -> f64 {
        let control_ops_per_s = SLICE_OPS as f64 / self.control_s;
        self.work_s * control_ops_per_s / self.shape.nominal_ops_per_s()
    }
}

/// Control-kernel view of a run, from each round's median control rate:
/// median, min and max over rounds, and the rounds that ran more than 10 %
/// under the run's best.
pub struct HostNoise {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub noisy_rounds: usize,
}

pub fn host_noise(round_rates: &[f64]) -> HostNoise {
    let max = round_rates.iter().copied().fold(f64::MIN, f64::max);
    HostNoise {
        median: stats::median(round_rates),
        min: round_rates.iter().copied().fold(f64::MAX, f64::min),
        max,
        noisy_rounds: round_rates.iter().filter(|&&c| c < 0.9 * max).count(),
    }
}

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn vm_hwm_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The `[profile.release]` table of a manifest: its `key = value` lines,
/// comments and blanks dropped, sorted.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

/// Refuse to measure a build that is not the build users get: the nested
/// workspace does not inherit the root's `[profile.release]`, so the copy
/// in `benchmark/Cargo.toml` must match it.  Paths are relative to the
/// repository root, where `run.sh` starts the binaries.
pub fn check_build_parity() -> Result<(), String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let root = release_profile(&read("Cargo.toml")?);
    let own = release_profile(&read("benchmark/Cargo.toml")?);
    if root == own {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: root Cargo.toml has {root:?}, benchmark/Cargo.toml has \
             {own:?}; copy the root table into benchmark/Cargo.toml"
        ))
    }
}

/// Command line shared by both binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// Rewrite `golden.json` instead of measuring (`bench` only).
    pub regold: bool,
    /// Run one unit and print `VmHWM` (internal: the RSS child).
    pub rss_child: bool,
}

pub fn parse_args(args: &[String], default_seed: u64) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: default_seed,
        seconds: 10.0,
        regold: false,
        rss_child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
            }
            // `run.sh` picks the binary from --trace; nothing left to do.
            "--trace" => {
                value()?;
            }
            "--regold" => out.regold = true,
            "--rss-child" => out.rss_child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_ignores_comments_order_and_spacing() {
        let root = "[workspace]\nmembers = []\n\n[profile.release]\ncodegen-units = 1\nlto = \"thin\"\n\n[profile.bench]\ndebug = 1\n";
        let own = "[profile.release]\n# copied\nlto   =  \"thin\"  # same\ncodegen-units = 1\n";
        assert_eq!(release_profile(root), release_profile(own));
        assert_eq!(release_profile(root).len(), 2);
        let drifted = "[profile.release]\ncodegen-units = 16\nlto = \"thin\"\n";
        assert_ne!(release_profile(root), release_profile(drifted));
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn args_parse_the_driver_command_line() {
        let argv: Vec<String> = "--workload cbr4_sat --seed 7 --seconds 3 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv, 1).unwrap();
        assert_eq!(a.workload.as_deref(), Some("cbr4_sat"));
        assert_eq!((a.seed, a.seconds), (7, 3.0));
        assert!(parse_args(&["--seed".into()], 1).is_err());
        assert!(parse_args(&["--bogus".into()], 1).is_err());
        assert_eq!(parse_args(&[], 5).unwrap().seed, 5);
    }

    #[test]
    fn noisy_rounds_are_those_ten_percent_under_the_best() {
        let n = host_noise(&[100.0, 95.0, 89.0, 50.0]);
        assert_eq!((n.min, n.max, n.noisy_rounds), (50.0, 100.0, 2));
    }

    #[test]
    fn nominal_seconds_scale_with_the_control() {
        for shape in [Shape::Serial, Shape::Epochs] {
            let section = |work_s: f64, control_s: f64| Bracketed {
                work_s,
                control_s,
                shape,
            };
            // A control slice at exactly the nominal rate leaves time as is.
            let at_nominal = SLICE_OPS as f64 / shape.nominal_ops_per_s();
            assert!((section(2.0, at_nominal).nominal_s() - 2.0).abs() < 1e-12);
            // Host at half speed: the control takes twice as long, and so
            // did the work, so the work counts half.
            assert!((section(2.0, 2.0 * at_nominal).nominal_s() - 1.0).abs() < 1e-12);
        }
        let (out, b) = Control::default().bracket(Shape::Epochs, || 7);
        assert_eq!(out, 7);
        assert!(b.control_s > 0.0 && b.work_s >= 0.0 && b.nominal_s() >= 0.0);
        let mut c = Control::default();
        c.bracket(Shape::Serial, || ());
        assert_eq!(c.take_rates().len(), 2, "one slice before, one after");
        assert!(c.take_rates().is_empty());
    }
}
