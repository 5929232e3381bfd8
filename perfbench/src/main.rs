//! `trajc-perfbench`: one command that runs a named workload, checks its
//! outputs and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid|fleet_cone|fleet_raw [--seed N] [--seconds S]
//!     [--trace 0|1] [--smoke] [--out DIR]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --list
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the same workload with a trace session and timers
//! around every layer call and reports the per-layer metrics. The last
//! line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! is the environment record. See `perfbench/README.md`.

mod env;
mod fleet;
mod grid;
mod ingest;
mod layers;
mod metrics;
mod tracing;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{catalogue, json_str, Checks, Metrics, END_TO_END, PER_LAYER};

/// The documented default seed.
pub const DEFAULT_SEED: u64 = 42;
/// The hold-out seed: never used while tuning, for re-checking claims.
pub const HOLDOUT_SEED: u64 = 20_260_417;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper_grid", "fleet_cone", "fleet_raw"];

/// Input sizes and repetition floors.
pub struct Sizes {
    /// `paper_dataset` seeds concatenated into the grid's input.
    pub grid_seeds: u64,
    /// Set-up repetitions per run (the median is reported).
    pub setup_reps: usize,
    /// Fewest timed grid passes / ingest trials per run.
    pub min_reps: usize,
    /// `fleet_cone`: movers, fixes per mover, warm-up rounds.
    pub cone: (u64, u64, u64),
    /// `fleet_raw`: movers, fixes per mover, warm-up rounds.
    pub raw: (u64, u64, u64),
    /// Ingest trials of the grid's service probe, per mode.
    pub probe_trials: usize,
    /// Fixes of the fleet workloads' compression-side probe.
    pub probe_fixes: u64,
    /// Seconds of `geom`/`model` kernel timing.
    pub kernel_s: f64,
    /// `Fleet::fix_for` calls timed.
    pub fix_for_calls: u64,
}

const FULL: Sizes = Sizes {
    grid_seeds: 50,
    setup_reps: 3,
    min_reps: 3,
    cone: (100_000, 20, 4),
    raw: (10_000, 100, 30),
    probe_trials: 3,
    probe_fixes: 40_000,
    kernel_s: 0.3,
    fix_for_calls: 2_000_000,
};

/// `--smoke`: every phase once, on small inputs.
const SMOKE: Sizes = Sizes {
    grid_seeds: 1,
    setup_reps: 1,
    min_reps: 1,
    cone: (2_000, 20, 4),
    raw: (500, 40, 10),
    probe_trials: 1,
    probe_fixes: 2_000,
    kernel_s: 0.0,
    fix_for_calls: 10_000,
};

/// One invocation's settings.
pub struct Run {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: &'static Sizes,
    /// Output directory (results, traces, scratch stores).
    pub out: PathBuf,
}

impl Run {
    /// A file in the output directory named after this run.
    pub fn out_file(&self, kind: &str, ext: &str) -> PathBuf {
        self.out
            .join(format!("{kind}-{}-seed{}.{ext}", self.workload, self.seed))
    }

    /// A scratch store directory private to this process.
    pub fn store_dir(&self) -> PathBuf {
        self.out
            .join(format!("store-{}-{}", self.workload, std::process::id()))
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Metric values.
    pub metrics: Metrics,
    /// Correctness tally.
    pub checks: Checks,
    /// Extra facts for the result record (`key`, JSON value).
    pub info: Vec<(&'static str, String)>,
    /// Trace parts to export (traced runs).
    pub traces: Vec<traj_obs::trace::Trace>,
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    list: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: trajc-perfbench --workload paper_grid|fleet_cone|fleet_raw \
     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR] | --list";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        list: false,
        out: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                a.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|n| *n == w)
                        .ok_or_else(|| format!("unknown workload {w:?}\n{USAGE}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            "--list" => a.list = true,
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn list() {
    println!("# workloads: {}", WORKLOADS.join(" "));
    println!("# default seed {DEFAULT_SEED}, hold-out seed {HOLDOUT_SEED}");
    for (name, unit) in END_TO_END {
        println!("end_to_end {name} {unit}");
    }
    for (name, unit) in PER_LAYER {
        println!("per_layer {name} {unit}");
    }
}

fn write_record(
    path: &Path,
    env: &str,
    result: &str,
    info: &[(&'static str, String)],
) -> Result<(), String> {
    let info: Vec<String> = info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let record = format!(
        "{{\"env\": {env}, \"info\": {{{}}}, \"result\": {result}}}\n",
        info.join(", ")
    );
    std::fs::write(path, record).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.list {
        list();
        return Ok(());
    }
    let workload = args
        .workload
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let run = Run {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: if args.smoke { &SMOKE } else { &FULL },
        out: args.out,
    };
    std::fs::create_dir_all(&run.out).map_err(|e| format!("{}: {e}", run.out.display()))?;
    let env = env::record(workload, run.seed, run.trace, &run.out);
    eprintln!(
        "perfbench: {workload} seed {} trace {} env {env}",
        run.seed,
        u8::from(run.trace)
    );

    let mut o = Outcome::default();
    match workload {
        "paper_grid" => grid::run(&run, &mut o)?,
        "fleet_cone" => fleet::run(&run, &mut o, false)?,
        _ => fleet::run(&run, &mut o, true)?,
    }
    if !run.trace {
        o.metrics.set(
            "peak_rss_mb",
            env::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    if !o.traces.is_empty() {
        let t = traj_obs::trace::Trace::merge(std::mem::take(&mut o.traces));
        let table = tracing::export(
            &t,
            &run.out_file("trace", "json"),
            &run.out_file("layers", "txt"),
        )?;
        eprint!("{table}");
    }
    for note in &o.checks.notes {
        eprintln!("perfbench: CHECK FAILED: {note}");
    }
    let metrics = o.metrics.to_json(catalogue(run.trace))?;
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.checks.failed == 0,
        o.checks.attempted,
        o.checks.failed
    );
    o.info.push(("smoke", args.smoke.to_string()));
    o.info.push(("seconds", format!("{:?}", run.seconds)));
    o.info.push((
        "notes",
        format!(
            "[{}]",
            o.checks
                .notes
                .iter()
                .map(|n| json_str(n))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    write_record(
        &run.out_file(if run.trace { "result-trace" } else { "result" }, "json"),
        &env,
        &result,
        &o.info,
    )?;
    println!("{env}");
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
