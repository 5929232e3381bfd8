//! Calls into the compression-side layers (`gen`, `geom`, `model`,
//! `core`, `eval`), timed from this benchmark's own code.
//!
//! The grid is the paper's protocol: every algorithm of Figs 7–11 and
//! the one-pass figure at the 15 `PAPER_THRESHOLDS`. [`sweep_pass`] runs
//! it through the public `sweep_algo` exactly as `repro` does;
//! [`layer_pass`] replays the same per-trajectory calls (`Algo::run`,
//! then `evaluate_sweep`) with a timer and a trace span around each, so
//! their busy times add up to the pass.

use std::hint::black_box;
use std::time::Instant;

use traj_compress::{
    evaluate_sweep, EvalWorkspace, OnePassCone, OnePassFit, OpeningWindow, TopDown, Workspace,
};
use traj_eval::{sweep_algo, Algo, AlgoSweep, PAPER_SPEED_THRESHOLDS, PAPER_THRESHOLDS};
use traj_gen::fleet::{Fleet, FleetConfig};
use traj_geom::soa::{perp_dists_into, sed_dists_into};
use traj_model::{MeanStd, TrajColumns, Trajectory};

use crate::metrics::{median, Metrics, COMPRESS_METRICS, GRID_CLI_NAMES};

/// One grid entry: the figure label's algorithm and its catalog name.
pub struct GridAlgo {
    /// Index into [`GRID_CLI_NAMES`].
    pub cli: usize,
    /// The registered experiment entry.
    pub algo: Algo,
}

/// The union of the algorithms of Figs 7–11 and the one-pass figure,
/// built exactly as `traj_eval::figures` builds them (each label once).
pub fn grid_algos() -> Vec<GridAlgo> {
    let cli = |name: &str| {
        GRID_CLI_NAMES
            .iter()
            .position(|n| *n == name)
            .expect("grid name in the catalogue")
    };
    let mut algos = vec![
        GridAlgo {
            cli: cli("ndp"),
            algo: Algo::top_down("NDP", TopDown::perpendicular(0.0)),
        },
        GridAlgo {
            cli: cli("td-tr"),
            algo: Algo::top_down("TD-TR", TopDown::time_ratio(0.0)),
        },
        GridAlgo {
            cli: cli("bopw"),
            algo: Algo::factory("BOPW", |e| Box::new(OpeningWindow::bopw(e))),
        },
        GridAlgo {
            cli: cli("nopw"),
            algo: Algo::factory("NOPW", |e| Box::new(OpeningWindow::nopw(e))),
        },
        GridAlgo {
            cli: cli("opw-tr"),
            algo: Algo::factory("OPW-TR", |e| Box::new(OpeningWindow::opw_tr(e))),
        },
        GridAlgo {
            cli: cli("td-sp"),
            algo: Algo::top_down("TD-SP(5m/s)", TopDown::time_ratio_speed(0.0, 5.0)),
        },
    ];
    for v in PAPER_SPEED_THRESHOLDS {
        algos.push(GridAlgo {
            cli: cli("opw-sp"),
            algo: Algo::factory(format!("OPW-SP({v}m/s)"), move |e| {
                Box::new(OpeningWindow::opw_sp(e, v))
            }),
        });
    }
    algos.push(GridAlgo {
        cli: cli("op-fit"),
        algo: Algo::factory("OP-FIT", |e| Box::new(OnePassFit::new(e))),
    });
    algos.push(GridAlgo {
        cli: cli("op-cone"),
        algo: Algo::factory("OP-CONE", |e| Box::new(OnePassCone::new(e))),
    });
    algos
}

/// Fixes in a dataset.
pub fn fix_count(ds: &[Trajectory]) -> usize {
    ds.iter().map(Trajectory::len).sum()
}

/// One grid pass through the public sweep API.
pub fn sweep_pass(algos: &[GridAlgo], ds: &[Trajectory]) -> Vec<AlgoSweep> {
    algos
        .iter()
        .map(|g| sweep_algo(&g.algo, ds, &PAPER_THRESHOLDS))
        .collect()
}

/// The per-cell `(compression_pct, error_m)` of a sweep pass, in
/// (algorithm, threshold) order.
pub fn cells_of(sweeps: &[AlgoSweep]) -> Vec<(f64, f64)> {
    sweeps
        .iter()
        .flat_map(|s| s.points.iter().map(|p| (p.compression_pct, p.error_m)))
        .collect()
}

/// Whether two cell lists are bit-identical; returns the number of
/// differing cells.
pub fn differing_cells(a: &[(f64, f64)], b: &[(f64, f64)]) -> u64 {
    if a.len() != b.len() {
        return a.len().max(b.len()) as u64;
    }
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.0.to_bits() != y.0.to_bits() || x.1.to_bits() != y.1.to_bits())
        .count() as u64
}

/// FNV-1a over the bits of every cell: equal digests for equal grids.
pub fn digest(cells: &[(f64, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (c, e) in cells {
        for b in c
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(e.to_bits().to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Busy times of one instrumented grid pass.
#[derive(Debug, Default)]
pub struct LayerPass {
    /// Wall time of the whole pass, seconds.
    pub wall_s: f64,
    /// `Algo::run` busy time per [`GRID_CLI_NAMES`] entry, seconds.
    pub run_s: [f64; GRID_CLI_NAMES.len()],
    /// `evaluate_sweep` busy time, seconds.
    pub eval_s: f64,
    /// Points kept over all cells.
    pub kept_points: u64,
    /// Per-cell `(compression_pct, error_m)`, aggregated as
    /// `sweep_algo` aggregates (so comparable bit for bit).
    pub cells: Vec<(f64, f64)>,
}

impl LayerPass {
    /// Seconds of the pass spent inside timed layer calls.
    pub fn busy_s(&self) -> f64 {
        self.run_s.iter().sum::<f64>() + self.eval_s
    }
}

/// One grid pass with every `Algo::run` and `evaluate_sweep` call timed
/// and wrapped in a trace span (payload: the algorithm's grid index).
pub fn layer_pass(algos: &[GridAlgo], ds: &[Trajectory]) -> LayerPass {
    let nt = PAPER_THRESHOLDS.len();
    let mut out = LayerPass::default();
    let pass = Instant::now();
    for (ai, g) in algos.iter().enumerate() {
        let mut ws = Workspace::new();
        let mut ews = EvalWorkspace::new();
        let mut comps = vec![Vec::with_capacity(ds.len()); nt];
        let mut errs = vec![Vec::with_capacity(ds.len()); nt];
        for traj in ds {
            let t0 = Instant::now();
            let results = {
                let _span = traj_obs::trace_span!("core.Algo::run", ai);
                g.algo.run(traj, &PAPER_THRESHOLDS, &mut ws)
            };
            let t1 = Instant::now();
            let evals = {
                let _span = traj_obs::trace_span!("eval.evaluate_sweep", ai);
                evaluate_sweep(traj, &results, &mut ews)
            };
            let t2 = Instant::now();
            out.run_s[g.cli] += (t1 - t0).as_secs_f64();
            out.eval_s += (t2 - t1).as_secs_f64();
            out.kept_points += results.iter().map(|r| r.kept_len() as u64).sum::<u64>();
            for (j, e) in evals.iter().enumerate() {
                comps[j].push(e.compression_pct);
                errs[j].push(e.avg_sync_err_m);
            }
        }
        for j in 0..nt {
            out.cells
                .push((MeanStd::of(&comps[j]).mean, MeanStd::of(&errs[j]).mean));
        }
    }
    out.wall_s = pass.elapsed().as_secs_f64();
    out
}

/// Sets the `core.compress_s.*`, `core.kept_points` and
/// `eval.evaluate_sweep_s` medians of instrumented passes.
pub fn set_compress_metrics(m: &mut Metrics, passes: &[LayerPass]) {
    let med = |f: &dyn Fn(&LayerPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    for (i, name) in COMPRESS_METRICS.into_iter().enumerate() {
        m.set(name, med(&|p| p.run_s[i]));
    }
    m.set("core.kept_points", med(&|p| p.kept_points as f64));
    m.set("eval.evaluate_sweep_s", med(&|p| p.eval_s));
}

/// Mean over cells of the error column (α, metres).
pub fn mean_alpha(cells: &[(f64, f64)]) -> f64 {
    cells.iter().map(|c| c.1).sum::<f64>() / cells.len().max(1) as f64
}

/// Mean over cells of the compression column (percent removed).
pub fn mean_compression(cells: &[(f64, f64)]) -> f64 {
    cells.iter().map(|c| c.0).sum::<f64>() / cells.len().max(1) as f64
}

/// Per-fix costs of the `geom` distance kernels and the `model` column
/// bind, nanoseconds (medians over repetitions).
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    /// `sed_dists_into` over each whole trajectory against its chord.
    pub sed_ns: f64,
    /// `perp_dists_into`, likewise.
    pub perp_ns: f64,
    /// `TrajColumns::bind` (a rebuild per trajectory).
    pub columns_ns: f64,
}

/// Times the `geom`/`model` kernels over `ds` for at least `min_s`
/// seconds (and at least three repetitions).
pub fn kernel_costs(ds: &[Trajectory], min_s: f64) -> KernelCosts {
    let _span = traj_obs::trace_span!("probe.kernels");
    let fixes = fix_count(ds) as f64;
    let mut out = vec![0.0; ds.iter().map(Trajectory::len).max().unwrap_or(0)];
    let mut cols = TrajColumns::new();
    let (mut sed, mut perp, mut bind) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while sed.len() < 3 || start.elapsed().as_secs_f64() < min_s {
        let (mut s_ns, mut p_ns, mut b_ns) = (0u128, 0u128, 0u128);
        for traj in ds {
            let t0 = Instant::now();
            black_box(cols.bind(black_box(traj)));
            let t1 = Instant::now();
            let n = cols.len();
            if n >= 3 {
                let dst = &mut out[..n - 2];
                sed_dists_into(cols.view(), 0, n - 1, 1, dst);
                black_box(&dst);
                let t2 = Instant::now();
                perp_dists_into(cols.view(), 0, n - 1, 1, dst);
                black_box(&dst);
                let t3 = Instant::now();
                s_ns += (t2 - t1).as_nanos();
                p_ns += (t3 - t2).as_nanos();
            }
            b_ns += (t1 - t0).as_nanos();
        }
        sed.push(s_ns as f64 / fixes);
        perp.push(p_ns as f64 / fixes);
        bind.push(b_ns as f64 / fixes);
    }
    KernelCosts {
        sed_ns: median(&sed),
        perp_ns: median(&perp),
        columns_ns: median(&bind),
    }
}

/// Nanoseconds per `Fleet::fix_for` call over `n` round-robin calls
/// (median of three).
pub fn fix_for_ns(cfg: FleetConfig, n: u64) -> f64 {
    let _span = traj_obs::trace_span!("probe.fix_for");
    let fleet = Fleet::new(cfg);
    let movers = fleet.movers();
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for i in 0..n {
                black_box(fleet.fix_for(black_box(i % movers), i / movers));
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&reps)
}
