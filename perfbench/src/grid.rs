//! `paper_grid`: the paper's protocol at scale, in one process on one
//! thread.
//!
//! Input: `grid_seeds` concatenated `paper_dataset` seeds (≈500
//! trajectories, ≈90k fixes at full size). Set-up is generating it.
//! Each timed pass compresses every trajectory with every algorithm of
//! Figs 7–11 and the one-pass figure at the 15 paper thresholds and
//! evaluates α, through the public `sweep_algo`.

use std::time::Instant;

use traj_eval::{check_expectations, fig10, fig11, fig7, fig8, fig9, PAPER_THRESHOLDS};
use traj_gen::fleet::FleetConfig;
use traj_gen::paper_dataset;
use traj_model::Trajectory;
use traj_serve::CodecSpec;

use crate::ingest::{self, IngestSpec};
use crate::layers::{
    cells_of, differing_cells, digest, fix_count, fix_for_ns, grid_algos, kernel_costs, layer_pass,
    mean_alpha, mean_compression, set_compress_metrics, sweep_pass,
};
use crate::metrics::{median, Checks};
use crate::{tracing, Outcome, Run};

/// Distance between consecutive concatenated dataset seeds.
const SEED_STRIDE: u64 = 1_000_003;

/// The grid's input: `paper_dataset(seed + i·stride)` for `i < n`. The
/// first part is the seed's own paper dataset.
pub fn dataset(seed: u64, n: u64) -> Vec<Trajectory> {
    let _span = traj_obs::trace_span!("gen.paper_dataset");
    (0..n)
        .flat_map(|i| paper_dataset(seed.wrapping_add(i.wrapping_mul(SEED_STRIDE))))
        .collect()
}

/// The paper's qualitative claims hold on the seed's own dataset.
fn check_figures(seed: u64, checks: &mut Checks) {
    let ds = paper_dataset(seed);
    let violations =
        check_expectations(&fig7(&ds), &fig8(&ds), &fig9(&ds), &fig10(&ds), &fig11(&ds));
    checks.expect(violations.is_empty(), || {
        format!("paper expectations: {violations:?}")
    });
}

/// Counts cells that are not a valid (compression %, α) pair.
fn check_cells(cells: &[(f64, f64)], checks: &mut Checks) {
    let bad = cells
        .iter()
        .filter(|(c, e)| !((0.0..=100.0).contains(c) && e.is_finite() && *e >= 0.0))
        .count() as u64;
    checks.units(cells.len() as u64, bad, || {
        format!("{bad} grid cells out of range")
    });
}

/// Runs the workload.
///
/// # Errors
/// Failures of the traced run's service probe.
pub fn run(r: &Run, o: &mut Outcome) -> Result<(), String> {
    let s = r.sizes;
    let mut setup = Vec::with_capacity(s.setup_reps);
    let mut ds = Vec::new();
    for _ in 0..s.setup_reps {
        let t = Instant::now();
        ds = dataset(r.seed, s.grid_seeds);
        setup.push(t.elapsed().as_secs_f64());
    }
    let algos = grid_algos();
    let units = (fix_count(&ds) * PAPER_THRESHOLDS.len() * algos.len()) as f64;
    o.info.push(("trajectories", ds.len().to_string()));
    o.info.push(("fixes", fix_count(&ds).to_string()));
    o.info.push(("algorithms", algos.len().to_string()));

    check_figures(r.seed, &mut o.checks);
    // Untimed first pass: warms caches and is the reference every later
    // pass must reproduce bit for bit.
    let reference = cells_of(&sweep_pass(&algos, &ds));
    check_cells(&reference, &mut o.checks);
    o.info
        .push(("grid_digest", format!("\"{:016x}\"", digest(&reference))));

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while plain.len() < s.min_reps || start.elapsed().as_secs_f64() < r.seconds {
        let t = Instant::now();
        let sweeps = sweep_pass(&algos, &ds);
        plain.push(units / t.elapsed().as_secs_f64());
        let cells = cells_of(&sweeps);
        let bad = differing_cells(&reference, &cells);
        o.checks.units(cells.len() as u64, bad, || {
            format!("{bad} cells differ from the first pass")
        });
        if r.trace {
            let (lp, t) = tracing::capture(|| layer_pass(&algos, &ds));
            if o.traces.is_empty() {
                o.traces.push(t);
            }
            let bad = differing_cells(&reference, &lp.cells);
            o.checks.units(lp.cells.len() as u64, bad, || {
                format!("{bad} traced cells differ from sweep_algo")
            });
            traced.push(lp);
        }
    }
    o.info.push(("pass_fixes_per_s", format!("{plain:?}")));

    let m = &mut o.metrics;
    if !r.trace {
        m.set("fixes_per_s", median(&plain));
        m.set("setup_s", median(&setup));
        m.set("kept_pct", 100.0 - mean_compression(&reference));
        return Ok(());
    }

    m.set("gen.dataset_s", median(&setup));
    set_compress_metrics(m, &traced);
    m.set("eval.alpha_m", mean_alpha(&reference));
    let traced_fps: Vec<f64> = traced.iter().map(|p| units / p.wall_s).collect();
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (1.0 - median(&traced_fps) / median(&plain)),
    );
    m.set(
        "obs.unattributed_pct",
        median(
            &traced
                .iter()
                .map(|p| 100.0 * (p.wall_s - p.busy_s()) / p.wall_s)
                .collect::<Vec<_>>(),
        ),
    );
    let k = kernel_costs(&ds, s.kernel_s);
    m.set("geom.sed_scan_ns_per_fix", k.sed_ns);
    m.set("geom.perp_scan_ns_per_fix", k.perp_ns);
    m.set("model.columns_ns_per_fix", k.columns_ns);
    let (movers, _, _) = s.cone;
    m.set(
        "gen.fix_ns",
        fix_for_ns(
            FleetConfig {
                movers,
                seed: r.seed,
                report_dt: 10.0,
            },
            s.fix_for_calls,
        ),
    );

    // Service probe: the grid's own fixes through closed-loop durable
    // ingest (op-cone sessions at 30 m), so every serve/store metric is
    // measured on this workload's input too.
    let items = ingest::dataset_items(&ds);
    let warm = items.len() / 5;
    let spec = IngestSpec {
        codec: CodecSpec::default_with(30.0),
        items,
        warm,
    };
    let session_bytes = ingest::session_bytes(&spec);
    let dir = r.store_dir();
    let (mut untimed, mut timed) = (Vec::new(), Vec::new());
    for _ in 0..s.probe_trials {
        untimed.push(ingest::trial(&spec, &dir, false, &mut o.checks)?);
        timed.push(ingest::trial(&spec, &dir, true, &mut o.checks)?);
    }
    let replay = ingest::replay(&spec, spec.timed(), &dir)?;
    // The grid's own pass set `obs.unattributed_pct`; the probe's
    // residual share is not this workload's.
    ingest::layer_metrics(&untimed, &timed, &replay, session_bytes, &mut o.metrics);
    Ok(())
}
