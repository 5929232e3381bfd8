//! `fleet_cone` and `fleet_raw`: closed-loop durable fleet ingest
//! through `traj_serve::Service`, one shard, group commit.
//!
//! * `fleet_cone` — 100k movers × 20 fixes, op-cone sessions at 30 m:
//!   the codec absorbs most fixes, so the `serve` path (submit lock,
//!   session map, codec push, per-fix bookkeeping) dominates, over a
//!   working set of 100k sessions.
//! * `fleet_raw` — 10k movers × 100 fixes, raw sessions: every fix is a
//!   WAL record and a store insert, and the restart replays them all, so
//!   the `store` layer dominates both ways.
//!
//! The fixes are generated in set-up (`Fleet::fix_for`), so the driver
//! only submits.

use std::time::Instant;

use traj_gen::fleet::FleetConfig;
use traj_model::Trajectory;
use traj_serve::CodecSpec;

use crate::ingest::{self, IngestSpec, Trial};
use crate::layers::{
    fix_for_ns, grid_algos, kernel_costs, layer_pass, mean_alpha, set_compress_metrics,
};
use crate::metrics::median;
use crate::{tracing, Outcome, Run};

/// The first `sample` movers' whole trajectories, from round-robin
/// `items` of `movers` movers × `per_mover` fixes.
fn mover_trajectories(
    spec: &IngestSpec,
    movers: u64,
    per_mover: u64,
    sample: u64,
) -> Vec<Trajectory> {
    (0..sample.min(movers))
        .map(|m| {
            let fixes = (0..per_mover)
                .map(|k| spec.items[(k * movers + m) as usize].1)
                .collect();
            Trajectory::new(fixes).expect("fleet fixes are strictly increasing in time")
        })
        .collect()
}

/// Runs `fleet_raw` (`raw`) or `fleet_cone`.
///
/// # Errors
/// Service, store or I/O failures.
pub fn run(r: &Run, o: &mut Outcome, raw: bool) -> Result<(), String> {
    let s = r.sizes;
    let ((movers, per_mover, warm_rounds), codec) = if raw {
        (s.raw, CodecSpec::Raw)
    } else {
        (s.cone, CodecSpec::default_with(30.0))
    };
    let cfg = FleetConfig {
        movers,
        seed: r.seed,
        report_dt: 10.0,
    };
    let t = Instant::now();
    let items = ingest::fleet_items(cfg, per_mover);
    let gen_s = t.elapsed().as_secs_f64();
    let spec = IngestSpec {
        codec,
        items,
        warm: (warm_rounds * movers) as usize,
    };
    o.info.push(("movers", movers.to_string()));
    o.info.push(("fixes", spec.items.len().to_string()));
    o.info.push(("warm_fixes", spec.warm.to_string()));
    let session_bytes = if r.trace {
        ingest::session_bytes(&spec)
    } else {
        0.0
    };

    let dir = r.store_dir();
    let mut plain: Vec<Trial> = Vec::new();
    let mut traced: Vec<Trial> = Vec::new();
    let start = Instant::now();
    while plain.len() < s.min_reps || start.elapsed().as_secs_f64() < r.seconds {
        plain.push(ingest::trial(&spec, &dir, false, &mut o.checks)?);
        if r.trace {
            let (trial, t) = tracing::capture(|| ingest::trial(&spec, &dir, true, &mut o.checks));
            if o.traces.is_empty() {
                o.traces.push(t);
            }
            traced.push(trial?);
        }
    }
    o.info.push((
        "trial_fixes_per_s",
        format!(
            "{:?}",
            plain.iter().map(|t| t.fixes_per_s).collect::<Vec<_>>()
        ),
    ));
    o.info.push((
        "trial_setup_s",
        format!("{:?}", plain.iter().map(|t| t.setup_s).collect::<Vec<_>>()),
    ));
    let summary = ingest::summarize(&plain);

    let m = &mut o.metrics;
    if !r.trace {
        m.set("fixes_per_s", summary.fixes_per_s);
        m.set("setup_s", summary.setup_s);
        m.set("kept_pct", summary.kept_pct);
        return Ok(());
    }

    let (replay, t) = tracing::capture(|| ingest::replay(&spec, spec.timed(), &dir));
    o.traces.push(t);
    let replay = replay?;
    let residual_pct = ingest::layer_metrics(&plain, &traced, &replay, session_bytes, m);
    m.set("obs.unattributed_pct", residual_pct);
    let traced_fps = median(&traced.iter().map(|t| t.fixes_per_s).collect::<Vec<_>>());
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (1.0 - traced_fps / summary.fixes_per_s),
    );
    m.set("gen.dataset_s", gen_s);
    m.set("gen.fix_ns", fix_for_ns(cfg, s.fix_for_calls));

    // Compression-side probe over this workload's own movers: the grid
    // algorithms and the geom/model kernels on whole mover trajectories.
    let trajs = mover_trajectories(&spec, movers, per_mover, s.probe_fixes / per_mover);
    let algos = grid_algos();
    let (pass, t) = tracing::capture(|| layer_pass(&algos, &trajs));
    o.traces.push(t);
    set_compress_metrics(m, std::slice::from_ref(&pass));
    // The service's compressor is the session codec: its kept points.
    m.set("core.kept_points", summary.emitted);
    m.set("eval.alpha_m", mean_alpha(&pass.cells));
    let k = kernel_costs(&trajs, s.kernel_s);
    m.set("geom.sed_scan_ns_per_fix", k.sed_ns);
    m.set("geom.perp_scan_ns_per_fix", k.perp_ns);
    m.set("model.columns_ns_per_fix", k.columns_ns);
    Ok(())
}
