//! Cross-crate integration tests over the umbrella API: generate →
//! compress → evaluate → store → query, the full pipeline a downstream
//! user runs.

use trajc::compress::error::{average_synchronous_error, sed_at_samples};
use trajc::compress::{evaluate, Compressor, DouglasPeucker, OpeningWindow, TdSp, TdTr};
use trajc::geom::Point2;
use trajc::model::stats::TrajectoryStats;
use trajc::model::{io, Timestamp};
use trajc::store::{position_of, GridIndex, IngestMode, MovingObjectStore, QueryWindow};

#[test]
fn generate_compress_evaluate_every_algorithm() {
    let dataset = trajc::gen::paper_dataset(42);
    let algorithms: Vec<Box<dyn Compressor>> = vec![
        Box::new(DouglasPeucker::new(30.0)),
        Box::new(TdTr::new(30.0)),
        Box::new(TdSp::new(30.0, 5.0)),
        Box::new(OpeningWindow::nopw(30.0)),
        Box::new(OpeningWindow::bopw(30.0)),
        Box::new(OpeningWindow::opw_tr(30.0)),
        Box::new(OpeningWindow::opw_sp(30.0, 5.0)),
    ];
    for trip in &dataset {
        for algo in &algorithms {
            let result = algo.compress(trip);
            let e = evaluate(trip, &result);
            assert!(
                e.compression_pct > 0.0 && e.compression_pct < 100.0,
                "{}: compression {}",
                algo.name(),
                e.compression_pct
            );
            assert!(e.avg_sync_err_m.is_finite() && e.avg_sync_err_m >= 0.0);
            assert!(e.avg_sync_err_m <= e.max_sync_err_m + 1e-9);
        }
    }
}

#[test]
fn time_ratio_algorithms_bound_sample_error_by_threshold() {
    let dataset = trajc::gen::paper_dataset(42);
    let eps = 40.0;
    for trip in &dataset {
        for algo in [
            Box::new(TdTr::new(eps)) as Box<dyn Compressor>,
            Box::new(OpeningWindow::opw_tr(eps)),
            Box::new(OpeningWindow::opw_sp(eps, 5.0)),
        ] {
            let approx = algo.compress(trip).apply(trip);
            let (_, max_sed) = sed_at_samples(trip, &approx);
            assert!(
                max_sed <= eps + 1e-6,
                "{}: max sample SED {} over budget {}",
                algo.name(),
                max_sed,
                eps
            );
        }
    }
}

#[test]
fn csv_roundtrip_preserves_compression_behaviour() {
    let trip = trajc::gen::paper_dataset(42).remove(2);
    let text = io::to_csv_string(&trip);
    let back = io::from_csv_str(&text).expect("roundtrip parses");
    let a = TdTr::new(30.0).compress(&trip);
    let b = TdTr::new(30.0).compress(&back);
    assert_eq!(a.kept(), b.kept(), "compression must be identical after I/O roundtrip");
}

#[test]
fn store_pipeline_keeps_queries_within_budget() {
    let dataset = trajc::gen::paper_dataset(42);
    let eps = 30.0;
    let mut store = MovingObjectStore::new(IngestMode::OpwTr { eps });
    for (id, trip) in dataset.iter().enumerate() {
        store.insert_trajectory(id as u64, trip).expect("valid trip");
    }
    // Position queries at every original sample instant stay within the
    // budget of the raw position.
    for (id, trip) in dataset.iter().enumerate() {
        for fix in trip.fixes() {
            let p = position_of(&store, id as u64, fix.t).expect("covered instant");
            assert!(
                p.distance(fix.pos) <= eps + 1e-6,
                "object {id}: query error {} m",
                p.distance(fix.pos)
            );
        }
    }
    // Meaningful compression happened.
    assert!(store.stats().compression_pct() > 20.0);
}

#[test]
fn window_queries_agree_between_index_and_scan_on_real_workload() {
    let dataset = trajc::gen::paper_dataset(42);
    let mut store = MovingObjectStore::new(IngestMode::Raw);
    for (id, trip) in dataset.iter().enumerate() {
        store.insert_trajectory(id as u64, trip).expect("valid trip");
    }
    let index = GridIndex::build(&store, 800.0, 300.0);
    for i in 0..20 {
        let x = (i % 5) as f64 * 4_000.0;
        let y = (i / 5) as f64 * 4_500.0;
        let w = QueryWindow::new(
            Point2::new(x, y),
            Point2::new(x + 5_000.0, y + 5_000.0),
            (i as f64) * 100.0,
            (i as f64) * 100.0 + 800.0,
        );
        assert_eq!(
            index.objects_in_window(&w),
            trajc::store::objects_in_window(&store, &w),
            "window {i}"
        );
    }
}

#[test]
fn compressed_history_error_is_far_below_naive_subsampling() {
    // The pitch of the paper in one test: at the same storage budget,
    // TD-TR beats keep-every-ith-point by a wide error margin.
    let trip = trajc::gen::paper_dataset(42).remove(6);
    let tdtr = TdTr::new(50.0).compress(&trip);
    let kept = tdtr.kept_len();
    // Uniform sampling with the same number of kept points.
    let step = trip.len().div_ceil(kept);
    let uniform = trajc::compress::UniformSample::new(step.max(2)).compress(&trip);
    let e_tdtr = average_synchronous_error(&trip, &tdtr.apply(&trip));
    let e_unif = average_synchronous_error(&trip, &uniform.apply(&trip));
    assert!(
        uniform.kept_len() <= kept + 2,
        "comparable budgets: uniform {} vs tdtr {}",
        uniform.kept_len(),
        kept
    );
    assert!(
        e_tdtr < e_unif,
        "TD-TR error {e_tdtr} must beat uniform sampling {e_unif} at equal budget"
    );
}

#[test]
fn trajectory_statistics_survive_compression_roughly() {
    // Length shrinks (chords), duration and endpoints are exact.
    let trip = trajc::gen::paper_dataset(42).remove(0);
    let approx = TdTr::new(30.0).compress(&trip).apply(&trip);
    let s0 = TrajectoryStats::of(&trip);
    let s1 = TrajectoryStats::of(&approx);
    assert_eq!(s0.duration, s1.duration);
    assert!((s0.displacement_m - s1.displacement_m).abs() < 1e-6);
    assert!(s1.length_m <= s0.length_m + 1e-6);
    assert!(s1.length_m >= 0.8 * s0.length_m, "length collapsed: {} → {}", s0.length_m, s1.length_m);
}

#[test]
fn umbrella_reexports_are_coherent() {
    // The same types are reachable through the umbrella and subcrates.
    let t = Timestamp::from_secs(5.0);
    assert_eq!(t.as_secs(), 5.0);
    let p = trajc::geom::Point2::new(1.0, 2.0);
    assert_eq!(p.distance(Point2::new(1.0, 2.0)), 0.0);
}
