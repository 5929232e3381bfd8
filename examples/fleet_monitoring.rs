//! Fleet monitoring: the paper's §1 scenario end to end.
//!
//! Ten vehicles stream GPS fixes into a moving-object store that
//! compresses on ingest with a 30 m error budget. We then answer the
//! questions the paper motivates — "which vehicles passed through this
//! area during rush hour?", "where was vehicle 3 at 12:05?", "who was
//! closest to the incident?" — on the compressed history, and compare
//! the storage bill against a raw store.
//!
//! ```text
//! cargo run --release --example fleet_monitoring
//! ```

use trajc::geom::Point2;
use trajc::model::Timestamp;
use trajc::store::{
    knn_at, position_of, DurableOptions, DurableStore, GridIndex, IngestMode,
    MovingObjectStore, QueryWindow,
};

fn main() {
    let fleet = trajc::gen::paper_dataset(42);

    // Two stores: raw, and compressed-on-ingest (OPW-TR, 30 m budget).
    let mut raw = MovingObjectStore::new(IngestMode::Raw);
    let mut compressed = MovingObjectStore::new(IngestMode::OpwTr { eps: 30.0 });
    for (id, trip) in fleet.iter().enumerate() {
        raw.insert_trajectory(id as u64, trip).expect("valid trip");
        compressed.insert_trajectory(id as u64, trip).expect("valid trip");
    }
    let (rs, cs) = (raw.stats(), compressed.stats());
    println!(
        "storage: raw {} fixes, compressed {} fixes ({:.1}% saved)",
        rs.stored_points,
        cs.stored_points,
        cs.compression_pct()
    );

    // Where was vehicle 3 at t = 600 s? Compare both stores.
    let t = Timestamp::from_secs(600.0);
    if let (Some(p_raw), Some(p_c)) = (position_of(&raw, 3, t), position_of(&compressed, 3, t)) {
        println!(
            "vehicle 3 at t=600s: raw ({:.0}, {:.0}), compressed ({:.0}, {:.0}) — {:.1} m apart",
            p_raw.x,
            p_raw.y,
            p_c.x,
            p_c.y,
            p_raw.distance(p_c)
        );
    }

    // Which vehicles entered the city-centre square between t=300 and
    // t=1200? Use the spatiotemporal grid index over the compressed
    // store.
    let index = GridIndex::build(&compressed, 500.0, 300.0);
    let centre = QueryWindow::new(
        Point2::new(6_000.0, 6_000.0),
        Point2::new(13_000.0, 13_000.0),
        300.0,
        1200.0,
    );
    let inside = index.objects_in_window(&centre);
    println!("vehicles in the centre during [300s, 1200s]: {inside:?}");

    // Cross-check through the R-tree path (both indexes are exact, so
    // they must agree).
    let rtree = trajc::store::query::build_segment_rtree(&compressed);
    let inside_rtree = trajc::store::query::rtree_objects_in_window(&rtree, &centre);
    assert_eq!(inside, inside_rtree, "grid and R-tree answers must match");

    // Who was nearest to an incident at (9000, 9000) at t = 900 s?
    let incident = Point2::new(9_000.0, 9_000.0);
    let nearest = knn_at(&compressed, Timestamp::from_secs(900.0), incident, 3);
    println!("3 nearest to the incident at t=900s:");
    for (id, d) in nearest {
        println!("  vehicle {id}: {:.0} m away", d);
    }

    // Nightly compaction: re-run the *batch* TD-TR over the online-
    // compressed history (the paper: batch algorithms consistently beat
    // online ones). Same 30 m budget per pass.
    let removed = compressed.compact(&trajc::compress::TdTr::new(30.0));
    println!(
        "nightly compaction removed {removed} more fixes → {} stored ({:.1}% total saving)",
        compressed.stats().stored_points,
        compressed.stats().compression_pct()
    );

    // A fleet server must not lose acknowledged fixes when it crashes.
    // The durable ingest path writes every fix to a checksummed
    // write-ahead log before acknowledging it; reopening the directory
    // replays the log over the latest snapshot. Simulate a restart by
    // dropping the store mid-stream.
    let db = std::env::temp_dir().join("fleet_monitoring_db");
    std::fs::remove_dir_all(&db).ok();
    let trip0 = &fleet[0];
    {
        let (mut durable, _) = DurableStore::open(
            &db,
            IngestMode::OpwTr { eps: 30.0 },
            DurableOptions::default(),
        )
        .expect("open durable store");
        for fix in trip0.fixes() {
            durable.append(0, *fix).expect("acknowledged");
        }
        // Process "crashes" here: no snapshot, no clean shutdown.
    }
    let (mut durable, report) = DurableStore::open(
        &db,
        IngestMode::OpwTr { eps: 30.0 },
        DurableOptions::default(),
    )
    .expect("recover");
    println!(
        "\ncrash recovery: {} fixes replayed from {} WAL segment(s), {} — latest fix at t={:.0}s",
        report.replayed,
        report.wal_segments,
        if report.clean() { "log intact" } else { "torn tail tolerated" },
        durable.store().latest(0).expect("vehicle 0 recovered").t.as_secs()
    );
    // A snapshot compacts the recovered state and truncates the log.
    let files = durable.snapshot().expect("snapshot");
    println!("snapshotted {files} file(s); write-ahead log truncated");
    std::fs::remove_dir_all(&db).ok();

    // Everything above was instrumented as it ran: ingest volume,
    // per-kind queries, R-tree node visits, compaction, compressor
    // internals. Dump the live registry.
    println!("\n— session metrics (traj-obs) —");
    print!(
        "{}",
        trajc::obs::sink::render_table(&trajc::obs::registry().snapshot())
    );
}
