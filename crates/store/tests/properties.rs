//! Property-based tests for the moving-object store and its indexes.

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;
use traj_geom::{Bbox, Point2};
use traj_model::{Fix, Timestamp, Trajectory};
use traj_store::persist::{load_dir_with, save_dir_with};
use traj_store::query::{build_segment_rtree, rtree_objects_in_window};
use traj_store::storage::MemStorage;
use traj_store::{
    objects_in_window, position_of, DurableOptions, DurableStore, GridIndex, IngestMode,
    MovingObjectStore, QueryWindow,
};

/// A small fleet of valid random trajectories.
fn fleet() -> impl Strategy<Value = Vec<Trajectory>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                (5.0..20.0f64, -300.0..300.0f64, -300.0..300.0f64),
                3..40,
            ),
            0.0..500.0f64,
            (-3000.0..3000.0f64, -3000.0..3000.0f64),
        )
            .prop_map(|(steps, t0, (x0, y0))| {
                let mut t = t0;
                let (mut x, mut y) = (x0, y0);
                let mut triples = vec![(t, x, y)];
                for (dt, dx, dy) in steps {
                    t += dt;
                    x += dx;
                    y += dy;
                    triples.push((t, x, y));
                }
                Trajectory::from_triples(triples).expect("valid")
            }),
        1..6,
    )
}

fn load(fleet: &[Trajectory], mode: IngestMode) -> MovingObjectStore {
    let mut s = MovingObjectStore::new(mode);
    for (id, t) in fleet.iter().enumerate() {
        s.insert_trajectory(id as u64, t).expect("valid trajectories");
    }
    s
}

proptest! {
    /// Grid index, STR R-tree and full scan answer every window query
    /// identically, for raw and compressed stores alike.
    #[test]
    fn window_query_paths_agree(
        fleet in fleet(),
        cx in -3000.0..3000.0f64,
        cy in -3000.0..3000.0f64,
        w in 50.0..4000.0f64,
        t0 in 0.0..800.0f64,
        span in 10.0..500.0f64,
        compressed in proptest::bool::ANY,
    ) {
        let mode = if compressed {
            IngestMode::OpwTr { eps: 40.0 }
        } else {
            IngestMode::Raw
        };
        let store = load(&fleet, mode);
        let window = QueryWindow::new(
            Point2::new(cx, cy),
            Point2::new(cx + w, cy + w),
            t0,
            t0 + span,
        );
        let scan = objects_in_window(&store, &window);
        let grid = GridIndex::build(&store, 250.0, 120.0).objects_in_window(&window);
        let rtree = rtree_objects_in_window(&build_segment_rtree(&store), &window);
        prop_assert_eq!(&grid, &scan);
        prop_assert_eq!(&rtree, &scan);
    }

    /// Every window hit is justified: the object's stored motion really
    /// enters the box during the interval (verified by dense sampling).
    #[test]
    fn window_hits_are_sound(
        fleet in fleet(),
        cx in -2000.0..2000.0f64,
        cy in -2000.0..2000.0f64,
        w in 200.0..4000.0f64,
        t0 in 0.0..600.0f64,
        span in 50.0..500.0f64,
    ) {
        let store = load(&fleet, IngestMode::Raw);
        let bbox = Bbox::from_corners(Point2::new(cx, cy), Point2::new(cx + w, cy + w));
        let window = QueryWindow { bbox, t0: Timestamp::from_secs(t0), t1: Timestamp::from_secs(t0 + span) };
        for id in objects_in_window(&store, &window) {
            // Densely sample the motion over the window.
            let mut found = false;
            let steps = 400;
            for k in 0..=steps {
                let t = Timestamp::from_secs(t0 + span * k as f64 / steps as f64);
                if let Some(p) = position_of(&store, id, t) {
                    // Tolerance: the crossing may fall between samples.
                    if bbox.expanded(w.max(span) * 0.05 + 5.0).contains(p) {
                        found = true;
                        break;
                    }
                }
            }
            prop_assert!(found, "object {id} reported but never near the window");
        }
    }

    /// Compressed ingest honours the error budget at every original
    /// sample instant.
    #[test]
    fn compressed_store_error_budget(fleet in fleet(), eps in 5.0..100.0f64) {
        let store = load(
            &fleet,
            IngestMode::OpwTr { eps },
        );
        for (id, traj) in fleet.iter().enumerate() {
            for fix in traj.fixes() {
                let p = position_of(&store, id as u64, fix.t).expect("instant covered");
                prop_assert!(
                    p.distance(fix.pos) <= eps + 1e-6,
                    "object {id}: {} m over budget {eps}",
                    p.distance(fix.pos)
                );
            }
        }
    }

    /// Store statistics are conserved: ingested = Σ input lengths,
    /// stored ≤ ingested, raw mode stores everything.
    #[test]
    fn stats_conservation(fleet in fleet()) {
        let total: usize = fleet.iter().map(|t| t.len()).sum();
        let raw = load(&fleet, IngestMode::Raw);
        prop_assert_eq!(raw.stats().ingested_points, total);
        prop_assert_eq!(raw.stats().stored_points, total);
        let comp = load(
            &fleet,
            IngestMode::OpwTr { eps: 50.0 },
        );
        prop_assert_eq!(comp.stats().ingested_points, total);
        prop_assert!(comp.stats().stored_points <= total);
        prop_assert_eq!(comp.stats().objects, fleet.len());
    }

    /// The stored trajectory's span always reaches the latest ingested
    /// fix, compressed or not.
    #[test]
    fn span_reaches_latest(fleet in fleet(), compressed in proptest::bool::ANY) {
        let mode = if compressed {
            IngestMode::OpwSp { eps: 30.0, speed_eps: 5.0 }
        } else {
            IngestMode::Raw
        };
        let store = load(&fleet, mode);
        for (id, traj) in fleet.iter().enumerate() {
            let stored = store.trajectory(id as u64).expect("object exists");
            prop_assert_eq!(stored.start_time(), traj.start_time());
            prop_assert_eq!(stored.end_time(), traj.end_time());
        }
    }
}

proptest! {
    /// Persist → load → persist is a byte-for-byte fixpoint: snapshots
    /// (CSV body plus checksum trailer) round-trip exactly through the
    /// loader, so repeated save cycles can never drift.
    #[test]
    fn save_load_save_is_a_fixpoint(fleet in fleet()) {
        let store = load(&fleet, IngestMode::Raw);
        let disk = MemStorage::new();
        save_dir_with(&disk, &store, Path::new("/a")).expect("first save");
        let reloaded = load_dir_with(&disk, Path::new("/a")).expect("load back");
        save_dir_with(&disk, &reloaded, Path::new("/b")).expect("second save");
        for id in store.object_ids() {
            let a = disk.file(Path::new(&format!("/a/{id}.csv"))).expect("first copy");
            let b = disk.file(Path::new(&format!("/b/{id}.csv"))).expect("second copy");
            prop_assert_eq!(a, b, "snapshot for object {} drifted across a load cycle", id);
        }
    }

    /// Tearing the final WAL record at any interior byte loses exactly
    /// that record: recovery reports the torn tail and restores every
    /// earlier acknowledged fix, in order.
    #[test]
    fn torn_final_record_recovery_preserves_acknowledged_fixes(
        steps in proptest::collection::vec((1.0..15.0f64, -40.0..40.0f64, -40.0..40.0f64), 2..25),
        cut in 1..41usize,
    ) {
        let disk = Arc::new(MemStorage::new());
        let opts = DurableOptions::default();
        let mut acked = Vec::new();
        {
            let (mut store, _) =
                DurableStore::open_with(disk.clone(), Path::new("/db"), IngestMode::Raw, opts)
                    .expect("fresh open");
            let (mut t, mut x, mut y) = (0.0f64, 0.0f64, 0.0f64);
            for (dt, dx, dy) in steps {
                t += dt;
                x += dx;
                y += dy;
                let f = Fix::from_parts(t, x, y);
                store.append(7, f).expect("append");
                acked.push(f);
            }
        }
        // Tear into the last record of the newest segment. Records are
        // 41 bytes (8-byte header + 33-byte payload), so any cut of
        // 1..=40 trailing bytes lands strictly inside it.
        let seg = disk
            .file_paths()
            .into_iter()
            .filter(|p| p.to_string_lossy().contains("wal-"))
            .max()
            .expect("a WAL segment exists");
        let len = disk.file(&seg).expect("segment bytes").len();
        prop_assert!(disk.truncate_file(&seg, len - cut));
        let (store, report) =
            DurableStore::open_with(disk.clone(), Path::new("/db"), IngestMode::Raw, opts)
                .expect("recovery");
        prop_assert!(report.torn_tail, "a mid-record tear must be reported");
        prop_assert_eq!(report.skipped_corrupt, 0);
        let recovered = store.store().stored_fixes(7).expect("object survives");
        prop_assert_eq!(recovered.len(), acked.len() - 1, "exactly the torn record is lost");
        prop_assert_eq!(recovered.as_slice(), &acked[..acked.len() - 1]);
    }
}
