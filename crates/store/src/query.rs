//! Query surface over the moving-object store.
//!
//! The paper's target applications "determine locations that objects have
//! had, have or will have" (§1): position-at-time lookups, space × time
//! window queries, and k-nearest-neighbour snapshots. All queries run on
//! the *stored* (possibly compressed) trajectories; with a compressed
//! store the answers are within the configured error budget of the raw
//! data at sample instants (see `traj-compress`).

use traj_geom::{Bbox, Point2, Segment};
use traj_model::{Fix, Timestamp};

use crate::index::segment_enters_window;
use crate::rtree::StrTree;
use crate::store::{MovingObjectStore, ObjectId};

/// Bumps the per-kind query counter (`store.queries{kind=…}`).
#[inline]
pub(crate) fn count_query(kind: &'static str) {
    traj_obs::registry().counter_with("store", "queries", &[("kind", kind)]).inc();
}

/// A spatiotemporal query window: a rectangle during a time interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWindow {
    /// Spatial rectangle.
    pub bbox: Bbox,
    /// Interval start (inclusive).
    pub t0: Timestamp,
    /// Interval end (inclusive).
    pub t1: Timestamp,
}

impl QueryWindow {
    /// Convenience constructor from corner coordinates and seconds.
    pub fn new(min: Point2, max: Point2, t0: f64, t1: f64) -> Self {
        QueryWindow {
            bbox: Bbox::from_corners(min, max),
            t0: Timestamp::from_secs(t0),
            t1: Timestamp::from_secs(t1),
        }
    }
}

/// Position of object `id` at time `t`, linearly interpolated on its
/// stored trajectory; `None` for unknown objects or instants outside the
/// stored span.
pub fn position_of(store: &MovingObjectStore, id: ObjectId, t: Timestamp) -> Option<Point2> {
    count_query("position_at");
    let fixes = store.stored_fixes(id)?;
    position_on(&fixes, t)
}

fn position_on(fixes: &[Fix], t: Timestamp) -> Option<Point2> {
    let first = fixes.first()?;
    let last = fixes.last()?;
    if t < first.t || t > last.t {
        return None;
    }
    let i = fixes.partition_point(|f| f.t <= t);
    if i == 0 {
        return Some(first.pos);
    }
    if i == fixes.len() {
        return Some(last.pos);
    }
    Some(Fix::interpolate(&fixes[i - 1], &fixes[i], t))
}

/// Ids of objects whose stored motion enters `window.bbox` during the
/// window's time interval (full scan; see
/// [`crate::GridIndex::objects_in_window`] for the indexed path).
pub fn objects_in_window(store: &MovingObjectStore, window: &QueryWindow) -> Vec<ObjectId> {
    count_query("window_scan");
    crate::index::scan_objects_in_window(store, window)
}

/// Positions of every object whose stored span covers `t` — the
/// "where is everybody right now" snapshot, ascending by id.
pub fn snapshot_at(store: &MovingObjectStore, t: Timestamp) -> Vec<(ObjectId, Point2)> {
    count_query("snapshot");
    store
        .object_ids()
        .filter_map(|id| position_of(store, id, t).map(|p| (id, p)))
        .collect()
}

/// The `k` objects nearest to `query` at instant `t`, as
/// `(id, distance)` pairs sorted by distance (objects whose stored span
/// does not cover `t` are skipped).
pub fn knn_at(
    store: &MovingObjectStore,
    t: Timestamp,
    query: Point2,
    k: usize,
) -> Vec<(ObjectId, f64)> {
    count_query("knn");
    let mut candidates: Vec<(ObjectId, f64)> = store
        .object_ids()
        .filter_map(|id| position_of(store, id, t).map(|p| (id, p.distance(query))))
        .collect();
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
    candidates.truncate(k);
    candidates
}

/// The stored motion of every object clipped to the query's time
/// interval, for objects that enter the window — the "give me the rush-
/// hour traces through this junction" query of the paper's §1.
///
/// Returns `(id, sliced trajectory)` pairs, ascending by id. Slices have
/// interpolated boundary fixes, so they span exactly the overlap of the
/// object's history with `[window.t0, window.t1]`.
pub fn trajectories_in_window(
    store: &MovingObjectStore,
    window: &QueryWindow,
) -> Vec<(ObjectId, traj_model::Trajectory)> {
    count_query("window_trajectories");
    objects_in_window(store, window)
        .into_iter()
        .filter_map(|id| {
            let traj = store.trajectory(id)?;
            let slice = traj_model::ops::slice_time(&traj, window.t0, window.t1)?;
            Some((id, slice))
        })
        .collect()
}

/// Builds an [`StrTree`] over all stored segments of the store. Payload:
/// `(object, a, b)` so query verification can clip by time exactly.
pub fn build_segment_rtree(store: &MovingObjectStore) -> StrTree<(ObjectId, Fix, Fix)> {
    let mut entries = Vec::new();
    for id in store.object_ids() {
        let Some(fixes) = store.stored_fixes(id) else { continue };
        if fixes.len() == 1 {
            entries.push((Bbox::from_point(fixes[0].pos), (id, fixes[0], fixes[0])));
        }
        for w in fixes.windows(2) {
            entries.push((
                Bbox::from_segment(&Segment::new(w[0].pos, w[1].pos)),
                (id, w[0], w[1]),
            ));
        }
    }
    StrTree::build(entries)
}

/// Window query through a prebuilt segment R-tree; exact (candidates are
/// verified by time-clipped intersection) and equivalent to
/// [`objects_in_window`].
pub fn rtree_objects_in_window(
    tree: &StrTree<(ObjectId, Fix, Fix)>,
    window: &QueryWindow,
) -> Vec<ObjectId> {
    count_query("window_rtree");
    let mut hits = std::collections::HashSet::new();
    tree.for_each_in(&window.bbox, |(id, a, b)| {
        if !hits.contains(id) && segment_enters_window(a, b, window) {
            hits.insert(*id);
        }
    });
    let mut out: Vec<ObjectId> = hits.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::IngestMode;
    use traj_model::Trajectory;

    fn demo_store() -> MovingObjectStore {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        // Three cars on parallel east-west roads, staggered in y.
        for (id, y) in [(1u64, 0.0), (2, 1000.0), (3, 2000.0)] {
            s.insert_trajectory(
                id,
                &Trajectory::from_triples(
                    (0..60).map(|i| (i as f64 * 10.0, i as f64 * 100.0, y)),
                )
                .unwrap(),
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn position_of_interpolates() {
        let s = demo_store();
        let p = position_of(&s, 1, Timestamp::from_secs(15.0)).unwrap();
        assert_eq!(p, Point2::new(150.0, 0.0));
        assert!(position_of(&s, 1, Timestamp::from_secs(-1.0)).is_none());
        assert!(position_of(&s, 99, Timestamp::from_secs(0.0)).is_none());
    }

    #[test]
    fn window_query_scan() {
        let s = demo_store();
        // Around x≈3000 at the right time, lane y=1000 only.
        let w = QueryWindow::new(Point2::new(2900.0, 900.0), Point2::new(3100.0, 1100.0), 250.0, 350.0);
        assert_eq!(objects_in_window(&s, &w), vec![2]);
    }

    #[test]
    fn snapshot_lists_covered_objects_only() {
        let mut s = demo_store();
        s.insert_trajectory(
            9,
            &Trajectory::from_triples([(5000.0, 0.0, 0.0), (5010.0, 1.0, 0.0)]).unwrap(),
        )
        .unwrap();
        let snap = snapshot_at(&s, Timestamp::from_secs(300.0));
        assert_eq!(snap.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![1, 2, 3]);
        for (_, p) in snap {
            assert_eq!(p.x, 3000.0);
        }
        assert!(snapshot_at(&s, Timestamp::from_secs(-10.0)).is_empty());
    }

    #[test]
    fn knn_orders_by_distance() {
        let s = demo_store();
        // At t=300 every car is at x=3000; distances determined by lanes.
        let q = Point2::new(3000.0, 900.0);
        let knn = knn_at(&s, Timestamp::from_secs(300.0), q, 2);
        assert_eq!(knn.len(), 2);
        assert_eq!(knn[0].0, 2);
        assert!((knn[0].1 - 100.0).abs() < 1e-9);
        assert_eq!(knn[1].0, 1);
        assert!((knn[1].1 - 900.0).abs() < 1e-9);
    }

    #[test]
    fn knn_skips_objects_outside_time_span() {
        let mut s = demo_store();
        // Object 4 exists only later.
        s.insert_trajectory(
            4,
            &Trajectory::from_triples([(10_000.0, 0.0, 0.0), (10_010.0, 1.0, 0.0)]).unwrap(),
        )
        .unwrap();
        let knn = knn_at(&s, Timestamp::from_secs(300.0), Point2::ORIGIN, 10);
        assert_eq!(knn.len(), 3, "object 4 must be skipped");
    }

    #[test]
    fn trajectories_in_window_are_clipped_slices() {
        let s = demo_store();
        let w = QueryWindow::new(
            Point2::new(2000.0, -100.0),
            Point2::new(4000.0, 2100.0),
            150.0,
            450.0,
        );
        let slices = trajectories_in_window(&s, &w);
        assert_eq!(slices.len(), 3, "all three lanes pass through");
        for (id, slice) in &slices {
            assert!(slice.start_time() >= w.t0, "object {id}");
            assert!(slice.end_time() <= w.t1, "object {id}");
            // The slice agrees with the full stored trajectory.
            let full = s.trajectory(*id).unwrap();
            let mid = slice.start_time().lerp(slice.end_time(), 0.5);
            let a = traj_model::interp::position_at(slice, mid).unwrap();
            let b = traj_model::interp::position_at(&full, mid).unwrap();
            assert!(a.distance(b) < 1e-6);
        }
    }

    #[test]
    fn rtree_window_equals_scan() {
        let s = demo_store();
        let tree = build_segment_rtree(&s);
        for i in 0..25 {
            let cx = i as f64 * 230.0;
            let w = QueryWindow::new(
                Point2::new(cx, -100.0),
                Point2::new(cx + 500.0, 2100.0),
                i as f64 * 25.0,
                i as f64 * 25.0 + 120.0,
            );
            assert_eq!(
                rtree_objects_in_window(&tree, &w),
                objects_in_window(&s, &w),
                "window {i}"
            );
        }
    }

    #[test]
    fn grid_rtree_and_scan_agree_on_compressed_store() {
        // End-to-end: ingest with compression, query through all three
        // paths.
        let mut s = MovingObjectStore::new(IngestMode::OpwTr { eps: 30.0 });
        for (id, phase) in [(10u64, 0.0f64), (11, 1.0), (12, 2.0)] {
            s.insert_trajectory(
                id,
                &Trajectory::from_triples((0..200).map(|i| {
                    let t = i as f64 * 10.0;
                    let x = t * 12.0;
                    let y = 500.0 * ((t / 300.0 + phase).sin());
                    (t, x, y)
                }))
                .unwrap(),
            )
            .unwrap();
        }
        let grid = crate::GridIndex::build(&s, 400.0, 200.0);
        let tree = build_segment_rtree(&s);
        for i in 0..30 {
            let cx = i as f64 * 700.0;
            let w = QueryWindow::new(
                Point2::new(cx, -600.0),
                Point2::new(cx + 900.0, 600.0),
                i as f64 * 60.0,
                i as f64 * 60.0 + 400.0,
            );
            let scan = objects_in_window(&s, &w);
            assert_eq!(grid.objects_in_window(&w), scan, "grid vs scan, window {i}");
            assert_eq!(rtree_objects_in_window(&tree, &w), scan, "rtree vs scan, window {i}");
        }
    }

    #[test]
    fn position_of_compressed_store_close_to_raw() {
        let raw_traj = Trajectory::from_triples((0..300).map(|i| {
            let t = i as f64 * 10.0;
            (t, t * 11.0, 300.0 * (t / 500.0).sin())
        }))
        .unwrap();
        let eps = 25.0;
        let mut s = MovingObjectStore::new(IngestMode::OpwTr { eps });
        s.insert_trajectory(1, &raw_traj).unwrap();
        // At every *sample* instant the stored answer is within eps.
        for f in raw_traj.fixes() {
            let p = position_of(&s, 1, f.t).unwrap();
            assert!(
                p.distance(f.pos) <= eps + 1e-6,
                "at {}: {} m",
                f.t,
                p.distance(f.pos)
            );
        }
    }
}
