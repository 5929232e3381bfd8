//! Moving-object store benchmarks: ingest throughput (raw vs compressed)
//! and window-query cost (scan vs grid vs R-tree) on the paper workload.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use traj_geom::Point2;
use traj_store::query::{build_segment_rtree, rtree_objects_in_window};
use traj_store::{GridIndex, IngestMode, MovingObjectStore, QueryWindow};

fn loaded_store(mode: IngestMode) -> MovingObjectStore {
    let dataset = traj_gen::paper_dataset(42);
    let mut store = MovingObjectStore::new(mode);
    for (id, trip) in dataset.iter().enumerate() {
        store.insert_trajectory(id as u64, trip).expect("valid trip");
    }
    store
}

fn bench(c: &mut Criterion) {
    let dataset = traj_gen::paper_dataset(42);
    let total_fixes: usize = dataset.iter().map(|t| t.len()).sum();

    let mut g = c.benchmark_group("store_ingest");
    g.sample_size(20);
    g.throughput(Throughput::Elements(total_fixes as u64));
    g.bench_function("raw", |b| {
        b.iter(|| {
            let mut store = MovingObjectStore::new(IngestMode::Raw);
            for (id, trip) in dataset.iter().enumerate() {
                store.insert_trajectory(id as u64, trip).expect("valid trip");
            }
            black_box(store.stats())
        })
    });
    g.bench_function("compressed_opw_tr_30m", |b| {
        b.iter(|| {
            let mut store = MovingObjectStore::new(IngestMode::OpwTr { eps: 30.0 });
            for (id, trip) in dataset.iter().enumerate() {
                store.insert_trajectory(id as u64, trip).expect("valid trip");
            }
            black_box(store.stats())
        })
    });
    g.finish();

    let store = loaded_store(IngestMode::Raw);
    let windows: Vec<QueryWindow> = (0..16)
        .map(|i| {
            let x = (i % 4) as f64 * 4_500.0;
            let y = (i / 4) as f64 * 4_500.0;
            QueryWindow::new(
                Point2::new(x, y),
                Point2::new(x + 5_000.0, y + 5_000.0),
                i as f64 * 120.0,
                i as f64 * 120.0 + 900.0,
            )
        })
        .collect();

    let mut g = c.benchmark_group("store_window_query");
    g.sample_size(30);
    g.bench_function("full_scan", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(traj_store::objects_in_window(&store, w));
            }
        })
    });
    let grid = GridIndex::build(&store, 800.0, 300.0);
    g.bench_function("grid_index", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(grid.objects_in_window(w));
            }
        })
    });
    let tree = build_segment_rtree(&store);
    g.bench_function("str_rtree", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(rtree_objects_in_window(&tree, w));
            }
        })
    });
    g.bench_function("grid_build", |b| {
        b.iter(|| black_box(GridIndex::build(&store, 800.0, 300.0)))
    });
    g.bench_function("rtree_build", |b| {
        b.iter(|| black_box(build_segment_rtree(&store)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
