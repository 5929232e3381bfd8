//! End-to-end service tests over the in-memory storage backend: full
//! ingest→shutdown runs, multi-shard recovery reassembly, and the
//! backpressure contract under a stalled worker.

use std::path::Path;
use std::sync::Arc;

use traj_gen::fleet::{Fleet, FleetConfig};
use traj_serve::{
    loadgen, shard_of, CodecSpec, LoadGenConfig, ServeConfig, Service, SubmitError,
};
use traj_store::storage::MemStorage;
use traj_store::{DurableOptions, DurableStore, GroupCommitOptions, IngestMode};

const DIR: &str = "/serve";

fn raw_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        codec: CodecSpec::Raw,
        ..ServeConfig::default()
    }
}

/// Raw sessions + clean shutdown: every accepted fix is durable, and
/// reopening each shard directory as a plain [`DurableStore`]
/// reassembles exactly the submitted fleet.
#[test]
fn multi_shard_recovery_reassembles_the_fleet() {
    let disk = Arc::new(MemStorage::new());
    let shards = 3;
    let service =
        Service::start_with(disk.clone(), Path::new(DIR), raw_config(shards)).unwrap();
    let fleet = Fleet::new(FleetConfig { movers: 20, ..FleetConfig::default() });
    let fixes_per_mover = 15u64;
    for k in 0..fixes_per_mover {
        for mover in 0..fleet.movers() {
            service.submit(mover, fleet.fix_for(mover, k)).unwrap();
        }
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.acked, 20 * fixes_per_mover);
    assert_eq!(stats.emitted, 20 * fixes_per_mover, "raw sessions log 1:1");
    assert_eq!(stats.sessions, 20);
    assert!(stats.commits > 0);
    assert_eq!(stats.ack.count(), stats.acked);

    // Recover every shard independently — each is a standard durable
    // store directory — and reassemble the fleet across them.
    let mut recovered_total = 0u64;
    for k in 0..shards {
        let shard_dir = Path::new(DIR).join(format!("shard-{k}"));
        let (store, report) = DurableStore::open_with(
            disk.clone(),
            &shard_dir,
            IngestMode::Raw,
            DurableOptions::default(),
        )
        .unwrap();
        assert!(report.clean(), "shard {k}: {report:?}");
        for mover in store.store().object_ids().collect::<Vec<_>>() {
            // Routing invariant: the mover is in the shard the hash says.
            assert_eq!(shard_of(mover, shards), k, "mover {mover} in wrong shard");
            let t = store.store().trajectory(mover).unwrap();
            assert_eq!(t.len() as u64, fixes_per_mover, "mover {mover}");
            for (i, f) in t.fixes().iter().enumerate() {
                assert_eq!(*f, fleet.fix_for(mover, i as u64), "mover {mover} fix {i}");
            }
            recovered_total += t.len() as u64;
        }
    }
    assert_eq!(recovered_total, 20 * fixes_per_mover, "no mover lost or duplicated");
}

/// Compressed sessions: fewer WAL records than submissions, and a clean
/// shutdown flushes every session tail so each mover's recovered
/// trajectory spans the full submitted time range.
#[test]
fn compressed_sessions_shrink_the_wal_and_flush_on_shutdown() {
    let disk = Arc::new(MemStorage::new());
    let cfg = ServeConfig {
        shards: 2,
        codec: CodecSpec::default_with(20.0),
        ..ServeConfig::default()
    };
    let service = Service::start_with(disk.clone(), Path::new(DIR), cfg).unwrap();
    let fleet = Fleet::new(FleetConfig { movers: 8, ..FleetConfig::default() });
    let n = 200u64;
    for k in 0..n {
        for mover in 0..fleet.movers() {
            service.submit(mover, fleet.fix_for(mover, k)).unwrap();
        }
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.acked, 8 * n);
    assert!(
        stats.emitted < stats.acked / 2,
        "op-cone should compress: {} emitted of {} acked",
        stats.emitted,
        stats.acked
    );
    for k in 0..2usize {
        let shard_dir = Path::new(DIR).join(format!("shard-{k}"));
        let (store, _) = DurableStore::open_with(
            disk.clone(),
            &shard_dir,
            IngestMode::Raw,
            DurableOptions::default(),
        )
        .unwrap();
        for mover in store.store().object_ids().collect::<Vec<_>>() {
            let t = store.store().trajectory(mover).unwrap();
            let first = fleet.fix_for(mover, 0);
            let last = fleet.fix_for(mover, n - 1);
            assert_eq!(t.fixes()[0].t, first.t, "mover {mover}: head kept");
            assert_eq!(
                t.fixes()[t.len() - 1].t,
                last.t,
                "mover {mover}: shutdown flushed the open tail"
            );
        }
    }
}

/// The per-append baseline is group commit with `max_batch = 1`: it
/// acks everything too, one fsync per fix.
#[test]
fn max_batch_one_acks_with_per_fix_commits() {
    let disk = Arc::new(MemStorage::new());
    let mut cfg = raw_config(1);
    cfg.group.max_batch = 1;
    let service = Service::start_with(disk, Path::new(DIR), cfg).unwrap();
    for k in 0..10u64 {
        service.submit(7, fix_at(k)).unwrap();
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty());
    assert_eq!(stats.acked, 10);
    assert_eq!(stats.commits, 10, "one fsync batch per fix");
}

/// Shard stores and sessions take one codec spec type.
#[test]
fn store_ingest_mode_is_the_session_codec_spec() {
    let spec: IngestMode = CodecSpec::default_with(30.0);
    assert_eq!(spec, traj_compress::catalog::codec("op-cone", 30.0, None).unwrap());
}

fn fix_at(k: u64) -> traj_model::Fix {
    traj_model::Fix::from_parts(k as f64, k as f64, 0.0)
}

/// A full queue surfaces typed backpressure to the submitter. The
/// worker is stalled by never starting it — we talk to the queue layer
/// through a service whose single shard has a tiny queue and a worker
/// kept busy behind a long commit delay with a huge batch bound, so the
/// queue genuinely fills.
#[test]
fn overload_surfaces_typed_backpressure() {
    let disk = Arc::new(MemStorage::new());
    let cfg = ServeConfig {
        shards: 1,
        queue_cap: 8,
        codec: CodecSpec::Raw,
        // A batch bound far above the queue size plus a long delay keeps
        // the worker gathering (asleep on the condvar timeout) while the
        // submitter floods the queue.
        group: GroupCommitOptions {
            max_batch: 1_000_000,
            max_delay: std::time::Duration::from_secs(5),
        },
        ..ServeConfig::default()
    };
    let service = Service::start_with(disk, Path::new(DIR), cfg).unwrap();
    let mut saw_backpressure = false;
    for k in 0..5_000u64 {
        match service.submit(1, fix_at(k)) {
            Ok(()) => {}
            Err(SubmitError::Backpressure { shard, capacity }) => {
                assert_eq!(shard, 0);
                assert_eq!(capacity, 8);
                saw_backpressure = true;
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(saw_backpressure, "tiny queue never filled under a stalled worker");
    // Shutdown still drains and acks what was accepted.
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert!(stats.acked >= 8, "buffered fixes drain on shutdown: {}", stats.acked);
}

/// The load generator round-trips through a real service and its
/// counters reconcile with the service's.
#[test]
fn load_gen_reconciles_with_service_stats() {
    let disk = Arc::new(MemStorage::new());
    let service = Service::start_with(disk, Path::new(DIR), raw_config(2)).unwrap();
    let outcome = loadgen::run(
        &service,
        &LoadGenConfig {
            movers: 50,
            fixes_per_mover: 20,
            threads: 2,
            ..LoadGenConfig::default()
        },
    );
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(outcome.submitted + outcome.rejected, 50 * 20);
    assert_eq!(stats.acked, outcome.submitted, "every accepted fix acks");
    assert_eq!(stats.invalid, 0, "fleet fixes are always valid");
}

/// A paced run (rate-limited open loop) also completes and acks.
#[test]
fn paced_load_gen_completes() {
    let disk = Arc::new(MemStorage::new());
    let service = Service::start_with(disk, Path::new(DIR), raw_config(1)).unwrap();
    let outcome = loadgen::run(
        &service,
        &LoadGenConfig {
            movers: 10,
            fixes_per_mover: 5,
            rate: 5_000.0,
            ..LoadGenConfig::default()
        },
    );
    let stats = service.shutdown().unwrap();
    assert_eq!(outcome.submitted, 50);
    assert_eq!(outcome.rejected, 0, "5k fixes/s is loafing for a MemStorage shard");
    assert_eq!(stats.acked, 50);
    assert!(stats.ack.quantile(0.99) > 0, "latencies were recorded");
}

/// Restarting a service over existing shard directories recovers them
/// (the report path) and keeps ingesting the same movers.
#[test]
fn restart_recovers_and_continues() {
    let disk = Arc::new(MemStorage::new());
    {
        let service =
            Service::start_with(disk.clone(), Path::new(DIR), raw_config(2)).unwrap();
        for k in 0..5u64 {
            service.submit(3, fix_at(k)).unwrap();
        }
        let stats = service.shutdown().unwrap();
        assert_eq!(stats.acked, 5);
    }
    let service = Service::start_with(disk.clone(), Path::new(DIR), raw_config(2)).unwrap();
    for k in 5..8u64 {
        service.submit(3, fix_at(k)).unwrap();
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.acked, 3);
    let shard = shard_of(3, 2);
    let (store, _) = DurableStore::open_with(
        disk,
        &Path::new(DIR).join(format!("shard-{shard}")),
        IngestMode::Raw,
        DurableOptions::default(),
    )
    .unwrap();
    assert_eq!(store.store().trajectory(3).unwrap().len(), 8, "both runs' fixes");
}
