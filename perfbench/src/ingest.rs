//! Closed-loop durable ingest through `traj_serve::Service`, and a
//! single-thread replay of the worker's public calls (`serve`, `store`).
//!
//! A trial runs four phases on a fresh store directory: an untimed
//! warm-up prefix, `Service::shutdown`, a restart (`Service::start`
//! replaying the warm-up store — the set-up time), then the timed rest
//! of the fixes up to `Service::shutdown` returning. One driver thread
//! submits every fix in order and sleeps briefly on `Backpressure`
//! before retrying, beside the one shard worker.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use traj_gen::fleet::{Fleet, FleetConfig};
use traj_model::{Fix, Trajectory};
use traj_serve::queue::{self, Item};
use traj_serve::session::SessionCodec;
use traj_serve::{CodecSpec, ServeConfig, Service, ShutdownStats, SubmitError};
use traj_store::{DurableOptions, DurableStore, GroupCommitStore, IngestMode};

use crate::env::heap_bytes;
use crate::metrics::{median, Checks};

/// How long the driver sleeps after a `Backpressure` refusal.
const BACKOFF: Duration = Duration::from_micros(50);

/// One ingest workload: a codec and the fixes in submission order.
pub struct IngestSpec {
    /// Per-mover session codec.
    pub codec: CodecSpec,
    /// `(mover, fix)` in submission order.
    pub items: Vec<(u64, Fix)>,
    /// Length of the untimed warm-up prefix of `items`.
    pub warm: usize,
}

impl IngestSpec {
    /// The service configuration: one shard (one worker beside the one
    /// driver), group commit, default queue and delay bounds.
    ///
    /// One commit may cover the whole queue (`trajc serve --max-batch
    /// 4096`). At the default 256 a saturated worker spent about half of
    /// the timed phase in fsync on a shared virtual disk, whose latency
    /// swung `fleet_raw` throughput by 17 % (quartile spread over ten
    /// runs); the benchmark would have measured the disk, not the program.
    pub fn config(&self) -> ServeConfig {
        let mut cfg = ServeConfig {
            shards: 1,
            codec: self.codec,
            ..ServeConfig::default()
        };
        cfg.group.max_batch = cfg.queue_cap;
        cfg
    }

    /// The timed part of `items`.
    pub fn timed(&self) -> &[(u64, Fix)] {
        &self.items[self.warm..]
    }
}

/// `movers` fleet movers × `fixes_per_mover` fixes, submitted
/// round-robin (every mover's `k`-th fix before any `k+1`-th).
pub fn fleet_items(cfg: FleetConfig, fixes_per_mover: u64) -> Vec<(u64, Fix)> {
    let fleet = Fleet::new(cfg);
    let movers = fleet.movers();
    let mut items = Vec::with_capacity((movers * fixes_per_mover) as usize);
    for k in 0..fixes_per_mover {
        for m in 0..movers {
            items.push((m, fleet.fix_for(m, k)));
        }
    }
    items
}

/// A dataset's fixes round-robin by fix index, trajectory `i` as mover
/// `i`.
pub fn dataset_items(ds: &[Trajectory]) -> Vec<(u64, Fix)> {
    let longest = ds.iter().map(Trajectory::len).max().unwrap_or(0);
    let mut items = Vec::with_capacity(ds.iter().map(Trajectory::len).sum());
    for k in 0..longest {
        for (i, traj) in ds.iter().enumerate() {
            if let Some(fix) = traj.fixes().get(k) {
                items.push((i as u64, *fix));
            }
        }
    }
    items
}

/// Global `obs` counters the trial reads as deltas.
#[derive(Debug, Clone, Copy)]
struct Counters {
    fsyncs: u64,
    wal_bytes: u64,
    wal_records: u64,
    replayed: u64,
    skipped: u64,
    batches: u64,
    batch_fixes: u64,
}

fn counters() -> Counters {
    let r = traj_obs::registry();
    let batches = r.histogram("serve", "batch_fixes").summary();
    Counters {
        fsyncs: r.counter("store", "wal_fsyncs").get(),
        wal_bytes: r.counter("store", "wal_append_bytes").get(),
        wal_records: r.counter("store", "wal_appends").get(),
        replayed: r.counter("store", "recovery_replayed").get(),
        skipped: r.counter("store", "recovery_skipped").get(),
        batches: batches.count,
        batch_fixes: batches.sum,
    }
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            fsyncs: self.fsyncs - before.fsyncs,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            wal_records: self.wal_records - before.wal_records,
            replayed: self.replayed - before.replayed,
            skipped: self.skipped - before.skipped,
            batches: self.batches - before.batches,
            batch_fixes: self.batch_fixes - before.batch_fixes,
        }
    }
}

/// What the closed-loop driver did.
#[derive(Debug, Default)]
struct Drive {
    /// `Service::submit` calls, refused ones included.
    calls: u64,
    /// Nanoseconds inside those calls (only when timed).
    submit_ns: u64,
    /// `Backpressure` refusals.
    backpressure: u64,
    /// `Closed` refusals (a fix that was never accepted).
    closed: u64,
    /// Seconds asleep after refusals.
    sleep_s: f64,
    /// Seconds from first submit to last accepted submit.
    wall_s: f64,
}

fn drive(svc: &Service, items: &[(u64, Fix)], time_submits: bool) -> Drive {
    let mut d = Drive::default();
    let start = Instant::now();
    for &(mover, fix) in items {
        loop {
            d.calls += 1;
            let result = if time_submits {
                let t = Instant::now();
                let r = svc.submit(mover, fix);
                d.submit_ns += t.elapsed().as_nanos() as u64;
                r
            } else {
                svc.submit(mover, fix)
            };
            match result {
                Ok(()) => break,
                Err(SubmitError::Backpressure { .. }) => {
                    d.backpressure += 1;
                    let t = Instant::now();
                    std::thread::sleep(BACKOFF);
                    d.sleep_s += t.elapsed().as_secs_f64();
                }
                Err(SubmitError::Closed) => {
                    d.closed += 1;
                    break;
                }
            }
        }
    }
    d.wall_s = start.elapsed().as_secs_f64();
    d
}

/// Checks a shutdown: every submitted fix acked, none invalid, no
/// storage error.
fn check_shutdown(phase: &str, stats: &ShutdownStats, d: &Drive, n: usize, checks: &mut Checks) {
    let n = n as u64;
    // Invalid and refused fixes are never acked, so they count here.
    checks.units(n, n.saturating_sub(stats.acked), || {
        format!(
            "{phase}: {} of {n} fixes acked, {} invalid, {} refused as closed",
            stats.acked, stats.invalid, d.closed
        )
    });
    checks.expect(stats.errors.is_empty(), || {
        format!("{phase}: shard errors {:?}", stats.errors)
    });
}

/// One trial's measurements.
#[derive(Debug)]
pub struct Trial {
    /// Timed fixes acknowledged per second, first submit to shutdown.
    pub fixes_per_s: f64,
    /// Restart (`Service::start` over the warm-up store), seconds.
    pub setup_s: f64,
    /// The timed phase's `Service::shutdown`, seconds.
    pub drain_s: f64,
    /// Timed fixes acknowledged.
    pub acked: u64,
    /// Points the timed phase wrote.
    pub emitted: u64,
    /// WAL records the restart replayed.
    pub restart_replayed: u64,
    /// Driver: calls, refusals, time inside submit and asleep.
    drive: Drive,
    /// Timed-phase counter deltas.
    counters: Counters,
    /// Mean and p99 submit→ack latency, nanoseconds.
    ack_mean_ns: u64,
    ack_p99_ns: u64,
}

impl Trial {
    /// Points written per 100 fixes acknowledged.
    pub fn kept_pct(&self) -> f64 {
        100.0 * self.emitted as f64 / self.acked as f64
    }
}

/// Runs one trial in `dir` (created fresh, removed afterwards) and
/// tallies its correctness checks.
///
/// # Errors
/// Service start/shutdown failures and I/O errors on the directory.
pub fn trial(
    spec: &IngestSpec,
    dir: &Path,
    time_submits: bool,
    checks: &mut Checks,
) -> Result<Trial, String> {
    let _trial = traj_obs::trace_span!("bench.trial");
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let (warm, rest) = spec.items.split_at(spec.warm);

    let warm_stats = {
        let _span = traj_obs::trace_span!("bench.warmup");
        let svc = Service::start(dir, spec.config())?;
        let d = drive(&svc, warm, false);
        let stats = svc.shutdown()?;
        check_shutdown("warm-up", &stats, &d, warm.len(), checks);
        stats
    };

    let before = counters();
    let t = Instant::now();
    let svc = {
        let _span = traj_obs::trace_span!("bench.restart");
        Service::start(dir, spec.config())?
    };
    let setup_s = t.elapsed().as_secs_f64();
    let restart = counters().since(before);
    checks.expect(
        restart.replayed == warm_stats.emitted && restart.skipped == 0,
        || {
            format!(
                "restart replayed {} records (skipped {}), the warm-up wrote {}",
                restart.replayed, restart.skipped, warm_stats.emitted
            )
        },
    );

    let before = counters();
    let t0 = Instant::now();
    let d = {
        let _span = traj_obs::trace_span!("bench.submit");
        drive(&svc, rest, time_submits)
    };
    let t_shutdown = Instant::now();
    let stats = {
        let _span = traj_obs::trace_span!("bench.shutdown");
        svc.shutdown()?
    };
    let t1 = Instant::now();
    let timed = counters().since(before);
    check_shutdown("timed", &stats, &d, rest.len(), checks);

    {
        let _span = traj_obs::trace_span!("bench.verify");
        let expected = warm_stats.emitted + stats.emitted;
        let (store, report) = DurableStore::open(
            &dir.join("shard-0"),
            IngestMode::Raw,
            DurableOptions::default(),
        )
        .map_err(|e| format!("recovery: {e}"))?;
        let stored = store.store().stats().stored_points as u64;
        checks.expect(
            report.clean() && report.replayed as u64 == expected && stored == expected,
            || {
                format!(
                    "recovery: clean={} replayed={} stored={stored}, points written {expected}",
                    report.clean(),
                    report.replayed
                )
            },
        );
        if spec.codec == CodecSpec::Raw {
            checks.expect(expected == spec.items.len() as u64, || {
                format!(
                    "raw sessions wrote {expected} points for {} fixes",
                    spec.items.len()
                )
            });
        }
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    Ok(Trial {
        fixes_per_s: stats.acked as f64 / (t1 - t0).as_secs_f64(),
        setup_s,
        drain_s: (t1 - t_shutdown).as_secs_f64(),
        acked: stats.acked,
        emitted: stats.emitted,
        restart_replayed: restart.replayed,
        drive: d,
        counters: timed,
        ack_mean_ns: stats.ack.mean(),
        ack_p99_ns: stats.ack.quantile(0.99),
    })
}

/// Per-call costs of the worker's public functions, replayed on one
/// thread over the same fixes.
#[derive(Debug, Default)]
pub struct Replay {
    fixes: u64,
    /// `recv_batch` of each batch.
    queue_ns: u64,
    /// `CodecSpec::build` on first sight and `SessionCodec::push_into`.
    session_ns: u64,
    /// `GroupCommitStore::buffer` of every emitted point.
    buffer_ns: u64,
    buffers: u64,
    /// `GroupCommitStore::commit` of each batch that wrote something.
    commit_ns: u64,
    commits: u64,
}

impl Replay {
    /// Nanoseconds per fix spent in the replayed layer calls.
    pub fn layer_ns_per_fix(&self) -> f64 {
        (self.queue_ns + self.session_ns + self.buffer_ns + self.commit_ns) as f64
            / self.fixes as f64
    }
}

/// Replays `items` through the worker's calls in batches of the group
/// commit bound, into a fresh store in `dir` (removed afterwards). The
/// wall excludes the untimed `try_send`s that fill each batch.
///
/// # Errors
/// Store, queue or codec failures.
pub fn replay(spec: &IngestSpec, items: &[(u64, Fix)], dir: &Path) -> Result<Replay, String> {
    let _replay = traj_obs::trace_span!("bench.replay");
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let cfg = spec.config();
    let max_batch = cfg.group.max_batch;
    let (tx, rx) = queue::bounded(0, cfg.queue_cap);
    let (mut store, _) = GroupCommitStore::open(dir, IngestMode::Raw, cfg.durable, cfg.group)
        .map_err(|e| format!("replay store: {e}"))?;
    let mut sessions: BTreeMap<u64, SessionCodec> = BTreeMap::new();
    let mut batch = Vec::with_capacity(max_batch);
    let mut emitted = Vec::new();
    let mut points: Vec<(u64, Fix)> = Vec::new();
    let mut r = Replay {
        fixes: items.len() as u64,
        ..Replay::default()
    };
    let submitted = Instant::now();
    for chunk in items.chunks(max_batch) {
        // The driver's side of the queue (`try_send`) runs beside the
        // worker in the service, so only the worker's `recv_batch` is
        // charged to the replayed worker path.
        for &(mover, fix) in chunk {
            tx.try_send(Item {
                mover,
                fix,
                submitted,
            })
            .map_err(|e| format!("replay queue: {e}"))?;
        }
        let t0 = Instant::now();
        {
            let _span = traj_obs::trace_span!("serve.recv_batch");
            batch.clear();
            rx.recv_batch(&mut batch, max_batch, cfg.group.max_delay);
        }
        let t1 = Instant::now();
        {
            let _span = traj_obs::trace_span!("serve.session");
            for item in batch.drain(..) {
                let session = sessions
                    .entry(item.mover)
                    .or_insert_with(|| cfg.codec.build());
                emitted.clear();
                session
                    .push_into(item.fix, &mut emitted)
                    .map_err(|e| format!("replay codec: {e}"))?;
                points.extend(emitted.iter().map(|f| (item.mover, *f)));
            }
        }
        let t2 = Instant::now();
        {
            let _span = traj_obs::trace_span!("store.buffer");
            r.buffers += points.len() as u64;
            for (mover, fix) in points.drain(..) {
                store
                    .buffer(mover, fix)
                    .map_err(|e| format!("replay buffer: {e}"))?;
            }
        }
        let t3 = Instant::now();
        if store.pending() > 0 {
            let _span = traj_obs::trace_span!("store.commit");
            store.commit().map_err(|e| format!("replay commit: {e}"))?;
            r.commits += 1;
        }
        let t4 = Instant::now();
        r.queue_ns += (t1 - t0).as_nanos() as u64;
        r.session_ns += (t2 - t1).as_nanos() as u64;
        r.buffer_ns += (t3 - t2).as_nanos() as u64;
        r.commit_ns += (t4 - t3).as_nanos() as u64;
    }
    drop(store);
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(r)
}

/// Heap bytes per session: one session per mover, each fed its first
/// fix, held in the worker's map type.
pub fn session_bytes(spec: &IngestSpec) -> f64 {
    let _span = traj_obs::trace_span!("probe.session_bytes");
    let before = heap_bytes();
    let mut sessions: BTreeMap<u64, SessionCodec> = BTreeMap::new();
    let mut out = Vec::new();
    for &(mover, fix) in spec.timed() {
        if sessions.contains_key(&mover) {
            continue;
        }
        let mut s = spec.codec.build();
        // Every generated fix is valid; a rejection would be caught by
        // the trials' `invalid` check.
        let _ = s.push_into(fix, &mut out);
        out.clear();
        sessions.insert(mover, s);
    }
    let grown = heap_bytes().saturating_sub(before) as f64;
    grown / sessions.len().max(1) as f64
}

/// Median over trials of `f`.
fn med(trials: &[Trial], f: impl Fn(&Trial) -> f64) -> f64 {
    median(&trials.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end figures of a set of untraced trials.
pub struct Summary {
    /// Median timed throughput, fixes per second.
    pub fixes_per_s: f64,
    /// Median restart time, seconds.
    pub setup_s: f64,
    /// Median points written per 100 fixes.
    pub kept_pct: f64,
    /// Median points written in the timed phase.
    pub emitted: f64,
}

/// Medians of the end-to-end figures.
pub fn summarize(trials: &[Trial]) -> Summary {
    Summary {
        fixes_per_s: med(trials, |t| t.fixes_per_s),
        setup_s: med(trials, |t| t.setup_s),
        kept_pct: med(trials, Trial::kept_pct),
        emitted: med(trials, |t| t.emitted as f64),
    }
}

/// Per-layer `serve`/`store` figures from untraced trials, traced
/// trials (submit timing) and the replay. Returns the worker residual as
/// a percentage of the end-to-end time per fix: the share of the
/// service's wall the replayed layer calls do not account for.
pub fn layer_metrics(
    untraced: &[Trial],
    traced: &[Trial],
    replay: &Replay,
    session_bytes: f64,
    m: &mut crate::metrics::Metrics,
) -> f64 {
    let e2e_ns = 1e9 / med(untraced, |t| t.fixes_per_s);
    let per_fix = |ns: u64| ns as f64 / replay.fixes as f64;
    m.set(
        "gen.driver_busy_share",
        med(untraced, |t| 1.0 - t.drive.sleep_s / t.drive.wall_s),
    );
    m.set(
        "serve.submit_ns",
        med(traced, |t| t.drive.submit_ns as f64 / t.drive.calls as f64),
    );
    m.set(
        "serve.backpressure_per_kfix",
        med(untraced, |t| {
            1000.0 * t.drive.backpressure as f64 / t.acked as f64
        }),
    );
    m.set("serve.queue_ns", per_fix(replay.queue_ns));
    m.set("serve.session_push_ns", per_fix(replay.session_ns));
    let residual_ns = e2e_ns - replay.layer_ns_per_fix();
    m.set("serve.worker_residual_ns", residual_ns);
    m.set("serve.session_bytes", session_bytes);
    m.set(
        "serve.batch_fixes_mean",
        med(untraced, |t| {
            t.counters.batch_fixes as f64 / t.counters.batches as f64
        }),
    );
    m.set("serve.drain_s", med(untraced, |t| t.drain_s));
    m.set(
        "serve.ack_mean_ms",
        med(untraced, |t| t.ack_mean_ns as f64 / 1e6),
    );
    m.set(
        "serve.ack_p99_ms",
        med(untraced, |t| t.ack_p99_ns as f64 / 1e6),
    );
    m.set(
        "store.buffer_ns",
        replay.buffer_ns as f64 / replay.buffers as f64,
    );
    m.set(
        "store.commit_us",
        replay.commit_ns as f64 / replay.commits as f64 / 1e3,
    );
    m.set(
        "store.fsyncs_per_kfix",
        med(untraced, |t| {
            1000.0 * t.counters.fsyncs as f64 / t.acked as f64
        }),
    );
    m.set(
        "store.wal_bytes_per_record",
        med(untraced, |t| {
            t.counters.wal_bytes as f64 / t.counters.wal_records as f64
        }),
    );
    m.set(
        "store.wal_bytes_per_fix",
        med(untraced, |t| t.counters.wal_bytes as f64 / t.acked as f64),
    );
    m.set(
        "store.replay_records_per_s",
        med(untraced, |t| t.restart_replayed as f64 / t.setup_s),
    );
    100.0 * residual_ns / e2e_ns
}
