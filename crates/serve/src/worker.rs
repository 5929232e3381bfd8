//! The shard worker: single owner of one shard's [`GroupCommitStore`].
//!
//! One thread per shard turns the concurrent ingest problem into a
//! sequence of single-threaded batches: drain a batch from the shard
//! queue, run each fix through its mover's session codec, buffer the
//! emitted points into the WAL, then make the whole batch durable with
//! *one* fsync and acknowledge everything it covered. All cross-thread
//! coordination lives in the queue; the store itself is never shared.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use traj_store::GroupCommitStore;

use crate::queue::Receiver;
use crate::report::LatencyHist;
use crate::session::{CodecSpec, SessionCodec};

/// What one shard worker did over its lifetime.
#[derive(Debug)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Fixes acknowledged (processed and covered by their fsync).
    pub acked: u64,
    /// Fixes a session codec rejected (non-finite / non-monotone).
    pub invalid: u64,
    /// Compressed points written to this shard's WAL.
    pub emitted: u64,
    /// Fsync batches this shard committed.
    pub commits: u64,
    /// Distinct mover sessions this shard hosted.
    pub sessions: usize,
    /// Submit→fsync ack latency of this shard's fixes.
    pub ack: LatencyHist,
    /// A storage failure that stopped the worker early, if any.
    pub error: Option<String>,
}

impl ShardStats {
    fn new(shard: usize) -> Self {
        ShardStats {
            shard,
            acked: 0,
            invalid: 0,
            emitted: 0,
            commits: 0,
            sessions: 0,
            ack: LatencyHist::new(),
            error: None,
        }
    }
}

/// Everything a worker needs; built by the service, moved into the
/// worker thread.
pub(crate) struct WorkerConfig {
    pub shard: usize,
    pub store: GroupCommitStore,
    pub codec: CodecSpec,
    pub max_batch: usize,
    pub max_delay: Duration,
}

/// Commits the store's pending records, returning `false` (with the
/// error recorded) when the handle is poisoned — the worker must stop.
fn commit(store: &mut GroupCommitStore, stats: &mut ShardStats) -> bool {
    if store.pending() == 0 {
        return true;
    }
    match store.commit() {
        Ok(_) => {
            stats.commits += 1;
            true
        }
        Err(e) => {
            stats.error = Some(e.to_string());
            false
        }
    }
}

/// The worker body; runs until the queue closes or storage fails.
pub(crate) fn run(cfg: WorkerConfig, rx: &Receiver) -> ShardStats {
    let WorkerConfig { shard, mut store, codec, max_batch, max_delay } = cfg;
    let mut stats = ShardStats::new(shard);
    let shard_label = shard.to_string();
    traj_obs::trace::set_track_label(&format!("serve-shard-{shard}"));
    let depth_gauge =
        traj_obs::registry().gauge_with("serve", "queue_depth", &[("shard", &shard_label)]);
    let acks_ctr = traj_obs::counter!("serve", "acks");
    let invalid_ctr = traj_obs::counter!("serve", "invalid");
    let ack_hist = traj_obs::histogram!("serve", "ack_latency_ns");
    let batch_hist = traj_obs::histogram!("serve", "batch_fixes");

    let mut sessions: BTreeMap<u64, SessionCodec> = BTreeMap::new();
    let mut batch = Vec::with_capacity(max_batch);
    let mut emitted = Vec::new();
    // Submit stamps of fixes whose ack waits for the batch commit.
    let mut waiting = Vec::with_capacity(max_batch);

    loop {
        batch.clear();
        let open = rx.recv_batch(&mut batch, max_batch, max_delay);
        if !batch.is_empty() {
            let _span = traj_obs::span!("serve.batch", fixes = batch.len() as u64);
            batch_hist.record(batch.len() as u64);
            waiting.clear();
            for item in batch.drain(..) {
                let session =
                    sessions.entry(item.mover).or_insert_with(|| codec.build());
                emitted.clear();
                if session.push_into(item.fix, &mut emitted).is_err() {
                    stats.invalid += 1;
                    invalid_ctr.inc();
                    continue;
                }
                for f in emitted.drain(..) {
                    match store.buffer(item.mover, f) {
                        Ok(_) => stats.emitted += 1,
                        Err(e) => {
                            stats.error = Some(e.to_string());
                            stats.sessions = sessions.len();
                            return stats;
                        }
                    }
                }
                waiting.push(item.submitted);
            }
            // One fsync covers the whole batch (a batch that emitted
            // nothing — all fixes absorbed into open codec windows —
            // commits nothing and acks immediately).
            if !commit(&mut store, &mut stats) {
                stats.sessions = sessions.len();
                return stats;
            }
            for submitted in waiting.drain(..) {
                ack(&mut stats, acks_ctr, ack_hist, submitted);
            }
            depth_gauge.set(rx.depth() as f64);
        }
        if !open {
            break;
        }
    }

    // Clean shutdown: flush every session's open tail, then one final
    // commit so the WAL ends at a durable point.
    let _span = traj_obs::span!("serve.flush", sessions = sessions.len() as u64);
    stats.sessions = sessions.len();
    for (mover, session) in std::mem::take(&mut sessions) {
        for f in session.finish() {
            match store.buffer(mover, f) {
                Ok(_) => stats.emitted += 1,
                Err(e) => {
                    stats.error = Some(e.to_string());
                    return stats;
                }
            }
        }
    }
    commit(&mut store, &mut stats);
    stats
}

fn ack(
    stats: &mut ShardStats,
    acks_ctr: &traj_obs::Counter,
    ack_hist: &traj_obs::Histogram,
    submitted: Instant,
) {
    let ns = u64::try_from(
        Instant::now().saturating_duration_since(submitted).as_nanos(),
    )
    .unwrap_or(u64::MAX);
    stats.acked += 1;
    stats.ack.record(ns);
    acks_ctr.inc();
    ack_hist.record(ns);
}
