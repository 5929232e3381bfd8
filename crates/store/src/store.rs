//! The moving-object store.

use std::collections::BTreeMap;

use traj_compress::streaming::SessionCodec;
use traj_model::{Fix, ModelError, Trajectory};

/// Identifier of a tracked moving object.
pub type ObjectId = u64;

/// How fixes are persisted on ingest: the same session codec spec
/// `trajc serve` runs per mover. `Raw` stores every reported fix; any
/// other spec compresses online, per object, and stores only the fixes
/// the codec keeps.
pub use traj_compress::streaming::CodecSpec as IngestMode;

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// The object id is not present.
    UnknownObject(ObjectId),
    /// The fix was rejected (non-finite, or not later than the object's
    /// latest fix).
    Model(ModelError),
    /// A storage backend operation failed; `path` is the file or
    /// directory being touched.
    Storage {
        /// The path the failing operation was addressing.
        path: std::path::PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// On-disk data failed validation (checksum mismatch, malformed
    /// trailer, undecodable contents).
    Corrupt {
        /// The corrupt file.
        path: std::path::PathBuf,
        /// What exactly failed to validate.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownObject(id) => write!(f, "unknown object {id}"),
            StoreError::Model(e) => write!(f, "rejected fix: {e}"),
            StoreError::Storage { path, source } => {
                write!(f, "storage error at {}: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt data in {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Model(e) => Some(e),
            StoreError::Storage { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ModelError> for StoreError {
    fn from(e: ModelError) -> Self {
        StoreError::Model(e)
    }
}

/// Aggregate storage statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of tracked objects.
    pub objects: usize,
    /// Fixes ever ingested.
    pub ingested_points: usize,
    /// Fixes actually stored (committed), including those still pending
    /// in open windows.
    pub stored_points: usize,
}

impl StoreStats {
    /// Percentage of ingested fixes *not* stored.
    pub fn compression_pct(&self) -> f64 {
        if self.ingested_points == 0 {
            0.0
        } else {
            100.0 * (self.ingested_points - self.stored_points) as f64
                / self.ingested_points as f64
        }
    }
}

/// Per-object state: committed fixes plus (in compressed mode) the
/// object's ingest codec. A raw-mode object carries no codec at all, so
/// its state stays three words plus the fix vector.
#[derive(Debug, Clone)]
struct ObjectState {
    committed: Vec<Fix>,
    codec: Option<Box<SessionCodec>>,
    ingested: usize,
}

impl ObjectState {
    /// `codec` is the store's fresh codec template.
    fn new(codec: &Option<Box<SessionCodec>>, committed: Vec<Fix>) -> Self {
        ObjectState { ingested: committed.len(), committed, codec: codec.clone() }
    }

    /// The codec's freshest accepted-but-unemitted fix: the end of the
    /// queryable span when the codec holds an open tail.
    fn pending_tail(&self) -> Option<Fix> {
        self.codec.as_ref().and_then(|c| c.pending())
    }

    /// Latest raw fix known for the object (pending tail wins over the
    /// last committed fix).
    fn latest(&self) -> Option<Fix> {
        self.pending_tail().or_else(|| self.committed.last().copied())
    }
}

/// In-memory moving-object store with optional online compression.
///
/// ```
/// use traj_store::{IngestMode, MovingObjectStore};
/// use traj_model::Fix;
///
/// let mut store = MovingObjectStore::new(IngestMode::OpwTr { eps: 30.0 });
/// for i in 0..1000u64 {
///     // A car reporting every 10 s while cruising a straight road.
///     store.append(7, Fix::from_parts(i as f64 * 10.0, i as f64 * 150.0, 0.0)).unwrap();
/// }
/// let stats = store.stats();
/// assert!(stats.compression_pct() > 95.0);
/// ```
#[derive(Debug, Clone)]
pub struct MovingObjectStore {
    /// A fresh codec for the ingest mode, cloned into each new object
    /// (`None` in raw mode).
    codec: Option<Box<SessionCodec>>,
    objects: BTreeMap<ObjectId, ObjectState>,
}

impl MovingObjectStore {
    /// Creates an empty store with the given ingest mode.
    ///
    /// # Panics
    /// Panics on non-finite or negative thresholds in `mode` (see
    /// [`IngestMode::build`]); specs resolved by
    /// `traj_compress::catalog::codec` are already validated.
    pub fn new(mode: IngestMode) -> Self {
        let codec = (!matches!(mode, IngestMode::Raw)).then(|| Box::new(mode.build()));
        MovingObjectStore { codec, objects: BTreeMap::new() }
    }

    /// Appends a reported fix for `id`, creating the object on first
    /// contact.
    ///
    /// # Errors
    /// Rejects non-finite fixes and fixes not strictly later than the
    /// object's latest fix; the store state is unchanged on error.
    pub fn append(&mut self, id: ObjectId, fix: Fix) -> Result<(), StoreError> {
        if !fix.is_finite() {
            return Err(StoreError::Model(ModelError::NonFinite { index: 0 }));
        }
        let codec = &self.codec;
        let state = self.objects.entry(id).or_insert_with(|| ObjectState::new(codec, Vec::new()));
        // The latest known fix is the reference even for a fresh codec
        // (first contact, or right after `restore_trajectory`).
        if state.latest().is_some_and(|last| last.t >= fix.t) {
            return Err(StoreError::Model(ModelError::NonMonotonicTime { index: state.ingested }));
        }
        match &mut state.codec {
            None => state.committed.push(fix),
            Some(codec) => codec.push_into(fix, &mut state.committed)?,
        }
        state.ingested += 1;
        traj_obs::counter!("store", "inserts").inc();
        Ok(())
    }

    /// Bulk-inserts a whole trajectory for `id`.
    ///
    /// # Errors
    /// Fails like [`MovingObjectStore::append`]; fixes before the error
    /// remain ingested.
    pub fn insert_trajectory(&mut self, id: ObjectId, traj: &Trajectory) -> Result<(), StoreError> {
        for f in traj.fixes() {
            self.append(id, *f)?;
        }
        Ok(())
    }

    /// Installs `fixes` as the *already-kept* committed history of `id`,
    /// bypassing compression — the recovery path ([`crate::load_dir`],
    /// [`crate::DurableStore`]). Re-feeding an already-compressed subset
    /// through the ingest stream would silently stack error budgets;
    /// this does not. Any existing state for `id` is replaced; later
    /// [`MovingObjectStore::append`]s continue in the configured ingest
    /// mode from the restored history's end.
    ///
    /// # Errors
    /// Rejects non-finite fixes and non-strictly-increasing timestamps;
    /// the store is unchanged on error.
    pub fn restore_trajectory(
        &mut self,
        id: ObjectId,
        fixes: Vec<Fix>,
    ) -> Result<(), StoreError> {
        for (i, f) in fixes.iter().enumerate() {
            if !f.is_finite() {
                return Err(StoreError::Model(ModelError::NonFinite { index: i }));
            }
            if i > 0 && fixes[i - 1].t >= f.t {
                return Err(StoreError::Model(ModelError::NonMonotonicTime { index: i }));
            }
        }
        self.objects.insert(id, ObjectState::new(&self.codec, fixes));
        Ok(())
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store tracks no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterator over tracked object ids, ascending.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.keys().copied()
    }

    /// The *stored* fixes of `id`: committed kept fixes plus, in
    /// compressed mode, the freshest buffered fix (so the queryable span
    /// always reaches the latest report).
    pub fn stored_fixes(&self, id: ObjectId) -> Option<Vec<Fix>> {
        let state = self.objects.get(&id)?;
        let mut fixes = state.committed.clone();
        if let Some(tail) = state.pending_tail() {
            fixes.push(tail);
        }
        Some(fixes)
    }

    /// Materializes the stored trajectory of `id` (needs ≥ 1 stored fix).
    pub fn trajectory(&self, id: ObjectId) -> Option<Trajectory> {
        let fixes = self.stored_fixes(id)?;
        Trajectory::new(fixes).ok()
    }

    /// The latest raw fix known for `id`.
    pub fn latest(&self, id: ObjectId) -> Option<Fix> {
        self.objects.get(&id)?.latest()
    }

    /// Offline compaction: re-compresses each object's *committed*
    /// history with a batch compressor, which the paper notes
    /// "consistently produce\[s\] higher quality results" than the online
    /// algorithms that ran at ingest time. Returns the number of fixes
    /// removed.
    ///
    /// Open windows are untouched: only the committed prefix up to the
    /// current anchor is rewritten (the anchor itself is kept, so the
    /// stream's invariants still hold). On raw-mode stores the whole
    /// history is compacted.
    pub fn compact<C: traj_compress::Compressor + ?Sized>(&mut self, compressor: &C) -> usize {
        let mut removed = 0usize;
        for state in self.objects.values_mut() {
            if state.committed.len() < 3 {
                continue;
            }
            let Ok(traj) = Trajectory::new(state.committed.clone()) else {
                continue;
            };
            let result = compressor.compress(&traj);
            removed += result.removed();
            state.committed = result.apply(&traj).into_fixes();
        }
        traj_obs::counter!("store", "compact_removed").add(removed as u64);
        removed
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let mut ingested = 0usize;
        let mut stored = 0usize;
        for s in self.objects.values() {
            ingested += s.ingested;
            stored += s.committed.len() + usize::from(s.pending_tail().is_some());
        }
        StoreStats { objects: self.objects.len(), ingested_points: ingested, stored_points: stored }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zigzag_fixes(n: usize) -> Vec<Fix> {
        (0..n)
            .map(|i| {
                let leg = i / 10;
                let along = (i % 10) as f64;
                let (x, y) = if leg % 2 == 0 {
                    (leg as f64 * 1000.0 + along * 100.0, 0.0)
                } else {
                    ((leg + 1) as f64 * 1000.0 - 1000.0 + 900.0, along * 100.0)
                };
                Fix::from_parts(i as f64 * 10.0, x, y)
            })
            .collect()
    }

    #[test]
    fn raw_mode_stores_everything() {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        for f in zigzag_fixes(50) {
            s.append(1, f).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.objects, 1);
        assert_eq!(st.ingested_points, 50);
        assert_eq!(st.stored_points, 50);
        assert_eq!(st.compression_pct(), 0.0);
    }

    #[test]
    fn compressed_mode_stores_fewer_points() {
        let mut s = MovingObjectStore::new(IngestMode::OpwTr { eps: 50.0 });
        for f in zigzag_fixes(200) {
            s.append(1, f).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.ingested_points, 200);
        assert!(st.stored_points < 200, "stored {}", st.stored_points);
        assert!(st.compression_pct() > 0.0);
    }

    #[test]
    fn queryable_span_reaches_latest_report() {
        // Everything compresses; the window stays open.
        let mut s = MovingObjectStore::new(IngestMode::OpwTr { eps: 1e6 });
        let fixes = zigzag_fixes(30);
        for f in &fixes {
            s.append(9, *f).unwrap();
        }
        let t = s.trajectory(9).unwrap();
        assert_eq!(t.end_time(), fixes.last().unwrap().t);
        assert_eq!(s.latest(9).unwrap(), *fixes.last().unwrap());
    }

    #[test]
    fn every_session_spec_stores_its_batch_output() {
        // Shorter than a session window, so no forced cut: committed
        // fixes plus the pending tail are exactly the batch kept set.
        let traj = Trajectory::new(zigzag_fixes(60)).unwrap();
        for meta in traj_compress::algorithm_catalog().iter().filter(|m| m.streams()) {
            let mut s = MovingObjectStore::new(meta.codec(40.0, Some(5.0)).unwrap());
            s.insert_trajectory(1, &traj).unwrap();
            let batch = meta.compressor(40.0, Some(5.0)).unwrap().compress(&traj);
            assert_eq!(s.trajectory(1).unwrap(), batch.apply(&traj), "{}", meta.name);
            assert_eq!(s.latest(1), traj.fixes().last().copied(), "{}", meta.name);
        }
    }

    #[test]
    fn multiple_objects_are_isolated() {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        s.append(1, Fix::from_parts(0.0, 0.0, 0.0)).unwrap();
        s.append(2, Fix::from_parts(0.0, 100.0, 0.0)).unwrap();
        s.append(1, Fix::from_parts(10.0, 10.0, 0.0)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.trajectory(1).unwrap().len(), 2);
        assert_eq!(s.trajectory(2).unwrap().len(), 1);
        assert_eq!(s.object_ids().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn rejects_nonmonotonic_appends() {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        s.append(1, Fix::from_parts(10.0, 0.0, 0.0)).unwrap();
        let e = s.append(1, Fix::from_parts(5.0, 1.0, 0.0));
        assert!(matches!(e, Err(StoreError::Model(ModelError::NonMonotonicTime { .. }))));
        // Store unchanged.
        assert_eq!(s.stats().ingested_points, 1);
    }

    #[test]
    fn rejects_nonfinite_fix() {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        let e = s.append(1, Fix::from_parts(f64::NAN, 0.0, 0.0));
        assert!(matches!(e, Err(StoreError::Model(ModelError::NonFinite { .. }))));
        assert!(s.is_empty());
    }

    #[test]
    fn unknown_object_queries_return_none() {
        let s = MovingObjectStore::new(IngestMode::Raw);
        assert!(s.trajectory(77).is_none());
        assert!(s.latest(77).is_none());
        assert!(s.stored_fixes(77).is_none());
    }

    #[test]
    fn insert_trajectory_bulk() {
        let traj = Trajectory::new(zigzag_fixes(40)).unwrap();
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        s.insert_trajectory(5, &traj).unwrap();
        assert_eq!(s.trajectory(5).unwrap(), traj);
    }

    #[test]
    fn compact_reduces_raw_history_and_keeps_span() {
        use traj_compress::{Compressor, TdTr};
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        let traj = Trajectory::new(zigzag_fixes(200)).unwrap();
        s.insert_trajectory(4, &traj).unwrap();
        let before = s.stats().stored_points;
        let removed = s.compact(&TdTr::new(40.0));
        assert!(removed > 0);
        assert_eq!(s.stats().stored_points, before - removed);
        let compacted = s.trajectory(4).unwrap();
        assert_eq!(compacted.start_time(), traj.start_time());
        assert_eq!(compacted.end_time(), traj.end_time());
        // Compaction matches running the batch compressor directly.
        let direct = TdTr::new(40.0).compress(&traj).apply(&traj);
        assert_eq!(compacted, direct);
    }

    #[test]
    fn compact_beats_online_ingest_on_compression() {
        use traj_compress::TdTr;
        // Paper §2: batch algorithms consistently beat online ones.
        let traj = Trajectory::new(zigzag_fixes(300)).unwrap();
        let mut online = MovingObjectStore::new(IngestMode::OpwTr { eps: 40.0 });
        online.insert_trajectory(1, &traj).unwrap();
        let online_stored = online.stats().stored_points;
        let mut compacted = MovingObjectStore::new(IngestMode::Raw);
        compacted.insert_trajectory(1, &traj).unwrap();
        compacted.compact(&TdTr::new(40.0));
        let batch_stored = compacted.stats().stored_points;
        assert!(
            batch_stored <= online_stored,
            "batch {batch_stored} vs online {online_stored}"
        );
    }

    #[test]
    fn restore_bypasses_compression_and_resumes_ingest() {
        // Everything would compress away if streamed.
        let mut s = MovingObjectStore::new(IngestMode::OpwTr { eps: 1e9 });
        let kept = zigzag_fixes(10);
        s.restore_trajectory(5, kept.clone()).unwrap();
        // The restored subset is stored verbatim, not re-compressed.
        assert_eq!(s.stored_fixes(5).unwrap(), kept);
        assert_eq!(s.stats().ingested_points, 10);
        // Ingest resumes in the configured mode after the restored end.
        let last_t = kept.last().unwrap().t.as_secs();
        s.append(5, Fix::from_parts(last_t + 10.0, 0.0, 0.0)).unwrap();
        // A stale fix is rejected even though the fresh stream has no
        // window yet.
        let stale = s.append(5, Fix::from_parts(last_t, 1.0, 1.0));
        assert!(matches!(stale, Err(StoreError::Model(ModelError::NonMonotonicTime { .. }))));
    }

    #[test]
    fn restore_validates_input() {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        let bad = vec![Fix::from_parts(10.0, 0.0, 0.0), Fix::from_parts(5.0, 0.0, 0.0)];
        assert!(s.restore_trajectory(1, bad).is_err());
        assert!(s
            .restore_trajectory(1, vec![Fix::from_parts(f64::NAN, 0.0, 0.0)])
            .is_err());
        assert!(s.is_empty(), "failed restore must not leave state behind");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn ingest_bumps_insert_counter() {
        // The registry is global and tests run in parallel, so assert a
        // monotone delta rather than an absolute value.
        let before = traj_obs::counter!("store", "inserts").get();
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        for f in zigzag_fixes(25) {
            s.append(1, f).unwrap();
        }
        let after = traj_obs::counter!("store", "inserts").get();
        assert!(after >= before + 25, "inserts {before} -> {after}");
    }

    #[test]
    fn compressed_error_stays_within_budget_at_samples() {
        use traj_compress::error::sed_at_samples;
        let eps = 40.0;
        let mut s = MovingObjectStore::new(IngestMode::OpwTr { eps });
        let traj = Trajectory::new(zigzag_fixes(200)).unwrap();
        s.insert_trajectory(3, &traj).unwrap();
        let stored = s.trajectory(3).unwrap();
        let (_, max_sed) = sed_at_samples(&traj, &stored);
        assert!(max_sed <= eps + 1e-6, "max SED {max_sed} > budget {eps}");
    }
}
