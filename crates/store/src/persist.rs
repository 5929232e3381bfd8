//! Atomic, checksummed snapshot persistence for the moving-object store.
//!
//! The stored (possibly compressed) history of each object is written as
//! one `<object_id>.csv` file in the `t,x,y` format of
//! [`traj_model::io`] — a deliberately boring layout: greppable,
//! diffable, loadable by anything. Two durability measures sit on top
//! (byte-level spec in `crates/store/README.md`):
//!
//! * every file is written to `<object_id>.csv.tmp` and published with
//!   an atomic rename, so a crash leaves either the old or the new file,
//!   never a truncated half;
//! * the last line is a CRC-32 trailer comment
//!   (`# crc32:xxxxxxxx`) over all preceding bytes. The trailer is a
//!   `#` comment, so the files stay loadable by anything that reads the
//!   plain `t,x,y` format; [`load_dir`] *verifies* it and rejects files
//!   whose contents rotted at rest. Files without a trailer (written by
//!   older versions, or by hand) load without verification.
//!
//! Loading reconstructs a store in [`IngestMode::Raw`]: the fixes on
//! disk are already the kept subset, and compressing them again would
//! silently stack error budgets.

use std::path::Path;

use traj_model::{io, Trajectory};

use crate::storage::{crc32, FsStorage, Storage};
use crate::store::{IngestMode, MovingObjectStore, ObjectId, StoreError};

/// Prefix of the checksum trailer line.
pub const TRAILER_PREFIX: &str = "# crc32:";

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Storage { path: path.to_path_buf(), source }
}

/// Serializes a trajectory to the snapshot format: `t,x,y` CSV plus the
/// checksum trailer line.
pub fn snapshot_bytes(traj: &Trajectory) -> Vec<u8> {
    let mut body = io::to_csv_string(traj).into_bytes();
    let crc = crc32(&body);
    body.extend_from_slice(format!("{TRAILER_PREFIX}{crc:08x}\n").as_bytes());
    body
}

/// Verifies a snapshot file's trailer, if present.
///
/// # Errors
/// [`StoreError::Corrupt`] when the trailer is malformed or the checksum
/// does not match the preceding bytes. Trailer-less content passes.
pub fn verify_snapshot(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    // The trailer is the final line; find the start of the last
    // non-empty line.
    let trimmed = match bytes.last() {
        Some(b'\n') => &bytes[..bytes.len() - 1],
        _ => bytes,
    };
    let line_start = trimmed.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let last_line = &trimmed[line_start..];
    let Some(hex) = last_line.strip_prefix(TRAILER_PREFIX.as_bytes()) else {
        return Ok(()); // legacy file without a trailer
    };
    let corrupt = |detail: String| StoreError::Corrupt { path: path.to_path_buf(), detail };
    let hex = std::str::from_utf8(hex)
        .map_err(|_| corrupt("checksum trailer is not UTF-8".into()))?
        .trim();
    let expected = u32::from_str_radix(hex, 16)
        .map_err(|_| corrupt(format!("malformed checksum trailer {hex:?}")))?;
    let actual = crc32(&bytes[..line_start]);
    if actual != expected {
        return Err(corrupt(format!(
            "checksum mismatch: trailer {expected:08x}, contents {actual:08x}"
        )));
    }
    Ok(())
}

/// [`save_dir`] over an injectable [`Storage`] backend.
///
/// # Errors
/// Backend failures (with the offending path attached).
pub fn save_dir_with(
    storage: &dyn Storage,
    store: &MovingObjectStore,
    dir: &Path,
) -> Result<usize, StoreError> {
    storage.create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let mut written = 0usize;
    for id in store.object_ids() {
        let Some(traj) = store.trajectory(id) else { continue };
        let bytes = snapshot_bytes(&traj);
        let tmp = dir.join(format!("{id}.csv.tmp"));
        let path = dir.join(format!("{id}.csv"));
        {
            let mut w = storage.create(&tmp).map_err(|e| io_err(&tmp, e))?;
            w.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
            // The data must be durable before the rename publishes it:
            // otherwise the rename can survive a crash that the bytes
            // did not.
            w.sync().map_err(|e| io_err(&tmp, e))?;
        }
        storage.rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        written += 1;
        traj_obs::counter!("store", "persist_bytes").add(bytes.len() as u64);
    }
    storage.sync_dir(dir).map_err(|e| io_err(dir, e))?;
    traj_obs::counter!("store", "persist_files").add(written as u64);
    Ok(written)
}

/// Writes every object's stored trajectory to `dir` as
/// `<object_id>.csv` (atomic rename, checksum trailer), creating the
/// directory if needed.
///
/// Objects whose stored history is empty are skipped.
///
/// # Errors
/// Propagates filesystem failures, with the offending path attached
/// ([`StoreError::Storage`]).
pub fn save_dir(store: &MovingObjectStore, dir: &Path) -> Result<usize, StoreError> {
    save_dir_with(&FsStorage, store, dir)
}

/// Collects the `<n>.csv` object files under `dir`, ascending by id.
fn object_files(
    storage: &dyn Storage,
    dir: &Path,
) -> Result<Vec<(ObjectId, std::path::PathBuf)>, StoreError> {
    let mut files: Vec<(ObjectId, std::path::PathBuf)> = Vec::new();
    for path in storage.list(dir).map_err(|e| io_err(dir, e))? {
        if path.extension().is_none_or(|e| e != "csv") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
        let Ok(id) = stem.parse::<ObjectId>() else { continue };
        files.push((id, path));
    }
    // Deterministic load order regardless of directory iteration order.
    files.sort_unstable_by_key(|(id, _)| *id);
    Ok(files)
}

/// [`load_dir`] over an injectable [`Storage`] backend.
///
/// # Errors
/// Like [`load_dir`].
pub fn load_dir_with(
    storage: &dyn Storage,
    dir: &Path,
) -> Result<MovingObjectStore, StoreError> {
    let mut store = MovingObjectStore::new(IngestMode::Raw);
    for (id, path) in object_files(storage, dir)? {
        let bytes = storage.read(&path).map_err(|e| io_err(&path, e))?;
        verify_snapshot(&path, &bytes)?;
        let text = std::str::from_utf8(&bytes).map_err(|_| StoreError::Corrupt {
            path: path.clone(),
            detail: "snapshot file is not UTF-8".into(),
        })?;
        let traj: Trajectory = io::from_csv_str(text)?;
        store.restore_trajectory(id, traj.into_fixes())?;
    }
    Ok(store)
}

/// Loads a store from a directory written by [`save_dir`]: every
/// `<n>.csv` file becomes object `n`. Non-`.csv` entries and files whose
/// stem is not an integer are ignored (so the directory can carry a
/// README or manifests); `.tmp` leftovers from an interrupted save are
/// ignored the same way. Checksum trailers are verified when present.
///
/// # Errors
/// Fails on unreadable or malformed trajectory files
/// ([`StoreError::Storage`] / [`StoreError::Model`]) and on checksum
/// mismatches ([`StoreError::Corrupt`]).
pub fn load_dir(dir: &Path) -> Result<MovingObjectStore, StoreError> {
    load_dir_with(&FsStorage, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::Fix;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("trajc_persist_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_store() -> Result<MovingObjectStore, StoreError> {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        for id in [3u64, 11, 7] {
            for i in 0..20 {
                s.append(
                    id,
                    Fix::from_parts(i as f64 * 10.0, i as f64 * 100.0 + id as f64, id as f64),
                )?;
            }
        }
        Ok(s)
    }

    #[test]
    fn roundtrip_preserves_everything() -> Result<(), Box<dyn std::error::Error>> {
        let dir = tmp("roundtrip");
        let store = sample_store()?;
        let written = save_dir(&store, &dir)?;
        assert_eq!(written, 3);
        let loaded = load_dir(&dir)?;
        assert_eq!(
            loaded.object_ids().collect::<Vec<_>>(),
            store.object_ids().collect::<Vec<_>>()
        );
        for id in store.object_ids() {
            assert_eq!(loaded.trajectory(id), store.trajectory(id), "object {id}");
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn snapshot_bytes_match_the_readme_example() -> Result<(), Box<dyn std::error::Error>> {
        // Pins the worked example in crates/store/README.md: if this
        // breaks, the format changed and the spec must change with it.
        let traj = Trajectory::from_triples([(0.0, 0.0, 0.0), (10.0, 120.5, -3.25)])?;
        assert_eq!(
            String::from_utf8(snapshot_bytes(&traj))?,
            "t,x,y\n0,0,0\n10,120.5,-3.25\n# crc32:c094cc4d\n"
        );
        Ok(())
    }

    #[test]
    fn files_carry_a_valid_checksum_trailer() -> Result<(), Box<dyn std::error::Error>> {
        let dir = tmp("trailer");
        save_dir(&sample_store()?, &dir)?;
        let text = std::fs::read_to_string(dir.join("3.csv"))?;
        let trailer = text.lines().last().ok_or("empty snapshot")?;
        assert!(trailer.starts_with(TRAILER_PREFIX), "trailer line: {trailer:?}");
        // No temp files are left behind.
        assert!(!dir.join("3.csv.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn compressed_store_persists_its_kept_subset() -> Result<(), Box<dyn std::error::Error>> {
        let dir = tmp("compressed");
        let mut s = MovingObjectStore::new(IngestMode::OpwTr { eps: 1000.0 });
        for i in 0..50 {
            s.append(1, Fix::from_parts(i as f64 * 10.0, i as f64 * 100.0, 0.0))?;
        }
        save_dir(&s, &dir)?;
        let loaded = load_dir(&dir)?;
        // The loaded store holds exactly the kept fixes (straight line →
        // endpoints only).
        assert_eq!(loaded.trajectory(1).ok_or("missing object 1")?, s.trajectory(1).ok_or("missing object 1")?);
        assert!(loaded.trajectory(1).ok_or("missing object 1")?.len() < 50);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn load_ignores_foreign_files() -> Result<(), Box<dyn std::error::Error>> {
        let dir = tmp("foreign");
        save_dir(&sample_store()?, &dir)?;
        std::fs::write(dir.join("README.md"), "not a trajectory")?;
        std::fs::write(dir.join("not_a_number.csv"), "t,x,y\n0,0,0\n")?;
        std::fs::write(dir.join("5.csv.tmp"), "t,x,y\n0,0,0\n")?;
        let loaded = load_dir(&dir)?;
        assert_eq!(loaded.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn load_surfaces_corruption() -> Result<(), Box<dyn std::error::Error>> {
        let dir = tmp("corrupt");
        save_dir(&sample_store()?, &dir)?;
        std::fs::write(dir.join("3.csv"), "t,x,y\n0,0,0\ngarbage\n")?;
        assert!(load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn load_detects_bit_rot_via_trailer() -> Result<(), Box<dyn std::error::Error>> {
        let dir = tmp("bitrot");
        save_dir(&sample_store()?, &dir)?;
        let path = dir.join("7.csv");
        let mut bytes = std::fs::read(&path)?;
        // Flip one digit inside the data body (not the trailer line).
        let pos = bytes.iter().position(|&b| b == b'1').ok_or("no digit to flip")?;
        bytes[pos] = b'2';
        std::fs::write(&path, &bytes)?;
        let err = load_dir(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("7.csv"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn trailerless_legacy_files_still_load() -> Result<(), Box<dyn std::error::Error>> {
        let dir = tmp("legacy");
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join("4.csv"), "t,x,y\n0,0,0\n10,5,5\n")?;
        let loaded = load_dir(&dir)?;
        assert_eq!(loaded.trajectory(4).ok_or("missing object 4")?.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn missing_directory_is_an_error_with_path_context() -> Result<(), Box<dyn std::error::Error>> {
        let err = load_dir(Path::new("/definitely/not/here")).unwrap_err();
        assert!(matches!(err, StoreError::Storage { .. }), "{err}");
        assert!(err.to_string().contains("/definitely/not/here"), "{err}");
        Ok(())
    }

    #[test]
    fn empty_directory_loads_empty_store() -> Result<(), Box<dyn std::error::Error>> {
        let dir = tmp("empty");
        std::fs::create_dir_all(&dir)?;
        let loaded = load_dir(&dir)?;
        assert!(loaded.is_empty());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn verify_snapshot_catches_malformed_trailers() -> Result<(), Box<dyn std::error::Error>> {
        let p = Path::new("x.csv");
        assert!(verify_snapshot(p, b"t,x,y\n0,0,0\n").is_ok());
        assert!(verify_snapshot(p, b"t,x,y\n0,0,0\n# crc32:zzzz\n").is_err());
        let good = snapshot_bytes(
            &Trajectory::from_triples([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])?,
        );
        assert!(verify_snapshot(p, &good).is_ok());
        Ok(())
    }
}
