//! Per-mover ingest sessions: the online codec between a mover's raw
//! report stream and its shard's WAL.
//!
//! Every mover gets its own session codec; fixes the codec *emits* are
//! what the shard buffers into the durable store, so compression
//! happens before the log — it shrinks WAL volume and fsync payloads,
//! not just the in-memory representation. The default is the one-pass
//! cone (`op-cone`): O(1) state per session, no buffered window to
//! replay, and the strongest point reduction of the one-pass family
//! (see `ALGORITHMS.md`).
//!
//! The durability consequence is documented rather than hidden: with a
//! lossy codec, a crash loses at most the codec's *open tail* (the
//! fixes since its last emitted point) per mover; `raw` sessions keep
//! the exact per-fix durability of the store layer. A clean shutdown
//! always [`SessionCodec::finish`]es every session, so nothing is lost
//! in the graceful case either way.
//!
//! The codec itself lives in [`traj_compress::streaming`], shared with
//! the store's ingest mode; `--algo` names resolve through
//! [`traj_compress::catalog::codec`].

pub use traj_compress::streaming::{CodecSpec, SessionCodec};
