//! # dini-store — memory-mapped index snapshots
//!
//! The paper's index lives entirely in memory and is rebuilt by sorting
//! on every process start; at "millions of users" keyspace sizes that
//! makes a restart a full outage. This crate persists each span
//! process's shard states as one versioned, checksummed,
//! cache-line-aligned binary file that a restarted process **maps**
//! instead of re-sorting:
//!
//! - [`SharedKeys`] — the enum behind every shard's main array: either
//!   PR 4's `Arc<Vec<u32>>` (owned, sort-built) or a zero-copy window
//!   into a [`MappedFile`]. Dispatchers, replicas, and the epoch-swap
//!   machinery see `&[u32]` either way; the read path stays 0-alloc.
//! - [`write_snapshot`] / [`open_snapshot`] — the codec. Writes are
//!   atomic (temp file + fsync + rename + dir fsync), reads are totally
//!   validated (magic, version, dual FNV-1a checksums, length, bounds,
//!   alignment, sortedness, delta-consistency) so a torn or mangled
//!   file yields a typed [`SnapError`] and a sort-rebuild fallback,
//!   never a panic or silent wrong ranks.
//! - [`StorePlan`] — where and how often the serve writer (whose merge
//!   cycle doubles as the checkpointer) snapshots.
//!
//! File layout, watermark semantics, and the atomic-write protocol are
//! documented on [`snap`](self) — see `DESIGN.md` § *Persistence* for
//! the system view.
//!
//! ```
//! use dini_store::{open_snapshot, write_snapshot, ShardRecord, SpanRecord};
//!
//! let dir = std::env::temp_dir().join(format!("dini-store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("span0.snap");
//!
//! let main: Vec<u32> = (0..100).map(|i| i * 2).collect();
//! let rec = SpanRecord {
//!     delims: &[],
//!     shards: vec![ShardRecord { main: &main, inserts: &[1], deletes: &[0], main_epoch: 4 }],
//!     log_epoch: 1,
//!     log_seq: 57,
//! };
//! write_snapshot(&path, &rec).unwrap();
//!
//! let snap = open_snapshot(&path).unwrap();
//! assert_eq!(snap.shards[0].main.as_slice(), main.as_slice());
//! assert_eq!((snap.log_epoch, snap.log_seq), (1, 57));
//! # std::fs::remove_file(&path).ok();
//! ```

mod keys;
mod map;
mod snap;

pub use keys::{MappedFile, MappedKeys, SharedKeys};
pub use map::MappedFileMut;
pub use snap::{
    encode_snapshot, fnv1a, open_snapshot, write_snapshot, ShardRecord, SnapError, Snapshot,
    SnapshotShard, SpanRecord, StorePlan, MAX_SNAP_SHARDS, SNAP_MAGIC, SNAP_VERSION,
};
