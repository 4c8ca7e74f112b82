//! Shared key storage: one enum over owned-sorted and mmap-backed keys.
//!
//! PR 4 made replicas cheap by sharing one `Arc<Vec<u32>>` across every
//! dispatcher and worker of a shard. [`SharedKeys`] generalizes that
//! storage into an enum over two backings with the same `&[u32]` view:
//!
//! * [`SharedKeys::Owned`] — the classic `Arc<Vec<u32>>`, produced by a
//!   sort-based build or a delta merge.
//! * [`SharedKeys::Mapped`] — a window into a read-only memory-mapped
//!   snapshot file ([`MappedFile`], a read-only view of the crate's one
//!   mapping wrapper, `map`). Nothing is deserialized: the file
//!   *is* the array, the OS page cache is the only copy, and every
//!   process mapping the same snapshot shares it.
//!
//! Everything downstream — dispatchers, replicas, the epoch-swap
//! machinery, `lookup_batch_into` — sees a `&[u32]` either way, so the
//! read path stays allocation-free regardless of backing.

use crate::map::Map;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A whole snapshot file held open for zero-copy reads: an `mmap` on
/// unix, an aligned heap copy elsewhere. Cloning the [`Arc`] it is
/// shipped in is how shards, replicas, and worker threads share it.
pub struct MappedFile {
    map: Map,
}

impl MappedFile {
    /// Open `path` for reading in place. On unix the file is mapped
    /// (`PROT_READ`, `MAP_PRIVATE`); elsewhere it is read into an
    /// 8-byte-aligned heap buffer so the same `u32`-window views work.
    pub fn open(path: &Path) -> io::Result<MappedFile> {
        Ok(MappedFile { map: Map::open(path, false)? })
    }

    /// The file's bytes, in place (no copy on unix).
    pub fn bytes(&self) -> &[u8] {
        self.map.bytes()
    }

    /// Whether this is a true memory mapping (as opposed to the portable
    /// heap-copy fallback).
    pub fn is_mmap(&self) -> bool {
        self.map.is_mmap()
    }
}

impl fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.bytes().len())
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

/// A `u32` window into a shared [`MappedFile`] — one shard's main array
/// viewed directly out of the snapshot file.
#[derive(Clone)]
pub struct MappedKeys {
    file: Arc<MappedFile>,
    byte_off: usize,
    len: usize,
}

impl MappedKeys {
    /// View `len` little-endian `u32`s at `byte_off` in `file`. The
    /// offset must be 4-byte aligned and the window in bounds — the
    /// snapshot codec validates both (its sections are 64-byte aligned)
    /// before constructing one.
    pub fn new(file: Arc<MappedFile>, byte_off: usize, len: usize) -> MappedKeys {
        let bytes = file.bytes();
        assert!(byte_off.is_multiple_of(4), "u32 window must be 4-byte aligned");
        assert!(
            byte_off.checked_add(len * 4).is_some_and(|end| end <= bytes.len()),
            "u32 window out of bounds"
        );
        MappedKeys { file, byte_off, len }
    }

    /// The keys, straight out of the mapped file.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        let bytes = self.file.bytes();
        // SAFETY: constructor invariants — `byte_off` is 4-aligned
        // within a ≥4-aligned base (page-aligned mmap or 8-aligned heap
        // words) and `byte_off + 4 * len` is in bounds — and the backing
        // is immutable and lives as long as `self.file`'s Arc.
        unsafe {
            std::slice::from_raw_parts(bytes.as_ptr().add(self.byte_off) as *const u32, self.len)
        }
    }
}

impl fmt::Debug for MappedKeys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedKeys")
            .field("byte_off", &self.byte_off)
            .field("len", &self.len)
            .finish()
    }
}

/// Shared, immutable sorted-key storage: the `Arc<Vec<u32>>` of PR 4's
/// replica groups, generalized over an owned or memory-mapped backing.
/// Clones are reference-count bumps either way.
#[derive(Clone, Debug)]
pub enum SharedKeys {
    /// Heap-owned keys behind an `Arc` (sort-based build, delta merge).
    Owned(Arc<Vec<u32>>),
    /// Keys served directly out of a mapped snapshot file.
    Mapped(MappedKeys),
}

impl SharedKeys {
    /// Wrap freshly built keys.
    pub fn owned(keys: Vec<u32>) -> SharedKeys {
        SharedKeys::Owned(Arc::new(keys))
    }

    /// Share an existing `Arc` without copying.
    pub fn from_arc(keys: Arc<Vec<u32>>) -> SharedKeys {
        SharedKeys::Owned(keys)
    }

    /// The keys as a slice, whichever the backing.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        match self {
            SharedKeys::Owned(v) => v.as_slice(),
            SharedKeys::Mapped(m) => m.as_slice(),
        }
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SharedKeys::Owned(v) => v.len(),
            SharedKeys::Mapped(m) => m.len,
        }
    }

    /// Whether there are no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the backing is a mapped snapshot (vs heap-owned).
    pub fn is_mapped(&self) -> bool {
        matches!(self, SharedKeys::Mapped(_))
    }
}

impl From<Vec<u32>> for SharedKeys {
    fn from(keys: Vec<u32>) -> SharedKeys {
        SharedKeys::owned(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_keys_share_one_arc() {
        let arc = Arc::new(vec![1u32, 2, 3]);
        let k = SharedKeys::from_arc(arc.clone());
        let clones: Vec<_> = (0..5).map(|_| k.clone()).collect();
        assert_eq!(Arc::strong_count(&arc), 7);
        for c in &clones {
            assert_eq!(c.as_slice(), &[1, 2, 3]);
        }
        assert!(!k.is_mapped());
    }

    #[test]
    fn mapped_window_reads_the_file_in_place() {
        let dir = std::env::temp_dir().join(format!("dini-store-keys-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("window.bin");
        let mut bytes = vec![0u8; 64];
        for (i, v) in [7u32, 11, 13, u32::MAX].iter().enumerate() {
            bytes[64 - 16 + i * 4..64 - 16 + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let file = Arc::new(MappedFile::open(&path).unwrap());
        let keys = SharedKeys::Mapped(MappedKeys::new(file, 48, 4));
        assert_eq!(keys.as_slice(), &[7, 11, 13, u32::MAX]);
        assert!(keys.is_mapped());
        assert_eq!(keys.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_window_is_refused() {
        let dir = std::env::temp_dir().join(format!("dini-store-keys-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oob.bin");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        let file = Arc::new(MappedFile::open(&path).unwrap());
        let _ = MappedKeys::new(file, 0, 17);
    }
}
