//! The crate's one whole-file memory mapping, in its two modes.
//!
//! * **Read-only** (`PROT_READ`, `MAP_PRIVATE`) — what
//!   [`MappedFile`](crate::MappedFile) serves snapshots from: they are
//!   immutable once written, nothing is deserialized, and every process
//!   mapping the same file shares the page cache's one copy.
//! * **Read-write** (`PROT_READ | PROT_WRITE`, `MAP_SHARED`) —
//!   [`MappedFileMut`], the backing the flight recorder journals
//!   through. A crash-safe event journal needs a fixed-size file whose
//!   pages are written *in place*, so that every store lands in the
//!   kernel's page cache the moment it retires. A `kill -9` cannot lose
//!   those bytes — dirty shared pages belong to the kernel, not the
//!   process — which is exactly the durability class a flight recorder
//!   wants: survives process death for free, survives power loss only
//!   after an explicit [`flush`](MappedFileMut::flush).
//!
//! Writer discipline is the type system's: all mutation goes through
//! `&mut self`, so a single-writer journal wraps the mapping in its own
//! lock and readers open their own (read-only) view of the file.
//!
//! Off unix both modes fall back to one aligned heap copy of the file
//! (written back on `flush` when opened for writing — **not**
//! crash-safe).

use std::fmt;
use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MS_SYNC: c_int = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
    }

    /// A whole-file memory mapping: read-only and private, or
    /// read-write and shared.
    pub(super) struct RawMap {
        ptr: *mut u8,
        len: usize,
        writable: bool,
    }

    // SAFETY: the mapping is exclusively owned by this value. A
    // read-only one is PROT_READ and MAP_PRIVATE — no thread can write
    // through it; a writable one gates all mutation behind `&mut self`
    // (no interior mutability), so moving it to another thread moves
    // the only writer with it.
    unsafe impl Send for RawMap {}
    // SAFETY: `&self` only ever reads the pages, and they are either
    // read-only for the whole lifetime of the mapping or written only
    // through `&mut self` — ordinary borrow rules make concurrent
    // `&self` access race-free, exactly as for a `Vec<u8>`.
    unsafe impl Sync for RawMap {}

    impl RawMap {
        /// Map `len` bytes of `file`, read-only private or (`writable`)
        /// read-write shared. `len` must not exceed the file's current
        /// size (the caller stats the file first), and the file must
        /// stay un-truncated while mapped so faulting a page cannot
        /// SIGBUS: the snapshot write protocol (write-temp + rename,
        /// never truncate in place) guarantees the mapped inode keeps
        /// its pages until unmapped — replacing the path swaps the
        /// directory entry, not the mapped inode — and journal files are
        /// created at their final fixed size and never truncated.
        pub(super) fn map(file: &File, len: usize, writable: bool) -> io::Result<RawMap> {
            assert!(len > 0, "mapping an empty file is a caller bug");
            let (prot, flags) = if writable {
                (PROT_READ | PROT_WRITE, MAP_SHARED)
            } else {
                (PROT_READ, MAP_PRIVATE)
            };
            // SAFETY: `fd` is a valid open descriptor for the duration of
            // the call; addr=null lets the kernel pick placement; length
            // and offset describe a range inside the file per the
            // documented precondition. The result is checked for
            // MAP_FAILED before use.
            let ptr = unsafe { mmap(std::ptr::null_mut(), len, prot, flags, file.as_raw_fd(), 0) };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(RawMap { ptr: ptr as *mut u8, len, writable })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is the page-aligned base of a live mapping of
            // exactly `len` readable bytes (established in `map`, torn
            // down only in `drop`), and `&self` excludes the `&mut`
            // writer.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        pub(super) fn bytes_mut(&mut self) -> &mut [u8] {
            assert!(self.writable, "a read-only mapping has no writable view");
            // SAFETY: as in `bytes`, plus the pages are PROT_WRITE
            // (checked above) and `&mut self` makes this the only live
            // view of them.
            unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
        }

        pub(super) fn sync(&self) -> io::Result<()> {
            // SAFETY: `ptr`/`len` describe exactly the live mapping;
            // msync only schedules write-back, it does not alias.
            let rc = unsafe { msync(self.ptr as *mut c_void, self.len, MS_SYNC) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for RawMap {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe exactly the mapping created in
            // `map`, unmapped exactly once (Drop runs once).
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

/// Heap copy of a file, 8-byte aligned so `u32` windows can be viewed
/// in place. The portable fallback backing where `mmap` is unavailable;
/// `file` is kept (for write-back on flush) only when opened writable.
struct HeapBytes {
    words: Vec<u64>,
    len: usize,
    file: Option<File>,
}

impl HeapBytes {
    // Reachable only off-unix (and from tests); the unix build maps.
    #[cfg_attr(unix, allow(dead_code))]
    fn read(path: &Path, file: Option<File>) -> io::Result<HeapBytes> {
        let bytes = std::fs::read(path)?;
        let mut heap =
            HeapBytes { words: vec![0u64; bytes.len().div_ceil(8)], len: bytes.len(), file };
        heap.bytes_mut().copy_from_slice(&bytes);
        Ok(heap)
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: `len` bytes fit inside the `words` allocation by
        // construction, and any `u64` pointer is a valid `u8` pointer.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: the slice covers `words`'s own allocation
        // byte-for-byte (len ≤ words.len() * 8), `u64 -> u8` narrowing
        // of the view is always in-bounds and validly aligned, and
        // `&mut self` makes it the only live view.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }

    /// Write the whole buffer back and fsync (a no-op when read-only).
    fn write_back(&self) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let Some(mut file) = self.file.as_ref() else { return Ok(()) };
        file.seek(SeekFrom::Start(0))?;
        file.write_all(self.bytes())?;
        file.sync_all()
    }
}

enum Backing {
    #[cfg(unix)]
    Map(sys::RawMap),
    #[cfg_attr(unix, allow(dead_code))]
    Heap(HeapBytes),
}

/// A whole file held open in place, read-only or writable: an `mmap` on
/// unix, an aligned heap copy elsewhere.
pub(crate) struct Map {
    backing: Backing,
}

impl Map {
    /// Open `path` — which must be non-empty, and for `writable` already
    /// at its final size — in place. The file must not be truncated
    /// while open.
    pub(crate) fn open(path: &Path, writable: bool) -> io::Result<Map> {
        let file = std::fs::OpenOptions::new().read(true).write(writable).open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "cannot map an empty file"));
        }
        #[cfg(unix)]
        {
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file exceeds usize"))?;
            Ok(Map { backing: Backing::Map(sys::RawMap::map(&file, len, writable)?) })
        }
        #[cfg(not(unix))]
        {
            Ok(Map { backing: Backing::Heap(HeapBytes::read(path, writable.then_some(file))?) })
        }
    }

    /// The file's bytes, in place (no copy on unix).
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map(m) => m.bytes(),
            Backing::Heap(h) => h.bytes(),
        }
    }

    /// The file's bytes, writable in place. Panics on a map opened
    /// read-only.
    fn bytes_mut(&mut self) -> &mut [u8] {
        match &mut self.backing {
            #[cfg(unix)]
            Backing::Map(m) => m.bytes_mut(),
            Backing::Heap(h) => h.bytes_mut(),
        }
    }

    /// Push the bytes to stable storage: `msync(MS_SYNC)` on unix, a
    /// full write-back + fsync on the portable fallback.
    fn flush(&mut self) -> io::Result<()> {
        match &mut self.backing {
            #[cfg(unix)]
            Backing::Map(m) => m.sync(),
            Backing::Heap(h) => h.write_back(),
        }
    }

    /// Whether this is a true memory mapping (as opposed to the portable
    /// heap-copy fallback).
    pub(crate) fn is_mmap(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map(_) => true,
            Backing::Heap(_) => false,
        }
    }
}

/// A fixed-size file held open for in-place writes: a shared writable
/// `mmap` on unix (stores survive `kill -9` the moment they retire), a
/// heap buffer + write-back elsewhere.
pub struct MappedFileMut {
    map: Map,
}

impl MappedFileMut {
    /// Open `path` — which must already exist at its final size — for
    /// in-place reads and writes. The file must not be truncated while
    /// open.
    pub fn open(path: &Path) -> io::Result<MappedFileMut> {
        Ok(MappedFileMut { map: Map::open(path, true)? })
    }

    /// Bytes mapped (the file's fixed size).
    pub fn len(&self) -> usize {
        self.map.bytes().len()
    }

    /// Whether the file is zero-length (never: `open` rejects it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The file's bytes, in place.
    pub fn bytes(&self) -> &[u8] {
        self.map.bytes()
    }

    /// The file's bytes, writable in place. On unix every store is in
    /// the page cache (process-death durable) as soon as it retires.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.map.bytes_mut()
    }

    /// Push the bytes to stable storage: `msync(MS_SYNC)` on unix (power-
    /// loss durability; process-death durability needs no flush at all),
    /// a full write-back + fsync on the portable fallback.
    pub fn flush(&mut self) -> io::Result<()> {
        self.map.flush()
    }

    /// Whether this is a true shared memory mapping (as opposed to the
    /// portable heap fallback, which is not crash-safe).
    pub fn is_mmap(&self) -> bool {
        self.map.is_mmap()
    }
}

impl fmt::Debug for MappedFileMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedFileMut")
            .field("len", &self.len())
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dini-store-map-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn writes_through_the_mapping_land_in_the_file() {
        let path = scratch("write.bin");
        std::fs::write(&path, vec![0u8; 128]).unwrap();
        {
            let mut m = MappedFileMut::open(&path).unwrap();
            assert_eq!(m.len(), 128);
            m.bytes_mut()[7] = 0xAB;
            m.bytes_mut()[127] = 0xCD;
            assert_eq!(m.bytes()[7], 0xAB);
            // Dropping without flush: page-cache (or write-back on the
            // fallback) must still carry the bytes for a same-machine
            // reopen…
            #[cfg(not(unix))]
            m.flush().unwrap();
        }
        let back = std::fs::read(&path).unwrap();
        assert_eq!((back[7], back[127]), (0xAB, 0xCD));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_succeeds_and_persists() {
        let path = scratch("flush.bin");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        let mut m = MappedFileMut::open(&path).unwrap();
        m.bytes_mut()[0] = 1;
        m.flush().unwrap();
        drop(m);
        assert_eq!(std::fs::read(&path).unwrap()[0], 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_refused() {
        let path = scratch("empty.bin");
        std::fs::write(&path, b"").unwrap();
        assert!(MappedFileMut::open(&path).is_err());
        assert!(Map::open(&path, false).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg(unix)]
    #[should_panic(expected = "read-only mapping")]
    fn a_read_only_map_refuses_a_writable_view() {
        let path = scratch("ro.bin");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        let _ = Map::open(&path, false).unwrap().bytes_mut();
    }

    #[test]
    fn heap_fallback_views_are_aligned_and_exact_in_both_modes() {
        let path = scratch("heap.bin");
        let payload: Vec<u8> = (0..129u8).collect(); // odd length: tail padding exercised
        std::fs::write(&path, &payload).unwrap();
        let file = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        let mut map = Map { backing: Backing::Heap(HeapBytes::read(&path, Some(file)).unwrap()) };
        assert_eq!(map.bytes(), payload.as_slice());
        assert_eq!(map.bytes().as_ptr() as usize % 8, 0, "heap backing must be 8-aligned");
        assert!(!map.is_mmap());
        // Nothing reaches the file before flush; everything does after.
        map.bytes_mut()[128] = 0xEE;
        assert_eq!(std::fs::read(&path).unwrap()[128], 128);
        map.flush().unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[128], 0xEE);
        std::fs::remove_file(&path).ok();
    }
}
