//! # dini-flight — a crash-safe flight recorder
//!
//! A fixed-size, single-writer, mmap-backed ring of structured lifecycle
//! events: elections, endpoint deaths and rejoins, checkpoint attempts,
//! update resends, shed bursts, epoch swaps. The point is the
//! postmortem: after a `kill -9` (or a real crash), the journal on disk
//! still tells the story of what the process was doing, because every
//! entry is written in place through a `MAP_SHARED` mapping — the bytes
//! belong to the kernel's page cache the moment the store retires, so
//! process death cannot lose them. (Power-loss durability additionally
//! needs [`FlightJournal::flush`].)
//!
//! The file format follows `dini-store`'s snapshot discipline:
//!
//! - **Atomic creation**: the header + zeroed ring is written to a temp
//!   file, fsynced, and renamed into place, so a crash mid-create never
//!   leaves a half-built journal behind.
//! - **Total validation on reopen**: magic, version, FNV-1a header
//!   checksum, and exact file length are checked up front; each 64-byte
//!   entry carries its own FNV-1a checksum, so torn or stale slots are
//!   *skipped*, never decoded into garbage and never a panic.
//! - **Self-sequencing ring**: entry `seq` numbers are monotone from 1
//!   and the slot index is `(seq - 1) % capacity`, so recovery needs no
//!   separate head pointer — the maximum valid `seq` found in the file
//!   *is* the head, and an entry whose `seq` disagrees with its slot is
//!   rejected as stale.
//!
//! ```
//! use dini_flight::{EventKind, FlightJournal};
//!
//! let dir = std::env::temp_dir().join(format!("dini-flight-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.flt");
//! std::fs::remove_file(&path).ok();
//!
//! let journal = FlightJournal::open(&path, 64).unwrap();
//! journal.record(EventKind::Election, 0, 0, 3, 0, 1_000);
//! journal.record(EventKind::CheckpointOk, 1, 0, 42, 0, 2_000);
//! drop(journal); // no flush: a reopen still sees both entries
//!
//! let events = dini_flight::read_journal(&path).unwrap();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].event(), Some(EventKind::CheckpointOk));
//! # std::fs::remove_file(&path).ok();
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use dini_store::{fnv1a, MappedFileMut};

/// First eight bytes of every journal file.
pub const FLIGHT_MAGIC: [u8; 8] = *b"DINIFLT1";
/// Format version this build writes and the only one it reads.
pub const FLIGHT_VERSION: u32 = 1;
/// Bytes per ring entry (one cache line).
pub const ENTRY_BYTES: usize = 64;
/// Bytes of file header before the first entry (one cache line).
pub const HEADER_BYTES: usize = 64;
/// Largest admissible ring capacity (bounds the file at 64 MiB).
pub const MAX_CAPACITY: u32 = 1 << 20;

/// What kind of lifecycle event an entry records. The wire code is a
/// `u16`; codes this build does not know are still read back verbatim
/// (see [`FlightEvent::kind`]), so a journal written by a newer build
/// stays inspectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// A client's span log elected a new primary for a span
    /// (`a` = span, `c` = new epoch).
    Election = 1,
    /// An endpoint stopped answering and was marked dead
    /// (`a` = span, `b` = endpoint index).
    EndpointDead = 2,
    /// A dead endpoint passed the revive handshake and rejoined
    /// (`a` = span, `b` = endpoint index).
    EndpointRejoin = 3,
    /// The serve writer started writing a checkpoint
    /// (`c` = log watermark being persisted).
    CheckpointBegin = 4,
    /// The checkpoint landed on disk (`c` = persisted watermark).
    CheckpointOk = 5,
    /// The checkpoint failed; the previous snapshot still stands.
    CheckpointFail = 6,
    /// A client update was resent after an ack timeout
    /// (`a` = span, `c` = log seq).
    UpdateResend = 7,
    /// A reply frame carried shed lookups (`b` = sheds in the frame).
    ShedBurst = 8,
    /// A shard's main array was swapped for a merged epoch
    /// (`a` = shard, `c` = new main epoch).
    EpochSwap = 9,
}

impl EventKind {
    /// The on-disk `u16` code.
    pub fn code(self) -> u16 {
        self as u16
    }

    /// The kind for an on-disk code, if this build knows it.
    pub fn from_code(code: u16) -> Option<EventKind> {
        match code {
            1 => Some(EventKind::Election),
            2 => Some(EventKind::EndpointDead),
            3 => Some(EventKind::EndpointRejoin),
            4 => Some(EventKind::CheckpointBegin),
            5 => Some(EventKind::CheckpointOk),
            6 => Some(EventKind::CheckpointFail),
            7 => Some(EventKind::UpdateResend),
            8 => Some(EventKind::ShedBurst),
            9 => Some(EventKind::EpochSwap),
            _ => None,
        }
    }
}

/// One recovered journal entry: a sequence number, a caller-supplied
/// timestamp, a kind code, and four small payload words whose meaning
/// is per-kind (see [`EventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number, starting at 1. Zero never appears in a
    /// valid entry — it is the "slot never written" sentinel.
    pub seq: u64,
    /// Caller-supplied timestamp (the serving layer's `Clock`), so the
    /// journal is meaningful on both wall-clock and simulated time.
    pub time_ns: u64,
    /// On-disk kind code; [`event`](FlightEvent::event) maps it to an
    /// [`EventKind`] when this build knows the code.
    pub kind: u16,
    /// First payload word (usually a span or shard index).
    pub a: u16,
    /// Second payload word (usually an endpoint index or a count).
    pub b: u32,
    /// Third payload word (usually an epoch, seq, or watermark).
    pub c: u64,
    /// Fourth payload word (spare; zero for all current kinds).
    pub d: u64,
}

impl FlightEvent {
    /// The decoded [`EventKind`], or `None` for codes from a newer
    /// format revision (the raw code stays in [`kind`](Self::kind)).
    pub fn event(&self) -> Option<EventKind> {
        EventKind::from_code(self.kind)
    }
}

/// Why a file is not a journal. Every variant is a *total* rejection:
/// the reader returns it instead of panicking, and the caller decides
/// whether to recreate.
#[derive(Debug)]
pub enum FlightError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// Shorter than one header.
    TooSmall,
    /// The first eight bytes are not [`FLIGHT_MAGIC`].
    BadMagic,
    /// A version this build does not read.
    BadVersion(u32),
    /// The header checksum does not match its contents.
    BadHeaderChecksum,
    /// The header's capacity is zero or above [`MAX_CAPACITY`].
    BadCapacity(u32),
    /// The file length disagrees with the header's capacity.
    BadLength {
        /// Bytes the capacity implies.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for FlightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightError::Io(e) => write!(f, "journal i/o failed: {e}"),
            FlightError::TooSmall => write!(f, "file shorter than a journal header"),
            FlightError::BadMagic => write!(f, "not a flight journal (bad magic)"),
            FlightError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
            FlightError::BadHeaderChecksum => write!(f, "journal header checksum mismatch"),
            FlightError::BadCapacity(c) => write!(f, "journal capacity {c} out of range"),
            FlightError::BadLength { expected, actual } => {
                write!(f, "journal length {actual} != expected {expected}")
            }
        }
    }
}

impl std::error::Error for FlightError {}

impl From<io::Error> for FlightError {
    fn from(e: io::Error) -> FlightError {
        FlightError::Io(e)
    }
}

/// Encode one entry into its 64-byte on-disk form (checksum included).
/// Public so the wire-corruption property tests can exercise the codec
/// directly.
pub fn encode_entry(ev: &FlightEvent) -> [u8; ENTRY_BYTES] {
    let mut e = [0u8; ENTRY_BYTES];
    e[0..8].copy_from_slice(&ev.seq.to_le_bytes());
    e[8..16].copy_from_slice(&ev.time_ns.to_le_bytes());
    e[16..18].copy_from_slice(&ev.kind.to_le_bytes());
    e[18..20].copy_from_slice(&ev.a.to_le_bytes());
    e[20..24].copy_from_slice(&ev.b.to_le_bytes());
    e[24..32].copy_from_slice(&ev.c.to_le_bytes());
    e[32..40].copy_from_slice(&ev.d.to_le_bytes());
    let sum = fnv1a(&e[..56]);
    e[56..64].copy_from_slice(&sum.to_le_bytes());
    e
}

/// Decode one 64-byte slot. Returns `None` — never panics — for any
/// slot that is not a complete, intact entry: wrong length, checksum
/// mismatch (torn write, bit rot), or the never-written `seq == 0`
/// sentinel.
pub fn decode_entry(bytes: &[u8]) -> Option<FlightEvent> {
    if bytes.len() != ENTRY_BYTES {
        return None;
    }
    let sum = u64::from_le_bytes(bytes[56..64].try_into().ok()?);
    if fnv1a(&bytes[..56]) != sum {
        return None;
    }
    let seq = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
    if seq == 0 {
        return None;
    }
    Some(FlightEvent {
        seq,
        time_ns: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
        kind: u16::from_le_bytes(bytes[16..18].try_into().ok()?),
        a: u16::from_le_bytes(bytes[18..20].try_into().ok()?),
        b: u32::from_le_bytes(bytes[20..24].try_into().ok()?),
        c: u64::from_le_bytes(bytes[24..32].try_into().ok()?),
        d: u64::from_le_bytes(bytes[32..40].try_into().ok()?),
    })
}

fn encode_header(capacity: u32) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..8].copy_from_slice(&FLIGHT_MAGIC);
    h[8..12].copy_from_slice(&FLIGHT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&capacity.to_le_bytes());
    let sum = fnv1a(&h[..56]);
    h[56..64].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Validate a header and return the ring capacity it declares.
fn decode_header(bytes: &[u8]) -> Result<u32, FlightError> {
    if bytes.len() < HEADER_BYTES {
        return Err(FlightError::TooSmall);
    }
    let h = &bytes[..HEADER_BYTES];
    if h[0..8] != FLIGHT_MAGIC {
        return Err(FlightError::BadMagic);
    }
    let sum = u64::from_le_bytes(h[56..64].try_into().expect("8-byte slice"));
    if fnv1a(&h[..56]) != sum {
        return Err(FlightError::BadHeaderChecksum);
    }
    let version = u32::from_le_bytes(h[8..12].try_into().expect("4-byte slice"));
    if version != FLIGHT_VERSION {
        return Err(FlightError::BadVersion(version));
    }
    let capacity = u32::from_le_bytes(h[12..16].try_into().expect("4-byte slice"));
    if capacity == 0 || capacity > MAX_CAPACITY {
        return Err(FlightError::BadCapacity(capacity));
    }
    Ok(capacity)
}

fn file_len(capacity: u32) -> usize {
    HEADER_BYTES + capacity as usize * ENTRY_BYTES
}

fn slot_of(seq: u64, capacity: u32) -> usize {
    ((seq - 1) % u64::from(capacity)) as usize
}

/// Scan every slot, keeping entries that checksum *and* whose `seq`
/// agrees with the slot they sit in (a disagreeing entry is stale bytes
/// from before a recreate, not part of this ring's story). Returns the
/// surviving entries sorted by `seq`.
fn scan_entries(bytes: &[u8], capacity: u32) -> Vec<FlightEvent> {
    let mut events = Vec::new();
    for slot in 0..capacity as usize {
        let off = HEADER_BYTES + slot * ENTRY_BYTES;
        if let Some(ev) = decode_entry(&bytes[off..off + ENTRY_BYTES]) {
            if slot_of(ev.seq, capacity) == slot {
                events.push(ev);
            }
        }
    }
    events.sort_by_key(|ev| ev.seq);
    events
}

struct Writer {
    map: MappedFileMut,
    capacity: u32,
    next_seq: u64,
}

/// The single-writer, crash-safe event ring. Cheap to share
/// (`Arc<FlightJournal>`): recording takes an internal mutex, which is
/// fine because every event here is a cold-path lifecycle transition —
/// nothing on the per-lookup read path ever records.
pub struct FlightJournal {
    inner: Mutex<Writer>,
    recovered: usize,
}

impl FlightJournal {
    /// Open the journal at `path`, creating it (atomically: temp file +
    /// fsync + rename) with `capacity` ring slots if it does not exist.
    /// An existing file is validated totally — magic, version, header
    /// checksum, length — and its own capacity wins over the argument;
    /// every intact entry survives and new records continue after the
    /// highest recovered sequence number.
    pub fn open(path: &Path, capacity: u32) -> Result<FlightJournal, FlightError> {
        if capacity == 0 || capacity > MAX_CAPACITY {
            return Err(FlightError::BadCapacity(capacity));
        }
        if !path.exists() {
            create_file(path, capacity)?;
        }
        let map = MappedFileMut::open(path)?;
        let file_cap = decode_header(map.bytes())?;
        let expected = file_len(file_cap);
        if map.len() != expected {
            return Err(FlightError::BadLength { expected, actual: map.len() });
        }
        let events = scan_entries(map.bytes(), file_cap);
        let next_seq = events.last().map_or(1, |ev| ev.seq + 1);
        let recovered = events.len();
        Ok(FlightJournal {
            inner: Mutex::new(Writer { map, capacity: file_cap, next_seq }),
            recovered,
        })
    }

    /// Append one event, overwriting the oldest slot once the ring is
    /// full, and return its sequence number. `time_ns` comes from the
    /// caller's clock (wall or simulated). On unix the entry is
    /// process-death durable as soon as this returns; no flush needed.
    pub fn record(&self, kind: EventKind, a: u16, b: u32, c: u64, d: u64, time_ns: u64) -> u64 {
        self.record_raw(kind.code(), a, b, c, d, time_ns)
    }

    /// [`record`](Self::record) with a raw kind code — the escape hatch
    /// that lets format revisions add kinds without breaking readers.
    pub fn record_raw(&self, kind: u16, a: u16, b: u32, c: u64, d: u64, time_ns: u64) -> u64 {
        let mut w = self.inner.lock().expect("flight journal writer poisoned");
        let seq = w.next_seq;
        w.next_seq += 1;
        let ev = FlightEvent { seq, time_ns, kind, a, b, c, d };
        let off = HEADER_BYTES + slot_of(seq, w.capacity) * ENTRY_BYTES;
        w.map.bytes_mut()[off..off + ENTRY_BYTES].copy_from_slice(&encode_entry(&ev));
        seq
    }

    /// Every intact entry currently in the ring, sorted by sequence
    /// number (at most `capacity` of them; older entries have been
    /// overwritten).
    pub fn events(&self) -> Vec<FlightEvent> {
        let w = self.inner.lock().expect("flight journal writer poisoned");
        scan_entries(w.map.bytes(), w.capacity)
    }

    /// How many intact entries [`open`](Self::open) found — zero for a
    /// fresh journal, nonzero after a crash-and-reopen.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Ring capacity in entries.
    pub fn capacity(&self) -> u32 {
        self.inner.lock().expect("flight journal writer poisoned").capacity
    }

    /// The sequence number the next [`record`](Self::record) will use.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().expect("flight journal writer poisoned").next_seq
    }

    /// Push the ring to stable storage (`msync`) for power-loss
    /// durability. Process-death durability needs no flush on unix.
    pub fn flush(&self) -> io::Result<()> {
        self.inner.lock().expect("flight journal writer poisoned").map.flush()
    }
}

impl fmt::Debug for FlightJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.inner.lock().expect("flight journal writer poisoned");
        f.debug_struct("FlightJournal")
            .field("capacity", &w.capacity)
            .field("next_seq", &w.next_seq)
            .field("recovered", &self.recovered)
            .finish()
    }
}

/// Atomically materialise a fresh journal file: header + zeroed ring
/// written to a temp file, fsynced, renamed into place. A crash at any
/// point leaves either no journal or a complete empty one.
fn create_file(path: &Path, capacity: u32) -> Result<(), FlightError> {
    use std::io::Write;
    let tmp = path.with_extension("flt-tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&encode_header(capacity))?;
        f.write_all(&vec![0u8; capacity as usize * ENTRY_BYTES])?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Durability of the rename itself: fsync the directory so the
        // new entry survives a crash. Best-effort on filesystems that
        // refuse O_RDONLY dir fsync.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read a journal without opening it for writing — the postmortem path.
/// Validates totally (typed [`FlightError`], never a panic) and returns
/// the intact entries sorted by sequence number.
pub fn read_journal(path: &Path) -> Result<Vec<FlightEvent>, FlightError> {
    let bytes = std::fs::read(path)?;
    let capacity = decode_header(&bytes)?;
    let expected = file_len(capacity);
    if bytes.len() != expected {
        return Err(FlightError::BadLength { expected, actual: bytes.len() });
    }
    Ok(scan_entries(&bytes, capacity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dini-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn record_and_reopen_without_flush_recovers_everything() {
        let path = scratch("recover.flt");
        {
            let j = FlightJournal::open(&path, 32).unwrap();
            assert_eq!(j.recovered(), 0);
            for i in 0..5u64 {
                j.record(EventKind::Election, i as u16, 0, i + 10, 0, i * 100);
            }
            // No flush, no clean shutdown: dropped like a kill -9 victim
            // (modulo the page cache, which survives process death).
        }
        let j = FlightJournal::open(&path, 32).unwrap();
        assert_eq!(j.recovered(), 5);
        let events = j.events();
        assert_eq!(events.len(), 5);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64 + 1);
            assert_eq!(ev.event(), Some(EventKind::Election));
            assert_eq!(ev.c, i as u64 + 10);
        }
        // New records continue the sequence, they do not restart it.
        assert_eq!(j.record(EventKind::EpochSwap, 0, 0, 1, 0, 999), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_entry_is_skipped_not_fatal() {
        let path = scratch("torn.flt");
        {
            let j = FlightJournal::open(&path, 8).unwrap();
            for i in 0..3u64 {
                j.record(EventKind::CheckpointOk, 0, 0, i, 0, i);
            }
        }
        // Tear the last entry: flip a byte inside its payload so the
        // checksum no longer matches.
        let mut bytes = std::fs::read(&path).unwrap();
        let off = HEADER_BYTES + 2 * ENTRY_BYTES;
        bytes[off + 20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let j = FlightJournal::open(&path, 8).unwrap();
        assert_eq!(j.recovered(), 2);
        assert_eq!(j.events().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
        // The torn slot is rewritten by the next record (seq 3 again).
        assert_eq!(j.record(EventKind::CheckpointOk, 0, 0, 9, 0, 9), 3);
        assert_eq!(j.events().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_header_is_rejected_by_name() {
        let path = scratch("header.flt");
        drop(FlightJournal::open(&path, 8).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0xFF; // inside the version field; checksum now lies
        std::fs::write(&path, &bytes).unwrap();
        match read_journal(&path) {
            Err(FlightError::BadHeaderChecksum) => {}
            other => panic!("expected BadHeaderChecksum, got {other:?}"),
        }
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_journal(&path), Err(FlightError::BadMagic)));
        assert!(matches!(read_journal(&path.with_extension("absent")), Err(FlightError::Io(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_window() {
        let path = scratch("wrap.flt");
        let j = FlightJournal::open(&path, 4).unwrap();
        for i in 1..=10u64 {
            j.record(EventKind::UpdateResend, 0, 0, i, 0, i);
        }
        let seqs: Vec<u64> = j.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        drop(j);
        let back = read_journal(&path).unwrap();
        assert_eq!(back.iter().map(|e| e.c).collect::<Vec<_>>(), vec![7, 8, 9, 10]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_kind_codes_round_trip_verbatim() {
        let path = scratch("unknown.flt");
        let j = FlightJournal::open(&path, 4).unwrap();
        j.record_raw(999, 1, 2, 3, 4, 5);
        let events = j.events();
        assert_eq!(events[0].kind, 999);
        assert_eq!(events[0].event(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn existing_capacity_wins_over_the_open_argument() {
        let path = scratch("cap.flt");
        drop(FlightJournal::open(&path, 8).unwrap());
        let j = FlightJournal::open(&path, 32).unwrap();
        assert_eq!(j.capacity(), 8);
        assert!(matches!(
            FlightJournal::open(&path.with_extension("zero"), 0),
            Err(FlightError::BadCapacity(0))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_length_error() {
        let path = scratch("short.flt");
        drop(FlightJournal::open(&path, 8).unwrap());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(read_journal(&path), Err(FlightError::BadLength { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn entry_codec_round_trips_and_rejects_corruption() {
        let ev = FlightEvent {
            seq: u64::MAX,
            time_ns: 123,
            kind: 9,
            a: u16::MAX,
            b: u32::MAX,
            c: 7,
            d: 8,
        };
        let bytes = encode_entry(&ev);
        assert_eq!(decode_entry(&bytes), Some(ev));
        for i in 0..ENTRY_BYTES {
            let mut bad = bytes;
            bad[i] ^= 1;
            assert_eq!(decode_entry(&bad), None, "flip at {i} must invalidate");
        }
        assert_eq!(decode_entry(&bytes[..63]), None);
        assert_eq!(decode_entry(&[0u8; ENTRY_BYTES]), None);
    }
}
