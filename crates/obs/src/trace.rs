//! Per-request stage tracing: where a request's time went, stage by
//! stage, recorded without locks or allocation.
//!
//! A sampled request leaves a [`StageRecord`] — seven stage timestamps
//! plus a causal trace id packed into nine words — in a pre-allocated
//! [`TraceRing`]. Rings are **multi-writer** (every caller that ranks
//! for a serving replica, a client reader): a writer takes its slot
//! with one add on the ring's head and the slot with one
//! compare-exchange of its seqlock version, even to odd, then writes
//! plain atomic stores; readers snapshot concurrently and simply skip a
//! slot they catch mid-write. Nothing on the write path allocates,
//! locks, or waits — a writer that finds its slot taken by another
//! drops its record — so the warmed zero-allocation read path stays
//! zero-allocation with tracing on.
//!
//! Sampling is seeded and counter-based (`n % period == seed % period`),
//! not random: under `dini-simtest`'s deterministic scheduler the same
//! requests are sampled in every same-seed run, so trace counts fold
//! into the reproducibility digest like any other counter.
//!
//! Timestamps are supplied by the caller (from the serving layer's
//! `Clock`), in nanoseconds on whatever timeline that clock runs —
//! wall-clock in production, virtual time under simulation.

use crate::sync::{fence, AtomicU64, Ordering};

/// Words per trace slot: one packed id/shape word, the causal trace id,
/// and seven stage timestamps.
const WORDS: usize = 9;

/// How many times a snapshot re-reads a slot it caught mid-write
/// before skipping it.
const TORN_RETRIES: usize = 4;

/// Configuration for one [`TraceRing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Records retained per ring (a power of two is not required).
    /// `0` disables tracing entirely.
    pub capacity: usize,
    /// Sample every `period`-th considered request. `0` disables
    /// sampling (nothing is ever recorded); `1` records everything.
    pub sample_period: u64,
    /// Seed deciding *which* residue class is sampled
    /// (`seed % sample_period`), so different seeds trace different
    /// requests while staying deterministic.
    pub seed: u64,
}

impl Default for TraceConfig {
    /// Tracing on by default: 1024 records per ring, one request in 64
    /// sampled — cheap enough to leave enabled in production.
    fn default() -> Self {
        Self { capacity: 1024, sample_period: 64, seed: 0x5EED }
    }
}

impl TraceConfig {
    /// No tracing: zero capacity, zero sampling.
    pub fn disabled() -> Self {
        Self { capacity: 0, sample_period: 0, seed: 0 }
    }

    /// Trace every request (tests and short diagnostic runs).
    pub fn dense() -> Self {
        Self { sample_period: 1, ..Self::default() }
    }

    /// Whether this configuration ever records anything.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0 && self.sample_period > 0
    }
}

/// One sampled request's stage timeline. Serving-side stages
/// (`admitted` → `collected` → `dispatched` → `answered` → `filled`)
/// are stamped by the serving replica's holder; wire stages (`encoded` →
/// `acked`) by the network client. A stage a record's writer doesn't
/// own is left `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageRecord {
    /// Shard (serving side) or span (wire side) the request belonged to.
    pub shard: u16,
    /// Replica (serving side) or endpoint (wire side) that handled it.
    pub replica: u16,
    /// Size of the departed batch this request rode in.
    pub batch_len: u32,
    /// Causal trace id shared by every record of one wire request
    /// (client wire record and server stage records alike); `0` means
    /// untraced (a local caller, or a pre-v4 peer). See [`crate::causal`].
    pub trace: u64,
    /// Enqueued into an admission queue (serving).
    pub admitted_ns: u64,
    /// Its batch finished coalescing (serving).
    pub collected_ns: u64,
    /// Batch handed to the index (serving).
    pub dispatched_ns: u64,
    /// Index answered the batch (serving).
    pub answered_ns: u64,
    /// Reply slot filled (serving).
    pub filled_ns: u64,
    /// Lookup batch encoded onto the wire (client).
    pub encoded_ns: u64,
    /// Matching reply frame arrived (client).
    pub acked_ns: u64,
}

impl StageRecord {
    fn pack(&self) -> [u64; WORDS] {
        [
            u64::from(self.shard) | u64::from(self.replica) << 16 | u64::from(self.batch_len) << 32,
            self.trace,
            self.admitted_ns,
            self.collected_ns,
            self.dispatched_ns,
            self.answered_ns,
            self.filled_ns,
            self.encoded_ns,
            self.acked_ns,
        ]
    }

    fn unpack(w: &[u64; WORDS]) -> Self {
        Self {
            shard: w[0] as u16,
            replica: (w[0] >> 16) as u16,
            batch_len: (w[0] >> 32) as u32,
            trace: w[1],
            admitted_ns: w[2],
            collected_ns: w[3],
            dispatched_ns: w[4],
            answered_ns: w[5],
            filled_ns: w[6],
            encoded_ns: w[7],
            acked_ns: w[8],
        }
    }

    /// Coalescing + queueing wait: admission to batch close.
    pub fn wait_ns(&self) -> u64 {
        self.collected_ns.saturating_sub(self.admitted_ns)
    }

    /// Index service time: batch close to index answer.
    pub fn service_ns(&self) -> u64 {
        self.answered_ns.saturating_sub(self.collected_ns)
    }

    /// Reply delivery: index answer to reply-slot fill.
    pub fn fill_ns(&self) -> u64 {
        self.filled_ns.saturating_sub(self.answered_ns)
    }

    /// End-to-end serving time: admission to reply fill.
    pub fn total_ns(&self) -> u64 {
        self.filled_ns.saturating_sub(self.admitted_ns)
    }

    /// Wire round trip: encode to ack (0 for serving-side records).
    pub fn wire_ns(&self) -> u64 {
        self.acked_ns.saturating_sub(self.encoded_ns)
    }

    /// Whether the serving-side stages are in causal order — the stage
    /// invariant simulation oracles assert on every sampled record.
    pub fn stages_monotonic(&self) -> bool {
        self.admitted_ns <= self.collected_ns
            && self.collected_ns <= self.dispatched_ns
            && self.dispatched_ns <= self.answered_ns
            && self.answered_ns <= self.filled_ns
    }
}

/// One slot: a seqlock version and the record's words. The record at
/// logical position `L` (the head value its writer drew) holds the
/// slot at version `2L + 1` while its words are written and settles it
/// at `2L + 2`, so versions only grow and a reader can tell the record
/// it wants from an older lap's. Everything is an atomic, so a torn
/// read is a *stale or mixed value*, never undefined behavior — and
/// the version check discards it anyway.
struct Slot {
    version: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// A pre-allocated, fixed-capacity ring of [`StageRecord`]s with
/// seeded deterministic sampling.
///
/// Any number of concurrent writers and snapshot readers. Two writers
/// that meet on one slot (the ring wrapped under them) keep one record:
/// the later lap's, or the one whose compare-exchange won.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Slot>,
    /// Total records ever pushed (monotonic; slot = `head % capacity`).
    head: AtomicU64,
    /// Requests offered to the sampler.
    considered: AtomicU64,
    period: u64,
    phase: u64,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ordering: relaxed-ok: debug formatting; the value is advisory.
        write!(f, "Slot(v{})", self.version.load(Ordering::Relaxed))
    }
}

impl TraceRing {
    /// Build a ring from its configuration; all slots are allocated
    /// here, up front.
    pub fn new(cfg: &TraceConfig) -> Self {
        let capacity = if cfg.is_enabled() { cfg.capacity } else { 0 };
        Self {
            slots: (0..capacity)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
            considered: AtomicU64::new(0),
            period: cfg.sample_period,
            phase: if cfg.sample_period == 0 { 0 } else { cfg.seed % cfg.sample_period },
        }
    }

    /// Offer one request to the sampler; `true` means the caller
    /// should assemble and [`push`](Self::push) a record for it.
    /// Wait-free, allocation-free.
    #[inline]
    pub fn sample(&self) -> bool {
        self.sample_n(1) == 1
    }

    /// Offer `n` requests at once: how many of them the sampler picks —
    /// what `n` calls of [`sample`](Self::sample) would count, for one
    /// atomic add. A caller that learns this *before* doing the work
    /// can skip reading the clock for a batch nobody will look at.
    #[inline]
    pub fn sample_n(&self, n: u64) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        let first = self.considered.fetch_add(n, Ordering::Relaxed);
        // Offers from `first` to the next pick (the next counter value
        // ≡ phase mod period); one division when nothing is picked.
        let at = first % self.period;
        let gap = if self.phase >= at { self.phase - at } else { self.period - at + self.phase };
        if gap >= n {
            0
        } else {
            1 + (n - 1 - gap) / self.period
        }
    }

    /// The sampling period: each picked request stands for this many
    /// offered ones (0 = sampling is off).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Write one record. Wait-free, allocation-free: an add on the head,
    /// a compare-exchange of the slot's version, nine stores and a
    /// version store. A writer that finds its slot held by another write,
    /// or already settled by a later lap, drops its record.
    pub fn push(&self, rec: &StageRecord) {
        if self.slots.is_empty() {
            return;
        }
        // ordering: relaxed-ok: the head only hands out positions; the
        // slot's version publishes the record.
        let h = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        // ordering: relaxed-ok: the compare-exchange below re-reads it.
        let v = slot.version.load(Ordering::Relaxed);
        let (writing, settled) = (2 * h + 1, 2 * h + 2);
        if v % 2 == 1 || v >= writing {
            return; // another writer holds the slot, or a later lap settled it
        }
        let (ok, failed) = (Ordering::Acquire, Ordering::Relaxed);
        // ordering: relaxed-ok: a failed exchange writes nothing.
        if slot.version.compare_exchange(v, writing, ok, failed).is_err() {
            return;
        }
        fence(Ordering::Release);
        for (w, val) in slot.words.iter().zip(rec.pack()) {
            w.store(val, Ordering::Relaxed);
        }
        slot.version.store(settled, Ordering::Release);
    }

    /// Total records pushed over the ring's lifetime (≥ what a
    /// snapshot can return once the ring has wrapped, or a write lost
    /// its slot to another).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Requests offered to the sampler so far.
    pub fn considered(&self) -> u64 {
        self.considered.load(Ordering::Relaxed)
    }

    /// Copy out the retained records, oldest first. Allocates (it's a
    /// reader-side operation, off the hot path); a slot caught
    /// mid-write after a few retries is skipped rather than returned
    /// torn.
    pub fn snapshot(&self) -> Vec<StageRecord> {
        let cap = self.slots.len() as u64;
        if cap == 0 {
            return Vec::new();
        }
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(cap);
        let mut out = Vec::with_capacity(n as usize);
        for logical in (head - n)..head {
            let slot = &self.slots[(logical % cap) as usize];
            for _ in 0..TORN_RETRIES {
                let v1 = slot.version.load(Ordering::Acquire);
                if v1 != 2 * logical + 2 {
                    continue; // not settled with this record: in flight, or another lap's
                }
                let mut words = [0u64; WORDS];
                for (dst, src) in words.iter_mut().zip(&slot.words) {
                    *dst = src.load(Ordering::Relaxed);
                }
                fence(Ordering::Acquire);
                // ordering: relaxed-ok: the Acquire fence above orders the
                // word reads before this validation re-read.
                if slot.version.load(Ordering::Relaxed) == v1 {
                    out.push(StageRecord::unpack(&words));
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> StageRecord {
        StageRecord {
            shard: (i % 7) as u16,
            replica: (i % 3) as u16,
            batch_len: 10 + i as u32,
            trace: i | 1,
            admitted_ns: i * 100,
            collected_ns: i * 100 + 10,
            dispatched_ns: i * 100 + 11,
            answered_ns: i * 100 + 20,
            filled_ns: i * 100 + 25,
            encoded_ns: 0,
            acked_ns: 0,
        }
    }

    #[test]
    fn pack_unpack_round_trips() {
        let r = StageRecord {
            shard: 513,
            replica: 7,
            batch_len: u32::MAX,
            trace: u64::MAX,
            admitted_ns: u64::MAX,
            collected_ns: 1,
            dispatched_ns: 2,
            answered_ns: 3,
            filled_ns: 4,
            encoded_ns: 5,
            acked_ns: 6,
        };
        assert_eq!(StageRecord::unpack(&r.pack()), r);
    }

    #[test]
    fn ring_retains_newest_in_order() {
        let ring = TraceRing::new(&TraceConfig { capacity: 8, sample_period: 1, seed: 0 });
        for i in 0..20 {
            ring.push(&rec(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        let expect: Vec<StageRecord> = (12..20).map(rec).collect();
        assert_eq!(snap, expect, "oldest-first, wrapped");
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn sampling_is_deterministic_and_periodic() {
        let cfg = TraceConfig { capacity: 16, sample_period: 8, seed: 42 };
        let a = TraceRing::new(&cfg);
        let b = TraceRing::new(&cfg);
        let hits_a: Vec<bool> = (0..64).map(|_| a.sample()).collect();
        let hits_b: Vec<bool> = (0..64).map(|_| b.sample()).collect();
        assert_eq!(hits_a, hits_b, "same seed, same sampled requests");
        assert_eq!(hits_a.iter().filter(|&&h| h).count(), 8, "one in eight");
        assert_eq!(a.considered(), 64);

        let other = TraceRing::new(&TraceConfig { seed: 43, ..cfg });
        let hits_c: Vec<bool> = (0..64).map(|_| other.sample()).collect();
        assert_ne!(hits_a, hits_c, "different seed, different residue class");
    }

    #[test]
    fn sample_n_counts_what_n_samples_would() {
        for (period, seed) in [(1, 0), (7, 3), (8, 42), (64, 0x5EED), (1 << 40, 9)] {
            let cfg = TraceConfig { capacity: 4, sample_period: period, seed };
            let (one, many) = (TraceRing::new(&cfg), TraceRing::new(&cfg));
            for n in [1u64, 1, 0, 5, 64, 3, 256, 1, 7, 100] {
                let expect = (0..n).filter(|_| one.sample()).count() as u64;
                assert_eq!(many.sample_n(n), expect, "period {period}, group of {n}");
                assert_eq!(many.considered(), one.considered());
            }
            assert_eq!(many.period(), period);
        }
    }

    #[test]
    fn disabled_ring_never_samples_and_snapshots_empty() {
        let ring = TraceRing::new(&TraceConfig::disabled());
        assert!(!ring.sample());
        assert_eq!(ring.sample_n(9), 0);
        ring.push(&rec(1)); // must be a no-op, not a panic
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.recorded(), 0);
    }

    #[test]
    fn dense_config_samples_everything() {
        let ring = TraceRing::new(&TraceConfig::dense());
        assert!((0..10).all(|_| ring.sample()));
    }

    #[test]
    fn stage_helpers() {
        let r = rec(3);
        assert!(r.stages_monotonic());
        assert_eq!(r.wait_ns(), 10);
        assert_eq!(r.service_ns(), 10);
        assert_eq!(r.fill_ns(), 5);
        assert_eq!(r.total_ns(), 25);
        assert_eq!(r.wire_ns(), 0);
    }

    #[test]
    fn concurrent_snapshot_never_sees_torn_garbage() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring =
            Arc::new(TraceRing::new(&TraceConfig { capacity: 4, sample_period: 1, seed: 0 }));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (ring, stop) = (ring.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ring.push(&rec(i));
                    i += 1;
                }
            })
        };
        for _ in 0..2_000 {
            for r in ring.snapshot() {
                // Every accepted record is internally consistent: the
                // stage arithmetic of some rec(i), never a mix of two.
                assert_eq!(r.collected_ns, r.admitted_ns + 10, "torn record escaped: {r:?}");
                assert_eq!(r.filled_ns, r.admitted_ns + 25, "torn record escaped: {r:?}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn concurrent_writers_keep_whole_records() {
        use std::sync::Arc;
        let ring =
            Arc::new(TraceRing::new(&TraceConfig { capacity: 2, sample_period: 1, seed: 0 }));
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let ring = ring.clone();
                std::thread::spawn(move || (0..20_000).for_each(|i| ring.push(&rec(2 * i + w))))
            })
            .collect();
        for _ in 0..2_000 {
            for r in ring.snapshot() {
                assert_eq!(r.collected_ns, r.admitted_ns + 10, "torn record escaped: {r:?}");
                assert_eq!(r.filled_ns, r.admitted_ns + 25, "torn record escaped: {r:?}");
            }
        }
        writers.into_iter().for_each(|w| w.join().unwrap());
        assert_eq!(ring.recorded(), 40_000);
        // Settled: the slot of each of the last two positions holds that
        // position's record, or none if its write lost the slot.
        assert!(ring.snapshot().len() <= 2);
        ring.push(&rec(7));
        ring.push(&rec(8));
        assert_eq!(ring.snapshot(), [rec(7), rec(8)], "a lone writer keeps every record");
    }
}
