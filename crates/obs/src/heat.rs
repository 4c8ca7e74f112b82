//! Key-range heat telemetry: where in the keyspace load lands.
//!
//! A [`HeatMap`] holds a fixed grid of relaxed atomic counters —
//! [`HEAT_BUCKETS`] buckets per shard, cut from the shard's *own* key
//! span (its first to its last key at build), so a shard resolves its
//! load whatever its width — bumped once per lookup on the read path. A
//! key's bucket is its offset from the span's first key, shifted right by
//! the span's scale: the smallest power of two that fits the span into
//! sixteen buckets, so a span of 8 keys or more lights between 9 and all
//! 16 of them (all 16 when its width is within a sixteenth below a power
//! of two).
//! Keys outside the span — inserted after build, or routed across a
//! shard's edge — clamp into the edge buckets.
//!
//! Each shard's row is kept more than once, by who counts into it, and a
//! cell reads the sum ([`HeatMap::count`]):
//!
//! * the **shared row** takes [`record`](HeatMap::record), a plain
//!   `fetch_add(1, Relaxed)` any thread may make — in the serving layer,
//!   for the keys a caller could not rank itself: queued for a
//!   dispatcher, shed, or refused at admission;
//! * one **claim row per writer** (the serving layer's writers are a
//!   shard's replicas) takes
//!   [`record_unshared`](HeatMap::record_unshared), a load and a store:
//!   only the caller holding the replica's claim counts into that row —
//!   the keys it ranks under the claim — so it is the row's only writer,
//!   and a count costs no read-modify-write.
//!
//! No locks, no allocation, no ordering (the counters publish nothing),
//! so the warmed zero-allocation lookup path stays zero-allocation with
//! heat telemetry on (`tests/zero_alloc.rs` pins it).
//!
//! The grid is deliberately coarse and fixed: sixteen buckets are
//! enough to see a Zipf head, a flash crowd, or a cold half of a shard
//! — the signals the elastic shard-split and hot-key-cache work need —
//! while costing one cache line per shard and nothing to configure.
//! Each cell is read on its own ([`HeatMap::count`]), which is what the
//! serving layer's per-cell `dini_serve_heat` gauges do.

use crate::sync::{AtomicU64, Ordering};

/// Key-range buckets per shard.
pub const HEAT_BUCKETS: usize = 16;

/// Where one shard's buckets start and how wide each is.
#[derive(Debug, Clone, Copy)]
struct Scale {
    /// The shard's first key: bucket 0 starts here.
    lo: u32,
    /// Each bucket covers `1 << shift` keys.
    shift: u32,
}

impl Scale {
    /// The scale that fits `lo..=hi` into [`HEAT_BUCKETS`] buckets.
    fn new(lo: u32, hi: u32) -> Self {
        let width = hi.saturating_sub(lo);
        let bits = u32::BITS - width.leading_zeros();
        Self { lo, shift: bits.saturating_sub(HEAT_BUCKETS.trailing_zeros()) }
    }
}

/// A shard-major grid of key-range access counters.
///
/// Any number of threads may [`record`](Self::record) concurrently;
/// [`record_unshared`](Self::record_unshared) into one claim row is for
/// that row's only writer. Counts are monotone and advisory (relaxed),
/// read back cell by cell via [`count`](Self::count).
#[derive(Debug)]
pub struct HeatMap {
    /// Flat shard-major grid: `counts[shard * HEAT_BUCKETS + bucket]`.
    // ordering: relaxed-ok: advisory monotone telemetry counters; no
    // data is published through them.
    counts: Vec<AtomicU64>,
    /// The claim rows, writer-major within a shard:
    /// `claimed[(shard * writers + writer) * HEAT_BUCKETS + bucket]`.
    // ordering: relaxed-ok: as `counts`; a row's writers are ordered by
    // the caller's own exclusion.
    claimed: Vec<AtomicU64>,
    /// Claim rows per shard.
    writers: usize,
    scales: Vec<Scale>,
}

impl HeatMap {
    /// A zeroed grid with one shared row and `writers` claim rows per
    /// shard, each cut from that shard's key span `(first key, last
    /// key)`. An empty shard passes `(0, u32::MAX)`: the whole key space.
    pub fn new(spans: &[(u32, u32)], writers: usize) -> Self {
        let zeroed = |n: usize| (0..n * HEAT_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            counts: zeroed(spans.len()),
            claimed: zeroed(spans.len() * writers),
            writers,
            scales: spans.iter().map(|&(lo, hi)| Scale::new(lo, hi)).collect(),
        }
    }

    /// The bucket `key` falls in on `shard`: its offset into the shard's
    /// span, scaled, with keys outside the span clamped to the edges.
    #[inline]
    pub fn bucket_of(&self, shard: usize, key: u32) -> usize {
        let Scale { lo, shift } = self.scales[shard];
        ((key.saturating_sub(lo) >> shift) as usize).min(HEAT_BUCKETS - 1)
    }

    /// Count one access to `key` on `shard`. Wait-free,
    /// allocation-free: a subtract, a shift and one relaxed `fetch_add`.
    #[inline]
    pub fn record(&self, shard: usize, key: u32) {
        self.counts[shard * HEAT_BUCKETS + self.bucket_of(shard, key)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Count one access to `key` on `shard` into `writer`'s claim row,
    /// with a load and a store instead of a read-modify-write. Only the
    /// row's one writer may call this: concurrent writers exclude each
    /// other and are ordered one after the next by the caller (the
    /// serving layer's replica claim), or a count could be lost.
    #[inline]
    pub fn record_unshared(&self, shard: usize, writer: usize, key: u32) {
        let row = (shard * self.writers + writer) * HEAT_BUCKETS;
        let cell = &self.claimed[row + self.bucket_of(shard, key)];
        // ordering: relaxed-ok: the row's writers are ordered by the
        // caller's exclusion, so this load sees the last store; readers
        // only sum the value.
        cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Shards in the grid.
    pub fn n_shards(&self) -> usize {
        self.scales.len()
    }

    /// One cell of the grid, summed over its shared and claim rows —
    /// the allocation-free read a per-bucket metrics gauge wants.
    pub fn count(&self, shard: usize, bucket: usize) -> u64 {
        let claimed = (0..self.writers).map(|w| {
            self.claimed[(shard * self.writers + w) * HEAT_BUCKETS + bucket].load(Ordering::Relaxed)
        });
        self.counts[shard * HEAT_BUCKETS + bucket].load(Ordering::Relaxed) + claimed.sum::<u64>()
    }

    /// Total accesses counted for one shard.
    pub fn shard_total(&self, shard: usize) -> u64 {
        (0..HEAT_BUCKETS).map(|b| self.count(shard, b)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_whole_key_space_shard_buckets_by_the_top_bits() {
        let heat = HeatMap::new(&[(0, u32::MAX)], 1);
        assert_eq!(heat.bucket_of(0, 0), 0);
        assert_eq!(heat.bucket_of(0, (1 << 28) - 1), 0);
        assert_eq!(heat.bucket_of(0, 1 << 28), 1);
        assert_eq!(heat.bucket_of(0, u32::MAX), HEAT_BUCKETS - 1);
    }

    #[test]
    fn a_shard_buckets_its_own_span_and_clamps_outside_it() {
        // 1 600 keys wide: 128-key buckets, the last key in bucket 12.
        let heat = HeatMap::new(&[(1_000, 2_600)], 1);
        assert_eq!(heat.bucket_of(0, 1_000), 0);
        assert_eq!(heat.bucket_of(0, 1_127), 0);
        assert_eq!(heat.bucket_of(0, 1_128), 1);
        assert_eq!(heat.bucket_of(0, 2_600), 12);
        assert_eq!(heat.bucket_of(0, 0), 0, "below the span: the first bucket");
        assert_eq!(heat.bucket_of(0, u32::MAX), HEAT_BUCKETS - 1, "above: the last");
        // A one-key (or empty-width) span puts everything at or above it
        // in the last bucket, never out of range.
        let point = HeatMap::new(&[(7, 7)], 1);
        assert_eq!(point.bucket_of(0, 7), 0);
        assert_eq!(point.bucket_of(0, 8), 1);
        assert_eq!(point.bucket_of(0, 100), HEAT_BUCKETS - 1);
    }

    #[test]
    fn uniform_lookups_over_compact_keys_light_every_cell_of_every_shard() {
        // 2^16 contiguous keys on 4 shards of 2^14 keys each, all far
        // below the top four bits of `u32`.
        let spans: Vec<(u32, u32)> = (0..4).map(|s| (s << 14, ((s + 1) << 14) - 1)).collect();
        let heat = HeatMap::new(&spans, 1);
        let mut x = 1u32;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let key = x & 0xFFFF;
            heat.record((key >> 14) as usize, key);
        }
        for shard in 0..4 {
            for bucket in 0..HEAT_BUCKETS {
                assert!(heat.count(shard, bucket) > 0, "shard {shard} bucket {bucket} is dark");
            }
        }
        // A width that is no power of two lights fewer, never under 9.
        let odd = HeatMap::new(&[(0, 9_999)], 1);
        let lit: std::collections::BTreeSet<usize> =
            (0..10_000).map(|k| odd.bucket_of(0, k)).collect();
        assert_eq!(lit.len(), 10, "10 000 keys in 1 024-key buckets");
    }

    #[test]
    fn records_land_in_their_shard_and_bucket() {
        let heat = HeatMap::new(&[(0, u32::MAX); 2], 2);
        heat.record(0, 0);
        heat.record(0, 5);
        heat.record(1, u32::MAX);
        assert_eq!(heat.count(0, 0), 2, "shard 0 bucket 0");
        assert_eq!(heat.count(1, HEAT_BUCKETS - 1), 1, "shard 1 top bucket");
        assert_eq!(heat.shard_total(0), 2);
        assert_eq!(heat.shard_total(1), 1);
        // A claim row counts into the same cells, and only its own shard's.
        heat.record_unshared(0, 1, 3);
        heat.record_unshared(0, 0, 4);
        heat.record_unshared(1, 1, u32::MAX);
        assert_eq!(heat.count(0, 0), 4, "shared row plus both claim rows");
        assert_eq!(heat.count(1, HEAT_BUCKETS - 1), 2);
        assert_eq!((heat.shard_total(0), heat.shard_total(1)), (4, 2));
    }

    #[test]
    fn concurrent_records_never_lose_counts() {
        use std::sync::Arc;
        let heat = Arc::new(HeatMap::new(&[(0, u32::MAX)], 1));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let heat = heat.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u32 {
                        heat.record(0, (t as u32) << 28 | i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(heat.shard_total(0), 4_000);
    }
}
