//! Key-range heat telemetry: where in the keyspace load lands.
//!
//! A [`HeatMap`] holds a fixed grid of relaxed atomic counters —
//! [`HEAT_BUCKETS`] buckets per shard, each bucket one sixteenth of the
//! `u32` key space (top four key bits) — bumped once per lookup on the
//! read path. Increments are plain `fetch_add(1, Relaxed)`: no locks,
//! no allocation, no ordering (the counters publish nothing), so the
//! warmed zero-allocation lookup path stays zero-allocation with heat
//! telemetry on (`tests/zero_alloc.rs` pins it).
//!
//! The grid is deliberately coarse and fixed: sixteen buckets are
//! enough to see a Zipf head, a flash crowd, or a cold half of a shard
//! — the signals the elastic shard-split and hot-key-cache work need —
//! while costing one cache line per shard and nothing to configure.
//! Each cell is read on its own ([`HeatMap::count`]), which is what the
//! serving layer's per-cell `dini_serve_heat` gauges do.

use crate::sync::{AtomicU64, Ordering};

/// Key-range buckets per shard. Bucket = top four bits of the key, so
/// bucket `b` covers keys `[b << 28, (b + 1) << 28)`.
pub const HEAT_BUCKETS: usize = 16;

/// A shard-major grid of key-range access counters.
///
/// Any number of threads may [`record`](Self::record) concurrently;
/// counts are monotone and advisory (relaxed), read back cell by cell
/// via [`count`](Self::count).
#[derive(Debug)]
pub struct HeatMap {
    /// Flat shard-major grid: `counts[shard * HEAT_BUCKETS + bucket]`.
    // ordering: relaxed-ok: advisory monotone telemetry counters; no
    // data is published through them.
    counts: Vec<AtomicU64>,
    n_shards: usize,
}

impl HeatMap {
    /// A zeroed grid for `n_shards` shards.
    pub fn new(n_shards: usize) -> Self {
        Self { counts: (0..n_shards * HEAT_BUCKETS).map(|_| AtomicU64::new(0)).collect(), n_shards }
    }

    /// The key-range bucket a key falls in (its top four bits).
    #[inline]
    pub fn bucket_of(key: u32) -> usize {
        (key >> 28) as usize
    }

    /// Count one access to `key` on `shard`. Wait-free,
    /// allocation-free: one relaxed `fetch_add`.
    #[inline]
    pub fn record(&self, shard: usize, key: u32) {
        debug_assert!(shard < self.n_shards, "heat shard out of range");
        self.counts[shard * HEAT_BUCKETS + Self::bucket_of(key)].fetch_add(1, Ordering::Relaxed);
    }

    /// Shards in the grid.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// One cell of the grid — the allocation-free read a per-bucket
    /// metrics gauge wants.
    pub fn count(&self, shard: usize, bucket: usize) -> u64 {
        self.counts[shard * HEAT_BUCKETS + bucket].load(Ordering::Relaxed)
    }

    /// Total accesses counted for one shard.
    pub fn shard_total(&self, shard: usize) -> u64 {
        self.counts[shard * HEAT_BUCKETS..(shard + 1) * HEAT_BUCKETS]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_key_space() {
        assert_eq!(HeatMap::bucket_of(0), 0);
        assert_eq!(HeatMap::bucket_of((1 << 28) - 1), 0);
        assert_eq!(HeatMap::bucket_of(1 << 28), 1);
        assert_eq!(HeatMap::bucket_of(u32::MAX), HEAT_BUCKETS - 1);
    }

    #[test]
    fn records_land_in_their_shard_and_bucket() {
        let heat = HeatMap::new(2);
        heat.record(0, 0);
        heat.record(0, 5);
        heat.record(1, u32::MAX);
        assert_eq!(heat.count(0, 0), 2, "shard 0 bucket 0");
        assert_eq!(heat.count(1, HEAT_BUCKETS - 1), 1, "shard 1 top bucket");
        assert_eq!(heat.shard_total(0), 2);
        assert_eq!(heat.shard_total(1), 1);
    }

    #[test]
    fn concurrent_records_never_lose_counts() {
        use std::sync::Arc;
        let heat = Arc::new(HeatMap::new(1));
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
