//! The native, thread-backed distributed index — the public facade a
//! downstream user adopts.
//!
//! [`DistributedIndex`] is Method C-3 on real hardware: one worker thread
//! per "slave", each pinned (when possible) to its own core so its
//! partition stays hot in that core's cache; a dispatcher (the calling
//! thread, the "master") routes batched queries by binary search over the
//! partition delimiters, and each slave answers its whole share of a
//! batch through one miss-overlapping kernel ([`LineDirectory`]). The
//! modern analogue of the paper's cluster is a multicore with per-core
//! private L2: the cache-aggregation argument carries over unchanged.

use dini_cache_sim::NullMemory;
use dini_index::{LineDirectory, Partitions};
use dini_store::SharedKeys;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A request to a slave: `(batch_id, (query slot, key) pairs)`.
type Req = (u64, Vec<(u32, u32)>);
/// A response: `(batch_id, (query slot, global rank) pairs)`.
type Resp = (u64, Vec<(u32, u32)>);

/// Request-channel slots per slave (and response slots per slave). A
/// lookup drains every response before it returns, so a slave never has
/// more than one request queued; the number only has to be at least 1.
const CHANNEL_CAPACITY: usize = 8;

/// Configuration for [`DistributedIndex`].
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Number of worker ("slave") threads / partitions.
    pub n_slaves: usize,
    /// Pin each worker to one core of the set the process is allowed to
    /// run on (`sched_getaffinity`): slave `j` to allowed core
    /// `(j + 1) mod n`, sharing cores once slaves outnumber them. Best
    /// effort: where the platform cannot pin (not Linux, or the kernel
    /// refuses) the slaves run unpinned, and
    /// [`DistributedIndex::pinned_slaves`] says how many did pin.
    pub pin_cores: bool,
}

impl NativeConfig {
    /// `n_slaves` workers, pinning on.
    pub fn new(n_slaves: usize) -> Self {
        Self { n_slaves, pin_cores: true }
    }
}

/// A range-partitioned rank index served by per-core worker threads.
///
/// ```
/// use dini_core::native::{DistributedIndex, NativeConfig};
///
/// let keys: Vec<u32> = (0..100_000).map(|i| i * 3).collect();
/// let mut cfg = NativeConfig::new(4);
/// cfg.pin_cores = false; // CI-friendly
/// let mut index = DistributedIndex::build(&keys, cfg);
/// let ranks = index.lookup_batch(&[0, 1, 299_997, u32::MAX]);
/// assert_eq!(ranks, vec![1, 1, 100_000, 100_000]);
/// ```
pub struct DistributedIndex {
    delimiters: Vec<u32>,
    /// Rank of each partition's first key, plus the total count as a
    /// sentinel (`n_slaves + 1` entries).
    base_ranks: Vec<u32>,
    to_slaves: Vec<SyncSender<Req>>,
    from_slaves: Receiver<Resp>,
    joins: Vec<JoinHandle<()>>,
    pinned_slaves: usize,
    next_batch: u64,
    n_keys: usize,
    /// Per-slave scatter staging for the batch being assembled.
    out_bufs: Vec<Vec<(u32, u32)>>,
    /// Recycled `(slot, rank)` buffers: every response `Vec` a slave
    /// hands back is cleared and reused as a future scatter buffer, so
    /// the master↔slave traffic stops allocating once capacities have
    /// grown to the steady-state batch shape.
    spare_bufs: Vec<Vec<(u32, u32)>>,
    /// One-slot result scratch for [`lookup`](Self::lookup).
    one: Vec<u32>,
}

impl DistributedIndex {
    /// Build over `keys` (must be sorted ascending, unique). Spawns
    /// `cfg.n_slaves` worker threads that live until the index is dropped.
    pub fn build(keys: &[u32], cfg: NativeConfig) -> Self {
        Self::build_shared(&Arc::new(keys.to_vec()), cfg)
    }

    /// Build over an `Arc`-shared key array without copying it: each
    /// worker holds the `Arc` plus its partition bounds, so
    /// several indexes built from the *same* `Arc` (e.g. the replicas of
    /// one `dini-serve` shard) share a single copy of the keys — replicas
    /// cost threads and a derived directory (1/15 of the key bytes), not
    /// a copy of the index. `keys` must be sorted ascending, unique.
    pub fn build_shared(keys: &Arc<Vec<u32>>, cfg: NativeConfig) -> Self {
        Self::build_backed(SharedKeys::from_arc(keys.clone()), cfg)
    }

    /// Build over any [`SharedKeys`] backing without copying: an owned
    /// `Arc`-shared vector behaves exactly like
    /// [`build_shared`](Self::build_shared); a *mapped* backing (a
    /// window into a `dini-store` snapshot file) gives the instant-
    /// restart path — the index comes up by pointing workers at the
    /// page-cached file instead of sorting (each worker still derives
    /// its directory from the mapped slice, one strided pass), and
    /// lookups stay allocation-free because the probe path is the same
    /// `&[u32]` kernel either way.
    pub fn build_backed(keys: SharedKeys, cfg: NativeConfig) -> Self {
        assert!(cfg.n_slaves >= 1, "need at least one slave");
        assert!(keys.len() >= cfg.n_slaves, "need at least one key per partition");
        debug_assert!(
            keys.as_slice().windows(2).all(|w| w[0] < w[1]),
            "keys must be sorted unique"
        );

        let Partitions { delimiters, mut base_ranks, ranges } =
            Partitions::split(keys.as_slice(), cfg.n_slaves);
        base_ranks.push(keys.len() as u32);
        let cores = if cfg.pin_cores { dini_sysprobe::allowed_cores() } else { Vec::new() };
        // Each slave that is asked to pin reports whether it did.
        let (pin_tx, pin_rx) = channel::<bool>();

        let (resp_tx, from_slaves) = sync_channel::<Resp>(CHANNEL_CAPACITY * cfg.n_slaves);
        let mut to_slaves = Vec::with_capacity(cfg.n_slaves);
        let mut joins = Vec::with_capacity(cfg.n_slaves);

        for (j, range) in ranges.into_iter().enumerate() {
            let part = keys.clone();
            let base_rank = base_ranks[j];
            let (req_tx, req_rx) = sync_channel::<Req>(CHANNEL_CAPACITY);
            to_slaves.push(req_tx);
            let tx = resp_tx.clone();
            let pin = (!cores.is_empty()).then(|| (cores[(j + 1) % cores.len()], pin_tx.clone()));
            joins.push(
                std::thread::Builder::new()
                    .name(format!("dini-native-{j}"))
                    .spawn(move || {
                        if let Some((core, pin_tx)) = pin {
                            // Before the directory is built, so its pages are
                            // first touched from the core that will read them.
                            let _ = pin_tx.send(dini_sysprobe::pin_current_thread(core));
                        }
                        // The worker owns only its directory (1/15 of its
                        // partition's bytes); the keys stay in the shared
                        // backing. Addresses are simulated-only: NullMemory
                        // makes the probe free of instrumentation.
                        let dir = LineDirectory::new(part, range, 0, 0.0);
                        for (batch, mut pairs) in req_rx.iter() {
                            dir.rank_pairs(&mut pairs, base_rank, &mut NullMemory);
                            if tx.send((batch, pairs)).is_err() {
                                return; // master hung up
                            }
                        }
                    })
                    .expect("spawn native slave"),
            );
        }

        // Ends once every slave that holds a sender has reported and
        // dropped it; at once when nobody was asked to pin.
        drop(pin_tx);
        let pinned_slaves = pin_rx.iter().filter(|&pinned| pinned).count();

        Self {
            delimiters,
            base_ranks,
            to_slaves,
            from_slaves,
            joins,
            pinned_slaves,
            next_batch: 0,
            n_keys: keys.len(),
            out_bufs: vec![Vec::new(); cfg.n_slaves],
            spare_bufs: Vec::with_capacity(cfg.n_slaves),
            one: Vec::with_capacity(1),
        }
    }

    /// The rank range served by partition `j`: ranks of keys owned by that
    /// worker fall in `partition_ranks(j)` (boundary ranks are shared with
    /// the next partition).
    pub fn partition_ranks(&self, j: usize) -> std::ops::Range<u32> {
        self.base_ranks[j]..self.base_ranks[j + 1]
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.n_keys
    }

    /// Whether the index is empty (it never is; `build` requires keys).
    pub fn is_empty(&self) -> bool {
        self.n_keys == 0
    }

    /// Number of partitions / worker threads.
    pub fn n_slaves(&self) -> usize {
        self.to_slaves.len()
    }

    /// How many workers are pinned to a core: `n_slaves()` when
    /// [`NativeConfig::pin_cores`] was set and the host allowed it, 0
    /// when it was not set, anything between when the kernel refused
    /// some — a measurement that assumes placement should check this.
    pub fn pinned_slaves(&self) -> usize {
        self.pinned_slaves
    }

    /// Which slave owns `key`.
    #[inline]
    pub fn dispatch(&self, key: u32) -> usize {
        self.delimiters.partition_point(|&d| d <= key)
    }

    /// Rank every query: `result[i]` = number of index keys ≤ `queries[i]`.
    ///
    /// Scatters by key range to the worker threads, gathers, and reorders.
    /// Allocates a fresh result `Vec`; batch-per-batch callers (the
    /// serving dispatcher) should reuse a buffer via
    /// [`lookup_batch_into`](Self::lookup_batch_into) instead.
    pub fn lookup_batch(&mut self, queries: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(queries.len());
        self.lookup_batch_into(queries, &mut out);
        out
    }

    /// Rank every query into `out` (cleared and resized to
    /// `queries.len()`): `out[i]` = number of index keys ≤ `queries[i]`.
    ///
    /// This is the steady-state-allocation-free form of
    /// [`lookup_batch`](Self::lookup_batch): the caller owns the result
    /// buffer, the scatter buffers are pooled on the master, and the
    /// response buffers the slaves send back are recycled into future
    /// scatter buffers instead of dropped — once every buffer has grown
    /// to the workload's batch shape, a lookup touches the allocator
    /// zero times.
    pub fn lookup_batch_into(&mut self, queries: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.resize(queries.len(), 0);
        if queries.is_empty() {
            return;
        }
        let batch = self.next_batch;
        self.next_batch += 1;

        for (slot, &key) in queries.iter().enumerate() {
            let s = self.dispatch(key);
            self.out_bufs[s].push((slot as u32, key));
        }
        let mut outstanding = 0usize;
        for s in 0..self.out_bufs.len() {
            if self.out_bufs[s].is_empty() {
                continue;
            }
            outstanding += 1;
            // Restock the staging slot from the recycle pool (filled by
            // previous batches' responses) while the loaded buffer rides
            // the channel.
            let buf =
                std::mem::replace(&mut self.out_bufs[s], self.spare_bufs.pop().unwrap_or_default());
            self.to_slaves[s].send((batch, buf)).expect("native slave thread died");
        }

        while outstanding > 0 {
            let (b, mut pairs) = self.from_slaves.recv().expect("native slave thread died");
            debug_assert_eq!(b, batch, "stale batch response");
            for &(slot, rank) in &pairs {
                out[slot as usize] = rank;
            }
            pairs.clear();
            self.spare_bufs.push(pairs);
            outstanding -= 1;
        }
    }

    /// Rank a single key (convenience; batches amortise much better).
    /// The same path as a batch of one, answered into a one-slot scratch
    /// kept on the index, so a warmed `lookup` allocates nothing either.
    pub fn lookup(&mut self, key: u32) -> u32 {
        let mut one = std::mem::take(&mut self.one);
        self.lookup_batch_into(&[key], &mut one);
        let rank = one[0];
        self.one = one;
        rank
    }
}

impl Drop for DistributedIndex {
    fn drop(&mut self) {
        // Hang up the request channels; workers drain and exit.
        self.to_slaves.clear();
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dini_index::traits::oracle_rank;
    use dini_workload::gen_sorted_unique_keys;

    fn cfg(n: usize) -> NativeConfig {
        NativeConfig { n_slaves: n, pin_cores: false }
    }

    #[test]
    fn matches_oracle_on_random_keys() {
        let keys = gen_sorted_unique_keys(50_000, 42);
        let mut idx = DistributedIndex::build(&keys, cfg(4));
        let queries: Vec<u32> = (0..10_000u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let ranks = idx.lookup_batch(&queries);
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(ranks[i], oracle_rank(&keys, q), "query {q}");
        }
    }

    #[test]
    fn single_lookup_and_boundaries() {
        let keys: Vec<u32> = (1..=1000).map(|i| i * 10).collect();
        let mut idx = DistributedIndex::build(&keys, cfg(7));
        assert_eq!(idx.lookup(0), 0);
        assert_eq!(idx.lookup(10), 1);
        assert_eq!(idx.lookup(10_000), 1000);
        assert_eq!(idx.lookup(u32::MAX), 1000);
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.n_slaves(), 7);
    }

    #[test]
    fn dispatch_respects_partition_boundaries() {
        let keys: Vec<u32> = (0..100).map(|i| i * 2).collect();
        let idx = DistributedIndex::build(&keys, cfg(5));
        // 20 keys per partition; key 40 starts partition 1.
        assert_eq!(idx.dispatch(0), 0);
        assert_eq!(idx.dispatch(39), 0);
        assert_eq!(idx.dispatch(40), 1);
        assert_eq!(idx.dispatch(u32::MAX), 4);
    }

    #[test]
    fn repeated_batches_reuse_workers() {
        let keys = gen_sorted_unique_keys(10_000, 1);
        let mut idx = DistributedIndex::build(&keys, cfg(3));
        for round in 0..50u32 {
            let queries: Vec<u32> = (0..100).map(|i| i * 1000 + round).collect();
            let ranks = idx.lookup_batch(&queries);
            assert_eq!(ranks.len(), 100);
        }
    }

    #[test]
    fn empty_batch_returns_empty() {
        let keys = gen_sorted_unique_keys(1000, 2);
        let mut idx = DistributedIndex::build(&keys, cfg(2));
        assert!(idx.lookup_batch(&[]).is_empty());
        let mut out = vec![7u32; 3];
        idx.lookup_batch_into(&[], &mut out);
        assert!(out.is_empty(), "into-form must clear stale results");
    }

    #[test]
    fn lookup_batch_into_matches_lookup_batch_and_reuses_out() {
        let keys = gen_sorted_unique_keys(30_000, 9);
        let mut idx = DistributedIndex::build(&keys, cfg(4));
        let mut out = Vec::new();
        for round in 0..20u32 {
            let queries: Vec<u32> =
                (0..257u32).map(|i| (i * 31 + round).wrapping_mul(2_654_435_761)).collect();
            idx.lookup_batch_into(&queries, &mut out);
            assert_eq!(out.len(), queries.len());
            for (i, &q) in queries.iter().enumerate() {
                assert_eq!(out[i], oracle_rank(&keys, q), "round {round}, query {q}");
            }
        }
        // The same queries through the allocating form agree exactly.
        let queries: Vec<u32> = (0..257u32).map(|i| i.wrapping_mul(747_796_405)).collect();
        idx.lookup_batch_into(&queries, &mut out);
        assert_eq!(idx.lookup_batch(&queries), out);
    }

    #[test]
    fn scatter_buffers_recycle_across_batches() {
        let keys = gen_sorted_unique_keys(10_000, 13);
        let mut idx = DistributedIndex::build(&keys, cfg(3));
        let queries: Vec<u32> = (0..300u32).map(|i| i * 14_321).collect();
        let mut out = Vec::new();
        for _ in 0..10 {
            idx.lookup_batch_into(&queries, &mut out);
        }
        // Every response Vec the slaves handed back was recycled: the
        // pool never exceeds the number of slaves and, once warm, every
        // pooled buffer carries real capacity from earlier batches.
        assert!(idx.spare_bufs.len() <= idx.n_slaves());
        assert!(!idx.spare_bufs.is_empty(), "responses must be recycled, not dropped");
        assert!(idx.spare_bufs.iter().all(|b| b.capacity() > 0));
    }

    #[test]
    fn pinned_slaves_are_counted_and_answer_like_unpinned_ones() {
        let keys = gen_sorted_unique_keys(20_000, 5);
        let queries: Vec<u32> = (0..5_000u32).map(|i| i.wrapping_mul(747_796_405)).collect();
        let mut unpinned = DistributedIndex::build(&keys, cfg(3));
        assert_eq!(unpinned.pinned_slaves(), 0);
        let mut pinned = DistributedIndex::build(&keys, NativeConfig { pin_cores: true, ..cfg(3) });
        // Whether this host lets a thread pin itself, asked the way a
        // slave asks (in a thread of its own: the mask is per thread).
        let permitted = std::thread::spawn(|| {
            dini_sysprobe::allowed_cores()
                .first()
                .is_some_and(|&c| dini_sysprobe::pin_current_thread(c))
        })
        .join()
        .expect("probe thread");
        assert_eq!(pinned.pinned_slaves(), if permitted { 3 } else { 0 });
        assert_eq!(pinned.lookup_batch(&queries), unpinned.lookup_batch(&queries));
    }

    #[test]
    fn shared_builds_share_storage_and_agree() {
        let keys = Arc::new(gen_sorted_unique_keys(20_000, 77));
        let mut a = DistributedIndex::build_shared(&keys, cfg(3));
        let mut b = DistributedIndex::build_shared(&keys, cfg(3));
        // Each sorted-array worker pins the shared Arc instead of copying
        // its partition: 1 (here) + 2 indexes × 3 workers.
        assert_eq!(Arc::strong_count(&keys), 1 + 2 * 3);
        let queries: Vec<u32> = (0..2_000u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        assert_eq!(a.lookup_batch(&queries), b.lookup_batch(&queries));
        for &q in queries.iter().take(100) {
            assert_eq!(a.lookup(q), oracle_rank(&keys, q), "query {q}");
        }
        drop(a);
        drop(b);
        assert_eq!(Arc::strong_count(&keys), 1, "workers must release the shared keys");
    }

    #[test]
    fn drop_shuts_workers_down() {
        let keys = gen_sorted_unique_keys(1000, 3);
        let idx = DistributedIndex::build(&keys, cfg(4));
        drop(idx); // must not hang or panic
    }

    #[test]
    #[should_panic(expected = "at least one key per partition")]
    fn too_many_partitions_rejected() {
        DistributedIndex::build(&[1, 2], cfg(3));
    }
}
