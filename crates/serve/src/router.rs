//! Key-space sharding and load-aware replica selection.
//!
//! Routing happens in two stages:
//!
//! 1. **Which shard** ([`ShardRouter`]) is a pure function of the key —
//!    the same trick the paper's master plays across slaves, replayed one
//!    level up: the u32 key space is range-partitioned across shards by a
//!    delimiter array, and routing is a binary search over `n_shards − 1`
//!    delimiters — a handful of comparisons over a cache-resident array.
//!    Range partitioning (rather than hashing) is what keeps *rank*
//!    queries composable: every key smaller than shard `s`'s range lives
//!    in a shard `< s`, so `global_rank = base_rank(s) + local_rank`.
//! 2. **Which replica** ([`ReplicaSelector`]) is load-aware: any replica
//!    of a shard can answer any of that shard's keys (replicas serve the
//!    same `Arc`-shared snapshots), so the selector picks among them by
//!    **power-of-two choices** over live depths (keys being ranked on a
//!    replica, or in flight to an endpoint) — the classic
//!    result that sampling two queues and joining the shorter one gets
//!    exponentially close to the balance of global shortest-queue at a
//!    constant cost. Dead replicas (past their crash point) are skipped;
//!    selection is a pure function of `(tick, depths)`, which is what
//!    keeps `dini-simtest` runs bit-reproducible.

use dini_index::Partitions;

/// Routes keys to shards by range partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    /// `delimiters[i]` is the smallest key owned by shard `i + 1`.
    delimiters: Vec<u32>,
}

impl ShardRouter {
    /// Build a router splitting `keys` (sorted, unique) into `n_shards`
    /// contiguous ranges of near-equal population. The delimiters are
    /// fixed for the server's lifetime; churn changes shard *sizes*, not
    /// shard *boundaries*.
    pub fn from_keys(keys: &[u32], n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(
            keys.len() >= n_shards,
            "need at least one key per shard ({} keys, {n_shards} shards)",
            keys.len()
        );
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted unique");
        Self { delimiters: Partitions::split(keys, n_shards).delimiters }
    }

    /// An explicit delimiter list (`delimiters[i]` = first key of shard
    /// `i + 1`; must be strictly increasing).
    pub fn from_delimiters(delimiters: Vec<u32>) -> Self {
        debug_assert!(
            delimiters.windows(2).all(|w| w[0] < w[1]),
            "delimiters must be strictly increasing"
        );
        Self { delimiters }
    }

    /// Which shard owns `key`.
    #[inline]
    pub fn route(&self, key: u32) -> usize {
        self.delimiters.partition_point(|&d| d <= key)
    }

    /// Whether shard `shard` owns `key`: `route(key) == shard`, decided
    /// by the same `d <= key` test against the shard's two delimiters
    /// instead of a search over all of them.
    #[inline]
    pub fn owns(&self, shard: usize, key: u32) -> bool {
        let (lo, hi) = self.shard_range(shard);
        lo <= key && hi.is_none_or(|hi| key < hi)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.delimiters.len() + 1
    }

    /// The delimiter array itself (`n_shards − 1` strictly increasing
    /// split points) — what a `dini-store` snapshot persists so a
    /// restarted process reconstructs the *identical* routing.
    pub fn delimiters(&self) -> &[u32] {
        &self.delimiters
    }

    /// The half-open key range shard `s` owns (first shard starts at 0,
    /// last shard is unbounded above).
    pub fn shard_range(&self, s: usize) -> (u32, Option<u32>) {
        let lo = if s == 0 { 0 } else { self.delimiters[s - 1] };
        let hi = self.delimiters.get(s).copied();
        (lo, hi)
    }

    /// Split sorted-unique `keys` into per-shard slices along the
    /// delimiters (used at build time and by oracles in tests).
    pub fn split<'a>(&self, keys: &'a [u32]) -> Vec<&'a [u32]> {
        let mut out = Vec::with_capacity(self.n_shards());
        let mut start = 0usize;
        for &d in &self.delimiters {
            let end = start + keys[start..].partition_point(|&k| k < d);
            out.push(&keys[start..end]);
            start = end;
        }
        out.push(&keys[start..]);
        out
    }
}

/// Power-of-two-choices selection among one shard's replicas.
///
/// The caller supplies a monotonically advancing `tick` (any per-caller
/// counter) and a probe of each replica's live state: `Some(depth)` for
/// an alive replica, `None` for a crashed one. The selector
///
/// * rotates its two candidates through the replica set with `tick`
///   (deterministic, no RNG — a seeded draw would cost state and buy
///   nothing the rotation doesn't),
/// * picks the candidate with the smaller queue depth, breaking ties
///   toward the lower replica index,
/// * falls back to a full min-depth scan only when a candidate is dead
///   (the rare path), and
/// * returns `None` only when *every* replica is dead — the caller maps
///   that to `ShuttingDown`.
///
/// Selection is a pure function of `(tick, depths)`: given fixed inputs
/// it always returns the same replica, which `dini-simtest` relies on
/// for bit-reproducible runs (and `prop_router.rs` pins with proptests).
///
/// ```
/// use dini_serve::ReplicaSelector;
///
/// let sel = ReplicaSelector::new(3);
/// // Candidates rotate with the tick; the shorter queue wins.
/// let depths = [5u64, 0, 9];
/// assert_eq!(sel.select(0, |r| Some(depths[r])), Some(1)); // 5 vs 0 → replica 1
/// // A dead replica is never picked.
/// assert_eq!(sel.select(0, |r| (r != 1).then_some(depths[r])), Some(0));
/// // All dead → None (the shard is gone).
/// assert_eq!(sel.select(0, |_| None::<u64>), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSelector {
    n_replicas: usize,
}

impl ReplicaSelector {
    /// A selector over `n_replicas` replicas (≥ 1).
    pub fn new(n_replicas: usize) -> Self {
        assert!(n_replicas >= 1, "need at least one replica");
        Self { n_replicas }
    }

    /// Number of replicas this selector chooses among.
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// The two candidate replicas for `tick` (equal when `n_replicas`
    /// is 1).
    #[inline]
    pub fn candidates(&self, tick: u64) -> (usize, usize) {
        let n = self.n_replicas as u64;
        (((tick) % n) as usize, ((tick + 1) % n) as usize)
    }

    /// Pick a replica: power-of-two choices over `depth` (which returns
    /// `Some(queue depth)` for alive replicas, `None` for dead ones).
    /// Returns `None` only when every replica is dead. Allocation-free.
    #[inline]
    pub fn select(&self, tick: u64, mut depth: impl FnMut(usize) -> Option<u64>) -> Option<usize> {
        if self.n_replicas == 1 {
            return depth(0).map(|_| 0);
        }
        let (a, b) = self.candidates(tick);
        match (depth(a), depth(b)) {
            (Some(da), Some(db)) => {
                // Tie toward the lower index: deterministic, and with
                // both queues empty it keeps single-stream traffic on
                // one warm replica instead of ping-ponging caches.
                if db < da || (db == da && b < a) {
                    Some(b)
                } else {
                    Some(a)
                }
            }
            (Some(_), None) => Some(a),
            (None, Some(_)) => Some(b),
            (None, None) => {
                // Both sampled replicas are dead: scan the whole group
                // for the least-loaded survivor (rare, failover-time
                // path; still allocation-free).
                let mut best: Option<(u64, usize)> = None;
                for r in 0..self.n_replicas {
                    if let Some(d) = depth(r) {
                        if best.is_none_or(|(bd, br)| d < bd || (d == bd && r < br)) {
                            best = Some((d, r));
                        }
                    }
                }
                best.map(|(_, r)| r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_and_route_agree() {
        let keys: Vec<u32> = (0..100).map(|i| i * 10).collect();
        let r = ShardRouter::from_keys(&keys, 4);
        assert_eq!(r.n_shards(), 4);
        // 25 keys per shard; shard 1 starts at key 250.
        assert_eq!(r.route(0), 0);
        assert_eq!(r.route(249), 0);
        assert_eq!(r.route(250), 1);
        assert_eq!(r.route(u32::MAX), 3);
    }

    #[test]
    fn split_covers_all_keys_in_order() {
        let keys: Vec<u32> = (0..97).map(|i| i * 3 + 1).collect();
        let r = ShardRouter::from_keys(&keys, 5);
        let parts = r.split(&keys);
        assert_eq!(parts.len(), 5);
        let glued: Vec<u32> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        assert_eq!(glued, keys);
        for (s, part) in parts.iter().enumerate() {
            for &k in *part {
                assert_eq!(r.route(k), s, "key {k}");
            }
        }
    }

    #[test]
    fn routed_shard_owns_unindexed_keys_too() {
        let keys: Vec<u32> = vec![100, 200, 300, 400];
        let r = ShardRouter::from_keys(&keys, 2);
        // Delimiter is 300: anything below goes to shard 0.
        assert_eq!(r.route(0), 0);
        assert_eq!(r.route(299), 0);
        assert_eq!(r.route(300), 1);
        assert_eq!(r.route(1000), 1);
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::from_keys(&[1, 2, 3], 1);
        assert_eq!(r.n_shards(), 1);
        assert_eq!(r.route(0), 0);
        assert_eq!(r.route(u32::MAX), 0);
        assert_eq!(r.shard_range(0), (0, None));
    }

    #[test]
    fn shard_ranges_tile_the_key_space() {
        let keys: Vec<u32> = (0..50).map(|i| i * 7).collect();
        let r = ShardRouter::from_keys(&keys, 3);
        let mut expect_lo = 0u32;
        for s in 0..r.n_shards() {
            let (lo, hi) = r.shard_range(s);
            assert_eq!(lo, expect_lo);
            if let Some(h) = hi {
                expect_lo = h;
            } else {
                assert_eq!(s, r.n_shards() - 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one key per shard")]
    fn too_many_shards_rejected() {
        let _ = ShardRouter::from_keys(&[1, 2], 3);
    }

    #[test]
    fn single_replica_selects_zero_or_none() {
        let sel = ReplicaSelector::new(1);
        assert_eq!(sel.select(0, |_| Some(42)), Some(0));
        assert_eq!(sel.select(99, |_| Some(0)), Some(0));
        assert_eq!(sel.select(0, |_| None::<u64>), None);
    }

    #[test]
    fn candidates_rotate_with_the_tick() {
        let sel = ReplicaSelector::new(3);
        assert_eq!(sel.candidates(0), (0, 1));
        assert_eq!(sel.candidates(1), (1, 2));
        assert_eq!(sel.candidates(2), (2, 0));
        assert_eq!(sel.candidates(3), (0, 1));
    }

    #[test]
    fn shorter_queue_wins_ties_go_low() {
        let sel = ReplicaSelector::new(2);
        assert_eq!(sel.select(0, |r| Some([3u64, 1][r])), Some(1));
        assert_eq!(sel.select(0, |r| Some([1u64, 3][r])), Some(0));
        assert_eq!(sel.select(0, |r| Some([2u64, 2][r])), Some(0), "tie → lower index");
        assert_eq!(sel.select(1, |r| Some([2u64, 2][r])), Some(0), "tie → lower index, any tick");
    }

    #[test]
    fn dead_candidates_fall_back_to_survivors() {
        let sel = ReplicaSelector::new(4);
        // Candidates for tick 0 are (0, 1); both dead → scan picks the
        // least-loaded survivor.
        let depths = [None, None, Some(7u64), Some(2)];
        assert_eq!(sel.select(0, |r| depths[r]), Some(3));
        // One candidate dead → the other wins regardless of depth.
        let depths = [None, Some(100u64), Some(0), Some(0)];
        assert_eq!(sel.select(0, |r| depths[r]), Some(1));
        // Everyone dead → None.
        assert_eq!(sel.select(0, |_| None::<u64>), None);
    }
}
