//! Stress and edge tests for the native thread-backed
//! [`dini::DistributedIndex`].

use dini::index::traits::oracle_rank;
use dini::store::{open_snapshot, write_snapshot, ShardRecord, SharedKeys, SpanRecord};
use dini::workload::{gen_search_keys, gen_sorted_unique_keys};
use dini::{DistributedIndex, NativeConfig};
use proptest::collection::vec;
use proptest::prelude::*;

fn cfg(n: usize) -> NativeConfig {
    NativeConfig { n_slaves: n, pin_cores: false }
}

#[test]
fn large_index_many_batches() {
    let keys = gen_sorted_unique_keys(500_000, 1);
    let mut idx = DistributedIndex::build(&keys, cfg(8));
    for round in 0..10u64 {
        let q = gen_search_keys(10_000, round + 50);
        let ranks = idx.lookup_batch(&q);
        for (i, &k) in q.iter().enumerate().step_by(997) {
            assert_eq!(ranks[i], oracle_rank(&keys, k));
        }
    }
}

#[test]
fn many_small_indices_lifecycle() {
    // Building and dropping many indices must not leak threads or hang.
    for n_slaves in 1..=8 {
        let keys = gen_sorted_unique_keys(1_000, n_slaves as u64);
        let mut idx = DistributedIndex::build(&keys, cfg(n_slaves));
        assert_eq!(idx.lookup_batch(&[0, u32::MAX]).len(), 2);
    }
}

#[test]
fn skewed_batch_hits_one_partition() {
    // Every query lands in one partition: the scatter must not deadlock on
    // channel capacity.
    let keys: Vec<u32> = (0..100_000).map(|i| i * 10).collect();
    let mut idx = DistributedIndex::build(&keys, cfg(4));
    let q: Vec<u32> = (0..50_000).map(|i| i % 100).collect(); // all partition 0
    let ranks = idx.lookup_batch(&q);
    for (i, &k) in q.iter().enumerate() {
        assert_eq!(ranks[i], oracle_rank(&keys, k), "query {k}");
    }
}

#[test]
fn interleaved_single_and_batch_lookups() {
    let keys = gen_sorted_unique_keys(50_000, 3);
    let mut idx = DistributedIndex::build(&keys, cfg(5));
    for i in 0..100u32 {
        let single = idx.lookup(i * 1_000_003);
        let batch = idx.lookup_batch(&[i * 1_000_003, 7, u32::MAX]);
        assert_eq!(single, batch[0]);
        assert_eq!(batch[2], keys.len() as u32);
    }
}

/// The slave kernel derives its directory from whatever slice it is
/// handed: an `Arc`-owned vector and a window mapped out of a
/// `dini-store` snapshot of the same keys must answer identically —
/// every key, its neighbours and the extremes — at partition counts that
/// cut the slice on and off cache-line boundaries.
#[test]
fn owned_and_mapped_backings_answer_identically() {
    let keys = gen_sorted_unique_keys(40_000, 21);
    let dir = std::env::temp_dir().join(format!("dini-native-backing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("snapshot scratch dir");
    let path = dir.join("backing.snap");
    let rec = SpanRecord {
        delims: &[],
        shards: vec![ShardRecord { main: &keys, inserts: &[], deletes: &[], main_epoch: 0 }],
        log_epoch: 0,
        log_seq: 0,
    };
    write_snapshot(&path, &rec).expect("write snapshot");
    let snap = open_snapshot(&path).expect("snapshot must map back");
    let mapped = &snap.shards[0].main;
    #[cfg(unix)]
    assert!(mapped.is_mapped(), "the backing under test is the mmap, not a heap copy");

    let mut probes = vec![0u32, u32::MAX];
    for &k in &keys {
        probes.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
    }
    let want: Vec<u32> = probes.iter().map(|&q| oracle_rank(&keys, q)).collect();
    for n_slaves in [1, 2, 7] {
        let mut owned =
            DistributedIndex::build_backed(SharedKeys::owned(keys.clone()), cfg(n_slaves));
        let mut served = DistributedIndex::build_backed(mapped.clone(), cfg(n_slaves));
        assert_eq!(owned.lookup_batch(&probes), want, "owned backing, {n_slaves} slaves");
        assert_eq!(served.lookup_batch(&probes), want, "mapped backing, {n_slaves} slaves");
        for &q in probes.iter().step_by(1_009) {
            assert_eq!(owned.lookup(q), served.lookup(q), "single lookup {q}, {n_slaves} slaves");
        }
    }
    drop(snap);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn native_matches_oracle(
        raw_keys in vec(any::<u32>(), 16..2000),
        queries in vec(any::<u32>(), 1..300),
        n_slaves in 1usize..9,
    ) {
        let mut keys = raw_keys;
        keys.sort_unstable();
        keys.dedup();
        prop_assume!(keys.len() >= n_slaves);
        let mut idx = DistributedIndex::build(&keys, cfg(n_slaves));
        let ranks = idx.lookup_batch(&queries);
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(ranks[i], oracle_rank(&keys, *q));
        }
    }
}
