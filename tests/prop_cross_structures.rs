//! Property-based cross-structure equivalence: every index structure in
//! the workspace computes the same rank function as the
//! `partition_point` oracle, over arbitrary key sets and queries.

use dini::cache_sim::{AddressSpace, NullMemory};
use dini::index::line_directory::GROUP;
use dini::index::traits::oracle_rank;
use dini::index::{
    BufferedLookup, CsbTree, LineDirectory, PartitionedIndex, PtrNaryTree, RankIndex, SortedArray,
};
use dini::store::SharedKeys;
use proptest::collection::vec;
use proptest::prelude::*;

fn sorted_unique(keys: Vec<u32>) -> Vec<u32> {
    let mut k = keys;
    k.sort_unstable();
    k.dedup();
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sorted_array_matches_oracle(
        keys in vec(any::<u32>(), 1..3000),
        queries in vec(any::<u32>(), 1..200),
    ) {
        let keys = sorted_unique(keys);
        let arr = SortedArray::new(keys.clone(), 4096, 0.0);
        for q in queries {
            prop_assert_eq!(arr.rank(q, &mut NullMemory).0, oracle_rank(&keys, q));
        }
    }

    /// The directory's edges: sizes on both sides of every block and
    /// level boundary (16, 16², 16³), duplicate runs, a slice starting
    /// anywhere within a cache line, every query a rank can change at,
    /// and batches on both sides of the lockstep group.
    #[test]
    fn line_directory_matches_oracle_at_every_edge(
        raw in vec(any::<u32>(), 6016),
        n in prop_oneof![
            Just(0usize), Just(1), Just(15), Just(16), Just(17), Just(255), Just(256),
            Just(257), Just(4097), 0usize..6000,
        ],
        start in 0usize..16,
        // 1 keeps the keys as drawn; larger folds them into runs of
        // duplicates that span blocks.
        fold in prop_oneof![Just(1u32), Just(1 << 20), Just(1 << 28)],
        batch_len in prop_oneof![
            Just(0usize), Just(1), Just(GROUP - 1), Just(GROUP), Just(GROUP + 1), Just(4096),
        ],
        random in vec(any::<u32>(), 64),
    ) {
        let mut all: Vec<u32> = raw.into_iter().map(|k| k / fold * fold).collect();
        all.sort_unstable();
        let keys = &all[start..start + n];
        let dir = LineDirectory::new(SharedKeys::owned(all.clone()), start..start + n, 0, 0.0);

        // 0, min − 1, min, every key (so every separator, whatever the
        // alignment made them) and its neighbours, max, max + 1, MAX.
        let mut pool = vec![0, u32::MAX];
        for &k in keys {
            pool.extend([k.wrapping_sub(1), k, k.wrapping_add(1)]);
        }
        pool.extend(random);
        for &q in &pool {
            prop_assert_eq!(dir.rank(q, &mut NullMemory).0, oracle_rank(keys, q));
        }

        let queries: Vec<u32> = pool.iter().rev().cycle().take(batch_len).copied().collect();
        let mut out = vec![7; 3];
        dir.rank_batch(&queries, &mut out, &mut NullMemory);
        prop_assert_eq!(out.len(), batch_len);
        for (i, &q) in queries.iter().enumerate() {
            prop_assert_eq!(out[i], oracle_rank(keys, q));
        }
    }

    #[test]
    fn csb_tree_matches_oracle_any_fanout(
        keys in vec(any::<u32>(), 1..3000),
        queries in vec(any::<u32>(), 1..200),
        k in 1u32..16,
        leaf_entries in 1u32..16,
    ) {
        let keys = sorted_unique(keys);
        let tree = CsbTree::with_leaf_entries(&keys, k, leaf_entries, 64, 1 << 20, 0.0);
        for q in queries {
            prop_assert_eq!(tree.rank(q, &mut NullMemory).0, oracle_rank(&keys, q));
        }
    }

    #[test]
    fn ptr_tree_matches_oracle(
        keys in vec(any::<u32>(), 1..2000),
        queries in vec(any::<u32>(), 1..200),
    ) {
        let keys = sorted_unique(keys);
        let tree = PtrNaryTree::new(&keys, 32, 1 << 20, 0.0);
        for q in queries {
            prop_assert_eq!(tree.rank(q, &mut NullMemory).0, oracle_rank(&keys, q));
        }
    }

    #[test]
    fn buffered_lookup_matches_oracle(
        keys in vec(any::<u32>(), 50..4000),
        queries in vec(any::<u32>(), 1..300),
        capacity_kb in 1u64..64,
    ) {
        let keys = sorted_unique(keys);
        let tree = CsbTree::with_leaf_entries(&keys, 7, 4, 32, 1 << 20, 0.0);
        let mut space = AddressSpace::new();
        let mut bl = BufferedLookup::for_cache(
            &tree, capacity_kb * 1024, 0.5, &mut space, queries.len());
        let mut out = Vec::new();
        bl.rank_batch(&tree, &queries, &mut out, &mut NullMemory);
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(out[i], oracle_rank(&keys, *q));
        }
    }

    #[test]
    fn partitioned_matches_flat(
        keys in vec(any::<u32>(), 30..3000),
        queries in vec(any::<u32>(), 1..200),
        parts in 1usize..16,
    ) {
        let keys = sorted_unique(keys);
        prop_assume!(keys.len() >= parts);
        let mut space = AddressSpace::new();
        let delim_base = space.alloc_lines(64);
        let pi = PartitionedIndex::build(&keys, parts, delim_base, 0.0, |slice, _| {
            let base = space.alloc_lines(slice.len() as u64 * 4);
            SortedArray::new(slice.to_vec(), base, 0.0)
        });
        for q in queries {
            prop_assert_eq!(pi.rank(q, &mut NullMemory).0, oracle_rank(&keys, q));
        }
    }

    #[test]
    fn rank_is_monotone_in_key(
        keys in vec(any::<u32>(), 1..2000),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        let keys = sorted_unique(keys);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let tree = CsbTree::with_leaf_entries(&keys, 7, 4, 32, 0, 0.0);
        prop_assert!(tree.rank(lo, &mut NullMemory).0 <= tree.rank(hi, &mut NullMemory).0);
    }

    #[test]
    fn rank_of_indexed_key_counts_it(
        keys in vec(any::<u32>(), 1..1000),
        pick in any::<prop::sample::Index>(),
    ) {
        let keys = sorted_unique(keys);
        let key = keys[pick.index(keys.len())];
        let tree = CsbTree::with_leaf_entries(&keys, 7, 4, 32, 0, 0.0);
        let r = tree.rank(key, &mut NullMemory).0;
        // The key itself is counted, and it is the r-th smallest.
        prop_assert!(r >= 1);
        prop_assert_eq!(keys[(r - 1) as usize], key);
    }
}
