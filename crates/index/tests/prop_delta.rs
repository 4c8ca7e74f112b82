//! Property tests: `DeltaArray` against a `BTreeSet` oracle under
//! arbitrary operation sequences, including forced merges. After every
//! merge the main array must *be* the oracle, key for key.

use dini_cache_sim::NullMemory;
use dini_index::{DeltaArray, RankIndex};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// An operation drawn by proptest.
#[derive(Debug, Clone)]
enum POp {
    Insert(u32),
    Delete(u32),
    Rank(u32),
    Merge,
}

fn op_strategy() -> impl Strategy<Value = POp> {
    // Keys from a small space so inserts/deletes collide often (the
    // interesting paths: duplicate insert, tombstone, resurrect).
    let key = 0u32..500;
    prop_oneof![
        4 => key.clone().prop_map(POp::Insert),
        3 => key.clone().prop_map(POp::Delete),
        4 => key.prop_map(POp::Rank),
        1 => Just(POp::Merge),
    ]
}

fn oracle_rank(set: &BTreeSet<u32>, key: u32) -> u32 {
    set.range(..=key).count() as u32
}

fn oracle_keys(set: &BTreeSet<u32>) -> Vec<u32> {
    set.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_array_matches_btreeset(
        initial in proptest::collection::btree_set(0u32..500, 0..100),
        ops in proptest::collection::vec(op_strategy(), 1..200),
        threshold in 1usize..64,
    ) {
        let boot: Vec<u32> = initial.iter().copied().collect();
        let mut set: BTreeSet<u32> = initial;
        let mut idx = DeltaArray::new(boot, 4096, 1.0, threshold);
        let mut mem = NullMemory;

        for op in ops {
            match op {
                POp::Insert(k) => {
                    let (ok, _) = idx.insert(k, &mut mem);
                    prop_assert_eq!(ok, set.insert(k), "insert {}", k);
                }
                POp::Delete(k) => {
                    let (ok, _) = idx.delete(k, &mut mem);
                    prop_assert_eq!(ok, set.remove(&k), "delete {}", k);
                }
                POp::Rank(k) => {
                    let (r, _) = idx.rank(k, &mut mem);
                    prop_assert_eq!(r, oracle_rank(&set, k), "rank {}", k);
                }
                POp::Merge => {
                    idx.merge(&mut mem);
                    prop_assert_eq!(idx.delta_len(), 0);
                    prop_assert_eq!(idx.main_keys().to_vec(), oracle_keys(&set));
                }
            }
            prop_assert_eq!(idx.len(), set.len());
            if idx.needs_merge() {
                idx.merge(&mut mem);
                prop_assert_eq!(idx.main_keys().to_vec(), oracle_keys(&set));
            }
        }
        // Full final sweep.
        for k in (0..520).step_by(3) {
            let (r, _) = idx.rank(k, &mut mem);
            prop_assert_eq!(r, oracle_rank(&set, k), "final rank {}", k);
        }
    }

    /// `merge_into` a buffer a previous merge gave up: stale contents,
    /// and a capacity alternately below and above the merged size. The
    /// key space is wide, so the runs of main between delta entries span
    /// several galloping doublings.
    #[test]
    fn merge_into_a_recycled_buffer_matches_btreeset(
        initial in proptest::collection::btree_set(0u32..50_000, 0..5_000),
        ops in proptest::collection::vec((any::<bool>(), 0u32..50_000), 1..400),
        threshold in 1usize..128,
        junk in any::<u32>(),
    ) {
        let boot: Vec<u32> = initial.iter().copied().collect();
        let mut set: BTreeSet<u32> = initial;
        let mut idx = DeltaArray::new(boot, 4096, 1.0, threshold);
        let mut mem = NullMemory;
        // Alternates: a buffer too small for the merged array, then one
        // with room to spare.
        let mut short = true;
        let mut merge = |idx: &mut DeltaArray, set: &BTreeSet<u32>| {
            let need = idx.len();
            let stale_len = if short { need / 2 } else { need + 1 + need / 2 };
            let mut buf = Vec::with_capacity(stale_len);
            buf.resize(stale_len, junk);
            let (fits, at) = (buf.capacity() >= need, buf.as_ptr());
            idx.merge_into(buf, &mut NullMemory);
            short = !short;
            prop_assert_eq!(idx.delta_len(), 0);
            prop_assert_eq!(idx.main_keys().to_vec(), oracle_keys(set));
            if fits {
                prop_assert_eq!(idx.main_keys().as_ptr(), at, "a buffer that fits is reused");
            }
            Ok(())
        };
        for (insert, k) in ops {
            if insert {
                prop_assert_eq!(idx.insert(k, &mut mem).0, set.insert(k), "insert {}", k);
            } else {
                prop_assert_eq!(idx.delete(k, &mut mem).0, set.remove(&k), "delete {}", k);
            }
            if idx.needs_merge() {
                merge(&mut idx, &set)?;
            }
        }
        merge(&mut idx, &set)?;
        let sorted = oracle_keys(&set);
        for k in (0..50_100).step_by(97) {
            let want = sorted.partition_point(|&s| s <= k) as u32;
            prop_assert_eq!(idx.rank(k, &mut mem).0, want, "final rank {}", k);
        }
    }

    #[test]
    fn contains_agrees_with_membership(
        initial in proptest::collection::btree_set(0u32..300, 1..80),
        ins in proptest::collection::vec(0u32..300, 0..40),
        del in proptest::collection::vec(0u32..300, 0..40),
    ) {
        let boot: Vec<u32> = initial.iter().copied().collect();
        let mut set = initial;
        let mut idx = DeltaArray::new(boot, 0, 1.0, 1024);
        let mut mem = NullMemory;
        for k in ins {
            idx.insert(k, &mut mem);
            set.insert(k);
        }
        for k in del {
            idx.delete(k, &mut mem);
            set.remove(&k);
        }
        for k in 0..310 {
            prop_assert_eq!(idx.contains(k), set.contains(&k), "contains({})", k);
        }
    }
}
