//! `ShardSnapshot`'s rank composition — base rank, main directory and
//! the one sorted [`Overlay`] of pending inserts and tombstones, walked
//! in lockstep groups — against a `BTreeSet` oracle of the live keys.
//! `rank_batch` and the lone `rank` must both equal the oracle for
//! random mains with random disjoint inserts and tombstones, for every
//! overlay size at an edge of its line directory (one block, one level,
//! two, three), at `0`, at `u32::MAX`, at every overlay key and at its
//! neighbours, and with no main array at all.

use dini_index::{LineDirectory, SharedKeys};
use dini_serve::{Overlay, ShardSnapshot};
use proptest::collection::btree_set;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One shard's state as the writer holds it: its main array and the
/// inserts (absent from main) and tombstones (in main) pending on it.
struct Shard {
    main: Vec<u32>,
    inserts: Vec<u32>,
    deletes: Vec<u32>,
    base: u32,
}

impl Shard {
    /// Cut `universe` into main keys that stay, main keys deleted, and
    /// keys inserted, by a hash of each key and `seed`; `overlay_share`
    /// out of 8 keys go to the overlay, half of them tombstones.
    fn cut(universe: &BTreeSet<u32>, seed: u64, overlay_share: u64, base: u32) -> Self {
        let (mut main, mut inserts, mut deletes) = (Vec::new(), Vec::new(), Vec::new());
        for &k in universe {
            let h = (u64::from(k) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            match (h % 8 < overlay_share, h & 256 != 0) {
                (false, _) => main.push(k),
                (true, false) => inserts.push(k),
                (true, true) => {
                    main.push(k);
                    deletes.push(k);
                }
            }
        }
        Self { main, inserts, deletes, base }
    }

    fn snapshot(&self) -> ShardSnapshot {
        let main = (!self.main.is_empty()).then(|| {
            let n = self.main.len();
            Arc::new(LineDirectory::new(SharedKeys::owned(self.main.clone()), 0..n, 0, 0.0))
        });
        ShardSnapshot::new(1, self.base, main, &self.inserts, &self.deletes)
    }

    fn live(&self) -> BTreeSet<u32> {
        let mut live: BTreeSet<u32> = self.main.iter().copied().collect();
        for k in &self.deletes {
            live.remove(k);
        }
        live.extend(&self.inserts);
        live
    }

    /// `0`, `u32::MAX`, every overlay key and its neighbours ±1, and
    /// every `stride`-th main key with its neighbours.
    fn probes(&self, stride: usize) -> Vec<u32> {
        let mut p = vec![0, u32::MAX];
        let near = |k: u32| [k.saturating_sub(1), k, k.saturating_add(1)];
        for &k in self.inserts.iter().chain(&self.deletes) {
            p.extend(near(k));
        }
        for &k in self.main.iter().step_by(stride.max(1)) {
            p.extend(near(k));
        }
        p
    }
}

/// Rank every probe both ways and compare with the oracle; returns the
/// first disagreement.
fn check(shard: &Shard, probes: &[u32]) -> Result<(), String> {
    let snap = shard.snapshot();
    let mut pending: Vec<u32> = shard.inserts.iter().chain(&shard.deletes).copied().collect();
    pending.sort_unstable();
    let overlay_len = pending.len();
    if snap.overlay.as_ref().map_or(&[][..], Overlay::keys) != pending {
        return Err(format!("the overlay is not the {overlay_len} pending keys in order"));
    }
    let live = shard.live();
    let want = |q: u32| shard.base + live.range(..=q).count() as u32;
    let mut ranks = vec![u32::MAX; 3];
    snap.rank_batch(probes, &mut ranks);
    if ranks.len() != probes.len() {
        return Err(format!("{} ranks for {} keys", ranks.len(), probes.len()));
    }
    for (i, &q) in probes.iter().enumerate() {
        let (batch, lone, oracle) = (ranks[i], snap.rank(q), want(q));
        if batch != oracle || lone != oracle {
            return Err(format!(
                "key {q} (slot {i}, overlay {overlay_len}, main {}): rank_batch {batch}, \
                 rank {lone}, oracle {oracle}",
                shard.main.len()
            ));
        }
    }
    Ok(())
}

/// Keys drawn so neighbours collide: a dense low range, a dense range
/// at the top of the key space, and the whole of it.
fn key() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => 0u32..3_000,
        1 => (u32::MAX - 300)..=u32::MAX,
        2 => any::<u32>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_overlays_rank_like_the_oracle(
        input in (btree_set(key(), 0..700usize), any::<u64>(), 0u64..9, 0u32..1_000_000)
    ) {
        let (universe, seed, share, base) = input;
        let shard = Shard::cut(&universe, seed, share, base);
        check(&shard, &shard.probes(1)).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn an_emptied_main_ranks_by_its_overlay_alone(
        input in (btree_set(key(), 1..400usize), 0u32..1_000_000)
    ) {
        let (inserts, base) = input;
        let shard =
            Shard { main: Vec::new(), inserts: inserts.into_iter().collect(), deletes: Vec::new(), base };
        prop_assert!(shard.snapshot().main.is_none());
        check(&shard, &shard.probes(1)).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn overlay_sizes_at_every_directory_edge_rank_exactly() {
    // Within one line or just past it (15, 16, 17 keys: no directory or
    // one level, by where the allocator put the array), one level or two
    // (256, 257), and three (4 097); inserts only,
    // tombstones only, and the two interleaved, with the extreme keys
    // among them.
    let main: Vec<u32> = (0..12_000u32).map(|i| i * 4 + 2).chain([u32::MAX]).collect();
    for n in [1usize, 15, 16, 17, 256, 257, 4097] {
        let gaps = || (0..).map(|i: u32| i * 4 + 1);
        let only_inserts: Vec<u32> = [0].into_iter().chain(gaps().skip(1)).take(n).collect();
        let only_deletes: Vec<u32> = main.iter().rev().copied().take(n).rev().collect();
        let mixed_ins: Vec<u32> = gaps().step_by(2).take(n.div_ceil(2)).collect();
        let mixed_del: Vec<u32> = main.iter().copied().skip(1).step_by(2).take(n / 2).collect();
        for (inserts, deletes) in
            [(only_inserts.clone(), vec![]), (vec![], only_deletes), (mixed_ins, mixed_del)]
        {
            let shard = Shard { main: main.clone(), inserts, deletes, base: 77 };
            assert_eq!(shard.inserts.len() + shard.deletes.len(), n);
            check(&shard, &shard.probes(97)).unwrap();
        }
        // No main array: the overlay is the whole shard.
        let shard = Shard { main: Vec::new(), inserts: only_inserts, deletes: vec![], base: 5 };
        check(&shard, &shard.probes(1)).unwrap();
    }
}

#[test]
fn an_unchurned_shard_carries_no_overlay() {
    let shard = Shard { main: vec![3, 9], inserts: vec![], deletes: vec![], base: 4 };
    assert!(shard.snapshot().overlay.is_none());
    check(&shard, &shard.probes(1)).unwrap();
    assert!(Overlay::new(&[], &[]).is_none());
    let empty = Shard { main: vec![], inserts: vec![], deletes: vec![], base: 9 };
    check(&empty, &empty.probes(1)).unwrap();
}
