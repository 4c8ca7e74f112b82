//! Correctness: every number the benchmark reports comes from a run
//! whose replies were checked against the benchmark's own model of what
//! the index must contain. A wrong answer counts as a failed operation.

use dini_workload::Op;
use std::collections::HashSet;

/// SplitMix64: the benchmark's own generator for op streams, so churn
/// inputs depend on nothing but `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Rank of `q` in a sorted slice: number of keys ≤ `q`.
pub fn rank_in(sorted: &[u32], q: u32) -> u32 {
    sorted.partition_point(|&k| k <= q) as u32
}

/// Operation counts for one run; `failed` includes refused and wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Replies that arrived but were wrong (also counted in `failed`).
    pub wrong: u64,
    /// Replies that were actually compared.
    pub checked: u64,
}

impl Tally {
    /// Count a reply that must equal `want`.
    pub fn check(&mut self, got: u32, want: u32) {
        self.checked += 1;
        if got != want {
            self.wrong += 1;
            self.failed += 1;
        }
    }

    /// Count a reply that must lie in `lo..=hi`.
    pub fn check_window(&mut self, got: u32, (lo, hi): (u32, u32)) {
        self.checked += 1;
        if got < lo || got > hi {
            self.wrong += 1;
            self.failed += 1;
        }
    }

    /// Fold another tally in.
    pub fn absorb(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.checked += o.checked;
    }

    /// (failed + refused + wrong) / attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A 50/50 insert/delete stream over `base` in which every operation
/// takes effect: inserts are keys not live at that point, deletes are
/// keys live at that point (half of them earlier inserts, half base
/// keys). Generated before the timed phases; `workload.churn_next_op_ns`
/// prices it.
pub fn gen_churn_ops(base: &[u32], seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix(seed ^ 0xC0FF_EE00_D15E_A5E5);
    let mut extras: Vec<u32> = Vec::new();
    let mut extra_set: HashSet<u32> = HashSet::new();
    let mut deleted_base: HashSet<u32> = HashSet::new();
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        if i % 2 == 0 {
            let k = loop {
                let k = rng.next_u64() as u32;
                if base.binary_search(&k).is_err() && !extra_set.contains(&k) {
                    break k;
                }
            };
            extras.push(k);
            extra_set.insert(k);
            ops.push(Op::Insert(k));
        } else if rng.next_u64() & 1 == 0 && !extras.is_empty() {
            let k = extras.swap_remove(rng.below(extras.len()));
            extra_set.remove(&k);
            ops.push(Op::Delete(k));
        } else {
            let k = loop {
                let k = base[rng.below(base.len())];
                if deleted_base.insert(k) {
                    break k;
                }
            };
            ops.push(Op::Delete(k));
        }
    }
    ops
}

/// Prefix counts over the top 16 key bits.
struct Fenwick(Vec<u32>);

impl Fenwick {
    fn new() -> Self {
        Self(vec![0; (1 << 16) + 1])
    }

    fn add(&mut self, key: u32) {
        let mut i = (key >> 16) as usize + 1;
        while i < self.0.len() {
            self.0[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Entries whose bucket is ≤ `key`'s bucket — at least the number of
    /// entries ≤ `key`.
    fn upto(&self, key: u32) -> u32 {
        let mut i = (key >> 16) as usize + 1;
        let mut s = 0;
        while i > 0 {
            s += self.0[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// While updates are in flight the server may have applied any prefix of
/// the operations sent so far, so a reply is right if it lies between the
/// base rank minus the deletes sent at or below the key and the base rank
/// plus the inserts sent at or below it. Counting by 16-bit bucket keeps
/// the window sound (never too narrow) and the bookkeeping O(log n).
pub struct RankWindow {
    inserts: Fenwick,
    deletes: Fenwick,
}

impl RankWindow {
    /// No operations sent yet.
    pub fn new() -> Self {
        Self { inserts: Fenwick::new(), deletes: Fenwick::new() }
    }

    /// Note an operation as sent (before sending it).
    pub fn sent(&mut self, op: Op) {
        match op {
            Op::Insert(k) => self.inserts.add(k),
            Op::Delete(k) => self.deletes.add(k),
            Op::Query(_) => {}
        }
    }

    /// The ranks a reply for `q` may take.
    pub fn allowed(&self, base: &[u32], q: u32) -> (u32, u32) {
        let r = rank_in(base, q);
        (r.saturating_sub(self.deletes.upto(q)), r + self.inserts.upto(q))
    }
}

/// The exact contents after `ops` were applied in order to `base`.
pub struct AppliedOracle<'a> {
    base: &'a [u32],
    extras: Vec<u32>,
    deleted_base: Vec<u32>,
}

impl<'a> AppliedOracle<'a> {
    /// Replay `ops` over `base`.
    pub fn replay(base: &'a [u32], ops: &[Op]) -> Self {
        let mut extras: HashSet<u32> = HashSet::new();
        let mut deleted: HashSet<u32> = HashSet::new();
        for &op in ops {
            match op {
                Op::Insert(k) => {
                    if base.binary_search(&k).is_ok() {
                        deleted.remove(&k);
                    } else {
                        extras.insert(k);
                    }
                }
                Op::Delete(k) => {
                    if base.binary_search(&k).is_ok() {
                        deleted.insert(k);
                    } else {
                        extras.remove(&k);
                    }
                }
                Op::Query(_) => {}
            }
        }
        let mut extras: Vec<u32> = extras.into_iter().collect();
        let mut deleted_base: Vec<u32> = deleted.into_iter().collect();
        extras.sort_unstable();
        deleted_base.sort_unstable();
        Self { base, extras, deleted_base }
    }

    /// Exact rank of `q`.
    pub fn rank(&self, q: u32) -> u32 {
        rank_in(self.base, q) + rank_in(&self.extras, q) - rank_in(&self.deleted_base, q)
    }

    /// Live keys.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.base.len() + self.extras.len() - self.deleted_base.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn base() -> Vec<u32> {
        (0..4000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    #[test]
    fn flipping_one_reply_fails_the_run() {
        let keys = base();
        let mut t = Tally { attempted: 100, ..Tally::default() };
        for q in (0..100u32).map(|i| i * 40_000_000) {
            t.check(rank_in(&keys, q), rank_in(&keys, q));
        }
        assert_eq!((t.failed, t.failed_share()), (0, 0.0));
        t.check(rank_in(&keys, 5) ^ 1, rank_in(&keys, 5));
        assert_eq!((t.failed, t.wrong), (1, 1));
        assert!(t.failed_share() > 0.0);
    }

    #[test]
    fn every_generated_op_takes_effect_and_replay_is_exact() {
        let keys = base();
        let ops = gen_churn_ops(&keys, 9, 3000);
        assert_eq!(ops, gen_churn_ops(&keys, 9, 3000), "same seed, same ops");
        let mut live: BTreeSet<u32> = keys.iter().copied().collect();
        for &op in &ops {
            match op {
                Op::Insert(k) => assert!(live.insert(k), "insert of a live key"),
                Op::Delete(k) => assert!(live.remove(&k), "delete of a missing key"),
                Op::Query(_) => unreachable!(),
            }
        }
        let o = AppliedOracle::replay(&keys, &ops);
        assert_eq!(o.len(), live.len());
        let mut rng = SplitMix(1);
        for _ in 0..2000 {
            let q = rng.next_u64() as u32;
            assert_eq!(o.rank(q) as usize, live.range(..=q).count());
        }
    }

    #[test]
    fn rank_window_admits_every_prefix_and_rejects_outside() {
        let keys = base();
        let ops = gen_churn_ops(&keys, 3, 400);
        let mut w = RankWindow::new();
        let mut rng = SplitMix(2);
        for sent in 0..ops.len() {
            w.sent(ops[sent]);
            let q = rng.next_u64() as u32;
            let (lo, hi) = w.allowed(&keys, q);
            // The server may be anywhere between "nothing applied" and
            // "everything sent applied".
            for applied in [0, sent / 2, sent + 1] {
                let r = AppliedOracle::replay(&keys, &ops[..applied]).rank(q);
                assert!(lo <= r && r <= hi, "prefix {applied} of {sent}: {r} outside {lo}..={hi}");
            }
            let mut t = Tally::default();
            t.check_window(hi + 1, (lo, hi));
            assert_eq!(t.failed, 1);
        }
        // With nothing sent the window is the exact rank.
        let q = 123_456_789;
        assert_eq!(RankWindow::new().allowed(&keys, q), (rank_in(&keys, q), rank_in(&keys, q)));
    }
}
