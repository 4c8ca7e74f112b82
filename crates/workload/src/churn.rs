//! Update workloads: interleaved query / insert / delete streams.
//!
//! The paper's index is static, but its motivating applications churn:
//! sensors join and leave, subscriptions come and go, routes are
//! advertised and withdrawn. [`ChurnGen`] emits a deterministic operation
//! stream with a configurable query:insert:delete mix over a chosen key
//! distribution, for exercising [`dini-index`'s `DeltaArray`] and the
//! examples that rebuild partition delimiters online.

use crate::dist::KeyDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation in an update workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Look the key up.
    Query(u32),
    /// Insert the key.
    Insert(u32),
    /// Delete the key.
    Delete(u32),
}

impl Op {
    /// The key this operation touches.
    pub fn key(self) -> u32 {
        match self {
            Op::Query(k) | Op::Insert(k) | Op::Delete(k) => k,
        }
    }
}

/// Operation-mix weights (need not sum to 1; normalised internally).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Relative weight of queries.
    pub query: f64,
    /// Relative weight of inserts.
    pub insert: f64,
    /// Relative weight of deletes.
    pub delete: f64,
}

impl OpMix {
    /// A read-mostly mix (90 % queries, 5 % inserts, 5 % deletes) — the
    /// regime where the delta-array design pays off.
    pub fn read_mostly() -> Self {
        Self { query: 0.9, insert: 0.05, delete: 0.05 }
    }

    /// A write-heavy mix (50 % queries, 30 % inserts, 20 % deletes).
    pub fn write_heavy() -> Self {
        Self { query: 0.5, insert: 0.3, delete: 0.2 }
    }

    fn total(&self) -> f64 {
        self.query + self.insert + self.delete
    }
}

/// Deterministic generator of interleaved query/insert/delete streams.
///
/// Deletes draw from the set of keys this generator has inserted (so they
/// usually hit); when nothing has been inserted yet a delete falls back
/// to a random (usually missing) key — which is itself a realistic case.
#[derive(Debug, Clone)]
pub struct ChurnGen {
    rng: StdRng,
    dist: KeyDistribution,
    mix: OpMix,
    live: Vec<u32>,
}

impl ChurnGen {
    /// A new generator.
    pub fn new(seed: u64, dist: KeyDistribution, mix: OpMix) -> Self {
        assert!(mix.total() > 0.0, "operation mix must have positive weight");
        assert!(mix.query >= 0.0 && mix.insert >= 0.0 && mix.delete >= 0.0);
        Self { rng: StdRng::seed_from_u64(seed), dist, mix, live: Vec::new() }
    }

    /// Next operation.
    pub fn next_op(&mut self) -> Op {
        let u: f64 = self.rng.gen::<f64>() * self.mix.total();
        if u < self.mix.query {
            Op::Query(self.dist.sample(&mut self.rng))
        } else if u < self.mix.query + self.mix.insert {
            let k = self.dist.sample(&mut self.rng);
            self.live.push(k);
            Op::Insert(k)
        } else if let Some(&k) = self.live.get(self.rng.gen_range(0..self.live.len().max(1))) {
            // Delete a key we inserted earlier (swap-remove keeps O(1)).
            let i = self.live.iter().position(|&x| x == k).expect("k came from live");
            self.live.swap_remove(i);
            Op::Delete(k)
        } else {
            Op::Delete(self.dist.sample(&mut self.rng))
        }
    }

    /// Generate `n` operations.
    pub fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(mix: OpMix) -> ChurnGen {
        ChurnGen::new(7, KeyDistribution::Uniform, mix)
    }

    #[test]
    fn mix_ratios_are_respected() {
        let ops = mk(OpMix::read_mostly()).take(20_000);
        let q = ops.iter().filter(|o| matches!(o, Op::Query(_))).count() as f64;
        let i = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count() as f64;
        let d = ops.iter().filter(|o| matches!(o, Op::Delete(_))).count() as f64;
        let n = ops.len() as f64;
        assert!((q / n - 0.9).abs() < 0.02, "queries {}", q / n);
        assert!((i / n - 0.05).abs() < 0.01);
        assert!((d / n - 0.05).abs() < 0.01);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = mk(OpMix::write_heavy()).take(1000);
        let b = mk(OpMix::write_heavy()).take(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn deletes_mostly_target_inserted_keys() {
        let ops = mk(OpMix::write_heavy()).take(10_000);
        let mut inserted = std::collections::HashSet::new();
        let mut hits = 0usize;
        let mut deletes = 0usize;
        for op in ops {
            match op {
                Op::Insert(k) => {
                    inserted.insert(k);
                }
                Op::Delete(k) => {
                    deletes += 1;
                    if inserted.contains(&k) {
                        hits += 1;
                    }
                }
                Op::Query(_) => {}
            }
        }
        assert!(deletes > 0);
        assert!(hits as f64 / deletes as f64 > 0.8, "deletes should mostly hit: {hits}/{deletes}");
    }

    #[test]
    fn op_key_accessor() {
        assert_eq!(Op::Query(7).key(), 7);
        assert_eq!(Op::Insert(8).key(), 8);
        assert_eq!(Op::Delete(9).key(), 9);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_mix_rejected() {
        let _ = mk(OpMix { query: 0.0, insert: 0.0, delete: 0.0 });
    }
}
