//! Query-trace descriptions for record/replay.
//!
//! Experiments record (seed, distribution, counts) rather than raw keys,
//! so traces stay small; `materialize` regenerates the identical key
//! stream on demand.

use crate::dist::KeyDistribution;
use crate::keys::{gen_search_keys, gen_sorted_unique_keys, KeyGen};

/// A reproducible description of one experiment's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Number of keys in the index (the paper: 327,680).
    pub index_keys: usize,
    /// Number of search keys (the paper: 2^23).
    pub search_keys: usize,
    /// RNG seed for the index contents.
    pub index_seed: u64,
    /// RNG seed for the search keys.
    pub search_seed: u64,
    /// Distribution of the search keys.
    pub dist: KeyDistribution,
}

impl QueryTrace {
    /// The paper's Section 4 workload: 327 k index keys, 2^23 uniform
    /// search keys.
    pub fn paper(search_keys: usize) -> Self {
        Self {
            index_keys: 327_680,
            search_keys,
            index_seed: 0xD1A1,
            search_seed: 0x05_EAC4,
            dist: KeyDistribution::Uniform,
        }
    }

    /// A scaled-down trace for tests.
    pub fn small() -> Self {
        Self {
            index_keys: 4096,
            search_keys: 20_000,
            index_seed: 1,
            search_seed: 2,
            dist: KeyDistribution::Uniform,
        }
    }

    /// Regenerate (index keys, search keys).
    pub fn materialize(&self) -> (Vec<u32>, Vec<u32>) {
        let index = gen_sorted_unique_keys(self.index_keys, self.index_seed);
        let search = match self.dist {
            KeyDistribution::Uniform => gen_search_keys(self.search_keys, self.search_seed),
            d => KeyGen::new(self.search_seed, d).take(self.search_keys),
        };
        (index, search)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialize_is_reproducible() {
        let t = QueryTrace::small();
        assert_eq!(t.materialize(), t.materialize());
    }

    #[test]
    fn clone_preserves_identity() {
        let t = QueryTrace::paper(1 << 10);
        let u = t.clone();
        assert_eq!(t, u);
        assert_eq!(t.materialize().0, u.materialize().0);
    }

    #[test]
    fn paper_trace_has_expected_sizes() {
        let t = QueryTrace::paper(1 << 23);
        assert_eq!(t.index_keys, 327_680);
        assert_eq!(t.search_keys, 1 << 23);
    }
}
