//! Access statistics collected by [`crate::memory::SimMemory`].

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses satisfied at this level.
    pub hits: u64,
    /// Accesses that had to go further down.
    pub misses: u64,
}

impl LevelStats {
    /// Hit ratio in [0, 1]; 0 if no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Aggregate statistics for a [`crate::memory::SimMemory`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessStats {
    /// L1 outcomes for random (non-streaming) accesses.
    pub l1: LevelStats,
    /// L2 outcomes for random accesses that missed L1.
    pub l2: LevelStats,
    /// Random accesses that went all the way to memory.
    pub memory_accesses: u64,
    /// Dirty lines written back to memory (counted, never billed: the
    /// paper's model ignores write traffic).
    pub writebacks: u64,
    /// Bytes moved by streaming reads/writes (billed at W1).
    pub streamed_bytes: u64,
    /// Lines installed by zero-cost pollution (overlapped receives).
    pub polluted_lines: u64,
    /// TLB misses (0 unless TLB modelling is enabled).
    pub tlb_misses: u64,
    /// Total simulated nanoseconds charged.
    pub total_ns: f64,
}

impl AccessStats {
    /// Total random accesses observed.
    pub fn random_accesses(&self) -> u64 {
        self.l1.hits + self.l1.misses
    }

    /// Merge another stats block into this one (for aggregating nodes).
    pub fn merge(&mut self, other: &AccessStats) {
        self.l1.hits += other.l1.hits;
        self.l1.misses += other.l1.misses;
        self.l2.hits += other.l2.hits;
        self.l2.misses += other.l2.misses;
        self.memory_accesses += other.memory_accesses;
        self.writebacks += other.writebacks;
        self.streamed_bytes += other.streamed_bytes;
        self.polluted_lines += other.polluted_lines;
        self.tlb_misses += other.tlb_misses;
        self.total_ns += other.total_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_edge_cases() {
        let empty = LevelStats::default();
        assert_eq!(empty.hit_ratio(), 0.0);
        let s = LevelStats { hits: 3, misses: 1 };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = AccessStats { memory_accesses: 1, total_ns: 2.0, ..Default::default() };
        let b = AccessStats { memory_accesses: 2, total_ns: 3.0, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.memory_accesses, 3);
        assert!((a.total_ns - 5.0).abs() < 1e-12);
    }
}
