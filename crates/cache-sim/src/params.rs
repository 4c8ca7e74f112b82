//! Machine parameters: the paper's Table 2 plus presets.
//!
//! All latencies are `f64` nanoseconds; bandwidths are bytes per nanosecond
//! (numerically GB/s). The Pentium III preset reproduces Table 2 of the
//! paper verbatim; the Pentium 4 preset follows the parameters the paper
//! quotes in passing (128-byte L2 lines, ~150 ns L2 miss penalty).

/// Convert a bandwidth expressed in MB/s (as the paper does) into bytes/ns.
#[inline]
pub fn mb_per_s(mb: f64) -> f64 {
    // 1 MB/s = 1e6 bytes / 1e9 ns = 1e-3 bytes/ns.
    mb * 1e-3
}

/// Convert a bandwidth expressed in Gb/s (network convention) into bytes/ns.
#[inline]
pub fn gbit_per_s(gb: f64) -> f64 {
    gb * 1e9 / 8.0 / 1e9
}

/// Geometry of one cache level. Replacement is always LRU, the paper's
/// assumption ("to the extent that a cache eviction algorithm approximates
/// an LRU algorithm…").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes. Must be a power of two.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
}

impl CacheConfig {
    /// A new cache configuration.
    pub fn new(size_bytes: u64, line_bytes: u64, assoc: u32) -> Self {
        Self { size_bytes, line_bytes, assoc }
    }

    /// Number of sets implied by the geometry.
    pub fn n_sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        lines / self.assoc as u64
    }

    /// Total number of lines the cache can hold.
    pub fn n_lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// Panics if the geometry is not internally consistent.
    pub fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.assoc >= 1, "associativity must be >= 1");
        assert_eq!(
            self.size_bytes % (self.line_bytes * self.assoc as u64),
            0,
            "size must be a multiple of line_bytes * assoc"
        );
        assert!(self.n_sets().is_power_of_two(), "number of sets must be a power of two");
    }
}

/// Full machine description: the paper's Table 2 plus cache geometry.
///
/// The fields named `b1_*`/`b2_*`/`w1` follow the paper's notation
/// (Table 4): `B1` is the L1 line / L2→L1 fill, `B2` the L2 line /
/// RAM→L2 fill, `W1` the sequential memory bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineParams {
    /// Human-readable name ("Pentium III", …).
    pub name: String,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 unified cache geometry.
    pub l2: CacheConfig,
    /// Cost of filling an L1 line from L2 ("B1 Miss Penalty", 16.25 ns).
    pub b1_miss_penalty_ns: f64,
    /// Cost of filling an L2 line from RAM ("B2 Miss Penalty", 110 ns).
    pub b2_miss_penalty_ns: f64,
    /// Cost of an access that hits in L1 (the paper neglects this; 0 by
    /// default so the model stays a lower bound, as the paper notes).
    pub l1_hit_ns: f64,
    /// Cost to search within one tree node whose size equals a cache line
    /// ("Comp Cost Node", 30 ns on the Pentium III).
    pub comp_cost_node_ns: f64,
    /// Cost of a single key comparison (used by binary search; derived as
    /// `comp_cost_node_ns / keys_per_node` unless overridden).
    pub cmp_cost_ns: f64,
    /// Sequential memory bandwidth W1 in bytes/ns (647 MB/s measured).
    pub mem_bw_seq: f64,
    /// Random-access memory bandwidth in bytes/ns (48 MB/s measured);
    /// retained for reporting — the simulator derives random cost from
    /// miss penalties instead.
    pub mem_bw_rand: f64,
    /// Number of TLB entries (64 on the Pentium III).
    pub tlb_entries: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Cost of a TLB miss if TLB modelling is enabled.
    pub tlb_miss_ns: f64,
    /// Machine word in bytes (4 on the Pentium III; keys are one word).
    pub word_bytes: u32,
}

impl MachineParams {
    /// The paper's experimental platform: 1.3 GHz Pentium III,
    /// 16 KB L1 / 512 KB L2, 32-byte lines, DDR-266 RAM (Table 2).
    pub fn pentium_iii() -> Self {
        let l1 = CacheConfig::new(16 * 1024, 32, 4);
        let l2 = CacheConfig::new(512 * 1024, 32, 8);
        Self {
            name: "Pentium III (paper Table 2)".to_owned(),
            l1,
            l2,
            b1_miss_penalty_ns: 16.25,
            b2_miss_penalty_ns: 110.0,
            l1_hit_ns: 0.0,
            comp_cost_node_ns: 30.0,
            // 32-byte node holds 7 keys + first-child pointer.
            cmp_cost_ns: 30.0 / 7.0,
            mem_bw_seq: mb_per_s(647.0),
            mem_bw_rand: mb_per_s(48.0),
            tlb_entries: 64,
            page_bytes: 4096,
            tlb_miss_ns: 100.0,
            word_bytes: 4,
        }
    }

    /// The Pentium 4 the paper cites for its future-facing remarks:
    /// 128-byte L2 lines and a ~150 ns L2 miss penalty.
    pub fn pentium_4() -> Self {
        let l1 = CacheConfig::new(16 * 1024, 64, 8);
        let l2 = CacheConfig::new(512 * 1024, 128, 8);
        Self {
            name: "Pentium 4".to_owned(),
            l1,
            l2,
            b1_miss_penalty_ns: 9.0,
            b2_miss_penalty_ns: 150.0,
            l1_hit_ns: 0.0,
            comp_cost_node_ns: 18.0,
            cmp_cost_ns: 18.0 / 31.0,
            mem_bw_seq: mb_per_s(2100.0),
            mem_bw_rand: mb_per_s(2100.0 / 32.0),
            tlb_entries: 64,
            page_bytes: 4096,
            tlb_miss_ns: 100.0,
            word_bytes: 4,
        }
    }

    /// Number of keys that fit in one L2 line alongside a first-child
    /// pointer (the paper's `n`: node size == L2 line size).
    pub fn keys_per_node(&self) -> u32 {
        (self.l2.line_bytes as u32 / self.word_bytes) - 1
    }

    /// Tree fan-out implied by the node geometry (`keys_per_node + 1`).
    pub fn fanout(&self) -> u32 {
        self.keys_per_node() + 1
    }

    /// Leaf entries per line: leaves store `(key, record-id)` pairs, so a
    /// 32-byte line holds 4 — the density that makes the paper's 327 k-key
    /// tree 3.2 MB (Table 1).
    pub fn leaf_entries_per_line(&self) -> u32 {
        (self.l2.line_bytes as u32 / self.word_bytes / 2).max(1)
    }

    /// Validate cache geometries.
    pub fn validate(&self) {
        self.l1.validate();
        self.l2.validate();
        assert!(self.l1.line_bytes <= self.l2.line_bytes);
        assert!(self.mem_bw_seq > 0.0 && self.b2_miss_penalty_ns > 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p3_geometry_matches_table_2() {
        let p = MachineParams::pentium_iii();
        p.validate();
        assert_eq!(p.l1.size_bytes, 16 * 1024);
        assert_eq!(p.l2.size_bytes, 512 * 1024);
        assert_eq!(p.l1.line_bytes, 32);
        assert_eq!(p.l2.line_bytes, 32);
        assert_eq!(p.tlb_entries, 64);
        assert!((p.b2_miss_penalty_ns - 110.0).abs() < 1e-9);
        assert!((p.b1_miss_penalty_ns - 16.25).abs() < 1e-9);
        assert!((p.comp_cost_node_ns - 30.0).abs() < 1e-9);
    }

    #[test]
    fn p3_node_is_8_ary() {
        // 32-byte node = 7 four-byte keys + 1 first-child pointer → 8-ary,
        // which yields the paper's T = 7 levels for 327k keys.
        let p = MachineParams::pentium_iii();
        assert_eq!(p.keys_per_node(), 7);
        assert_eq!(p.fanout(), 8);
    }

    #[test]
    fn bandwidth_conversions() {
        assert!((mb_per_s(647.0) - 0.647).abs() < 1e-12);
        // 1.1 Gb/s = 137.5 MB/s ≈ the paper's measured 138 MB/s.
        assert!((gbit_per_s(1.1) - 0.1375).abs() < 1e-12);
    }

    #[test]
    fn sets_are_power_of_two() {
        let p = MachineParams::pentium_iii();
        assert_eq!(p.l1.n_sets(), 128);
        assert_eq!(p.l2.n_sets(), 2048);
        assert_eq!(p.l2.n_lines(), 16384); // the paper's C2/B2
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig::new(1024, 48, 2).validate();
    }
}
