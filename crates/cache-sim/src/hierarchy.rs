//! An inclusive L1/L2 cache hierarchy.
//!
//! On the Pentium III the L2 is inclusive of L1; we model that: a fill
//! inserts into both levels, and an L2 eviction back-invalidates L1. The
//! hierarchy reports *where* an access hit, which the cost model
//! translates into Table 2 penalties (L1 hit ≈ free, L2 hit = B1 miss
//! penalty, memory = B2 miss penalty).
//!
//! Write-back accounting: [`CacheHierarchy::access_write`] marks L2 lines
//! dirty; dirty evictions are counted as [`CacheHierarchy::writebacks`] so
//! a cost model can report the memory-bus traffic real write-back caches
//! generate.

use crate::params::CacheConfig;
use crate::set_assoc::SetAssocCache;

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Satisfied by the L1 data cache.
    L1,
    /// Missed L1, hit L2 (costs one B1 fill).
    L2,
    /// Missed both levels (costs one B2 fill; the dominant term in the
    /// paper).
    Memory,
}

/// Inclusive L1/L2 hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
}

impl CacheHierarchy {
    /// Build an empty two-level hierarchy from per-level geometry.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert!(l1.line_bytes <= l2.line_bytes, "L1 line must not exceed L2 line");
        Self { l1: SetAssocCache::new(l1), l2: SetAssocCache::new(l2) }
    }

    /// Access one byte address (the caller splits multi-line accesses).
    /// Fills on miss, maintaining inclusivity.
    pub fn access(&mut self, addr: u64) -> HitLevel {
        if self.l1.access(addr) {
            return HitLevel::L1;
        }
        if self.l2.access(addr) {
            // L1 fill from L2; an L1 eviction needs no L2 action
            // (inclusive: the line is still in L2).
            self.l1.fill(addr);
            return HitLevel::L2;
        }
        // Miss everywhere: fill both levels outer-in.
        self.fill_l2(addr);
        self.l1.fill(addr);
        HitLevel::Memory
    }

    /// Access for a write: like [`CacheHierarchy::access`], then mark the
    /// L2 line dirty so its eventual eviction counts as a write-back.
    pub fn access_write(&mut self, addr: u64) -> HitLevel {
        let level = self.access(addr);
        self.mark_dirty_llc(addr);
        level
    }

    /// Insert a line into both levels without charging an access
    /// (used to model DMA/overlapped-receive cache pollution).
    pub fn install(&mut self, addr: u64) {
        if !self.l2.contains(addr) {
            self.fill_l2(addr);
        }
        self.l1.fill(addr);
    }

    /// Mark the L2 line holding `addr` dirty (DMA writes, stream writes).
    /// No-op when not resident.
    pub fn mark_dirty_llc(&mut self, addr: u64) {
        self.l2.mark_dirty(addr);
    }

    /// Dirty lines evicted from L2 so far (each is one line of write
    /// traffic to memory).
    pub fn writebacks(&self) -> u64 {
        self.l2.writebacks()
    }

    /// L2 fill with back-invalidation of L1.
    fn fill_l2(&mut self, addr: u64) {
        if let Some(evicted_l2_line) = self.l2.fill(addr) {
            let line_bytes = self.l2.config().line_bytes;
            let byte_addr = evicted_l2_line * line_bytes;
            let step = self.l1.config().line_bytes;
            let mut a = byte_addr;
            while a < byte_addr + line_bytes {
                self.l1.invalidate(a);
                a += step;
            }
        }
    }

    /// Whether `addr` is resident in L2 (and hence, inclusively, possibly L1).
    pub fn resident_l2(&self, addr: u64) -> bool {
        self.l2.contains(addr)
    }

    /// Whether `addr` is resident in L1.
    pub fn resident_l1(&self, addr: u64) -> bool {
        self.l1.contains(addr)
    }

    /// Empty both levels (cold start).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }

    /// The L1 cache (for inspection in tests).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// The L2 cache (for inspection in tests).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CacheConfig;

    fn small() -> CacheHierarchy {
        // L1: 4 lines (2 sets × 2-way), L2: 16 lines (4 sets × 4-way), 32 B lines.
        CacheHierarchy::new(CacheConfig::new(128, 32, 2), CacheConfig::new(512, 32, 4))
    }

    #[test]
    fn first_access_misses_then_l1_hits() {
        let mut h = small();
        assert_eq!(h.access(0), HitLevel::Memory);
        assert_eq!(h.access(0), HitLevel::L1);
        assert_eq!(h.access(4), HitLevel::L1); // same line
    }

    #[test]
    fn l1_eviction_leaves_l2_hit() {
        let mut h = small();
        // L1 set 0 holds lines {0, 2, 4, ...}; fill three conflicting lines.
        h.access(0); // line 0
        h.access(64); // line 2
        h.access(128); // line 4 → evicts line 0 from L1
        assert!(!h.resident_l1(0));
        assert!(h.resident_l2(0));
        assert_eq!(h.access(0), HitLevel::L2);
    }

    #[test]
    fn inclusive_back_invalidation() {
        let mut h = small();
        // L2 set 0 holds lines ≡ 0 (mod 4): addrs 0,128,256,384,512…
        for a in [0u64, 128, 256, 384] {
            h.access(a);
        }
        assert!(h.resident_l1(384) || h.resident_l2(384));
        // Fifth conflicting line evicts LRU line 0 from L2 → must leave L1 too.
        h.access(512);
        assert!(!h.resident_l2(0));
        assert!(!h.resident_l1(0), "inclusivity violated: line in L1 but not L2");
    }

    #[test]
    fn install_pollutes_without_access_counters() {
        let mut h = small();
        h.install(0);
        assert!(h.resident_l2(0));
        assert_eq!(h.access(0), HitLevel::L1);
    }

    #[test]
    fn flush_empties_both() {
        let mut h = small();
        h.access(0);
        h.flush();
        assert_eq!(h.access(0), HitLevel::Memory);
    }

    // ------------------------------------------------------------------
    // Write-backs
    // ------------------------------------------------------------------

    #[test]
    fn dirty_llc_eviction_counts_writeback() {
        let mut h = small();
        // L2 set 0: lines ≡ 0 (mod 4).
        h.access_write(0);
        for a in [128u64, 256, 384, 512] {
            h.access(a);
        }
        assert!(!h.resident_l2(0));
        assert_eq!(h.writebacks(), 1);
    }

    #[test]
    fn clean_traffic_generates_no_writebacks() {
        let mut h = small();
        for a in (0..4096u64).step_by(32) {
            h.access(a);
        }
        assert_eq!(h.writebacks(), 0);
    }
}
