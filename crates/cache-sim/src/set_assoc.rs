//! A single set-associative LRU cache.
//!
//! Addresses are virtual byte addresses (from [`crate::addr::AddressSpace`]).
//! The cache tracks *line* addresses (`addr / line_bytes`). Lookups and
//! fills are O(associativity); the whole structure is deterministic.

use crate::params::CacheConfig;

/// One way of one set.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// Line address (`byte_addr >> line_shift`), or `u64::MAX` when empty.
    line: u64,
    /// LRU metadata: tick of the last touch or fill.
    stamp: u64,
    /// Written since fill (write-back accounting).
    dirty: bool,
}

const EMPTY: u64 = u64::MAX;

/// A set-associative cache.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    ways: Vec<Way>,
    n_sets: u64,
    line_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let n_sets = cfg.n_sets();
        Self {
            ways: vec![
                Way { line: EMPTY, stamp: 0, dirty: false };
                (n_sets * cfg.assoc as u64) as usize
            ],
            n_sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            writebacks: 0,
            cfg,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line address for a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line: u64) -> u64 {
        line & (self.n_sets - 1)
    }

    #[inline]
    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let a = (set * self.cfg.assoc as u64) as usize;
        a..a + self.cfg.assoc as usize
    }

    /// Access a byte address. Returns `true` on hit. On a miss the line is
    /// *not* filled — call [`SetAssocCache::fill`] (hierarchies decide fill
    /// order). Hits update replacement state.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let range = self.set_range(set);
        for i in range {
            if self.ways[i].line == line {
                self.ways[i].stamp = self.tick;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Whether the line holding `addr` is resident (no state update).
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        self.set_range(set).any(|i| self.ways[i].line == line)
    }

    /// Fill the line holding `addr`; returns the evicted line address if a
    /// valid line was displaced. Filling a line that is already resident
    /// just refreshes its replacement state.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.fill_tracked(addr).map(|(line, _dirty)| line)
    }

    /// Like [`SetAssocCache::fill`] but also reports whether the evicted
    /// line was dirty (needed a write-back).
    pub fn fill_tracked(&mut self, addr: u64) -> Option<(u64, bool)> {
        self.tick += 1;
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let range = self.set_range(set);

        // Already resident?
        for i in range.clone() {
            if self.ways[i].line == line {
                self.ways[i].stamp = self.tick;
                return None;
            }
        }
        // Empty way?
        for i in range.clone() {
            if self.ways[i].line == EMPTY {
                self.ways[i] = Way { line, stamp: self.tick, dirty: false };
                return None;
            }
        }
        // Evict the least recently used way.
        let victim = range.min_by_key(|&i| self.ways[i].stamp).expect("assoc >= 1");
        let evicted = self.ways[victim].line;
        let was_dirty = self.ways[victim].dirty;
        self.ways[victim] = Way { line, stamp: self.tick, dirty: false };
        self.evictions += 1;
        if was_dirty {
            self.writebacks += 1;
        }
        Some((evicted, was_dirty))
    }

    /// Mark the line holding `addr` dirty (write-back accounting); returns
    /// whether the line was resident.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        for i in self.set_range(set) {
            if self.ways[i].line == line {
                self.ways[i].dirty = true;
                return true;
            }
        }
        false
    }

    /// Dirty lines evicted so far (each one is a write-back to the next
    /// level / memory).
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Remove the line holding `addr` if resident; returns whether it was.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        for i in self.set_range(set) {
            if self.ways[i].line == line {
                self.ways[i].line = EMPTY;
                return true;
            }
        }
        false
    }

    /// Empty the cache (cold restart), keeping statistics.
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            w.line = EMPTY;
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.line != EMPTY).count()
    }

    /// Number of resident lines whose byte address falls in `[lo, hi)`.
    pub fn occupancy_in_range(&self, lo: u64, hi: u64) -> usize {
        let lo_line = lo >> self.line_shift;
        let hi_line = (hi + self.cfg.line_bytes - 1) >> self.line_shift;
        self.ways
            .iter()
            .filter(|w| w.line != EMPTY && w.line >= lo_line && w.line < hi_line)
            .count()
    }

    /// (hits, misses, evictions) counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Reset hit/miss/eviction counters (contents untouched).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CacheConfig;

    fn tiny() -> SetAssocCache {
        // 4 lines of 32 B, 2-way → 2 sets.
        SetAssocCache::new(CacheConfig::new(128, 32, 2))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert_eq!(c.fill(0), None);
        assert!(c.access(0));
        assert!(c.access(31)); // same line
        assert!(!c.access(32)); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines 0, 2, 4, … (2 sets × 32 B lines).
        c.fill(0); // line 0 → set 0
        c.fill(64); // line 2 → set 0
        assert!(c.access(0)); // make line 0 most recent
        let evicted = c.fill(128); // line 4 → set 0, must evict line 2
        assert_eq!(evicted, Some(2));
        assert!(c.contains(0));
        assert!(!c.contains(64));
    }

    #[test]
    fn occupancy_tracks_fills() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        c.fill(0);
        c.fill(32);
        c.fill(32); // refill same line: no change
        assert_eq!(c.occupancy(), 2);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn occupancy_in_range_counts_lines() {
        let mut c = tiny();
        c.fill(0);
        c.fill(32);
        c.fill(96);
        assert_eq!(c.occupancy_in_range(0, 64), 2);
        assert_eq!(c.occupancy_in_range(64, 128), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0);
        assert!(c.invalidate(5)); // same line as addr 0
        assert!(!c.contains(0));
        assert!(!c.invalidate(0));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.fill(0);
        assert!(c.mark_dirty(0));
        c.fill(64); // set 0 now full (2-way)
        let evicted = c.fill_tracked(128); // evicts line 0 (LRU), dirty
        assert_eq!(evicted, Some((0, true)));
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_is_not_a_writeback() {
        let mut c = tiny();
        c.fill(0);
        c.fill(64);
        let evicted = c.fill_tracked(128);
        assert_eq!(evicted, Some((0, false)));
        assert_eq!(c.writebacks(), 0);
    }

    #[test]
    fn mark_dirty_misses_nonresident() {
        let mut c = tiny();
        assert!(!c.mark_dirty(0));
    }

    #[test]
    fn refill_clears_nothing_but_keeps_dirty() {
        // Refilling a resident dirty line must not lose the dirty bit
        // (the write still has to reach memory eventually).
        let mut c = tiny();
        c.fill(0);
        c.mark_dirty(0);
        c.fill(0); // refresh
        c.fill(64);
        let evicted = c.fill_tracked(128);
        assert_eq!(evicted, Some((0, true)));
    }

    #[test]
    fn counters_accumulate() {
        let mut c = tiny();
        c.access(0);
        c.fill(0);
        c.access(0);
        let (h, m, e) = c.counters();
        assert_eq!((h, m, e), (1, 1, 0));
        c.reset_counters();
        assert_eq!(c.counters(), (0, 0, 0));
    }
}
