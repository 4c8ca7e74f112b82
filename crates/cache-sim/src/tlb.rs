//! A fully-associative LRU TLB model.
//!
//! The paper *excludes* TLB misses from its model and notes the consequence:
//! "Method A and method B are significantly affected by TLB misses … In
//! contrast, method C generates few TLB misses". Modelling the TLB
//! quantifies that remark (the `paper` binary's `table3` "TLB on" rows):
//! with 64 entries × 4 KB pages, only 256 KB of the 3.2 MB
//! replicated tree is mapped at once, so Methods A/B pay TLB walks that
//! Method C's ≤ 320 KB contiguous partition does not.

/// Fully-associative, LRU translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, u64)>, // (page number, last-use tick)
    capacity: usize,
    page_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// A TLB with `entries` slots over pages of `page_bytes`.
    pub fn new(entries: u32, page_bytes: u64) -> Self {
        assert!(page_bytes.is_power_of_two());
        assert!(entries >= 1);
        Self {
            entries: Vec::with_capacity(entries as usize),
            capacity: entries as usize,
            page_shift: page_bytes.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Touch the page containing `addr`; returns `true` on TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let page = addr >> self.page_shift;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
            e.1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.capacity {
            self.entries.push((page, self.tick));
        } else {
            // Replace LRU entry.
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("capacity >= 1");
            self.entries[lru] = (page, self.tick);
        }
        false
    }

    /// (hits, misses) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drop all translations (context switch / cold start).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.access(0));
        assert!(t.access(100));
        assert!(t.access(4095));
        assert!(!t.access(4096));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 4096);
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // refresh page 0
        t.access(8192); // page 2 evicts page 1
        assert!(t.access(0));
        assert!(!t.access(4096));
    }

    #[test]
    fn working_set_larger_than_tlb_thrashes() {
        let mut t = Tlb::new(4, 4096);
        // Cycle through 8 pages repeatedly: every access after warmup misses.
        for _ in 0..4 {
            for p in 0..8u64 {
                t.access(p * 4096);
            }
        }
        let (h, m) = t.counters();
        assert_eq!(h, 0);
        assert_eq!(m, 32);
    }
}
