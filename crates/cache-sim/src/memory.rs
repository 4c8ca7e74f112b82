//! The [`MemoryModel`] trait and its implementations.
//!
//! Index structures (in `dini-index`) and method drivers (in `dini-core`)
//! never touch caches directly; they describe *what* they access and the
//! memory model decides what it costs. Three implementations:
//!
//! * [`SimMemory`] — the real substrate: walks the simulated hierarchy,
//!   bills Table 2 penalties for random accesses and W1 bandwidth for
//!   streams, and (optionally) TLB walks.
//! * [`NullMemory`] — free accesses; used when the same index code runs
//!   natively on the thread-backed cluster.
//! * [`CountingMemory`] — records every access; used by tests to assert
//!   access patterns (e.g. "binary search touches ⌈log2 n⌉ probes").

use crate::hierarchy::{CacheHierarchy, HitLevel};
use crate::params::MachineParams;
use crate::stats::AccessStats;
use crate::tlb::Tlb;

/// What kind of access is being performed; decides how it is billed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Dependent (random) read: billed per cache-level outcome.
    Read,
    /// Dependent (random) write with write-allocate: billed like a read.
    Write,
    /// Sequential read: billed at W1, still occupies cache lines.
    StreamRead,
    /// Sequential write: billed at W1, still occupies cache lines
    /// (write-allocate; the paper notes such writes are non-blocking).
    StreamWrite,
    /// Zero-cost line installation: models an overlapped message receive
    /// polluting the cache while the CPU does other work. The CPU time was
    /// already billed elsewhere (per-message overhead); only the eviction
    /// side-effect matters here.
    Pollute,
}

impl AccessKind {
    /// Whether the access is billed via the streaming-bandwidth path.
    pub fn is_stream(self) -> bool {
        matches!(self, AccessKind::StreamRead | AccessKind::StreamWrite)
    }
}

/// Cost-charging memory abstraction. Returns simulated nanoseconds.
pub trait MemoryModel {
    /// Touch `len` bytes starting at `addr` with the given kind; returns
    /// the simulated cost in nanoseconds.
    fn touch(&mut self, addr: u64, len: u32, kind: AccessKind) -> f64;

    /// Charge pure computation (comparisons etc.); returns `ns` so call
    /// sites can stay expression-oriented.
    fn compute(&mut self, ns: f64) -> f64 {
        ns
    }

    /// True when the model actually bills time (lets hot native paths skip
    /// instrumentation branches entirely).
    fn is_instrumented(&self) -> bool {
        true
    }
}

/// Free memory: used for native (wall-clock) execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMemory;

impl MemoryModel for NullMemory {
    #[inline(always)]
    fn touch(&mut self, _addr: u64, _len: u32, _kind: AccessKind) -> f64 {
        0.0
    }

    #[inline(always)]
    fn compute(&mut self, _ns: f64) -> f64 {
        0.0
    }

    #[inline(always)]
    fn is_instrumented(&self) -> bool {
        false
    }
}

/// Records accesses for tests.
#[derive(Debug, Clone, Default)]
pub struct CountingMemory {
    /// Every `(addr, len, kind)` touch in order.
    pub accesses: Vec<(u64, u32, AccessKind)>,
}

impl MemoryModel for CountingMemory {
    fn touch(&mut self, addr: u64, len: u32, kind: AccessKind) -> f64 {
        self.accesses.push((addr, len, kind));
        0.0
    }
}

impl CountingMemory {
    /// Number of non-streaming touches recorded.
    pub fn random_touches(&self) -> usize {
        self.accesses.iter().filter(|(_, _, k)| !k.is_stream() && *k != AccessKind::Pollute).count()
    }

    /// Distinct lines of `line_bytes` touched by random accesses.
    pub fn distinct_lines(&self, line_bytes: u64) -> usize {
        let mut lines: Vec<u64> = self
            .accesses
            .iter()
            .filter(|(_, _, k)| !k.is_stream())
            .map(|(a, _, _)| a / line_bytes)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }
}

/// The simulated memory: hierarchy + Table 2 cost model (+ optional TLB,
/// default-off so the baseline stays the paper's model). Write-backs of
/// dirty lines are counted, never billed: the paper's model ignores
/// write traffic.
#[derive(Debug, Clone)]
pub struct SimMemory {
    params: MachineParams,
    hierarchy: CacheHierarchy,
    tlb: Option<Tlb>,
    stats: AccessStats,
}

impl SimMemory {
    /// Build from machine parameters, TLB disabled (the paper's model).
    pub fn new(params: MachineParams) -> Self {
        params.validate();
        let hierarchy = CacheHierarchy::new(params.l1, params.l2);
        Self { params, hierarchy, tlb: None, stats: AccessStats::default() }
    }

    /// Enable TLB modelling (ablation).
    pub fn with_tlb(mut self) -> Self {
        self.tlb = Some(Tlb::new(self.params.tlb_entries, self.params.page_bytes));
        self
    }

    /// The machine parameters in force.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Reset statistics, keeping cache contents (steady-state measurement).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }

    /// Flush caches and TLB (cold start).
    pub fn flush(&mut self) {
        self.hierarchy.flush();
        if let Some(t) = &mut self.tlb {
            t.flush();
        }
    }

    /// Inspect the hierarchy (tests/ablations).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Charge one random access at `addr` and return its cost.
    fn random_access(&mut self, addr: u64, write: bool) -> f64 {
        let mut ns = 0.0;
        // TLB works on virtual addresses; caches are physically indexed.
        if let Some(t) = &mut self.tlb {
            if !t.access(addr) {
                self.stats.tlb_misses += 1;
                ns += self.params.tlb_miss_ns;
            }
        }
        let level =
            if write { self.hierarchy.access_write(addr) } else { self.hierarchy.access(addr) };
        match level {
            HitLevel::L1 => {
                self.stats.l1.hits += 1;
                ns += self.params.l1_hit_ns;
            }
            HitLevel::L2 => {
                self.stats.l1.misses += 1;
                self.stats.l2.hits += 1;
                ns += self.params.b1_miss_penalty_ns;
            }
            HitLevel::Memory => {
                self.stats.l1.misses += 1;
                self.stats.l2.misses += 1;
                self.stats.memory_accesses += 1;
                ns += self.params.b2_miss_penalty_ns;
            }
        }
        ns
    }

    /// Iterate the line-aligned addresses covered by `[addr, addr+len)`
    /// at L2-line granularity.
    fn lines_covered(&self, addr: u64, len: u32) -> impl Iterator<Item = u64> {
        let line = self.params.l2.line_bytes;
        let first = addr / line;
        let last = (addr + len.max(1) as u64 - 1) / line;
        (first..=last).map(move |l| l * line)
    }
}

impl MemoryModel for SimMemory {
    fn touch(&mut self, addr: u64, len: u32, kind: AccessKind) -> f64 {
        let writebacks = self.hierarchy.writebacks();
        let ns = match kind {
            AccessKind::Read | AccessKind::Write => {
                let mut ns = 0.0;
                // A random access spanning multiple lines pays per line
                // (rare: only for unaligned multi-word records).
                let lines: Vec<u64> = self.lines_covered(addr, len).collect();
                let write = kind == AccessKind::Write;
                for base in lines {
                    ns += self.random_access(base, write);
                }
                ns
            }
            AccessKind::StreamRead | AccessKind::StreamWrite => {
                // Billed at W1; lines still occupy cache (pollution), and
                // the TLB still sees the pages.
                let lines: Vec<u64> = self.lines_covered(addr, len).collect();
                let mut ns = len as f64 / self.params.mem_bw_seq;
                let write = kind == AccessKind::StreamWrite;
                for base in lines {
                    if let Some(t) = &mut self.tlb {
                        if !t.access(base) {
                            self.stats.tlb_misses += 1;
                            ns += self.params.tlb_miss_ns;
                        }
                    }
                    self.hierarchy.install(base);
                    if write {
                        self.hierarchy.mark_dirty_llc(base);
                    }
                }
                self.stats.streamed_bytes += len as u64;
                ns
            }
            AccessKind::Pollute => {
                let lines: Vec<u64> = self.lines_covered(addr, len).collect();
                for base in lines {
                    self.hierarchy.install(base);
                    self.stats.polluted_lines += 1;
                }
                // Pollution is free, but it can still displace dirty
                // lines, whose write-backs are counted below.
                0.0
            }
        };
        self.stats.writebacks += self.hierarchy.writebacks() - writebacks;
        self.stats.total_ns += ns;
        ns
    }

    fn compute(&mut self, ns: f64) -> f64 {
        self.stats.total_ns += ns;
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;

    fn mem() -> SimMemory {
        SimMemory::new(MachineParams::pentium_iii())
    }

    #[test]
    fn cold_read_costs_b2() {
        let mut m = mem();
        let ns = m.touch(0, 4, AccessKind::Read);
        assert!((ns - 110.0).abs() < 1e-9);
        let ns2 = m.touch(0, 4, AccessKind::Read);
        assert_eq!(ns2, 0.0, "L1 hit is free per the paper's lower-bound model");
    }

    #[test]
    fn l2_hit_costs_b1() {
        let mut m = mem();
        m.touch(0, 4, AccessKind::Read);
        // Evict line 0 from L1 by filling its L1 set (L1: 128 sets × 32 B
        // lines → conflicting addrs are 4096 B apart). 4-way → 4 fills.
        for i in 1..=4u64 {
            m.touch(i * 4096, 4, AccessKind::Read);
        }
        let ns = m.touch(0, 4, AccessKind::Read);
        assert!((ns - 16.25).abs() < 1e-9, "expected B1 penalty, got {ns}");
    }

    #[test]
    fn stream_billed_at_w1() {
        let mut m = mem();
        let bytes = 64 * 1024u32;
        let ns = m.touch(1 << 20, bytes, AccessKind::StreamRead);
        let expected = bytes as f64 / 0.647;
        assert!((ns - expected).abs() / expected < 1e-9);
        assert_eq!(m.stats().streamed_bytes, bytes as u64);
    }

    #[test]
    fn stream_pollutes_cache() {
        let mut m = mem();
        m.touch(0, 4, AccessKind::Read); // line 0 resident
                                         // Stream 512 KB over a distinct region mapping over all L2 sets.
        m.touch(1 << 20, 512 * 1024, AccessKind::StreamRead);
        // Line 0 should have been evicted by the stream.
        let ns = m.touch(0, 4, AccessKind::Read);
        assert!(ns > 0.0, "stream failed to evict resident line");
    }

    #[test]
    fn pollute_is_free_but_evicts() {
        let mut m = mem();
        m.touch(0, 4, AccessKind::Read);
        let ns = m.touch(1 << 20, 512 * 1024, AccessKind::Pollute);
        assert_eq!(ns, 0.0);
        assert!(m.stats().polluted_lines > 0);
        assert!(m.touch(0, 4, AccessKind::Read) > 0.0);
    }

    #[test]
    fn repeated_scan_of_fitting_working_set_hits() {
        let mut m = mem();
        // 8 KB working set walked randomly twice: second pass is all hits.
        let step = 32u64;
        for i in 0..256u64 {
            m.touch(i * step, 4, AccessKind::Read);
        }
        m.reset_stats();
        for i in 0..256u64 {
            m.touch(i * step, 4, AccessKind::Read);
        }
        assert_eq!(m.stats().memory_accesses, 0);
        assert_eq!(m.stats().l1.hits, 256);
    }

    #[test]
    fn tlb_ablation_charges_misses() {
        let mut m = SimMemory::new(MachineParams::pentium_iii()).with_tlb();
        // Touch 128 distinct pages twice; TLB holds 64 → all second-pass
        // accesses still miss the TLB (LRU thrash) but hit the cache.
        for _ in 0..2 {
            for p in 0..128u64 {
                m.touch(p * 4096, 4, AccessKind::Read);
            }
        }
        assert_eq!(m.stats().tlb_misses, 256);
    }

    #[test]
    fn writebacks_are_counted_but_free() {
        let mut m = mem();
        m.touch(0, 4, AccessKind::Write);
        let mut cost = 0.0;
        for i in 1..=8u64 {
            cost += m.touch(i * 65536, 4, AccessKind::Read);
        }
        assert_eq!(m.stats().writebacks, 1);
        assert!((cost - 8.0 * 110.0).abs() < 1e-6, "a write-back was billed: {cost}");
    }

    #[test]
    fn counting_memory_records() {
        let mut m = CountingMemory::default();
        m.touch(0, 4, AccessKind::Read);
        m.touch(100, 4, AccessKind::StreamWrite);
        assert_eq!(m.accesses.len(), 2);
        assert_eq!(m.random_touches(), 1);
    }

    #[test]
    fn null_memory_is_free_and_uninstrumented() {
        let mut m = NullMemory;
        assert_eq!(m.touch(0, 4, AccessKind::Read), 0.0);
        assert!(!m.is_instrumented());
    }
}
